from itertools import combinations

import pytest

from geoq.cosets import (FiniteGroup, Subgroup, coset_pregeometry,
                         coseteg_family, is_coset_pregeometry,
                         product_condition, rank2_connectivity,
                         rank3_ft_condition, set_product)
from geoq.constructions import hexagon
from geoq.geometry import Pregeometry, flags_of_type, is_geometry
from geoq.perms import PermGroup, transitivity


def test_cyclic_and_product():
    z6 = FiniteGroup.cyclic(6)
    assert len(z6) == 6 and z6.is_abelian()
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert len(v4) == 4 and all(v4.mul[x][x] == v4.id for x in range(4))
    s3 = FiniteGroup.symmetric(3)
    assert len(s3) == 6 and not s3.is_abelian()


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup(["e", "a"], [[0, 1], [1, 1]])  # a has no inverse


def test_non_associative_table_rejected_exactly():
    # Z_60 with one product changed keeps its identity and inverses; the
    # associativity check must find the fault however large the table
    z60 = FiniteGroup.cyclic(60)
    FiniteGroup(z60.names, z60.mul)
    mul = [list(row) for row in z60.mul]
    mul[1][8] = 10
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(z60.names, mul)


def test_subgroup_verification():
    z6 = FiniteGroup.cyclic(6)
    Subgroup(z6, {0, 2, 4})
    with pytest.raises(ValueError):
        Subgroup(z6, {0, 2})  # not closed
    with pytest.raises(ValueError):
        Subgroup(z6, {2, 4})  # no identity


def test_subgroup_generated_and_generators():
    s4 = FiniteGroup.symmetric(4)
    whole = s4.subgroup_generated(range(len(s4)))
    assert len(whole) == 24
    gens = s4.generators()
    assert len(s4.subgroup_generated(gens)) == 24
    sub = s4.subgroup_generated([5, 9])
    within = s4.generators(sub.members)
    assert set(within) <= set(sub.members)
    assert s4.subgroup_generated(within).members == sub.members


def test_coset_pregeometry_z2():
    z2 = FiniteGroup.cyclic(2)
    whole = Subgroup(z2, {0, 1}, "G")
    triv = Subgroup(z2, {0}, "E")
    geom, cg = coset_pregeometry(z2, [whole, triv])
    assert tuple(len(v) for v in geom.by_type) == (1, 2)
    assert all(geom.incident(0, k) for k in range(1, 3))


def test_coset_pregeometry_single_chamber():
    z3 = FiniteGroup.cyclic(3)
    whole = Subgroup(z3, {0, 1, 2})
    subs = [whole.named("G%d" % i) for i in range(3)]
    geom, cg = coset_pregeometry(z3, subs)
    assert geom.size == 3
    assert len(flags_of_type(geom, range(3))) == 1


def test_rank2_connectivity_s3():
    s3 = FiniteGroup.symmetric(3)
    # point stabilizers of two different points generate the whole group
    def stab(point):
        members = {i for i in range(6)
                   if _perm_of(s3, i)[point] == point}
        return Subgroup(s3, members)
    assert rank2_connectivity(s3, stab(0), stab(1))
    z2 = FiniteGroup.cyclic(2)
    assert rank2_connectivity(z2, Subgroup(z2, {0, 1}), Subgroup(z2, {0}))


def _perm_of(s_n, index):
    # symmetric-group element names encode the image tuple
    return [int(c) for c in s_n.names[index][1:-1]]


def test_rank3_condition_trivial_g3():
    s3 = FiniteGroup.symmetric(3)
    triv = Subgroup(s3, {s3.id})
    a = s3.subgroup_generated([1])
    b = s3.subgroup_generated([2])
    assert rank3_ft_condition(s3, a, b, triv)


def test_rank3_condition_matches_transitivity():
    # rank-3 coset pregeometries are chamber/flag-transitive exactly when
    # the product condition holds
    import random
    rng = random.Random(5150)
    s4 = FiniteGroup.symmetric(4)
    pool = [s4.subgroup_generated([rng.randrange(24)
                                   for _ in range(rng.randint(0, 2))])
            for _ in range(30)]
    tried = 0
    for g1, g2, g3 in combinations(pool, 3):
        if len(g1) == 24 or len(g2) == 24 or len(g3) == 24:
            continue
        tried += 1
        if tried > 12:
            break
        cond = rank3_ft_condition(s4, g1, g2, g3)
        geom, cg = coset_pregeometry(
            s4, [g1.named("A"), g2.named("B"), g3.named("C")])
        act = cg.action_group()
        assert cond == transitivity(act, geom, "chamber")[0]
        assert cond == transitivity(act, geom, "flag")[0]
    assert tried >= 8


def test_base_flag_is_flag():
    fam = coseteg_family(FiniteGroup.cyclic(2))
    geom = fam.geometry
    base = tuple(sorted(geom.by_type[t][0] for t in range(4)))
    from geoq.geometry import is_flag
    assert is_flag(geom, base)


def test_truncation_of_rank4_family_is_rank3_member():
    from geoq.constructions import isomorphic
    from geoq.geometry import truncation
    fam = coseteg_family(FiniteGroup.cyclic(2))
    sigma, _ = fam.truncation3()
    assert isomorphic(truncation(fam.geometry, [0, 1, 2]), sigma)[0]


def test_flag_transitive_coset_pregeometry_is_geometry():
    for n in (2, 3):
        fam = coseteg_family(FiniteGroup.cyclic(n))
        act = fam.action_group()
        assert transitivity(act, fam.geometry, "flag")[0]
        assert is_geometry(fam.geometry)[0]


def test_coseteg_rejects_bad_base():
    with pytest.raises(ValueError):
        coseteg_family(FiniteGroup.symmetric(3))
    with pytest.raises(ValueError):
        coseteg_family(FiniteGroup.cyclic(1))


def test_is_coset_pregeometry_roundtrip():
    fam = coseteg_family(FiniteGroup.cyclic(2))
    ok, assoc = is_coset_pregeometry(fam.geometry, fam.action_group())
    assert ok
    assert sorted(assoc) == list(range(fam.geometry.size))


def test_is_coset_pregeometry_hexagon_false():
    geom, group = hexagon()
    ok, reason = is_coset_pregeometry(geom, group)
    assert not ok and reason == "no chamber"


def test_is_coset_pregeometry_single_chamber_trivial_group():
    geom = Pregeometry(["A", "B"], ["a", "b"], [0, 1], [(0, 1)])
    ok, _ = is_coset_pregeometry(geom, PermGroup.trivial(2))
    assert ok


def test_set_product():
    z4 = FiniteGroup.cyclic(4)
    two = Subgroup(z4, {0, 2})
    assert set_product(z4, two.members, {1}) == {1, 3}
    assert product_condition(z4, two, [two, two])


def test_every_coset_pregeometry_passes_the_characterisation(rng):
    # chamber + vertex-transitive + incidence-transitive always hold for
    # the right-multiplication action on its own coset pregeometry
    from geoq.lemmas import random_coset_instance
    done = 0
    while done < 15:
        geom, action = random_coset_instance(rng)
        if geom.size > 30 or action.order() > 30:
            continue
        done += 1
        ok, _ = is_coset_pregeometry(geom, action)
        assert ok


def test_action_is_automorphism_group():
    fam = coseteg_family(FiniteGroup.cyclic(2))
    act = fam.action_group()
    from geoq.perms import is_automorphism
    assert all(is_automorphism(fam.geometry, g) for g in act.gens)
    assert act.order() == 8


def _random_subgroups(rng, G, k):
    return [G.subgroup_generated([rng.randrange(len(G))
                                  for _ in range(rng.randint(0, 2))])
            for _ in range(k)]


def test_rank3_condition_agrees_with_intersection_formulation(rng):
    # the equivalent formulation (G1 & G2)(G1 & G3) == G1 & G2G3
    from geoq.lemmas import _small_groups
    seen = set()
    for _ in range(150):
        G = rng.choice(_small_groups())
        g1, g2, g3 = _random_subgroups(rng, G, 3)
        inter12 = set(g1.members) & set(g2.members)
        inter13 = set(g1.members) & set(g3.members)
        oracle = (set_product(G, inter12, inter13)
                  == frozenset(g1.members) & set_product(G, g2.members,
                                                         g3.members))
        got = rank3_ft_condition(G, g1, g2, g3)
        assert got == oracle
        seen.add(got)
    assert seen == {True, False}


def test_rank2_connectivity_agrees_with_coset_graph(rng):
    from geoq.geometry import is_connected
    from geoq.lemmas import _small_groups
    seen = set()
    for _ in range(150):
        G = rng.choice(_small_groups())
        gi, gj = _random_subgroups(rng, G, 2)
        geom, _ = coset_pregeometry(G, [gi.named("A"), gj.named("B")])
        got = rank2_connectivity(G, gi, gj)
        assert got == is_connected(geom)
        seen.add(got)
    assert seen == {True, False}
