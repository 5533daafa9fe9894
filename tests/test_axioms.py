from geoq.axioms import (OrbitQuotient, axioms_report, check_TQ1,
                         check_TQ2doubleprime, check_TQ2prime, check_TQ3)
from geoq.constructions import eight_cycle, hexagon, ssg
from geoq.perms import Perm, PermGroup, orbits_on
from geoq.quotient import residual_surjectivity
from geoq.reproduce import tq1_counterexample


def trivial_oq(geom):
    return OrbitQuotient(geom, PermGroup.trivial(geom.size))


def test_tq3():
    geom, group = hexagon()
    assert not check_TQ3(OrbitQuotient(geom, group))
    g8, grp8 = eight_cycle()
    assert check_TQ3(OrbitQuotient(g8, grp8))
    assert check_TQ3(trivial_oq(ssg(3, 2)))


def test_trivial_group_satisfies_everything():
    oq = trivial_oq(ssg(3, 2))
    assert check_TQ1(oq)[0]
    assert check_TQ2prime(oq)[0]
    assert check_TQ2doubleprime(oq)[0]


def test_counterexample_tq2prime_fails_at_type12_flag():
    geom, group = tq1_counterexample()
    oq = OrbitQuotient(geom, group)
    ok, witness = check_TQ2prime(oq)
    assert not ok
    # the published failing flag {a1, a2} is also a failure point
    flag = (geom.elem("a1"), geom.elem("a2"))
    from geoq.perms import stabilizer
    from geoq.geometry import extensions
    stab = stabilizer(group, flag)
    members = extensions(geom, flag)
    assert len(members) == 2
    assert len({oq.proj.block_of[x] for x in members}) == 1
    assert len(orbits_on(stab.gens, members, Perm.__getitem__)) == 2


def test_witnesses_are_deterministic_and_rank_lex_minimal():
    geom, group = tq1_counterexample()
    oq = OrbitQuotient(geom, group)
    # flags are scanned in (rank, lexicographic) order, so the reported
    # witnesses are reproducible run to run
    assert check_TQ2prime(oq)[1] == ((0, 2), 4, 5)
    assert check_TQ1(oq)[1] == ((0, 2), "orbit map not injective")
    hgeom, hgroup = hexagon()
    hoq = OrbitQuotient(hgeom, hgroup)
    assert check_TQ2doubleprime(hoq)[1] == ((0,), 1, 2)


def test_counterexample_tq1_fails_but_residually_surjective():
    geom, group = tq1_counterexample()
    oq = OrbitQuotient(geom, group)
    assert not check_TQ1(oq)[0]
    assert residual_surjectivity(oq.proj)


def test_covering_orbit_quotient_satisfies_tq1():
    # the eight-cycle quotient by the half-turn is a cover
    geom, group = eight_cycle()
    oq = OrbitQuotient(geom, group)
    from geoq.quotient import is_cover
    assert is_cover(oq.proj)
    assert check_TQ1(oq)[0]
    assert check_TQ2prime(oq)[0]
    assert check_TQ2doubleprime(oq)[0]


def test_hexagon_axiom_values_are_stable():
    geom, group = hexagon()
    oq = OrbitQuotient(geom, group)
    assert check_TQ2prime(oq)[0]
    assert not check_TQ2doubleprime(oq)[0]
    assert not check_TQ1(oq)[0]


def test_axioms_report_keys():
    geom, group = hexagon()
    rep = axioms_report(OrbitQuotient(geom, group))
    assert set(rep) == {"flagslift", "pq1", "pq2", "tq1", "tq2prime",
                        "tq2doubleprime", "tq3", "residually-surjective",
                        "is-cover"}
    assert rep["tq2prime"][0] is True
    assert rep["flagslift"][0] is False


def _tq2prime_by_conjugacy(oq):
    # the equivalent formulation: flags with equal projection are
    # conjugate under the group (one orbit search per projection class)
    from geoq.geometry import all_flags
    classes = {}
    for flag in all_flags(oq.geom):
        key = frozenset(oq.proj.block_of[x] for x in flag)
        classes.setdefault(key, []).append(frozenset(flag))
    for flags in classes.values():
        seen = {flags[0]}
        frontier = [flags[0]]
        while frontier:
            nxt = []
            for f in frontier:
                for g in oq.group.gens:
                    img = frozenset(g[x] for x in f)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        if any(f not in seen for f in flags):
            return False
    return True


def test_tq2prime_agrees_with_conjugacy_formulation(rng):
    from geoq.lemmas import random_orbit_quotient
    seen = {True: 0, False: 0}
    draws = 0
    while draws < 120:
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        draws += 1
        ok = check_TQ2prime(oq)[0]
        assert ok == _tq2prime_by_conjugacy(oq)
        seen[ok] += 1
    assert seen[True] >= 10 and seen[False] >= 10


def _tq2doubleprime_by_sweep(oq):
    # the direct quantifier sweep: for each flag and each incident pair
    # whose end orbits both meet the flag's reflexive residue, look for
    # one element of G bringing both ends into it
    from geoq.geometry import flags_by_rank_lex
    geom = oq.geom
    orbit_of = {x: set(block) for block in oq.partition.blocks
                for x in block}
    elements = sorted(oq.group.elements())
    for flag in flags_by_rank_lex(geom):
        touch = set(range(geom.size))
        for x in flag:
            touch &= {x} | set(geom.adj[x])
        for a, b in sorted(geom.pairs):
            if not (orbit_of[a] & touch and orbit_of[b] & touch):
                continue
            if not any(g[a] in touch and g[b] in touch for g in elements):
                return False, (flag, a, b)
    return True, None


def test_tq2doubleprime_agrees_with_sweep(rng):
    from geoq.lemmas import random_orbit_quotient
    seen = {True: 0, False: 0}
    draws = 0
    while draws < 300:
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        draws += 1
        got = check_TQ2doubleprime(oq)
        assert got == _tq2doubleprime_by_sweep(oq)
        seen[got[0]] += 1
    assert seen[True] >= 10 and seen[False] >= 10


def test_tq2doubleprime_never_enumerates_the_group():
    # the wreath lift's group has order 1296; a cap below it would stop
    # any decider that lists G
    import pytest
    from geoq.constructions import shadowable_lift, ssg_symmetric_action
    from geoq.perms import CapExceeded
    parent, sym = ssg_symmetric_action(3, 2)
    lift = shadowable_lift(parent, 3, 2)
    wreath = lift.wreath_group(sym)
    capped = PermGroup(wreath.gens, degree=wreath.degree, cap=1000)
    oq = OrbitQuotient(lift.geometry, capped)
    assert check_TQ2doubleprime(oq) == (True, None)
    with pytest.raises(CapExceeded):
        capped.order()
