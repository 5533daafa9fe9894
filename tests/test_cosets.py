from itertools import combinations, permutations

import pytest

from geoq.cosets import (CosetGeometry, FiniteGroup, Subgroup,
                         coset_pregeometry, coseteg_family,
                         is_coset_pregeometry, product_condition,
                         rank2_connectivity, set_product)
from geoq.constructions import hexagon
from geoq.geometry import Pregeometry, flags_of_type, is_geometry
from geoq.perms import CapExceeded, PermGroup, transitivity


def test_cyclic_and_product():
    z6 = FiniteGroup.cyclic(6)
    assert len(z6) == 6 and z6.is_abelian()
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert len(v4) == 4 and all(v4.product(x, x) == v4.id for x in range(4))
    s3 = FiniteGroup.symmetric(3)
    assert len(s3) == 6 and not s3.is_abelian()


def test_outside_actions_refused():
    # each fault of outside data is a ValueError naming it (no assert, so
    # python -O refuses them too)
    for names, act, fault in (
            ("ea", [(0, 1), (0, 0)], "not a permutation"),
            ("ea", [(0, 1), (1, 0, 2)], "mixed degree"),
            ("ea", [(0, 1), (0, 1)], "repeated action"),
            ("ab", [(1, 0, 2), (1, 2, 0)], "no identity"),
            ("eab", [(0, 1, 2), (1, 0, 2), (0, 2, 1)], "not closed"),
            ("e", [(0, 1), (1, 0)], "2 actions")):
        with pytest.raises(ValueError, match=fault):
            FiniteGroup(names, act)
    assert len(FiniteGroup("ea", [(0, 1), (1, 0)])) == 2


def test_unclosed_actions_refused_exactly():
    # Z_60's rotations with one of them changed keep the identity and stay
    # distinct; the closure check must find the fault however many there
    # are
    z60 = FiniteGroup.cyclic(60)
    FiniteGroup(z60.names, z60.act)
    act = [list(a) for a in z60.act]
    act[7][0], act[7][1] = act[7][1], act[7][0]
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup(z60.names, act)


def test_table_columns_are_an_action():
    # a product table's right-regular columns p -> p*x are a valid action
    # with the table's products, and a non-associative table's are refused
    for T in _table_small_groups():
        cols = FiniteGroup(T.names, zip(*T.mul))
        assert all(cols.product(x, y) == T.mul[x][y]
                   for x in range(len(T)) for y in range(len(T)))
    z60 = _TableGroup.cyclic(60)
    mul = [list(row) for row in z60.mul]
    mul[1][8] = 10
    with pytest.raises(ValueError, match="not associative"):
        _TableGroup(z60.names, mul)
    with pytest.raises(ValueError):
        FiniteGroup(z60.names, zip(*mul))


def test_subgroup_verification():
    z6 = FiniteGroup.cyclic(6)
    Subgroup(z6, {0, 2, 4})
    with pytest.raises(ValueError):
        Subgroup(z6, {0, 2})  # not closed
    with pytest.raises(ValueError):
        Subgroup(z6, {2, 4})  # no identity
    # a negative index would name an element from the end, and two names
    # of one element would pass as a larger subgroup
    for members in ({0, 7}, {0, -3}, {0, 3, -3}):
        with pytest.raises(ValueError, match=r"members must lie in 0\.\.5$"):
            Subgroup(z6, members)


def test_subgroup_check_agrees_with_closure(rng):
    # Subgroup asks its group's chain; the closure of the members, as it
    # was checked before, accepts exactly the same sets, and a refusal
    # names the identity first, then closure
    from geoq.lemmas import _small_groups
    from geoq.perms import _closure
    verdicts = []
    for G in _small_groups():
        n = len(G)
        for _ in range(40):
            members = set(G.subgroup_generated(
                rng.sample(range(n), rng.randint(0, 2))).members)
            if rng.random() < 0.5:
                members ^= set(rng.sample(range(n), rng.randint(1, 2)))
            if rng.random() < 0.2:
                members.discard(G.id)
            if G.id not in members:
                want = "subgroup must contain the identity"
            elif len(_closure({G.act[x] for x in members},
                              G.act[G.id])) != len(members):
                want = "subgroup not closed under products"
            else:
                want = None
            try:
                got = Subgroup(G, members).members == tuple(sorted(members))
            except ValueError as exc:
                got = str(exc)
            assert got == (want or True), (G.names, sorted(members))
            verdicts.append(want)
    assert len(verdicts) >= 300 and len(set(verdicts)) == 3
    assert min(verdicts.count(v) for v in set(verdicts)) >= 50


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
    assert product_condition(s3, a, [b, triv])


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
        cond = product_condition(s4, g1, [g2, g3])
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


def test_cyclic_refuses_an_order_below_one():
    # no group has order 0; the refusal names the order it was given
    for n in (0, -5):
        with pytest.raises(ValueError, match="got n=%d$" % n):
            FiniteGroup.cyclic(n)


def test_coseteg_rejects_bad_base(monkeypatch):
    with pytest.raises(ValueError):
        coseteg_family(FiniteGroup.symmetric(3))
    with pytest.raises(ValueError):
        coseteg_family(FiniteGroup.cyclic(1))
    with pytest.raises(CapExceeded, match="element count 215822 exceeds"):
        coseteg_family(FiniteGroup.cyclic(59))  # before building Z59^3
    with pytest.raises(CapExceeded, match="element count 10584 exceeds"):
        coseteg_family(FiniteGroup.cyclic(21))

    def reached(*groups):  # coseteg-20, 9,200 elements, passes the cap
        raise LookupError("cube built")

    monkeypatch.setattr(FiniteGroup, "direct_product", reached)
    with pytest.raises(LookupError):
        coseteg_family(FiniteGroup.cyclic(20))


def test_is_coset_pregeometry_roundtrip():
    # the returned chamber is the least one, and its stabilizers give the
    # coset model: each type class is the orbit of the chamber's member,
    # so |G : G_c| elements of that type
    from geoq.perms import stabilizer
    fam = coseteg_family(FiniteGroup.cyclic(2))
    geom, act = fam.geometry, fam.action_group()
    ok, chamber = is_coset_pregeometry(geom, act)
    assert ok
    assert chamber == flags_of_type(geom, range(geom.rank))[0]
    assert [geom.elem_type[c] for c in chamber] == list(range(geom.rank))
    for c in chamber:
        index = act.order() // stabilizer(act, (c,)).order()
        assert index == len(geom.by_type[geom.elem_type[c]])


def test_is_coset_pregeometry_labels_flag_orbits_once(monkeypatch):
    # the vertex and incidence tests read one labelling of the flags,
    # made by one call of the union-find
    from geoq import perms
    calls = []

    def counting(images, n):
        calls.append(n)
        return orbits(images, n)

    orbits = perms._orbits
    monkeypatch.setattr(perms, "_orbits", counting)
    fam = coseteg_family(FiniteGroup.cyclic(3))
    ok, _ = is_coset_pregeometry(fam.geometry, fam.action_group())
    assert ok and len(calls) == 1, calls


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
        got = product_condition(G, g1, [g2, g3])
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


def test_subgroup_of_another_group_is_refused():
    # the coset table needs the cosets to partition the group itself
    z4, z4_again = FiniteGroup.cyclic(4), FiniteGroup.cyclic(4)
    two = Subgroup(z4_again, {0, 2}, "H")
    with pytest.raises(ValueError, match="subgroups of the group"):
        coset_pregeometry(z4, [two])
    with pytest.raises(ValueError, match="subgroups of the group"):
        coset_pregeometry(z4, [Subgroup(z4, {0}, "E"), two])
    coset_pregeometry(z4_again, [two])


def test_direct_product_index_is_mixed_radix():
    # (c_1, c_2, c_3) has index (c_1 n_2 + c_2) n_3 + c_3, as in
    # itertools.product, and multiplies componentwise
    from itertools import product
    parts = (FiniteGroup.cyclic(2), FiniteGroup.symmetric(3),
             FiniteGroup.cyclic(4))
    G = FiniteGroup.direct_product(*parts)
    combos = list(product(*(range(len(g)) for g in parts)))
    assert len(G) == 48
    for k, c in enumerate(combos):
        assert (c[0] * 6 + c[1]) * 4 + c[2] == k
        assert G.names[k] == "(%s)" % ",".join(
            g.names[x] for g, x in zip(parts, c))
    for a, ca in enumerate(combos):
        for b, cb in enumerate(combos):
            assert combos[G.product(a, b)] == tuple(
                g.product(x, y) for g, x, y in zip(parts, ca, cb))
    assert G.id == combos.index(tuple(g.id for g in parts))


# ------------------------------------------------------------ the oracles
# FiniteGroup as it was before it became a permutation action: a full
# product table, the identity and inverses scanned from it, Light's
# associativity test, its own closure loop, and Subgroup's table check.

class _TableGroup:
    def __init__(self, names, mul, check=True):
        self.names = tuple(names)
        n = len(self.names)
        self.mul = tuple(tuple(row) for row in mul)
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise ValueError("multiplication table must be %d x %d" % (n, n))
        self.id = next((e for e in range(n)
                        if all(self.mul[e][x] == x == self.mul[x][e]
                               for x in range(n))), None)
        if self.id is None:
            raise ValueError("no identity element")
        inv = [next((y for y in range(n) if self.mul[x][y] == self.id
                     == self.mul[y][x]), None) for x in range(n)]
        if None in inv:
            raise ValueError("an element has no inverse")
        self.inv = tuple(inv)
        if check:
            # Light's test: the elements s with (x*s)*y == x*(s*y) for all
            # x, y are closed under products, so generators suffice
            mul = self.mul
            for s in self.generators():
                for x in range(n):
                    for y in range(n):
                        if mul[mul[x][s]][y] != mul[x][mul[s][y]]:
                            raise ValueError(
                                "multiplication table is not associative")

    def __len__(self):
        return len(self.names)

    @classmethod
    def cyclic(cls, n):
        return cls([str(i) for i in range(n)],
                   [[(i + j) % n for j in range(n)] for i in range(n)],
                   check=False)

    @classmethod
    def direct_product(cls, *groups):
        names, mul = [()], [[0]]
        for g in groups:
            n = len(g)
            names = [p + (name,) for p in names for name in g.names]
            mul = [[a * n + b for a in row for b in g.mul[c]]
                   for row in mul for c in range(n)]
        return cls(["(%s)" % ",".join(p) for p in names], mul, check=False)

    @classmethod
    def symmetric(cls, n):
        perms = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        return cls(["[%s]" % "".join(map(str, p)) for p in perms],
                   [[index[tuple(q[x] for x in p)] for q in perms]
                    for p in perms], check=False)

    def closure(self, seed):
        members = {self.id}
        frontier = [self.id]
        seed = sorted(set(seed))
        while frontier:
            nxt = []
            for x in frontier:
                for s in seed:
                    y = self.mul[x][s]
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        return members

    def generators(self, members=None):
        members = (range(len(self.names)) if members is None
                   else sorted(members))
        gens = []
        have = {self.id}
        for x in members:
            if x not in have:
                gens.append(x)
                have = self.closure(gens)
                if len(have) == len(members):
                    break
        return gens

    def is_subgroup(self, members):
        mem = set(members)
        return self.id in mem and all(
            self.inv[x] in mem and all(self.mul[x][y] in mem for y in mem)
            for x in mem)

    def cosets(self, subgroups):
        """(coset_of, types, reps) of the coset table, filled as it was."""
        coset_of, types, reps = [], [], []
        for i, members in enumerate(subgroups):
            of = [None] * len(self)
            for x in range(len(self)):
                if of[x] is None:
                    for h in members:
                        of[self.mul[h][x]] = len(reps)
                    types.append(i)
                    reps.append(x)
            coset_of.append(tuple(of))
        return tuple(coset_of), types, reps

    def coset_action(self, cosets, g):
        coset_of, types, reps = cosets
        return tuple(coset_of[i][self.mul[x][g]] for i, x in zip(types, reps))


def _table_small_groups():
    z, dp = _TableGroup.cyclic, _TableGroup.direct_product
    return (z(4), z(6), z(8), dp(z(2), z(2)), dp(z(2), z(4)),
            dp(z(2), z(2), z(2)), _TableGroup.symmetric(3),
            _TableGroup.symmetric(4), dp(_TableGroup.symmetric(3), z(2)))


def _groups_beside_tables():
    """The nine small groups of the lemma draws and the coseteg cubes over
    Z2, Z3 and Z2xZ2 (with their families), each beside its table twin."""
    from geoq.lemmas import _small_groups
    out = [(G, T, None) for G, T in zip(_small_groups(),
                                        _table_small_groups())]
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    t2, t3 = _TableGroup.cyclic(2), _TableGroup.cyclic(3)
    for A, T in ((z2, t2), (z3, t3), (FiniteGroup.direct_product(z2, z2),
                                      _TableGroup.direct_product(t2, t2))):
        fam = coseteg_family(A)
        out.append((fam.G, _TableGroup.direct_product(T, T, T), fam))
    return out


def _agrees_with_table_cosets(cg, T):
    cosets = T.cosets([sub.members for sub in cg.subgroups])
    assert cg.coset_of == cosets[0]
    assert list(cg.reps) == cosets[2]
    for g in range(len(T)):
        assert cg.action_of(g) == T.coset_action(cosets, g)


def test_action_model_agrees_with_table_model(rng):
    # products, inverses, identity, closures, generator picks, subgroup
    # verdicts, coset tables and coset actions
    seen = set()
    for G, T, fam in _groups_beside_tables():
        n = len(G)
        assert (G.names, G.id) == (T.names, T.id)
        assert all(G.product(x, y) == T.mul[x][y]
                   for x in range(n) for y in range(n))
        assert [G.inverse(x) for x in range(n)] == list(T.inv)
        assert G.generators() == T.generators()
        assert G.is_abelian() == all(T.mul[x][y] == T.mul[y][x]
                                     for x in range(n) for y in range(n))
        subs = []
        for _ in range(25):
            seed = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
            sub = G.subgroup_generated(seed)
            assert set(sub.members) == T.closure(seed)
            assert G.generators(sub.members) == T.generators(sub.members)
            subs.append(sub)
            for members in (sub.members, set(sub.members) | {seed[0] if seed
                                                             else n - 1},
                            set(sub.members) - {G.id},
                            rng.sample(range(n), rng.randint(1, n))):
                ok = T.is_subgroup(members)
                seen.add(ok)
                if ok:
                    assert Subgroup(G, members).members == tuple(
                        sorted(set(members)))
                else:
                    with pytest.raises(ValueError):
                        Subgroup(G, members)
        if fam is None:
            k = rng.randint(1, 4)
            _agrees_with_table_cosets(CosetGeometry(G, [
                sub.named("H%d" % i) for i, sub in enumerate(subs[:k])]), T)
        else:
            _agrees_with_table_cosets(fam.cg, T)
            _agrees_with_table_cosets(fam.truncation3()[1], T)
    assert seen == {True, False}


def test_coseteg_13_keeps_no_product_table():
    # the cube Z13^3 is its action on 39 points: with both action groups
    # built, the traced peak stays far below a 2197 x 2197 table's
    import tracemalloc
    tracemalloc.start()
    try:
        fam = coseteg_family(FiniteGroup.cyclic(13))
        assert len(fam.action_group().gens) == 3
        assert len(fam.n_action_group().gens) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak


# CosetGeometry as it was built before the coset_of table (frozenset
# cosets, incident when two of them intersect, over all pairs), and
# is_coset_pregeometry as it was decided before it stopped at the
# characterisation (the Cayley table of the listed group, the coset model
# rebuilt from the chamber stabilizers and matched pair by pair).

class _SetCosets:
    def __init__(self, group, subgroups):
        self.group = group
        type_names = [sub.name or ("G%d" % (i + 1))
                      for i, sub in enumerate(subgroups)]
        elems, etype, cosets = [], [], []
        for i, sub in enumerate(subgroups):
            seen = {}
            for x in range(len(group)):
                members = frozenset(group.product(h, x)
                                    for h in sub.members)
                seen.setdefault(min(members), members)
            for rep in sorted(seen):
                elems.append(type_names[i] if rep == group.id else
                             "%s*%s" % (type_names[i], group.names[rep]))
                etype.append(i)
                cosets.append(seen[rep])
        pairs = [(a, b) for a in range(len(elems))
                 for b in range(a + 1, len(elems))
                 if etype[a] != etype[b] and cosets[a] & cosets[b]]
        self.geometry = Pregeometry(type_names, elems, etype, pairs)
        self.cosets = cosets
        self.index = {(etype[k], cosets[k]): k for k in range(len(elems))}

    def action_of(self, g):
        return tuple(self.index[(self.geometry.elem_type[k],
                                 frozenset(self.group.product(x, g)
                                           for x in self.cosets[k]))]
                     for k in range(self.geometry.size))


def _rebuilt_is_coset_pregeometry(geom, group):
    chams = flags_of_type(geom, range(geom.rank))
    if not chams:
        return False, "no chamber"
    ok, w = transitivity(group, geom, "vertex")
    if not ok:
        return False, ("not vertex-transitive", w)
    ok, w = transitivity(group, geom, "incidence")
    if not ok:
        return False, ("not incidence-transitive", w)
    chamber = chams[0]
    elems = sorted(group.elements())
    index = {g: i for i, g in enumerate(elems)}
    fin = FiniteGroup([repr(g) for g in elems], elems)
    subgroups = [Subgroup(fin, {index[g] for g in elems if g[x] == x},
                          "S%d" % geom.elem_type[x]) for x in chamber]
    model = _SetCosets(fin, subgroups)
    assoc = [None] * geom.size
    for i, x in enumerate(chamber):
        reps = {}
        for gi, g in enumerate(elems):
            reps.setdefault(g[x], gi)
        for alpha in geom.by_type[geom.elem_type[x]]:
            members = frozenset(fin.product(h, reps[alpha])
                                for h in subgroups[i].members)
            assoc[alpha] = model.index[(i, members)]
    if sorted(assoc) != list(range(geom.size)):
        return False, "coset association is not a bijection"
    for a in range(geom.size):
        for b in range(a + 1, geom.size):
            if geom.incident(a, b) != model.geometry.incident(assoc[a],
                                                              assoc[b]):
                return False, ("incidence mismatch", (a, b))
    return True, tuple(assoc)


def _same_geometry(g, h):
    return (g.type_names, g.elem_names, g.elem_type, g.pairs) == (
        h.type_names, h.elem_names, h.elem_type, h.pairs)


def _agrees_with_set_cosets(cg, acting):
    old = _SetCosets(cg.group, cg.subgroups)
    assert _same_geometry(cg.geometry, old.geometry)
    for g in acting:
        assert cg.action_of(g) == old.action_of(g)


def test_coset_table_agrees_with_set_cosets(rng):
    from geoq.lemmas import _small_groups
    for _ in range(220):
        G = rng.choice(_small_groups())
        subs = _random_subgroups(rng, G, rng.randint(1, 4))
        subs = [sub.named("H%d" % i) for i, sub in enumerate(subs)]
        _agrees_with_set_cosets(coset_pregeometry(G, subs)[1], range(len(G)))
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    for A in (z2, z3, FiniteGroup.direct_product(z2, z2)):
        fam = coseteg_family(A)
        gens = fam.G.generators()
        _agrees_with_set_cosets(fam.cg, gens)
        _agrees_with_set_cosets(fam.truncation3()[1], gens)


def _with_pair_orbit(rng, geom, group, same_type):
    """geom plus the group orbit of one non-incident pair, of one type or
    of two, or None when there is no such pair."""
    et = geom.elem_type
    pairs = [(a, b) for a in range(geom.size) for b in range(a + 1, geom.size)
             if (et[a] == et[b]) == same_type and not geom.incident(a, b)]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    extra = {(g[a], g[b]) for g in group.elements()}
    return Pregeometry(geom.type_names, geom.elem_names, et,
                       set(geom.pairs) | extra)


def _without_types_meeting(geom, i, j):
    """geom with every incidence between types i and j removed: it has
    no chamber, and every type-preserving automorphism of geom is still
    one."""
    et = geom.elem_type
    return Pregeometry(geom.type_names, geom.elem_names, et,
                       [(a, b) for a, b in geom.pairs
                        if {et[a], et[b]} != {i, j}])


def _recognition_draws(rng):
    from geoq.lemmas import (random_coset_instance, random_orbit_quotient,
                             random_subgroup)
    from geoq.perms import (induced_quotient_group, normal_closure,
                            orbit_partition)
    from geoq.quotient import Projection
    out = []

    def small_instance():
        while True:
            geom, action = random_coset_instance(rng)
            if geom.size <= 30 and action.order() <= 30:
                return geom, action

    for _ in range(120):  # the action itself or a random subgroup of it
        geom, action = small_instance()
        out.append((geom, action if rng.random() < 0.3
                    else random_subgroup(rng, action)))
    for _ in range(100):  # normal quotients with the induced group
        geom, action = small_instance()
        n = normal_closure(action, random_subgroup(rng, action))
        proj = Projection(geom, orbit_partition(n, geom))
        out.append((proj.quotient, induced_quotient_group(proj, action)))
    drawn = 0
    while drawn < 120:
        oq = random_orbit_quotient(rng)
        if oq is not None:
            drawn += 1
            out.append((oq.source, oq.group))
    chamberless = 0
    while chamberless < 60:
        geom, action = small_instance()
        if geom.rank >= 3:
            chamberless += 1
            i, j = sorted(rng.sample(range(geom.rank), 2))
            out.append((_without_types_meeting(geom, i, j), action))
    for same_type in (True, False):  # a second orbit of incident pairs
        made = 0
        while made < 20:
            geom, action = small_instance()
            extended = _with_pair_orbit(rng, geom, action, same_type)
            if extended is not None:
                made += 1
                out.append((extended, action if made % 4
                            else random_subgroup(rng, action)))
    return out


def test_recognition_agrees_with_rebuilt_coset_model(rng):
    # same verdicts and failure reasons; where the characterisation holds,
    # the rebuilt model's association is a bijection matching incidence.
    # A pregeometry with a chamber and a same-type incidence is refused
    # by transitivity, so the rebuilt model raises; recognition names
    # the least such pair
    from collections import Counter
    from geoq.geometry import same_type_incidence
    seen = Counter()
    draws = _recognition_draws(rng)
    assert len(draws) >= 400
    for geom, group in draws:
        ok, got = is_coset_pregeometry(geom, group)
        bad = same_type_incidence(geom)
        if bad is not None and got != "no chamber":
            assert (ok, got) == (False, bad)
            with pytest.raises(ValueError, match="same-type incidence"):
                _rebuilt_is_coset_pregeometry(geom, group)
            seen["same-type"] += 1
            continue
        old_ok, old = _rebuilt_is_coset_pregeometry(geom, group)
        assert ok == old_ok
        if ok:
            assert sorted(old) == list(range(geom.size))
            assert got == flags_of_type(geom, range(geom.rank))[0]
            seen[True] += 1
        else:
            assert got == old
            seen[got if isinstance(got, str) else got[0]] += 1
    assert set(seen) == {True, "no chamber", "not vertex-transitive",
                         "not incidence-transitive", "same-type"}
    assert min(seen.values()) >= 10, seen
