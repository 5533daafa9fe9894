from itertools import permutations, product

import pytest

from geoq import perms
from geoq.constructions import (affine_geometry, hexagon, ssg,
                                ssg_symmetric_action)
from geoq.geometry import Pregeometry, flags_of_type
from geoq.lemmas import (random_geometry, random_orbit_quotient,
                         random_pregeometry)
from geoq.perms import (CapExceeded, Perm, PermGroup, automorphism_group,
                        induced_quotient_group, is_automorphism,
                        is_semiregular, mulclose, normal_closure,
                        orbit_partition, orbits_on, stabilizer, transitivity)
from geoq.quotient import Projection, lift_flag


def test_perm_basics():
    p = Perm.from_cycles(4, [(0, 1, 2)])
    assert p[0] == 1 and p[3] == 3
    assert (p * p.inv()).is_identity()
    assert p.cycles() == [(0, 1, 2)]
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


def test_perm_is_its_images_tuple():
    p = Perm([2, 0, 1])
    assert isinstance(p, tuple) and p == (2, 0, 1)
    assert hash(p) == hash((2, 0, 1))
    assert sorted([p, Perm.identity(3)]) == [(0, 1, 2), (2, 0, 1)]
    assert p.degree == 3 and list(p) == [2, 0, 1]


def test_perm_refuses_images_that_are_not_ints():
    # 1.0 == 1, so sorting alone would take a float image for an int
    for images in ([1.0, 0.0], [1, 0.0], ["1", "0"], [None]):
        with pytest.raises(ValueError, match="not a permutation"):
            Perm(images)


def test_group_of_identity_generators_keeps_their_degree():
    group = PermGroup([Perm.identity(3)])
    assert group.degree == 3 and group.gens == () and group.order() == 1
    with pytest.raises(ValueError, match="degree mismatch"):
        PermGroup([Perm.identity(3), Perm.identity(2)])


def test_product_of_different_degrees_raises():
    p = Perm.from_cycles(2, [(0, 1)])
    q = Perm.from_cycles(3, [(0, 1)])
    # p * q would read as the permutation (0, 1) if the degrees were
    # not compared, and q * p would index past the end of p
    for a, b in ((p, q), (q, p)):
        with pytest.raises(ValueError):
            a * b


def test_products_and_inverses_are_checked_permutations(rng):
    # products and inverses skip the check in Perm(...); they must still
    # be exactly the permutations the checked constructor accepts
    for _ in range(200):
        n = rng.randint(0, 7)
        a, b = list(range(n)), list(range(n))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Perm(a), Perm(b)
        assert p * q == Perm([q[p[x]] for x in range(n)])
        assert p.inv() == Perm([a.index(x) for x in range(n)])
        assert (p * p.inv()).is_identity() and (p.inv() * p).is_identity()


def test_mul_is_right_action():
    p = Perm.from_cycles(3, [(0, 1)])
    q = Perm.from_cycles(3, [(1, 2)])
    # apply p first, then q
    assert (p * q)[0] == q[p[0]]


def test_closure_orders():
    g = Perm.from_cycles(6, [(0, 1), (2, 3), (4, 5)])
    assert PermGroup([g]).order() == 2
    assert PermGroup.trivial(4).order() == 1
    a = Perm.from_cycles(4, [(0, 1)])
    b = Perm.from_cycles(4, [(2, 3)])
    assert PermGroup([a, b]).order() == 4


def test_closure_cap():
    a = Perm.from_cycles(5, [(0, 1, 2, 3, 4)])
    b = Perm.from_cycles(5, [(0, 1)])
    # the chain refuses what listing refuses, with the same message
    for query in (lambda g: g.elements(), lambda g: g.order(),
                  lambda g: a in g, lambda g: stabilizer(g, (0,))):
        with pytest.raises(CapExceeded) as err:
            query(PermGroup([a, b], cap=30))
        assert str(err.value) == "group order exceeds cap 30"
    assert PermGroup([a, b], cap=120).order() == 120


def test_chain_refuses_a_large_group_while_it_grows():
    # Z60's rotations with 0 and 1 swapped in the first generate A_60 or
    # S_60; the chain refuses at the first partial order above the cap,
    # long before it is complete, and keeps nothing
    import time
    rots = [[(i + k) % 60 for i in range(60)] for k in range(1, 60)]
    rots[0][0], rots[0][1] = rots[0][1], rots[0][0]
    group = PermGroup([Perm(r) for r in rots], cap=200_000)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as err:
        group.order()
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == "group order exceeds cap 200000"
    assert group._sims is None
    s5 = [Perm.from_cycles(5, [(0, 1)]),
          Perm.from_cycles(5, [(0, 1, 2, 3, 4)])]
    assert PermGroup(s5, cap=120).order() == 120
    small = PermGroup(s5, cap=119)
    with pytest.raises(CapExceeded):
        small.order()
    assert small._sims is None


def test_chain_shares_its_point_ints():
    # the chain's identity and every inverse it stores hold the one
    # per-degree tuple of point ints, not a fresh int per point: order()
    # keeps 7.6 MiB on coseteg-13's full group, where fresh ints kept 19.3
    import tracemalloc
    from geoq.cosets import FiniteGroup, coseteg_family
    group = coseteg_family(FiniteGroup.cyclic(13)).action_group()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert group.order() == 2197
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 12 * 2**20, kept
    assert group._sims.identity is perms._points(group.degree)


def test_orbit_partition_translations():
    geom, trans = affine_geometry(3, 2)
    part = orbit_partition(trans, geom)
    sizes = sorted((geom.elem_type[b[0]], len(b)) for b in part.blocks)
    assert sizes.count((0, 8)) == 1
    assert sizes.count((1, 4)) == 7
    assert sizes.count((2, 2)) == 7


def test_orbit_partition_trivial_group():
    geom = ssg(3, 2)
    part = orbit_partition(PermGroup.trivial(geom.size), geom)
    assert all(len(b) == 1 for b in part.blocks)


def test_orbit_partition_rejects_nonautomorphism():
    geom, _ = hexagon()
    bad = PermGroup([Perm.from_cycles(6, [(0, 1)])])
    with pytest.raises(ValueError):
        orbit_partition(bad, geom)


def test_automorphism_check_is_kept_per_geometry_and_stays_exact(
        monkeypatch):
    # a verified generator is not checked again on the same geometry, but
    # a group that mixes it with a non-automorphism is still refused, as
    # often as it is asked, and a fresh equal geometry is checked anew
    import geoq.perms as perms
    calls = []

    def counting(geom, perm):
        calls.append(perm)
        return is_automorphism(geom, perm)

    monkeypatch.setattr(perms, "is_automorphism", counting)
    geom, group = hexagon()
    orbit_partition(group, geom)
    assert calls == list(group.gens)
    orbit_partition(group, geom)
    transitivity(group, geom, "vertex")
    assert len(calls) == len(group.gens)
    bad = PermGroup(list(group.gens) + [Perm.from_cycles(6, [(0, 1)])])
    for _ in range(2):
        with pytest.raises(ValueError):
            orbit_partition(bad, geom)
        with pytest.raises(ValueError):
            transitivity(bad, geom, "vertex")
    assert len(calls) == len(group.gens) + 4
    calls.clear()
    fresh, _ = hexagon()
    orbit_partition(group, fresh)
    assert calls == list(group.gens)


def test_automorphism_checks_read_the_masks_once_per_geometry(monkeypatch):
    # every generator, of this group or a later one, is checked against
    # one list of incident pairs, read off the masks once per geometry
    import geoq.geometry
    from geoq.perms import check_automorphisms
    scans = []
    real = geoq.geometry.bits

    def counted(mask):
        scans.append(mask)
        return real(mask)

    geom, group = ssg_symmetric_action(4, 2)
    assert len(group.gens) >= 2
    monkeypatch.setattr(geoq.geometry, "bits", counted)
    check_automorphisms(geom, group)
    assert len(scans) == geom.size
    check_automorphisms(geom, PermGroup([g * g for g in group.gens]))
    assert len(scans) == geom.size
    with pytest.raises(ValueError, match="not an automorphism"):
        check_automorphisms(geom, PermGroup(
            [Perm.from_cycles(geom.size, [(0, geom.size - 1)])]))
    assert len(scans) == geom.size


def test_enumerated_elements_are_automorphisms(rng):
    for _ in range(10):
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        for g in oq.group.elements():
            assert is_automorphism(oq.source, g)


def test_stabilizer_and_normal_closure():
    from geoq.reproduce import tq1_counterexample
    geom, group = tq1_counterexample()
    flag = (geom.elem("a1"), geom.elem("a2"))
    assert stabilizer(group, flag).order() == 1
    assert stabilizer(group, ()).order() == group.order()
    # normal closure of a normal subgroup is itself
    n = PermGroup([Perm.from_cycles(6, [(0, 1), (2, 3)])
                   * Perm.from_cycles(6, [(0, 1), (4, 5)])])
    clo = normal_closure(group, n)
    assert clo.elements() == mulclose(list(n.gens))


def stabilizer_by_elements(group, flag):
    """The scan stabilizer ran before the chain: every listed element
    fixing each point of the flag."""
    return {g for g in group.elements() if all(g[x] == x for x in flag)}


def _chain_test_groups(rng):
    from geoq.constructions import shadowable_lift
    from geoq.lemmas import random_coset_instance, random_subgroup
    for v in (3, 4, 5):
        for k in range(2, v):
            geom, action = ssg_symmetric_action(v, k)
            yield geom, action
            yield geom, random_subgroup(rng, action)
    parent, sym = ssg_symmetric_action(3, 2)
    lift = shadowable_lift(parent, 3, 2)
    yield lift.geometry, lift.wreath_group(sym)
    yield lift.geometry, lift.base_group()
    for _ in range(150):
        geom, action = random_coset_instance(rng)
        yield geom, action
        yield geom, random_subgroup(rng, action)


def test_chain_agrees_with_listing(rng):
    # order and membership from the Schreier-Sims chain against the
    # listed group, on groups whose chain has never seen the list
    groups = orders = outside = 0
    for geom, group in _chain_test_groups(rng):
        els = mulclose(list(group.gens)) or {Perm.identity(group.degree)}
        fresh = PermGroup(group.gens, degree=group.degree)
        assert fresh.order() == len(els)
        assert fresh._elements is None  # answered without listing
        assert all(g in fresh for g in els)
        points = list(range(group.degree))
        for _ in range(20):
            rng.shuffle(points)
            p = Perm(points)
            assert (p in fresh) == (p in els)
            outside += p not in els
        assert Perm.identity(group.degree + 1) not in fresh
        groups += 1
        orders += len(els) > 1
    assert groups >= 300 and orders >= 250 and outside >= 3000, (
        groups, orders, outside)


def test_stabilizer_agrees_with_element_scan(rng):
    from geoq.constructions import shadowable_lift
    from geoq.geometry import all_flags
    from geoq.lemmas import random_coset_instance, random_subgroup
    from geoq.reproduce import tq1_counterexample
    parent, sym = ssg_symmetric_action(3, 2)
    lift = shadowable_lift(parent, 3, 2)
    instances = [tq1_counterexample(), ssg_symmetric_action(4, 2),
                 ssg_symmetric_action(5, 3),
                 (lift.geometry, lift.wreath_group(sym))]
    for _ in range(4):
        geom, action = random_coset_instance(rng)
        instances += [(geom, action), (geom, random_subgroup(rng, action))]
    sizes = set()
    for geom, group in instances:
        for flag in all_flags(geom):
            want = stabilizer_by_elements(group, flag)
            stab = stabilizer(group, flag)
            assert stab.order() == len(want)
            assert (mulclose(list(stab.gens))
                    or {Perm.identity(group.degree)}) == want
            sizes.add(len(want))
    assert len(sizes) > 8, sizes


def test_listing_is_sorted_once(monkeypatch):
    # iteration is the sorted element list, sorted once per group: on
    # every group the lemma suites list (the regular action of each
    # group of the coset pool, and the fixed instances' groups)
    import geoq.perms
    from geoq.constructions import eight_cycle, multipartite_geometry
    from geoq.cosets import CosetGeometry
    from geoq.lemmas import _small_groups, cycle_rotation
    groups = [CosetGeometry(G, [G.subgroup_generated([]).named("G1")])
              .action_group() for G in _small_groups()]
    groups += [ssg_symmetric_action(v, k)[1]
               for v, k in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3))]
    groups += list(multipartite_geometry(2, 3, 2)[1:])
    groups += [hexagon()[1], eight_cycle()[1], cycle_rotation(12, 2)]
    assert [len(list(g)) for g in groups[:len(_small_groups())]] == [
        len(G) for G in _small_groups()]
    sorts = []

    def counted(items):
        sorts.append(1)
        return sorted(items)

    monkeypatch.setattr(geoq.perms, "sorted", counted, raising=False)
    for group in groups:
        first = list(group)
        assert first == sorted(group.elements())
        assert len(first) == group.order()
        del sorts[:]
        assert list(group) == first
        assert sorts == []  # the second iteration does not sort again


def test_normal_closure_grows():
    geom, action = ssg_symmetric_action(4, 2)
    transposition = sorted(action.elements())[1]
    sub = PermGroup([transposition], degree=action.degree)
    clo = normal_closure(action, sub)
    assert clo.order() == 24  # conjugates of a transposition generate S4


def _normal_closure_by_elements(group, sub):
    # conjugate every element of N by each generator of G and close
    # again, until nothing new appears
    gens = list(sub.gens)
    els = mulclose(gens) or {Perm.identity(group.degree)}
    changed = True
    while changed:
        changed = False
        for g in group.gens:
            ginv = g.inv()
            for h in sorted(els):
                c = ginv * h * g
                if c not in els:
                    gens.append(c)
                    els = mulclose(gens)
                    changed = True
    return els


def test_normal_closure_agrees_with_element_conjugation(rng):
    from geoq.lemmas import random_coset_instance, random_subgroup
    seen = {"proper": 0, "whole": 0}
    for i in range(320):
        if i % 2:
            _, group = random_coset_instance(rng)
        else:
            v = rng.choice([3, 4, 5])
            _, group = ssg_symmetric_action(v, rng.randint(2, min(3, v - 1)))
        sub = random_subgroup(rng, group)
        clo = normal_closure(group, sub)
        els = _normal_closure_by_elements(group, sub)
        assert clo.elements() == els
        assert (mulclose(list(clo.gens))
                or {Perm.identity(group.degree)}) == els
        seen["whole" if len(els) == group.order() else "proper"] += 1
    assert min(seen.values()) >= 30, seen


def test_transitivity_kinds():
    geom, action = ssg_symmetric_action(4, 3)
    assert transitivity(action, geom, "vertex")[0]
    assert transitivity(action, geom, "incidence")[0]
    assert transitivity(action, geom, "chamber")[0]
    assert transitivity(action, geom, "flag")[0]
    with pytest.raises(ValueError):
        transitivity(action, geom, "nope")


def _flag_image(g, flag):
    """The image of a flag (a sorted tuple) under g, as a sorted tuple."""
    return tuple(sorted(g[x] for x in flag))


def _per_kind_transitivity(group, geom, kind):
    # the one-branch-per-kind version that the table of type sets replaced
    from itertools import combinations

    from geoq.perms import check_automorphisms
    check_automorphisms(geom, group)

    def offor(J):
        flags = flags_of_type(geom, J)
        if not flags:
            return True, None
        orbits = orbits_on(group.gens, flags, _flag_image)
        if len(orbits) == 1:
            return True, None
        return False, (orbits[0][0], orbits[1][0])

    if kind == "vertex":
        for t in range(geom.rank):
            ok, w = offor([t])
            if not ok:
                return False, w
        return True, None
    if kind == "incidence":
        for J in combinations(range(geom.rank), 2):
            ok, w = offor(J)
            if not ok:
                return False, w
        return True, None
    if kind == "chamber":
        return offor(range(geom.rank))
    if kind == "flag":
        for r in range(1, geom.rank + 1):
            for J in combinations(range(geom.rank), r):
                ok, w = offor(J)
                if not ok:
                    return False, w
        return True, None
    raise ValueError("unknown transitivity kind %r" % (kind,))


def test_transitivity_agrees_with_per_kind_branches(rng):
    from geoq.constructions import multipartite_geometry
    from geoq.cosets import FiniteGroup, coseteg_family
    from geoq.lemmas import random_coset_instance
    cases = []
    while len(cases) < 200:
        oq = random_orbit_quotient(rng)
        if oq is not None:
            cases.append((oq.group, oq.source))
    for _ in range(30):
        geom, action = random_coset_instance(rng)
        cases.append((action, geom))
    fam = coseteg_family(FiniteGroup.cyclic(3))
    cases += [(fam.action_group(), fam.geometry),
              (fam.n_action_group(), fam.geometry)]
    geom, *actions = multipartite_geometry(2, 3, 2)
    cases += [(action, geom) for action in actions]
    seen = {}
    for group, geom in cases:
        J = sorted(rng.sample(range(geom.rank), rng.randint(1, geom.rank)))
        for kind in ("vertex", "incidence", "chamber", "flag"):
            got = transitivity(group, geom, kind)
            assert got == _per_kind_transitivity(group, geom, kind)
            seen.setdefault(kind, set()).add(got[0])
    assert seen == {kind: {True, False} for kind in seen}, seen
    assert len(seen) == 4
    for check in (transitivity, _per_kind_transitivity):
        with pytest.raises(ValueError, match="unknown transitivity"):
            check(group, geom, "nope")


def test_type_set_without_flags_is_transitive():
    # a path a - b - c of three types: no flag of types {0, 2}, so no
    # chamber, and the trivial group is transitive on each of the other
    # type sets, which hold one flag each
    geom = Pregeometry(["A", "B", "C"], ["a", "b", "c"], [0, 1, 2],
                       [(0, 1), (1, 2)])
    trivial = PermGroup.trivial(3)
    assert flags_of_type(geom, [0, 2]) == []
    for kind in ("chamber", "flag", "vertex", "incidence"):
        assert transitivity(trivial, geom, kind) == (True, None)
        assert _per_kind_transitivity(trivial, geom, kind) == (True, None)


def test_trivial_group_on_single_chamber():
    geom = Pregeometry(["A", "B"], ["a", "b"], [0, 1], [(0, 1)])
    assert transitivity(PermGroup.trivial(2), geom, "flag")[0]


def test_transitivity_witness():
    geom = ssg(3, 2)
    ok, witness = transitivity(PermGroup.trivial(geom.size), geom, "vertex")
    assert not ok and len(witness) == 2


def test_transitivity_refuses_a_same_type_incidence():
    # a coset pregeometry with one G-orbit of same-type pairs added: G
    # still acts, and the extra pairs used to be read as flags, so that
    # the verdict named a second vertex orbit
    from geoq.cosets import FiniteGroup, coseteg_family
    from geoq.perms import check_automorphisms
    fam = coseteg_family(FiniteGroup.cyclic(3))
    geom, group = fam.geometry, fam.action_group()
    assert transitivity(group, geom, "vertex") == (True, None)
    x, y = geom.by_type[0][:2]
    extra = {(g[x], g[y]) for g in group.elements()}
    bad = Pregeometry(geom.type_names, geom.elem_names, geom.elem_type,
                      geom.pairs | extra)
    check_automorphisms(bad, group)
    for kind in ("vertex", "incidence", "flag"):
        with pytest.raises(ValueError, match="same-type incidence: G1 \\* "):
            transitivity(group, bad, kind)


def test_is_semiregular():
    geom, trans = affine_geometry(3, 2)
    assert not is_semiregular(trans)  # t fixes the lines along t
    assert is_semiregular(PermGroup.trivial(geom.size))
    assert is_semiregular(PermGroup([Perm.from_cycles(4, [(0, 1), (2, 3)])]))


def semiregular_by_elements(group):
    """The scan is_semiregular ran before it read orbit lengths: no
    non-identity element fixes a point."""
    for g in group.elements():
        if g.is_identity():
            continue
        if any(g[x] == x for x in range(group.degree)):
            return False
    return True


def test_is_semiregular_agrees_with_element_scan(rng):
    seen = {}
    draws = 0
    while draws < 300:
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        draws += 1
        got = is_semiregular(oq.group)
        assert got == semiregular_by_elements(oq.group)
        seen[got] = seen.get(got, 0) + 1
    assert all(seen.get(ok, 0) >= 30 for ok in (False, True)), seen
    print(seen)


def test_automorphism_group_hexagon():
    geom, _ = hexagon()
    assert automorphism_group(geom).order() == 2


def test_automorphism_group_k22():
    geom = Pregeometry(["P", "L"], ["p0", "p1", "l0", "l1"], [0, 0, 1, 1],
                       [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert automorphism_group(geom).order() == 4


def test_automorphism_group_single_chamber():
    geom = Pregeometry(["A", "B", "C"], ["a", "b", "c"], [0, 1, 2],
                       [(0, 1), (0, 2), (1, 2)])
    assert automorphism_group(geom).order() == 1


def brute_force_automorphisms(geom):
    """Every product of per-type permutations that maps incident pairs to
    incident pairs: the n!-permutation scan, restricted to types."""
    found = set()
    for parts in product(*(permutations(v) for v in geom.by_type)):
        images = [None] * geom.size
        for members, targets in zip(geom.by_type, parts):
            for x, y in zip(members, targets):
                images[x] = y
        if all((min(images[a], images[b]), max(images[a], images[b]))
               in geom.pairs for a, b in geom.pairs):
            found.add(Perm(images))
    return found


def test_automorphism_group_agrees_with_brute_force(rng):
    orders = set()
    for i in range(240):
        draw = random_geometry if i % 2 else random_pregeometry
        max_rank, max_per_type = ((3, 3), (4, 2))[i % 4 // 2]
        geom = draw(rng, max_rank=max_rank, max_per_type=max_per_type)
        assert geom.size <= 9
        got = automorphism_group(geom)
        want = brute_force_automorphisms(geom)
        assert got.elements() == want
        # the generators are picked from the search leaves in search
        # order: gens[k] is the first leaf outside the closure of
        # gens[:k], so each pick at least doubles the order
        leaves = list(perms._incidence_maps(geom, geom))
        for k, g in enumerate(got.gens):
            have = mulclose(list(got.gens[:k])) or {Perm.identity(geom.size)}
            assert g == next(x for x in leaves if x not in have)
        assert 2 ** len(got.gens) <= len(want)
        orders.add(len(want))
    assert len(orders) > 5  # not only trivial or tiny groups


def test_automorphism_group_cap(monkeypatch):
    geom = ssg(3, 2)  # its automorphisms are the 6 of S3
    assert automorphism_group(geom, cap=6).order() == 6
    with pytest.raises(CapExceeded, match="group order exceeds cap 5"):
        automorphism_group(geom, cap=5)
    # the chain refuses as soon as the order it holds passes the cap, so
    # from fewer search leaves than the cap: S5 on ssg(5, 2) at cap 60
    drawn = []
    search = perms._incidence_maps

    def counting(ga, gb):
        for images in search(ga, gb):
            drawn.append(images)
            yield images

    monkeypatch.setattr(perms, "_incidence_maps", counting)
    with pytest.raises(CapExceeded, match="group order exceeds cap 60"):
        automorphism_group(ssg(5, 2), cap=60)
    assert 0 < len(drawn) < 60


def test_induced_quotient_group_requires_invariance():
    geom, action = ssg_symmetric_action(3, 2)
    # a non-invariant partition: separate one point from the others
    from geoq.quotient import Partition
    part = Partition(geom, [(0,), (1, 2), (3,), (4,), (5,)])
    proj = Projection(geom, part)
    with pytest.raises(ValueError):
        induced_quotient_group(proj, action)


def _leaders_of_type(oq, J):
    """The G-orbits of the flags of type set J, by their least flags: G
    is transitive on those flags iff there is at most one."""
    et = oq.source.elem_type
    return [f for f in oq.leaders if tuple(sorted(et[x] for x in f)) == J]


def _jflag_chamber_without_lift():
    """G = <(a1 a2)(b0 b2)(c0 c1)> is transitive on the two chambers
    a1 b1 c1 and a2 b1 c0, but a1 * b0 * c0 * a2 makes the blocks of a1,
    b0 and c0 a second quotient chamber, which does not lift."""
    names = "a0 a1 a2 b0 b1 b2 c0 c1".split()
    x = {name: k for k, name in enumerate(names)}
    pairs = [(x[p], x[q]) for p, q in (
        s.split("-") for s in "a0-b0 a0-b1 a0-b2 a1-b0 a1-b1 a1-c1 a2-b1 "
                              "a2-b2 a2-c0 b0-c0 b1-c0 b1-c1 b2-c1".split())]
    geom = Pregeometry(list("ABC"), names, [0, 0, 0, 1, 1, 1, 2, 2], pairs)
    return geom, PermGroup([Perm.from_cycles(8, [(1, 2), (3, 5), (6, 7)])])


def test_jflag_transitivity_descends_iff_jflags_lift(rng):
    # for G transitive on the flags of type set J, the induced group is
    # transitive on the quotient's J-flags iff each of them lifts
    from itertools import combinations

    from geoq.axioms import OrbitQuotient
    cases = [OrbitQuotient(*_jflag_chamber_without_lift())]
    while len(cases) < 26:
        oq = random_orbit_quotient(rng)
        if oq is not None:
            cases.append(oq)
    seen = set()
    for oq in cases:
        geom = oq.source
        down = OrbitQuotient(oq.quotient, induced_quotient_group(oq, oq.group))
        for r in range(1, geom.rank + 1):
            for J in combinations(range(geom.rank), r):
                if len(_leaders_of_type(oq, J)) != 1:
                    continue
                lifted = all(lift_flag(oq, f) is not None
                             for f in flags_of_type(oq.quotient, J))
                assert (len(_leaders_of_type(down, J)) <= 1) == lifted
                seen.add(lifted)
    assert seen == {True, False}


def test_incidence_transitivity_descends(rng):
    for _ in range(20):
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        if transitivity(oq.group, oq.source, "incidence")[0]:
            induced = induced_quotient_group(oq, oq.group)
            assert transitivity(induced, oq.quotient, "incidence")[0]


def _orbits_by_bfs(gens, items, act):
    # reference: one breadth-first search per orbit, in items order
    out = []
    seen = set()
    for x in items:
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            frontier = [y for z in frontier for g in gens
                        for y in [act(g, z)] if y not in orbit]
            orbit.update(frontier)
        seen |= orbit
        out.append(tuple(y for y in items if y in orbit))
    return out


def test_orbits_on_agrees_with_bfs(rng):
    from itertools import permutations
    from geoq.geometry import all_flags

    def on_flags(g, f):
        return tuple(sorted(g[x] for x in f))

    def on_tuples(g, t):
        return tuple(g[x] for x in t)

    tried = 0
    while tried < 40:
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        tried += 1
        gens, geom = oq.group.gens, oq.source
        points = list(range(geom.size))
        rng.shuffle(points)
        flags = sorted(all_flags(geom), key=lambda f: (len(f), f))
        ordered = [t for f in flags if len(f) == 2 for t in permutations(f)]
        for items, act in ((points, Perm.__getitem__), (flags, on_flags),
                           (ordered, on_tuples)):
            assert orbits_on(gens, items, act) == _orbits_by_bfs(gens, items,
                                                                 act)
        assert oq.group.orbits() == sorted(oq.partition.blocks)


def test_orbits_on_rejects_image_outside_items():
    g = Perm.from_cycles(4, [(0, 1, 2, 3)])
    assert orbits_on([g], [0, 1, 2, 3], Perm.__getitem__) == [(0, 1, 2, 3)]
    assert orbits_on([], [3, 1], Perm.__getitem__) == [(3,), (1,)]
    with pytest.raises(ValueError):
        orbits_on([g], [0, 1], Perm.__getitem__)
