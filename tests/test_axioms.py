from geoq.axioms import (DECIDERS, OrbitQuotient, check_TQ1,
                         check_TQ2doubleprime, check_TQ2prime, check_TQ3,
                         decider_rows)
from geoq.constructions import eight_cycle, hexagon, ssg
from geoq.perms import Perm, PermGroup, orbits_on
from geoq.quotient import residual_surjectivity
from geoq.reproduce import tq1_counterexample


def _neighbours(geom):
    """Each element's neighbour set, read from the pair set."""
    out = [set() for _ in range(geom.size)]
    for a, b in geom.pairs:
        out[a].add(b)
        out[b].add(a)
    return out


def trivial_oq(geom):
    return OrbitQuotient(geom, PermGroup.trivial(geom.size))


def _report(oq):
    """Every row of DECIDERS on one orbit-quotient, as a dict of
    name -> (bool, witness or None)."""
    return {name: decide(oq) for name, decide, _ in DECIDERS}


def test_tq3():
    geom, group = hexagon()
    assert not check_TQ3(OrbitQuotient(geom, group))
    g8, grp8 = eight_cycle()
    assert check_TQ3(OrbitQuotient(g8, grp8))
    assert check_TQ3(trivial_oq(ssg(3, 2)))


def test_block_distance_agrees_with_min_block_distance(rng):
    # one search per orbit from its least member against one search per
    # block from all its members (quotient.min_block_distance)
    from geoq.cosets import FiniteGroup, coseteg_family
    from geoq.lemmas import random_orbit_quotient
    from geoq.quotient import min_block_distance
    cases = []
    for n in (5, 7):
        fam = coseteg_family(FiniteGroup.cyclic(n))
        cases += [(fam.geometry, fam.action_group()),
                  (fam.geometry, fam.n_action_group())]
    while len(cases) < 504:
        oq = random_orbit_quotient(rng)
        if oq is not None:
            cases.append((oq.source, oq.group))
    seen = set()
    for geom, group in cases:
        oq = OrbitQuotient(geom, group)  # a fresh one computes it anew
        assert oq.block_distance == min_block_distance(geom, oq.partition)
        seen.add(oq.block_distance)
    assert seen == {2, 3, 4, 6, float("inf")}, seen


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
    assert len({oq.block_of[x] for x in members}) == 1
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
    assert residual_surjectivity(oq)


def test_covering_orbit_quotient_satisfies_tq1():
    # the eight-cycle quotient by the half-turn is a cover
    geom, group = eight_cycle()
    oq = OrbitQuotient(geom, group)
    from geoq.quotient import is_cover
    assert is_cover(oq)
    assert check_TQ1(oq)[0]
    assert check_TQ2prime(oq)[0]
    assert check_TQ2doubleprime(oq)[0]


def test_hexagon_axiom_values_are_stable():
    geom, group = hexagon()
    oq = OrbitQuotient(geom, group)
    assert check_TQ2prime(oq)[0]
    assert not check_TQ2doubleprime(oq)[0]
    assert not check_TQ1(oq)[0]


def test_decider_rows_on_an_orbit_quotient():
    geom, group = hexagon()
    rows = {name: verdict
            for name, verdict, _ in decider_rows(OrbitQuotient(geom, group))}
    assert set(rows) == {"flagslift", "pq1", "pq2", "tq1", "tq2prime",
                         "tq2doubleprime", "tq3", "residually-surjective",
                         "is-cover"}
    assert rows["tq2prime"] is True
    assert rows["flagslift"] is False


def test_orbit_quotient_refuses_a_same_type_incidence():
    # an orbit-quotient is a projection, which refuses the source by
    # name; the flag walk reads masks alone, so an incident pair of one
    # type walks as a flag that no type-keeping image finds in the table,
    # and the flag orbits, which transitivity reads directly, refuse it
    # by name too
    import pytest

    from geoq.geometry import Pregeometry
    from geoq.perms import _flag_orbits
    geom = Pregeometry(["A", "B"], ["a", "b", "c"], [0, 0, 1],
                       [(0, 1), (0, 2), (1, 2)])
    group = PermGroup([Perm([1, 0, 2])])
    why = "same-type incidence: a \\* b \\(type A\\)"
    with pytest.raises(ValueError, match="^projection: " + why):
        OrbitQuotient(geom, group)
    for _ in range(2):  # on every call, not once
        with pytest.raises(ValueError, match="^flag orbits: " + why):
            _flag_orbits(geom, group.gens)


def _tq2prime_by_conjugacy(oq):
    # the equivalent formulation: flags with equal projection are
    # conjugate under the group (one orbit search per projection class)
    from geoq.geometry import all_flags
    classes = {}
    for flag in all_flags(oq.source):
        key = frozenset(oq.block_of[x] for x in flag)
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
    geom = oq.source
    orbit_of = {x: set(block) for block in oq.partition.blocks
                for x in block}
    elements = sorted(oq.group.elements())
    nbr = _neighbours(geom)
    for flag in flags_by_rank_lex(geom):
        touch = set(range(geom.size))
        for x in flag:
            touch &= {x} | nbr[x]
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
    # any decider that lists G, so the whole table must come out as it
    # does with the uncapped group
    import pytest
    from geoq.constructions import shadowable_lift, ssg_symmetric_action
    from geoq.perms import CapExceeded
    parent, sym = ssg_symmetric_action(3, 2)
    lift = shadowable_lift(parent, 3, 2)
    wreath = lift.wreath_group(sym)
    capped = PermGroup(wreath.gens, degree=wreath.degree, cap=1000)
    oq = OrbitQuotient(lift.geometry, capped)
    assert check_TQ2doubleprime(oq) == (True, None)
    assert _report(oq) == _report(OrbitQuotient(lift.geometry, wreath))
    assert wreath.order() == 1296
    with pytest.raises(CapExceeded):
        capped.order()


def test_residue_orbit_map_is_built_once_per_orbit_quotient(monkeypatch):
    # (TQ1), (TQ2') and (TQ2'') share one flag-orbit labelling per
    # (geometry, generators): the whole report makes one union-find call,
    # over every flag, and later deciders on the same orbit-quotient, or a
    # whole report on a fresh one over the same pair, make none
    import geoq.perms as perms
    from geoq.geometry import flags_by_rank_lex
    builds = []
    real = perms._orbits

    def counting(images, n):
        builds.append(n)
        return real(images, n)

    monkeypatch.setattr(perms, "_orbits", counting)
    for geom, group in (hexagon(), eight_cycle(), tq1_counterexample()):
        oq = OrbitQuotient(geom, group)
        builds.clear()
        report = _report(oq)
        assert builds == [len(flags_by_rank_lex(geom))]
        assert ((check_TQ1(oq), check_TQ2prime(oq), check_TQ2doubleprime(oq))
                == (report["tq1"], report["tq2prime"],
                    report["tq2doubleprime"]))
        again = OrbitQuotient(geom, PermGroup(group.gens))
        builds.clear()
        assert _report(again) == report
        assert builds == []


def _stabilizer_residue_orbits(group, flag, members):
    from geoq.perms import stabilizer
    return orbits_on(stabilizer(group, flag).gens, members, Perm.__getitem__)


def _tq2prime_by_stabilizers(oq):
    # the per-flag formulation: list G, keep the flag stabilizer and take
    # its orbits on the residue
    from geoq.geometry import extensions, flags_by_rank_lex
    for flag in flags_by_rank_lex(oq.source):
        if not flag:
            continue
        members = extensions(oq.source, flag)
        orbit_of = {x: k for k, orbit in enumerate(
                        _stabilizer_residue_orbits(oq.group, flag, members))
                    for x in orbit}
        per_block = {}
        for x in members:
            per_block.setdefault(oq.block_of[x], []).append(x)
        for k, xs in sorted(per_block.items()):
            for x in xs[1:]:
                if orbit_of[x] != orbit_of[xs[0]]:
                    return False, (flag, xs[0], x)
    return True, None


def _tq1_by_stabilizers(oq):
    from geoq.geometry import extensions, flags_by_rank_lex
    geom, q = oq.source, oq.quotient
    for flag in flags_by_rank_lex(geom):
        orbits = _stabilizer_residue_orbits(oq.group, flag,
                                            extensions(geom, flag))
        qflag = oq.project_flag(flag)
        target = set(extensions(q, qflag))
        image = [oq.block_of[orb[0]] for orb in orbits]
        if len(set(image)) != len(image):
            return False, (flag, "orbit map not injective")
        if set(image) != target:
            return False, (flag, "orbit map not onto the quotient residue")
        for i in range(len(orbits)):
            for j in range(i + 1, len(orbits)):
                have = any(geom.incident(x, y)
                           for x in orbits[i] for y in orbits[j])
                want = q.incident(image[i], image[j])
                if have != want:
                    return False, (flag, "incidence not matched")
    return True, None


def test_tq1_and_tq2prime_agree_with_stabilizer_scans(rng):
    from geoq.lemmas import random_orbit_quotient
    seen = {("tq1", True): 0, ("tq1", False): 0,
            ("tq2prime", True): 0, ("tq2prime", False): 0}
    reasons = set()
    draws = 0
    while draws < 300:
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        draws += 1
        tq1 = check_TQ1(oq)
        assert tq1 == _tq1_by_stabilizers(oq)
        tq2p = check_TQ2prime(oq)
        assert tq2p == _tq2prime_by_stabilizers(oq)
        seen["tq1", tq1[0]] += 1
        seen["tq2prime", tq2p[0]] += 1
        if not tq1[0]:
            reasons.add(tq1[1][1])
    assert min(seen.values()) >= 10, seen
    assert len(reasons) >= 2, reasons


# The sweeps over every flag that decided these axioms before the
# flag-orbit index, kept as the oracle for the scans over one flag per
# G-orbit: (TQ1) and (TQ2') on the G-orbits of incident (flag, residue
# member) pairs, (TQ2'') on the G-orbits of incident pairs, and (PQ1),
# (PQ2) and the cover test by their default full scan; the
# residually-surjective row is (PQ1), witness included.

def _member_image(g, item):
    flag, x = item
    return tuple(sorted(g[y] for y in flag)), g[x]


def _pair_image(g, pair):
    a, b = g[pair[0]], g[pair[1]]
    return (a, b) if a < b else (b, a)


def _sweep_report(oq):
    from geoq.geometry import extensions, flags_by_rank_lex, mask_of
    from geoq.quotient import (Projection, _residue_map_failure, check_PQ1,
                               check_PQ2, is_cover)
    from test_quotient import _search_flagslift
    proj = Projection(oq.source, oq.partition)  # names every flag
    geom, q, block_of = oq.source, proj.quotient, proj.block_of
    flags = flags_by_rank_lex(geom)
    items = [(f, x) for f in flags for x in extensions(geom, f)]
    member_orbit = {item: k for k, orbit in enumerate(
                        orbits_on(oq.group.gens, items, _member_image))
                    for item in orbit}

    def tq2prime():
        for flag in flags[1:]:
            per_block = {}
            for x in extensions(geom, flag):
                per_block.setdefault(block_of[x], []).append(x)
            for k, xs in sorted(per_block.items()):
                for x in xs[1:]:
                    if member_orbit[flag, x] != member_orbit[flag, xs[0]]:
                        return False, (flag, xs[0], x)
        return True, None

    def tq1():
        reasons = {"not injective": "orbit map not injective",
                   "not surjective": "orbit map not onto the quotient "
                                     "residue"}
        for flag in flags:
            classes = {}
            for x in extensions(geom, flag):
                classes.setdefault(member_orbit[flag, x], []).append(x)
            target = set(extensions(q, proj.project_flag(flag)))
            reason = _residue_map_failure(proj, list(classes.values()),
                                          mask_of(target))
            if reason is not None:
                return False, (flag, reasons.get(reason, reason))
        return True, None

    def tq2doubleprime():
        pair_orbits = orbits_on(oq.group.gens, sorted(geom.pairs),
                                _pair_image)
        orbit_of = {p: k for k, orbit in enumerate(pair_orbits)
                    for p in orbit}
        nbr = _neighbours(geom)
        for flag in flags:
            touch = set(range(geom.size))
            for x in flag:
                touch &= nbr[x] | {x}
            met = {block_of[x] for x in touch}
            hit = {orbit_of[(a, b)] for a in touch for b in nbr[a]
                   if a < b and b in touch}
            for k, orbit in enumerate(pair_orbits):
                a, b = orbit[0]
                if k not in hit and block_of[a] in met and block_of[b] in met:
                    return False, (flag, a, b)
        return True, None

    return {
        "flagslift": _search_flagslift(proj),
        "pq1": check_PQ1(proj),
        "pq2": check_PQ2(proj),
        "tq1": tq1(),
        "tq2prime": tq2prime(),
        "tq2doubleprime": tq2doubleprime(),
        "tq3": (check_TQ3(oq), None),
        "residually-surjective": check_PQ1(proj),
        "is-cover": (is_cover(proj), None),
    }


def _fixed_orbit_quotients():
    from geoq.constructions import shadowable_lift, ssg_symmetric_action
    from geoq.cosets import FiniteGroup, coseteg_family
    for n in (2, 5, 7):
        fam = coseteg_family(FiniteGroup.cyclic(n))
        yield fam.geometry, fam.action_group()
    parent, sym = ssg_symmetric_action(3, 2)
    lift = shadowable_lift(parent, 3, 2)
    yield lift.geometry, lift.wreath_group(sym)
    yield hexagon()
    yield eight_cycle()
    yield tq1_counterexample()


def test_orbit_representatives_agree_with_full_sweep(rng):
    # the deciders scan what an orbit-quotient names (its orbit leaders
    # and block leaders); a fresh projection onto the same partition names
    # every flag and element, and gives the same projection rows, witness
    # texts included, and the same block distance
    from geoq.axioms import PROJECTION_ROWS
    from geoq.lemmas import random_orbit_quotient
    from geoq.quotient import Projection
    names = ("flagslift", "tq1", "tq2prime", "tq2doubleprime", "pq1", "pq2",
             "residually-surjective", "is-cover")
    seen = {(name, v): 0 for name in names for v in (True, False)}
    oqs = [OrbitQuotient(g, grp) for g, grp in _fixed_orbit_quotients()]
    while len(oqs) < 307:
        oq = random_orbit_quotient(rng)
        if oq is not None:
            oqs.append(oq)
    for oq in oqs:
        report = _report(oq)
        assert report == _sweep_report(oq)
        for name in names:
            seen[name, report[name][0]] += 1
        _check_flag_orbit_labelling(oq)
        proj = Projection(oq.source, oq.partition)
        assert decider_rows(proj) == [row for row in decider_rows(oq)
                                      if row[0] in PROJECTION_ROWS]
        assert proj.block_distance == oq.block_distance
    assert min(seen.values()) >= 10, seen


# The flag-orbit index as each orbit-quotient built it before the
# labelling was kept with the geometry: each generator maps the flag
# table (lexicographic order) to image masks, a flag's image being its
# parent's image with g(last member) added, and one orbits_on call runs
# on the flag masks in (rank, lex) order.  Its keys are read back as
# the flags' member tuples.

def _mask_orbit_index(oq):
    from geoq.geometry import _flag_table, bits
    flags = _flag_table(oq.source)
    fmasks, parents, last = [0], [0], [0]
    for i in range(1, len(flags)):
        k = len(flags[i])
        parents.append(last[k - 1])
        fmasks.append(fmasks[last[k - 1]] | 1 << flags[i][-1])
        last[k:] = [i]
    maps = []
    for g in oq.group.gens:
        image = [0]
        for k in range(1, len(flags)):
            image.append(image[parents[k]] | 1 << g[flags[k][-1]])
        maps.append(dict(zip(fmasks, image)))
    orbits = orbits_on(maps, sorted(fmasks, key=int.bit_count),
                       dict.__getitem__)
    return ([tuple(bits(orbit[0])) for orbit in orbits],
            {tuple(bits(m)): k for k, orbit in enumerate(orbits)
             for m in orbit})


def _check_flag_orbit_labelling(oq):
    """The labelling equals the oracle."""
    from geoq.perms import _flag_orbits
    assert _flag_orbits(oq.source, oq.group.gens) == _mask_orbit_index(oq)


def _bundled_orbit_quotients():
    """Each bundled geometry with its bundled groups, the trivial group
    and, below 40 elements, its whole automorphism group."""
    from pathlib import Path

    import geoq
    from geoq import io
    from geoq.perms import automorphism_group
    data = Path(geoq.__file__).parent / "data"
    for path in sorted(data.glob("*.geo")):
        geom = io.parse_geometry(path.read_text())
        yield geom, PermGroup.trivial(geom.size)
        for grp in sorted(data.glob(path.stem + "*.grp")):
            yield geom, io.parse_group(grp.read_text(), geom)
        if geom.size < 40:
            yield geom, automorphism_group(geom)


def test_residually_surjective_row_is_the_pq1_row(rng):
    # a projection refuses a same-type incidence, so residual
    # surjectivity is (PQ1): its row gives (PQ1)'s verdict and witness
    from geoq.lemmas import random_orbit_quotient
    from geoq.quotient import check_PQ1
    oqs = [OrbitQuotient(g, grp) for g, grp in _bundled_orbit_quotients()]
    bundled = len(oqs)
    while len(oqs) < bundled + 300:
        oq = random_orbit_quotient(rng)
        if oq is not None:
            oqs.append(oq)
    seen = set()
    for oq in oqs:
        rows = {name: (verdict, text)
                for name, verdict, text in decider_rows(oq)}
        assert rows["residually-surjective"] == rows["pq1"]
        assert residual_surjectivity(oq) == check_PQ1(oq)[0]
        seen.add(rows["pq1"][0])
    assert seen == {True, False}


def test_flag_orbit_labelling_agrees_with_mask_orbits_on_bundled():
    count = 0
    for geom, group in _bundled_orbit_quotients():
        _check_flag_orbit_labelling(OrbitQuotient(geom, group))
        count += 1
    assert count >= 15, count


def test_flag_orbit_keys_are_the_flag_table_tuples():
    # the labelling builds no per-flag key: every key is the very tuple
    # the flag table holds
    from geoq.geometry import _flag_table
    from geoq.perms import _flag_orbits
    count = 0
    for geom, group in _bundled_orbit_quotients():
        table = {id(flag) for flag in _flag_table(geom)}
        _report(OrbitQuotient(geom, group))
        orbit_of = _flag_orbits(geom, group.gens)[1]
        assert len(orbit_of) == len(table)
        assert all(id(flag) in table for flag in orbit_of)
        count += 1
    assert count >= 15, count


# The flag-orbit index before it read the flag table: orbits_on on the
# flag tuples in (rank, lex) order under _flag_image, each image sorted,
# and the deciders looking up the sorted tuple of F + {x}.

def _flag_image(g, flag):
    """The image of a flag (a sorted tuple) under g, as a sorted tuple."""
    return tuple(sorted(g[x] for x in flag))


def _tuple_index(oq):
    from geoq.geometry import flags_by_rank_lex
    orbits = orbits_on(oq.group.gens, flags_by_rank_lex(oq.source),
                       _flag_image)
    return orbits, {f: k for k, orbit in enumerate(orbits) for f in orbit}


def _tuple_deciders(oq):
    from geoq.geometry import bits, extensions, mask_of
    from geoq.quotient import _residue_map_failure
    geom, q, block_of = oq.source, oq.quotient, oq.block_of
    orbits, orbit_of = _tuple_index(oq)
    reps = [orbit[0] for orbit in orbits]

    def tq1():
        reasons = {"not injective": "orbit map not injective",
                   "not surjective": "orbit map not onto the quotient "
                                     "residue"}
        for flag in reps:
            classes = {}
            for x in extensions(geom, flag):
                classes.setdefault(orbit_of[tuple(sorted(flag + (x,)))],
                                   []).append(x)
            target = set(extensions(q, oq.project_flag(flag)))
            reason = _residue_map_failure(oq, list(classes.values()),
                                          mask_of(target))
            if reason is not None:
                return False, (flag, reasons.get(reason, reason))
        return True, None

    def tq2prime():
        for flag in reps[1:]:
            per_block = {}
            for x in extensions(geom, flag):
                per_block.setdefault(block_of[x], []).append(x)
            for k, xs in sorted(per_block.items()):
                first = orbit_of[tuple(sorted(flag + (xs[0],)))]
                for x in xs[1:]:
                    if orbit_of[tuple(sorted(flag + (x,)))] != first:
                        return False, (flag, xs[0], x)
        return True, None

    def tq2doubleprime():
        masks = geom.masks
        pair_orbits = [(k, orbit[0]) for k, orbit in enumerate(orbits)
                       if len(orbit[0]) == 2]
        for flag in reps:
            touch = (1 << len(masks)) - 1
            for x in flag:
                touch &= masks[x] | 1 << x
            inside = bits(touch)
            met = {block_of[x] for x in inside}
            hit = {orbit_of[(a, b)] for a in inside
                   for b in bits(masks[a] & (touch >> a + 1 << a + 1))}
            for k, (a, b) in pair_orbits:
                if k not in hit and block_of[a] in met and block_of[b] in met:
                    return False, (flag, a, b)
        return True, None

    return tq1(), tq2prime(), tq2doubleprime()


def test_flag_orbit_index_agrees_with_flag_image_orbits(rng):
    from geoq.lemmas import random_orbit_quotient
    from geoq.perms import _flag_orbits
    oqs = [OrbitQuotient(g, grp) for g, grp in _fixed_orbit_quotients()]
    while len(oqs) < 507:
        oq = random_orbit_quotient(rng)
        if oq is not None:
            oqs.append(oq)
    failed = [0, 0, 0]
    for oq in oqs:
        orbits, orbit_of = _tuple_index(oq)
        assert _flag_orbits(oq.source, oq.group.gens) == (
            [orbit[0] for orbit in orbits], orbit_of)
        got = (check_TQ1(oq), check_TQ2prime(oq), check_TQ2doubleprime(oq))
        assert got == _tuple_deciders(oq)
        for i, (ok, _) in enumerate(got):
            failed[i] += not ok
    assert min(failed) >= 10 and len(oqs) - max(failed) >= 10, failed
