import re
from itertools import combinations

import pytest

from geoq.constructions import (affine_geometry, conneg_witness, hexagon,
                                ssg)
from geoq.geometry import (INF, Pregeometry, all_flags, bfs,
                           chamber_count_through, components, extensions,
                           flags_of_type,
                           incidence_distance, is_connected, is_firm,
                           is_flag, is_generalized_digon, is_geometry,
                           is_residually_connected, residue, truncation,
                           validate)
from geoq.lemmas import random_geometry, random_pregeometry


def _neighbours(geom):
    """Each element's neighbour set, read from the pair set."""
    out = [set() for _ in range(geom.size)]
    for a, b in geom.pairs:
        out[a].add(b)
        out[b].add(a)
    return out


def k22():
    return Pregeometry(["P", "L"], ["p0", "p1", "l0", "l1"], [0, 0, 1, 1],
                       [(0, 2), (0, 3), (1, 2), (1, 3)])


def test_validate_hexagon_ok():
    geom, _ = hexagon()
    assert validate(geom) is None


def test_validate_same_type_incidence():
    geom, _ = hexagon()
    bad = Pregeometry(geom.type_names, geom.elem_names, geom.elem_type,
                      set(geom.pairs) | {(0, 3)})
    report = validate(bad)
    assert report is not None and "same-type" in report


def test_is_geometry_refuses_a_same_type_incidence():
    # the flag walk reads masks alone, so {a1, a2} would pass for a
    # chamber; is_geometry and is_firm raise validate's report instead
    geom = Pregeometry(["A", "B"], ["a1", "a2", "b1", "b2"], [0, 0, 1, 1],
                       [(0, 1), (2, 3)])
    report = validate(geom)
    assert report == "same-type incidence: a1 * a2 (type A)"
    for decide in (is_geometry, is_firm):
        with pytest.raises(ValueError, match=re.escape(report)):
            decide(geom)


def test_validate_empty_type():
    geom = Pregeometry(["A", "B"], ["x"], [0], [])
    report = validate(geom)
    assert report is not None and "empty type" in report


def test_validate_ssg():
    assert validate(ssg(3, 2)) is None


def test_constructor_rejects_bad_indices():
    with pytest.raises(ValueError):
        Pregeometry(["A"], ["x"], [1], [])
    with pytest.raises(ValueError):
        Pregeometry(["A"], ["x", "x"], [0, 0], [])


def test_flags_of_type_chamber_count():
    # chains a < b < c of sizes 1, 2, 3 inside a 4-set: 4 * 3 * 2
    chams = flags_of_type(ssg(4, 3), [0, 1, 2])
    assert len(chams) == 24
    brute = 0
    geom = ssg(4, 3)
    n = geom.size
    for f in combinations(range(n), 3):
        if is_flag(geom, f) and len({geom.elem_type[x] for x in f}) == 3:
            brute += 1
    assert brute == 24


def test_flags_of_type_hexagon_no_chambers():
    geom, _ = hexagon()
    assert flags_of_type(geom, [0, 1, 2]) == []


def test_flags_of_type_empty_typeset():
    geom, _ = hexagon()
    assert flags_of_type(geom, []) == [()]


def test_flags_of_type_unknown_type():
    with pytest.raises(ValueError):
        flags_of_type(ssg(3, 2), [5])


def test_is_geometry():
    assert is_geometry(ssg(5, 3))[0]
    geom, _ = hexagon()
    ok, witness = is_geometry(geom)
    assert not ok and len(witness) == 2
    ag, _ = affine_geometry(3, 2)
    assert is_geometry(ag)[0]


def test_is_firm_rank1():
    geom = Pregeometry(["A"], ["x", "y"], [0, 0], [])
    assert is_firm(geom) == (True, None)


def test_is_firm_rejects_nongeometry():
    geom, _ = hexagon()
    with pytest.raises(ValueError):
        is_firm(geom)


def test_residue_of_empty_flag_is_whole():
    geom = ssg(4, 2)
    res, emap = residue(geom, ())
    assert res == geom
    assert emap == tuple(range(geom.size))


def test_residue_ssg():
    geom = ssg(4, 3)
    f = (geom.elem("{1}"),)
    res, emap = residue(geom, f)
    # supersets of {1}: three 2-sets and three 3-sets
    assert tuple(len(v) for v in res.by_type) == (3, 3)
    assert all(geom.incident(x, f[0]) for x in emap)


def test_residue_of_geometry_is_geometry(rng):
    for _ in range(25):
        geom = random_geometry(rng, max_rank=4, max_per_type=3)
        for flag in all_flags(geom):
            if len(flag) > 2:
                continue
            res, _ = residue(geom, flag)
            assert is_geometry(res)[0]


def test_residue_rejects_nonflag():
    geom = ssg(3, 2)
    with pytest.raises(ValueError):
        residue(geom, (0, 1))  # two singletons of the same type


def test_truncation_full_is_identity():
    geom = ssg(4, 3)
    assert truncation(geom, range(3)) == geom


def test_truncation_counts():
    ag, _ = affine_geometry(3, 2)
    tr = truncation(ag, [0, 1])
    assert tuple(len(v) for v in tr.by_type) == (8, 28)


def test_truncation_empty_rejected():
    with pytest.raises(ValueError):
        truncation(ssg(3, 2), [])


def test_incidence_distance():
    geom, _ = hexagon()
    assert incidence_distance(geom, 0, 3) == 3
    assert incidence_distance(geom, 2, 2) == 0
    two = Pregeometry(["A", "B"], ["a", "b", "c", "d"], [0, 1, 0, 1],
                      [(0, 1), (2, 3)])
    assert incidence_distance(two, 0, 2) == INF
    assert not is_connected(two)
    assert len(components(two)) == 2


def early_exit_distance(geom, a, b):
    """The single-pair search incidence_distance ran before it became a
    lookup in geometry.bfs: stop at the first layer that reaches b."""
    if a == b:
        return 0
    adj = _neighbours(geom)
    seen = {a}
    frontier = [a]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y == b:
                    return d
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return INF


def test_distance_is_metric_on_components(rng):
    for _ in range(10):
        geom = random_geometry(rng, max_rank=3, max_per_type=3)
        n = geom.size
        d = [[incidence_distance(geom, a, b) for b in range(n)] for a in range(n)]
        for a in range(n):
            assert d[a][a] == 0
            for b in range(n):
                assert d[a][b] == early_exit_distance(geom, a, b)
                assert d[a][b] == d[b][a]
                for c in range(n):
                    if d[a][b] is not INF and d[b][c] is not INF:
                        assert d[a][c] <= d[a][b] + d[b][c]


def test_bfs_labels_each_element_with_a_nearest_source(rng):
    # a label is one of the sources, at the reported distance, and that
    # distance is the least from any source; unreachable elements are
    # left out
    unreached = 0
    for i in range(60):
        if i % 2:
            geom = random_geometry(rng, max_rank=3, max_per_type=3)
        else:
            geom = random_pregeometry(rng, max_rank=3, max_per_type=3)
        sources = rng.sample(range(geom.size),
                             rng.randint(1, min(3, geom.size)))
        reach = bfs(geom.masks, sources)
        for y in range(geom.size):
            near = min(early_exit_distance(geom, s, y) for s in sources)
            if near == INF:
                assert y not in reach
                unreached += 1
                continue
            d, label = reach[y]
            assert label in sources
            assert d == near == early_exit_distance(geom, label, y)
    assert unreached > 0


def test_conneg_witness_properties():
    geom = conneg_witness()
    assert validate(geom) is None
    assert is_geometry(geom)[0]
    for J in combinations(range(3), 2):
        assert is_connected(truncation(geom, J))
    ok, witness = is_residually_connected(geom)
    assert not ok
    assert witness == (geom.elem("p1"),)


def test_ssg_residually_connected():
    ok, _ = is_residually_connected(ssg(4, 3))
    assert ok


def test_generalized_digon():
    assert is_generalized_digon(k22())
    from geoq.constructions import eight_cycle
    geom, _ = eight_cycle()
    assert not is_generalized_digon(geom)
    one = Pregeometry(["A", "B"], ["a", "b"], [0, 1], [(0, 1)])
    assert is_generalized_digon(one)
    with pytest.raises(ValueError):
        is_generalized_digon(ssg(4, 3))


def test_every_flag_extends_to_chamber_in_geometry(rng):
    # flags of a smaller type set are restrictions of larger-type flags
    for _ in range(20):
        geom = random_geometry(rng, max_rank=3, max_per_type=3)
        chams = set(flags_of_type(geom, range(geom.rank)))
        for flag in all_flags(geom):
            assert any(set(flag) <= set(c) for c in chams)


def _ij_path_exists(geom, p, q, i, j):
    # path whose interior elements all have type i or j
    if p == q or geom.incident(p, q):
        return True
    allowed = {i, j}
    adj = _neighbours(geom)
    seen = {p}
    frontier = [p]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y == q:
                    return True
                if y not in seen and geom.elem_type[y] in allowed:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return False


def test_ij_paths_in_residually_connected(rng):
    # in a residually connected pregeometry any two elements are joined
    # by a path running through two chosen types only
    instances = [ssg(4, 3), ssg(4, 2), affine_geometry(2, 2)[0]]
    for _ in range(15):
        geom = random_geometry(rng, max_rank=3, max_per_type=3)
        if is_residually_connected(geom)[0]:
            instances.append(geom)
    for geom in instances:
        assert is_residually_connected(geom)[0]
        for i, j in combinations(range(geom.rank), 2):
            for p in range(geom.size):
                for q in range(p + 1, geom.size):
                    assert _ij_path_exists(geom, p, q, i, j)


def _truncation_criterion(geom):
    # residual connectivity via nonempty connected pairwise truncations of
    # every residue avoiding the two types
    for i, j in combinations(range(geom.rank), 2):
        for flag in all_flags(geom):
            types = {geom.elem_type[x] for x in flag}
            if i in types or j in types:
                continue
            res, _ = residue(geom, flag)
            keep = [t for t in range(res.rank)
                    if res.type_names[t] in (geom.type_names[i],
                                             geom.type_names[j])]
            tr = truncation(res, keep)
            if tr.size == 0 or not is_connected(tr):
                return False
    return True


def test_residual_connectivity_matches_truncation_criterion(rng):
    # dual route for geometries: the definition agrees with the pairwise
    # truncation criterion
    count = 0
    while count < 25:
        geom = random_geometry(rng, max_rank=4, max_per_type=3)
        if geom.rank < 2:
            continue
        count += 1
        assert is_residually_connected(geom)[0] == _truncation_criterion(geom)


def test_rc_pregeometry_is_geometry_iff_no_corank1_maximal(rng):
    count = 0
    while count < 30:
        geom = random_pregeometry(rng, max_rank=3, max_per_type=3)
        if not is_residually_connected(geom)[0]:
            continue
        count += 1
        no_corank1_maximal = all(
            extensions(geom, flag)
            for flag in all_flags(geom) if len(flag) == geom.rank - 1)
        assert is_geometry(geom)[0] == no_corank1_maximal


def test_chamber_count_through():
    geom = ssg(3, 2)
    assert chamber_count_through(geom, ()) == 6
    f = (geom.elem("{1}"),)
    assert chamber_count_through(geom, f) == 2
    # two points are not a flag, so no chamber contains them
    assert chamber_count_through(geom, (geom.elem("{1}"), geom.elem("{2}"))) == 0


def _backtrack_flags_of_type(geom, types):
    # reference: backtrack over the types in index order
    J = sorted(set(types))
    adj = _neighbours(geom)
    out = []

    def rec(k, flag):
        if k == len(J):
            out.append(tuple(sorted(flag)))
            return
        for x in geom.by_type[J[k]]:
            if all(x in adj[y] for y in flag):
                flag.append(x)
                rec(k + 1, flag)
                flag.pop()

    rec(0, [])
    return sorted(out)


def _backtrack_chamber_count_through(geom, flag):
    # reference: complete the flag type by type and count completions
    missing = sorted(set(range(geom.rank))
                     - {geom.elem_type[x] for x in flag})
    adj = _neighbours(geom)
    count = 0

    def rec(k, cur):
        nonlocal count
        if k == len(missing):
            count += 1
            return
        for x in geom.by_type[missing[k]]:
            if all(x in adj[y] for y in cur):
                cur.append(x)
                rec(k + 1, cur)
                cur.pop()

    rec(0, list(flag))
    return count


def test_flag_filters_agree_with_backtracking_oracles(rng):
    nongeometries = 0
    for i in range(60):
        if i % 2:
            geom = random_geometry(rng, max_rank=4, max_per_type=3)
        else:
            geom = random_pregeometry(rng, max_rank=4, max_per_type=3)
            nongeometries += not is_geometry(geom)[0]
        for k in range(geom.rank + 1):
            for J in combinations(range(geom.rank), k):
                assert flags_of_type(geom, J) == _backtrack_flags_of_type(geom, J)
        for flag in all_flags(geom):
            assert (chamber_count_through(geom, flag)
                    == _backtrack_chamber_count_through(geom, flag))
    assert nongeometries >= 10


def test_flags_are_enumerated_once_per_geometry(monkeypatch):
    import geoq.geometry
    from geoq.diagram import basic_diagram
    enumerations = []
    backtrack = geoq.geometry.all_flags

    def counting_all_flags(geom):
        enumerations.append(geom)
        return backtrack(geom)

    monkeypatch.setattr(geoq.geometry, "all_flags", counting_all_flags)
    for decider in (geoq.geometry.flags_by_rank_lex, is_geometry,
                    is_residually_connected, basic_diagram):
        geom = ssg(4, 3)
        first = decider(geom)
        assert enumerations
        del enumerations[:]
        assert decider(geom) is first
        assert not enumerations, decider.__name__
    geom = ssg(4, 3)
    geoq.geometry.flags_by_rank_lex(geom)
    is_geometry(geom)
    del enumerations[:]
    assert len(flags_of_type(geom, range(3))) == 24
    assert chamber_count_through(geom, (geom.elem("{1}"),)) == 6
    assert is_firm(geom) == (True, None)
    assert not enumerations
    # is_geometry's walk, when it reaches the end, and the flag cap's
    # walk are kept as the flag table; neither walks twice
    geom = ssg(4, 3)
    assert is_geometry(geom) == (True, None)
    geoq.geometry.flags_by_rank_lex(geom)
    assert enumerations == [geom]
    del enumerations[:]
    geom = ssg(4, 3)
    flags = geoq.geometry.all_flags(geom)
    assert geoq.geometry.keep_flags(geom, flags, 10 ** 4)
    assert next(flags, None) is None  # the cap test read the whole walk
    geoq.geometry.flags_by_rank_lex(geom)
    assert is_geometry(geom) == (True, None)
    assert enumerations == [geom]


def test_extensions_exclude_flag_types():
    geom = ssg(4, 3)
    f = (geom.elem("{1}"), geom.elem("{1,2}"))
    ext = extensions(geom, f)
    assert all(geom.elem_type[x] == 2 for x in ext)
    assert len(ext) == 2


def test_bfs_ends_at_the_depth_or_the_stop_layer(rng):
    # an ended search is the full search cut after its last layer: after
    # layer depth, or after the first layer meeting the stop mask
    from geoq.geometry import INF, bfs, bits
    from geoq.lemmas import random_geometry
    ended = 0
    for _ in range(200):
        geom = random_geometry(rng)
        masks = geom.masks
        sources = rng.sample(range(geom.size), rng.randint(1, 2))
        full = bfs(masks, sources)
        depth = rng.choice([0, 1, 2, INF])
        stop = rng.getrandbits(geom.size) & rng.getrandbits(geom.size)
        got = bfs(masks, sources, stop=stop, depth=depth)
        hits = [full[y][0] for y in bits(stop) if y in full
                and y not in sources]
        last = min([depth] + hits)
        assert got == {y: v for y, v in full.items() if v[0] <= last}
        ended += got != full
    assert ended >= 50, ended
