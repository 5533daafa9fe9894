"""The incidence layer on masks against the set-based code it replaced.

The oracles below are the flag backtracker, extension sets, maximality
test, lift search, residue-map loop and restriction as they were before
incidence was kept as integer masks only: lists filtered by neighbour
sets read from the pair set, `set &` and `sorted` per flag, incidence
read from the pair set, and each residue's pairs found by a scan of all
of them.  `flags_of_type` is checked against the filter over the whole
flag list that its per-geometry index replaced.
"""

from itertools import combinations
from pathlib import Path

import pytest

import geoq
from geoq import io as gio
from geoq.constructions import (SimpleGraph, affine_geometry,
                                example_generators, ssg)
from geoq.cosets import FiniteGroup, coseteg_family
from geoq.geometry import (Pregeometry, all_flags, extensions,
                           flags_by_rank_lex, flags_of_type, is_flag,
                           is_geometry, residue, truncation)
from geoq.lemmas import random_geometry, random_partition, random_pregeometry
from geoq.quotient import Projection, _residue_map_failure, lift_flag


def _neighbours(geom):
    """Each element's neighbour set, read from the pair set (a graph's
    edge set)."""
    out = [set() for _ in range(geom.size)]
    for a, b in geom.edges if isinstance(geom, SimpleGraph) else geom.pairs:
        out[a].add(b)
        out[b].add(a)
    return out


def _set_all_flags(geom):
    adj = _neighbours(geom)

    def rec(flag, cand):
        yield tuple(flag)
        for i, x in enumerate(cand):
            nxt = [y for y in cand[i + 1:] if y in adj[x]]
            flag.append(x)
            yield from rec(flag, nxt)
            flag.pop()
    yield from rec([], list(range(geom.size)))


def _set_extensions(geom, adj, flag):
    # adj: geom's _neighbours, built once by the caller
    if not flag:
        return sorted(range(geom.size))
    out = set(adj[flag[0]])
    for x in flag[1:]:
        out &= adj[x]
    return sorted(out)


def _set_is_geometry(geom):
    adj = _neighbours(geom)
    for flag in _set_all_flags(geom):
        if len(flag) < geom.rank and not _set_extensions(geom, adj, flag):
            return False, flag
    return True, None


def _filter_flags_of_type(geom, types):
    J = set(types)
    et = geom.elem_type
    return [f for f in flags_by_rank_lex(geom)
            if len(f) == len(J) and all(et[x] in J for x in f)]


def _pair_incident(geom, a, b):
    return a == b or (min(a, b), max(a, b)) in geom.pairs


def _set_lift_flag(proj, adj, qflag):
    # adj: the source's _neighbours, built once by the caller
    blocks = [proj.fiber(k) for k in qflag]

    def rec(i, chosen):
        if i == len(blocks):
            return tuple(sorted(chosen))
        for x in blocks[i]:
            if all(x in adj[y] for y in chosen):
                got = rec(i + 1, chosen + [x])
                if got is not None:
                    return got
        return None

    return rec(0, [])


def _set_residue_map_failure(proj, classes, target):
    src, q, block_of = proj.source, proj.quotient, proj.block_of
    image = [block_of[c[0]] for c in classes]
    if len(set(image)) != len(image):
        return "not injective"
    if set(image) != target:
        return "not surjective"
    for i, a in enumerate(classes):
        for j in range(i + 1, len(classes)):
            have = any(_pair_incident(src, x, y)
                       for x in a for y in classes[j])
            if have != _pair_incident(q, image[i], image[j]):
                return "incidence not matched"
    return None


def _pair_scan_restriction(geom, types, members):
    """The pregeometry on members with the given types, its pairs found
    by scanning all of geom.pairs."""
    tmap = {t: k for k, t in enumerate(types)}
    emap = {x: k for k, x in enumerate(members)}
    pairs = [(emap[a], emap[b]) for a, b in geom.pairs
             if a in emap and b in emap]
    return Pregeometry(
        [geom.type_names[t] for t in types],
        [geom.elem_names[x] for x in members],
        [tmap[geom.elem_type[x]] for x in members],
        pairs)


def _check_restrictions(geom, flags):
    """residue at each of flags and truncation to every nonempty type set
    against the pair scan; returns how many were compared."""
    adj = _neighbours(geom)
    seen = 0
    for flag in flags:
        got, members = residue(geom, flag)
        ftypes = {geom.elem_type[x] for x in flag}
        want = _pair_scan_restriction(
            geom, [t for t in range(geom.rank) if t not in ftypes],
            _set_extensions(geom, adj, flag))
        assert members == tuple(_set_extensions(geom, adj, flag))
        assert got == want and got.masks == want.masks
        seen += 1
    for r in range(1, geom.rank + 1):
        for types in combinations(range(geom.rank), r):
            members = [x for x in range(geom.size)
                       if geom.elem_type[x] in types]
            got = truncation(geom, types)
            want = _pair_scan_restriction(geom, list(types), members)
            assert got == want and got.masks == want.masks
            seen += 1
    return seen


def _bundled_geometries():
    data = Path(geoq.__file__).parent / "data"
    for path in sorted(data.glob("*.geo")):
        yield gio.parse_geometry(path.read_text())
    for make in example_generators().values():
        made = make()
        yield made[0] if isinstance(made, tuple) else made
    # masks wider than a machine word
    yield ssg(5, 3)
    yield coseteg_family(FiniteGroup.cyclic(5)).geometry
    yield affine_geometry(3, 3)[0]


def _check_flag_layer(geom):
    flags = list(all_flags(geom))
    assert flags == list(_set_all_flags(geom))
    adj = _neighbours(geom)
    for flag in flags:
        assert extensions(geom, flag) == _set_extensions(geom, adj, flag)
    assert is_geometry(geom) == _set_is_geometry(geom)
    for r in range(geom.rank + 1):
        for types in combinations(range(geom.rank), r):
            assert (flags_of_type(geom, types)
                    == _filter_flags_of_type(geom, types))
    for a in range(geom.size):
        for b in range(geom.size):
            assert geom.incident(a, b) == _pair_incident(geom, a, b)
    return flags


def _check_projection(proj, reasons):
    src, q = proj.source, proj.quotient
    adj = _neighbours(src)
    for qflag in flags_by_rank_lex(q):
        assert lift_flag(proj, qflag) == _set_lift_flag(proj, adj, qflag)
    for flag in flags_by_rank_lex(src):
        ext = extensions(src, flag)
        target = set(extensions(q, proj._project(flag)))
        by_block = {}
        for x in ext:
            by_block.setdefault(proj.block_of[x], []).append(x)
        for classes in ([(x,) for x in ext], list(by_block.values())):
            got = _residue_map_failure(proj, classes, target)
            assert got == _set_residue_map_failure(proj, classes, target)
            reasons.add(got)


def test_mask_layer_agrees_with_set_layer(rng):
    reasons = set()
    verdicts = set()
    for i in range(520):
        if i % 2:
            geom = random_geometry(rng, max_rank=4, max_per_type=3)
        else:
            geom = random_pregeometry(rng, max_rank=4, max_per_type=4)
        flags = _check_flag_layer(geom)
        _check_restrictions(geom, flags)
        verdicts.add(is_geometry(geom)[0])
        _check_projection(Projection(geom, random_partition(rng, geom)),
                          reasons)
    assert verdicts == {True, False}
    assert reasons == {None, "not injective", "not surjective",
                       "incidence not matched"}, reasons


def test_mask_layer_agrees_on_bundled_geometries(rng):
    seen = 0
    for geom in _bundled_geometries():
        flags = _check_flag_layer(geom)
        _check_restrictions(geom, flags if len(flags) <= 400
                            else [()] + rng.sample(flags, 150))
        _check_projection(Projection(geom, random_partition(rng, geom)),
                          set())
        seen += 1
    assert seen == 16


def test_restrictions_agree_with_pair_scan_on_coseteg7(rng):
    geom = coseteg_family(FiniteGroup.cyclic(7)).geometry
    sample = [()] + rng.sample(flags_by_rank_lex(geom), 200)
    assert _check_restrictions(geom, sample) == 201 + 15


def test_cliques_agree_with_set_backtracker(rng):
    graphs = [SimpleGraph.complete(5), SimpleGraph.cycle(7),
              SimpleGraph.path(4), SimpleGraph.matching(3),
              SimpleGraph([], [])]
    for _ in range(60):
        n = rng.randint(1, 9)
        graphs.append(SimpleGraph(
            [str(x) for x in range(n)],
            [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.5]))
    for graph in graphs:
        assert list(all_flags(graph)) == list(_set_all_flags(graph))
        for r in range(4):
            assert graph.cliques_of_size(r) == [
                c for c in _set_all_flags(graph) if len(c) == r]


def test_is_flag_reads_masks():
    geom = ssg(4, 2)
    p, l = geom.elem("{1}"), geom.elem("{1,2}")
    assert is_flag(geom, [p, l]) and is_flag(geom, [l, p, l])
    assert not is_flag(geom, [geom.elem("{3}"), l])
    assert not is_flag(geom, [p, geom.elem("{2}")])  # same type
    assert is_flag(geom, []) and is_flag(geom, [p])
    empty = Pregeometry(["a"], [], [], [])
    assert list(all_flags(empty)) == [()]
    assert is_geometry(empty) == (False, ())


def test_flags_of_type_index_keeps_its_contract():
    geom = ssg(4, 2)
    points = flags_of_type(geom, [0])
    assert points == [(x,) for x in geom.by_type[0]]
    assert flags_of_type(geom, (0, 0)) == points  # a set of type ids
    assert flags_of_type(geom, {1, 0}) == flags_of_type(geom, [0, 1])
    assert flags_of_type(geom, []) == [()]
    points.clear()  # each call returns a fresh list
    assert flags_of_type(geom, [0]) == [(x,) for x in geom.by_type[0]]
    for bad in ([2], [0, -1]):
        with pytest.raises(ValueError, match="unknown type id"):
            flags_of_type(geom, bad)
