from itertools import combinations, permutations

import pytest

from geoq.constructions import (SimpleGraph, affine_geometry, blowup,
                                blowup_group, blowup_projection,
                                conneg_witness, example_generators,
                                fano_plane, flnotpq1_witness,
                                grid_complement, hexagon, is_shadowable,
                                isomorphic, multipartite_geometry, shadow,
                                shadowable_lift, ssg)
from geoq.geometry import (Pregeometry, chamber_count_through, flags_of_type,
                           is_connected, is_geometry, validate)
from geoq.lemmas import random_geometry, random_pregeometry
from geoq.perms import Perm, PermGroup, automorphism_group, orbit_partition
from geoq.quotient import Projection


def test_ssg_counts_and_bounds():
    geom = ssg(3, 2)
    assert tuple(len(v) for v in geom.by_type) == (3, 3)
    assert len(flags_of_type(geom, [0, 1])) == 6
    rank1 = ssg(5, 1)
    assert rank1.rank == 1 and rank1.size == 5
    with pytest.raises(ValueError):
        ssg(1, 1)
    with pytest.raises(ValueError):
        ssg(4, 4)


def test_shadow_values():
    geom = ssg(4, 3)
    x = geom.elem("{1,2}")
    assert shadow(geom, 0, x) == {geom.elem("{1}"), geom.elem("{2}")}
    p = geom.elem("{3}")
    assert shadow(geom, 0, p) == {p}


def test_is_shadowable():
    assert is_shadowable(ssg(4, 3))[0]
    ag, _ = affine_geometry(3, 2)
    ok, sizes = is_shadowable(ag)
    assert ok and sizes == {0: 1, 1: 2, 2: 4}
    geom, _ = hexagon()
    ok, reason = is_shadowable(geom)
    assert not ok and reason == "not a geometry"


def test_not_shadowable_when_shadows_collide():
    # two lines through the same two points share a shadow
    geom = Pregeometry(["pt", "ln"], ["p", "q", "l", "m"], [0, 0, 1, 1],
                       [(0, 2), (1, 2), (0, 3), (1, 3)])
    ok, reason = is_shadowable(geom)
    assert not ok and reason == "shadow operator not injective"


def test_blowup_shape():
    base = ssg(3, 2)
    graph = SimpleGraph.complete(3)
    big = blowup(base, graph)
    assert big.size == base.size * 3
    assert validate(big) is None
    assert big.type_names == base.type_names
    # inherited types and fibre-major element order
    assert big.elem_type[0 * 3 + 1] == base.elem_type[0]


def test_blowup_quotient_is_base():
    base = ssg(3, 2)
    for graph in (SimpleGraph.complete(2), SimpleGraph.cycle(5)):
        big, proj = blowup_projection(base, graph)
        assert isomorphic(proj.quotient, base)[0]


def test_blowup_fibres_are_orbits_of_vertex_transitive_group():
    base = ssg(3, 2)
    for graph in (SimpleGraph.complete(2), SimpleGraph.cycle(5)):
        h = graph.automorphisms()
        big, proj = blowup_projection(base, graph)
        one_h = blowup_group(base, graph, PermGroup.trivial(base.size), h)
        assert orbit_partition(one_h, big) == proj.partition


def test_blowup_connectivity_part():
    base = ssg(3, 2)
    big = blowup(base, SimpleGraph.cycle(5))
    assert is_connected(big)


def test_blowup_geometry_part():
    base = ssg(3, 2)
    assert is_geometry(blowup(base, SimpleGraph.complete(3)))[0]
    bad = SimpleGraph(["a", "b", "c"], [(0, 1)])  # isolated vertex
    assert not is_geometry(blowup(base, bad))[0]


def test_graph_helpers():
    assert SimpleGraph.matching(2).is_matching()
    assert not SimpleGraph.path(3).is_matching()
    assert SimpleGraph.cycle(5).is_connected()
    assert not SimpleGraph.cycle(5).is_bipartite()
    assert SimpleGraph.cycle(6).is_bipartite()
    assert not SimpleGraph.matching(2).is_connected()
    assert len(SimpleGraph.complete(4).cliques_of_size(3)) == 4
    assert SimpleGraph.complete(3).automorphisms().order() == 6
    assert SimpleGraph.path(3).automorphisms().order() == 2
    assert SimpleGraph.matching(2).automorphisms().order() == 8
    with pytest.raises(ValueError):
        SimpleGraph(["a"], [(0, 0)])


def test_simple_graph_is_a_one_type_pregeometry():
    # the names, edges, size and automorphism generators of the graph
    # from before it was a pregeometry; its edges are its incidences
    cases = [
        (SimpleGraph.complete(5), combinations(range(5), 2), 120,
         [(0, 1, 2, 4, 3), (0, 1, 3, 2, 4), (0, 2, 1, 3, 4),
          (1, 0, 2, 3, 4)]),
        (SimpleGraph.cycle(7), [(0, 1), (0, 6), (1, 2), (2, 3), (3, 4),
                                (4, 5), (5, 6)], 14,
         [(0, 6, 5, 4, 3, 2, 1), (1, 0, 6, 5, 4, 3, 2)]),
        (SimpleGraph.path(4), [(0, 1), (1, 2), (2, 3)], 2, [(3, 2, 1, 0)]),
        (SimpleGraph.matching(3), [(0, 1), (2, 3), (4, 5)], 48,
         [(0, 1, 2, 3, 5, 4), (0, 1, 3, 2, 4, 5), (0, 1, 4, 5, 2, 3),
          (1, 0, 2, 3, 4, 5), (2, 3, 0, 1, 4, 5)]),
        (SimpleGraph([], []), [], 1, [])]
    for graph, edges, order, gens in cases:
        assert isinstance(graph, Pregeometry) and graph.rank == 1
        assert graph.names == tuple(map(str, range(graph.size)))
        assert graph.edges == frozenset(edges) == graph.pairs
        group = graph.automorphisms()
        assert group.order() == order
        assert list(group.gens) == gens
    assert SimpleGraph.path(4).size == 4 and SimpleGraph([], []).size == 0
    with pytest.raises(ValueError, match="duplicate element name"):
        SimpleGraph(["a", "a"], [(0, 1)])
    with pytest.raises(ValueError, match="loops not allowed"):
        SimpleGraph(["a", "b"], [(0, 1), (1, 1)])


def test_shadowable_lift_rank1_is_vertices_only():
    lift = shadowable_lift(ssg(3, 1), 3, 2)
    assert lift.geometry.rank == 1
    assert lift.geometry.size == 9
    assert len(lift.geometry.pairs) == 0


def test_shadowable_lift_parameter_bounds():
    with pytest.raises(ValueError):
        shadowable_lift(ssg(3, 2), 2, 1)
    with pytest.raises(ValueError):
        shadowable_lift(ssg(3, 2), 3, 3)
    geom, _ = hexagon()
    with pytest.raises(ValueError):
        shadowable_lift(geom, 3, 2)


def test_shadowable_lift_structure():
    lift = shadowable_lift(ssg(3, 2), 3, 2)
    big = lift.geometry
    assert tuple(len(v) for v in big.by_type) == (9, 27)
    assert is_geometry(big)[0]
    assert lift.base_group().order() == 6 ** 3


def test_affine_counts():
    ag32, trans = affine_geometry(3, 2)
    assert tuple(len(v) for v in ag32.by_type) == (8, 28, 14)
    assert trans.order() == 8
    ag22, t22 = affine_geometry(2, 2)
    assert tuple(len(v) for v in ag22.by_type) == (4, 6)
    assert t22.order() == 4
    ag23, t23 = affine_geometry(2, 3)
    assert tuple(len(v) for v in ag23.by_type) == (9, 12)
    with pytest.raises(ValueError):
        affine_geometry(4, 2)
    with pytest.raises(ValueError):
        affine_geometry(3, 5)


def test_fano_plane():
    f = fano_plane()
    assert tuple(len(v) for v in f.by_type) == (7, 7)
    assert all(len(nbr) == 3 for nbr in _neighbours(f.size, f.pairs))
    assert is_geometry(f)[0]


def test_multipartite_counts():
    geom, ngrp, ggrp = multipartite_geometry(2, 4, 2)
    assert tuple(len(v) for v in geom.by_type) == (8, 16, 36)
    assert ngrp.order() == 24 * 24
    assert ggrp.order() == 24 * 24 * 2
    with pytest.raises(ValueError):
        multipartite_geometry(1, 4, 2)
    with pytest.raises(ValueError):
        multipartite_geometry(2, 4, 4)


def test_grid_complement_unique_chamber_flag():
    geom, part = grid_complement()
    proj = Projection(geom, part)
    q = proj.quotient
    flag = tuple(sorted((q.elem("{(1,1),(1,2)}"), q.elem("{(2,3)}"))))
    assert chamber_count_through(q, flag) == 1


def test_example_generators_catalogue():
    gens = example_generators()
    assert set(gens) == {"hexagon", "eightcycle", "grid-complement",
                         "multipartite", "conneg", "flnotpq1"}
    for name, make in gens.items():
        made = make()
        geom = made[0] if isinstance(made, tuple) else made
        assert validate(geom) is None


def test_isomorphic_relabelled():
    geom = ssg(3, 2)
    relabelled = Pregeometry(["a", "b"],
                             ["e%d" % i for i in range(geom.size)],
                             geom.elem_type, geom.pairs)
    found, mapping = isomorphic(geom, relabelled)
    assert found
    for a in range(geom.size):
        for b in range(geom.size):
            assert geom.incident(a, b) == relabelled.incident(mapping[a], mapping[b])


def test_isomorphic_distinguishes_cycles():
    def cyc(n, shift=0):
        names = ["c%d" % x for x in range(n)]
        return Pregeometry(["even", "odd"], names, [x % 2 for x in range(n)],
                           [(x, (x + 1) % n) for x in range(n)])

    c8 = cyc(8)
    two_c4 = Pregeometry(
        ["even", "odd"], ["d%d" % x for x in range(8)],
        [x % 2 for x in range(8)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    assert not isomorphic(c8, two_c4)[0]
    assert isomorphic(c8, cyc(8))[0]


def test_isomorphic_type_respecting():
    a = Pregeometry(["A", "B"], ["x", "y"], [0, 1], [(0, 1)])
    b = Pregeometry(["A", "B"], ["x", "y"], [1, 0], [(0, 1)])
    found, _ = isomorphic(a, b)
    assert found  # same counts per type index after sorting
    c = Pregeometry(["A", "B"], ["x", "y", "z"], [0, 1, 1], [(0, 1), (0, 2)])
    assert not isomorphic(a, c)[0]


def test_conneg_and_flnotpq1_ship_valid():
    assert validate(conneg_witness()) is None
    geom, part = flnotpq1_witness()
    assert validate(geom) is None
    assert len(part.blocks) == 2


# Reference implementations that share no code with the library's
# searches: a scan over all n! vertex permutations, a clique recursion, a
# breadth-first search, and a standalone isomorphism backtracker that
# stops at its first leaf.

def brute_force_graph_automorphisms(graph):
    return {Perm(images) for images in permutations(range(graph.size))
            if all((min(images[a], images[b]), max(images[a], images[b]))
                   in graph.edges for a, b in graph.edges)}


def _neighbours(size, edges):
    """Each vertex's neighbour set, read from an edge set."""
    out = [set() for _ in range(size)]
    for a, b in edges:
        out[a].add(b)
        out[b].add(a)
    return out


def recursive_cliques(graph, r):
    if r == 0:
        return [()]
    out = []
    adj = _neighbours(graph.size, graph.edges)

    def rec(cur, cand):
        if len(cur) == r:
            out.append(tuple(cur))
            return
        for i, x in enumerate(cand):
            rec(cur + [x], [y for y in cand[i + 1:] if y in adj[x]])

    rec([], list(range(graph.size)))
    return out


def bfs_connected(graph):
    if graph.size == 0:
        return True
    adj = _neighbours(graph.size, graph.edges)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == graph.size


def two_colouring_bipartite(graph):
    """The 2-colouring search SimpleGraph.is_bipartite ran before it read
    distance parities from geometry.bfs."""
    adj = _neighbours(graph.size, graph.edges)
    colour = {}
    for start in range(graph.size):
        if start in colour:
            continue
        colour[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in colour:
                        colour[y] = 1 - colour[x]
                        nxt.append(y)
                    elif colour[y] == colour[x]:
                        return False
            frontier = nxt
    return True


def old_isomorphic(ga, gb):
    if ga.rank != gb.rank or ga.size != gb.size:
        return False, None
    if tuple(len(v) for v in ga.by_type) != tuple(len(v) for v in gb.by_type):
        return False, None
    if len(ga.pairs) != len(gb.pairs):
        return False, None

    def profiles(g):
        adj = _neighbours(g.size, g.pairs)
        return [(g.elem_type[x], len(adj[x]),
                 tuple(sorted((g.elem_type[y], len(adj[y])) for y in adj[x])))
                for x in range(g.size)]

    pa = profiles(ga)
    pb = profiles(gb)
    if sorted(pa) != sorted(pb):
        return False, None
    cands = {x: [y for y in range(gb.size) if pb[y] == pa[x]]
             for x in range(ga.size)}
    order = sorted(range(ga.size), key=lambda x: (len(cands[x]), x))
    images = [None] * ga.size
    used = [False] * gb.size

    def rec(k):
        if k == ga.size:
            return True
        x = order[k]
        for y in cands[x]:
            if used[y]:
                continue
            if all(ga.incident(x, z) == gb.incident(y, images[z])
                   for z in order[:k]):
                images[x] = y
                used[y] = True
                if rec(k + 1):
                    return True
                used[y] = False
                images[x] = None
        return False

    if rec(0):
        return True, tuple(images)
    return False, None


def builder_graphs():
    """Every SimpleGraph builder at every size with at most 6 vertices."""
    return ([SimpleGraph.complete(n) for n in range(7)]
            + [SimpleGraph.cycle(n) for n in range(3, 7)]
            + [SimpleGraph.path(n) for n in range(1, 7)]
            + [SimpleGraph.matching(k) for k in range(4)])


def graphs_on_five_vertices():
    """All 1,024 labelled simple graphs on 5 vertices."""
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        yield SimpleGraph([str(x) for x in range(5)],
                          [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_graph_automorphisms_agree_with_brute_force():
    for graph in builder_graphs() + list(graphs_on_five_vertices()):
        want = brute_force_graph_automorphisms(graph)
        assert graph.automorphisms().elements() == want
        n = graph.size
        one_type = Pregeometry(["v"], [str(x) for x in range(n)], [0] * n,
                               graph.edges)
        assert automorphism_group(one_type).elements() == want


def test_graph_cliques_and_connectivity_agree_with_old_searches():
    five = list(graphs_on_five_vertices())
    for graph in builder_graphs() + five:
        for r in range(graph.size + 2):
            assert graph.cliques_of_size(r) == recursive_cliques(graph, r)
        assert graph.is_connected() == bfs_connected(graph)
        assert graph.is_bipartite() == two_colouring_bipartite(graph)
    # the numbers of connected and of bipartite labelled graphs on 5 vertices
    assert sum(graph.is_connected() for graph in five) == 728
    assert sum(graph.is_bipartite() for graph in five) == 376


def relabel(geom, rng):
    order = list(range(geom.size))
    rng.shuffle(order)
    new = {old: k for k, old in enumerate(order)}
    return Pregeometry(geom.type_names,
                       [geom.elem_names[x] for x in order],
                       [geom.elem_type[x] for x in order],
                       [(new[a], new[b]) for a, b in geom.pairs])


def test_isomorphic_agrees_with_old_search(rng):
    moved = 0
    for i in range(300):
        draw = random_geometry if i % 2 else random_pregeometry
        geom = draw(rng, max_rank=3, max_per_type=3)
        other = relabel(geom, rng)
        got = isomorphic(geom, other)
        assert got[0] and got == old_isomorphic(geom, other)
        moved += got[1] != tuple(range(geom.size))
    assert moved > 200
    outcomes = set()
    for _ in range(300):
        ga = random_pregeometry(rng, max_rank=2, max_per_type=3)
        gb = random_pregeometry(rng, max_rank=2, max_per_type=3)
        got = isomorphic(ga, gb)
        assert got == old_isomorphic(ga, gb)
        outcomes.add(got[0])
    assert outcomes == {False, True}
    # 2-regular bipartite pairs share every invariant the search checks
    # (unions of cycles of even length), so the search itself decides
    outcomes = set()
    for _ in range(150):
        n = rng.randint(4, 5)
        ga, gb = two_regular_bipartite(rng, n), two_regular_bipartite(rng, n)
        got = isomorphic(ga, gb)
        assert got == old_isomorphic(ga, gb)
        outcomes.add(got[0])
    assert outcomes == {False, True}


def two_regular_bipartite(rng, n):
    """n points and n lines, each point on two lines: a random union of
    two disjoint perfect matchings."""
    while True:
        first, second = list(range(n)), list(range(n))
        rng.shuffle(first)
        rng.shuffle(second)
        if all(a != b for a, b in zip(first, second)):
            break
    pairs = [(x, n + first[x]) for x in range(n)]
    pairs += [(x, n + second[x]) for x in range(n)]
    return Pregeometry(["P", "L"], ["e%d" % x for x in range(2 * n)],
                       [0] * n + [1] * n, pairs)
