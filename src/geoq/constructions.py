"""
Example generators and lifting constructions: subset geometries, shadows
and shadowable lifts, graph blow-ups, affine spaces with their translation
groups, the bespoke example catalogue, and isomorphism testing.

The subset geometries, shadowable lifts, affine spaces, multipartite
examples and the Fano plane are set systems, built by _set_system: each
element is a named point set of one type, elements of distinct types are
incident when their sets are nested, and a map of the points induces a
permutation of the elements through one (type, set) index.

SimpleGraph is a Pregeometry of one type, vertex, whose incidences are
its edges, so it searches nothing itself: its cliques, connectivity,
bipartite test and automorphisms come from geometry.flags_by_rank_lex,
geometry.is_connected, geometry.bfs and perms.automorphism_group, and
isomorphic returns the first map found by the incidence-map search of
geoq.perms.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from math import comb

from .geometry import (Pregeometry, bfs, components, flags_by_rank_lex,
                       incident_pairs, is_connected, is_geometry, least)
from .perms import (COUNT_CEILING, Perm, PermGroup, _cap_count,
                    _incidence_maps, _profile, automorphism_group)
from .quotient import Partition, Projection, _rank_slice


class SimpleGraph(Pregeometry):
    """Undirected loop-free graph on named vertices: a pregeometry of one
    type, vertex, whose incidences are the edges."""

    __slots__ = ()

    def __init__(self, names, edges):
        edges = list(edges)
        if any(a == b for a, b in edges):
            raise ValueError("loops not allowed")
        names = tuple(names)
        super().__init__(["vertex"], names, [0] * len(names), edges)

    @property
    def names(self):
        return self.elem_names

    @property
    def edges(self):
        """The edges as pairs a < b."""
        return frozenset(incident_pairs(self))

    @classmethod
    def complete(cls, n):
        return cls([str(i) for i in range(n)],
                   combinations(range(n), 2))

    @classmethod
    def cycle(cls, n):
        return cls([str(i) for i in range(n)],
                   [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n):
        return cls([str(i) for i in range(n)],
                   [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def matching(cls, k):
        return cls([str(i) for i in range(2 * k)],
                   [(2 * i, 2 * i + 1) for i in range(k)])

    def cliques_of_size(self, r):
        """All r-cliques, as sorted tuples in lexicographic order (the
        empty clique for r=0): the cliques are the graph's kept flags."""
        return list(_rank_slice(flags_by_rank_lex(self), r))

    def is_matching(self):
        """Every vertex has exactly one neighbour."""
        return all(mask.bit_count() == 1 for mask in self.masks)

    def is_connected(self):
        """The empty graph is connected."""
        return is_connected(self)

    def is_bipartite(self):
        """No edge joins two vertices whose distances from the least
        vertex of their component have equal parity."""
        dist = bfs(self.masks, [comp[0] for comp in components(self)])
        return all((dist[a][0] - dist[b][0]) % 2 for a, b in self.edges)

    def automorphisms(self):
        return automorphism_group(self)


def _set_system(type_names, names, etype, sets):
    """The pregeometry on named point sets, element x of type etype[x]
    with point set sets[x], two elements of distinct types incident when
    their sets are nested; and induced(vmap), the permutation that a map
    of the points induces on the elements, through one (type, set)
    index.  Two elements with one type and one set are refused."""
    sets = tuple(map(frozenset, sets))
    index = {(t, s): x for x, (t, s) in enumerate(zip(etype, sets))}
    if len(index) != len(sets):
        raise RuntimeError("two elements share a type and point set")
    geom = Pregeometry(type_names, names, etype, [
        (a, b) for a in range(len(sets)) for b in range(a + 1, len(sets))
        if etype[a] != etype[b] and (sets[a] <= sets[b] or sets[b] <= sets[a])])

    def induced(vmap):
        return Perm([index[(t, frozenset(map(vmap, s)))]
                     for t, s in zip(etype, sets)])
    return geom, induced


def _part_symmetric_gens(perm, parts, n):
    """Generators of the product of one symmetric group per part on the
    points (part, slot), slot in 0..n-1: a transposition and an n-cycle
    of each part's slots, each as perm(map of points)."""
    gens = []
    for c in parts:
        gens.append(perm(lambda cs, c=c: (c, {0: 1, 1: 0}.get(cs[1], cs[1]))
                         if cs[0] == c else cs))
        gens.append(perm(lambda cs, c=c: (c, (cs[1] + 1) % n)
                         if cs[0] == c else cs))
    return gens


SSG_MAX_ELEMENTS = 5_000  # admits ssg(13, 6), 4,095 elements, not ssg(14, 7)


def _ssg(v, k):
    """ssg(v, k) as a set system: the geometry and its induced map."""
    if v <= 1:
        raise ValueError("need v > 1")
    if not 0 < k < v:
        raise ValueError("need 0 < k < v")
    _cap_count((comb(v, i) for i in range(1, k + 1)), SSG_MAX_ELEMENTS)
    subsets = [(i, s) for i in range(k)
               for s in combinations(range(1, v + 1), i + 1)]
    return _set_system([str(i) for i in range(k)],
                       ["{%s}" % ",".join(map(str, s)) for _, s in subsets],
                       [i for i, _ in subsets], [s for _, s in subsets])


def ssg(v, k):
    """The subset geometry: all subsets of sizes 1..k of a v-set under
    (symmetrized) inclusion, typed by cardinality minus one.  Refused
    with CapExceeded, before it is built, above SSG_MAX_ELEMENTS."""
    return _ssg(v, k)[0]


def ssg_symmetric_action(v, k):
    """The induced action of the symmetric group on ssg(v, k), generated
    by the swap of points 1 and 2 and the cycle p -> p mod v + 1."""
    geom, induced = _ssg(v, k)
    gens = [induced(lambda p: {1: 2, 2: 1}.get(p, p)),
            induced(lambda p: p % v + 1)]
    return geom, PermGroup(gens, degree=geom.size)


def shadow(geom, i, x):
    """Elements of type i incident with x (reflexively, so the shadow of
    a type-i element contains the element itself)."""
    return frozenset(y for y in geom.by_type[i] if geom.incident(x, y))


def is_shadowable(geom):
    """The type-0 shadow operator must embed the geometry into a subset
    geometry: constant shadow size per type, pairwise distinct sizes,
    injective, and incidence equivalent to shadow containment."""
    ok, w = is_geometry(geom)
    if not ok:
        return False, "not a geometry"
    if geom.rank < 1:
        return False, "no types"
    shadows = [shadow(geom, 0, x) for x in range(geom.size)]
    sizes = {}
    for t in range(geom.rank):
        got = {len(shadows[x]) for x in geom.by_type[t]}
        if len(got) != 1:
            return False, "shadow size not constant on type %s" % geom.type_names[t]
        sizes[t] = got.pop()
    if sizes[0] != 1:
        return False, "type-0 shadows are not singletons"
    if len(set(sizes.values())) != geom.rank:
        return False, "two types share a shadow size"
    if len(set(shadows)) != geom.size:
        return False, "shadow operator not injective"
    nested, _ = _set_system(geom.type_names, geom.elem_names,
                            geom.elem_type, shadows)
    for a, (mask, want) in enumerate(zip(geom.masks, nested.masks)):
        if mask != want:  # the least b of the first row is above a
            return False, ("incidence/containment mismatch",
                           geom.flag_names((a, least(mask ^ want))))
    return True, sizes


def blowup(geom, graph):
    """The blow-up along a graph: element (a, d) for each element a and
    vertex d; two of them incident iff the first parts are distinct and
    incident and the second parts are adjacent.  Refused, unbuilt, above
    SSG_MAX_ELEMENTS elements."""
    nv = graph.size
    _cap_count([geom.size * nv], SSG_MAX_ELEMENTS)
    names = []
    etype = []
    for a in range(geom.size):
        for d in range(nv):
            names.append("(%s,%s)" % (geom.elem_names[a], graph.names[d]))
            etype.append(geom.elem_type[a])
    pairs = []
    for a, b in incident_pairs(geom):
        for d, e in graph.edges:
            pairs.append((a * nv + d, b * nv + e))
            pairs.append((a * nv + e, b * nv + d))
    return Pregeometry(geom.type_names, names, etype, pairs)


def blowup_projection(geom, graph):
    """The blow-up together with the projection collapsing each fibre
    {a} x V back to the base geometry."""
    big = blowup(geom, graph)
    nv = graph.size
    blocks = [tuple(range(a * nv, (a + 1) * nv)) for a in range(geom.size)]
    proj = Projection(big, Partition(big, blocks))
    return big, proj


def blowup_group(geom, graph, g_group, h_group):
    """The product action on the blow-up: base automorphisms move the
    first part, graph automorphisms the second."""
    nv = graph.size
    gens = []
    for g in g_group.gens:
        gens.append(Perm([g[a] * nv + d
                          for a in range(geom.size) for d in range(nv)]))
    for h in h_group.gens:
        gens.append(Perm([a * nv + h[d]
                          for a in range(geom.size) for d in range(nv)]))
    return PermGroup(gens, degree=geom.size * nv)


class ShadowLift:
    """The multipartite lift of a shadowable geometry: type-0 elements are
    the vertices of a complete multipartite graph with one part of size n
    per type-0 element; higher elements are complete multipartite
    subgraphs with parts of size j labelled by a shadow.  induced(vmap)
    is the permutation that a map of the vertices (part, slot) induces.
    Refused, unbuilt, above SSG_MAX_ELEMENTS elements."""

    __slots__ = ("parent", "n", "j", "geometry", "induced", "classes")

    def __init__(self, parent, n, j):
        okinfo = is_shadowable(parent)
        if not okinfo[0]:
            raise ValueError("parent is not shadowable: %r" % (okinfo[1],))
        if n <= 2:
            raise ValueError("need n > 2")
        if not 1 < j < n:
            raise ValueError("need 1 < j < n")
        self.parent = parent
        self.n = n
        self.j = j
        base = parent.by_type[0]
        shadows = {alpha: sorted(shadow(parent, 0, alpha)) for t in
                   range(1, parent.rank) for alpha in parent.by_type[t]}
        part = 1  # comb(n, j), built as comb(n, i), which grows with i,
        for i in range(min(j, n - j)):  # and left once past the ceiling
            part = part * (n - i) // (i + 1)
            if part > COUNT_CEILING:
                break
        _cap_count(chain([len(base) * n], (part ** len(sh)
                                           for sh in shadows.values())),
                   SSG_MAX_ELEMENTS)
        self.classes = tuple(base)
        names = []
        etype = []
        vsets = []
        for c in base:
            for s in range(n):
                names.append("%s.%d" % (parent.elem_names[c], s))
                etype.append(0)
                vsets.append(frozenset({(c, s)}))
        for alpha, sh in shadows.items():  # by type, then element
            for choice in product(*[combinations(range(n), j) for _ in sh]):
                vset = frozenset((c, s) for c, sub in zip(sh, choice)
                                 for s in sub)
                label = "%s/%s" % (
                    parent.elem_names[alpha],
                    "+".join("".join(map(str, sub)) for sub in choice))
                names.append(label)
                etype.append(parent.elem_type[alpha])
                vsets.append(vset)
        self.geometry, self.induced = _set_system(parent.type_names, names,
                                                  etype, vsets)

    def base_group(self):
        """The product of one symmetric group per part, acting on slots."""
        return PermGroup(_part_symmetric_gens(self.induced, self.classes,
                                              self.n),
                         degree=self.geometry.size)

    def lift_parent_perm(self, g):
        """Push a parent automorphism up: parts move with their labels."""
        return self.induced(lambda cs: (g[cs[0]], cs[1]))

    def wreath_group(self, h_group):
        """The wreath-style action generated by the per-part symmetric
        groups and a lifted parent group."""
        gens = list(self.base_group().gens)
        gens.extend(self.lift_parent_perm(g) for g in h_group.gens)
        return PermGroup(gens, degree=self.geometry.size)


def shadowable_lift(parent, n, j):
    return ShadowLift(parent, n, j)


def _gf_span(q, d, vectors):
    """All linear combinations of the given vectors over GF(q), q prime."""
    out = {(0,) * d}
    for v in vectors:
        new = set()
        for w in out:
            for c in range(q):
                new.add(tuple((w[i] + c * v[i]) % q for i in range(d)))
        out = new
    return frozenset(out)


def affine_geometry(d, q):
    """The affine space of dimension d over the prime field of order q:
    flats of dimensions 0..d-1 under inclusion, plus the translation
    group.  Desk scale: d in {2, 3}, q in {2, 3}."""
    if q not in (2, 3):
        raise ValueError("q must be 2 or 3")
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    points = sorted(product(range(q), repeat=d))
    pindex = {p: i for i, p in enumerate(points)}
    pname = ["p%s" % "".join(map(str, p)) for p in points]

    subspaces = {0: [frozenset({(0,) * d})]}
    for dim in range(1, d):
        found = set()
        for vecs in combinations(points[1:], dim):
            span = _gf_span(q, d, vecs)
            if len(span) == q ** dim:
                found.add(span)
        subspaces[dim] = sorted(found, key=sorted)

    elems = []
    etype = []
    flats = []
    for dim in range(d):
        seen = set()
        for sub in subspaces[dim]:
            for x in points:
                flat = frozenset(tuple((v[i] + x[i]) % q for i in range(d))
                                 for v in sub)
                if flat not in seen:
                    seen.add(flat)
        for flat in sorted(seen, key=sorted):
            flats.append(flat)
            etype.append(dim)
            if dim == 0:
                elems.append(pname[pindex[min(flat)]])
            else:
                elems.append("{%s}" % ",".join(pname[pindex[p]]
                                               for p in sorted(flat)))
    geom, induced = _set_system([str(i) for i in range(d)], elems, etype,
                                flats)
    gens = []
    for t in range(d):
        e = tuple(1 if i == t else 0 for i in range(d))
        gens.append(induced(
            lambda p, e=e: tuple((p[i] + e[i]) % q for i in range(d))))
    return geom, PermGroup(gens, degree=geom.size)


def fano_plane():
    """The projective plane of order 2, built from the one- and
    two-dimensional subspaces of a 3-dimensional binary space."""
    vecs = [v for v in product(range(2), repeat=3) if any(v)]
    points = sorted(vecs)
    lines = []
    for a, b in combinations(points, 2):
        c = tuple((a[i] + b[i]) % 2 for i in range(3))
        line = frozenset({a, b, c})
        if line not in lines:
            lines.append(line)
    lines.sort(key=sorted)
    names = ["q%s" % "".join(map(str, p)) for p in points]
    names += ["{%s}" % ",".join("q%s" % "".join(map(str, p))
                                for p in sorted(l)) for l in lines]
    return _set_system(["0", "1"], names,
                       [0] * len(points) + [1] * len(lines),
                       [{p} for p in points] + lines)[0]


def multipartite_geometry(m, n, i):
    """Rank-3 structure on a complete multipartite graph with m parts of
    size n: vertices, edges and complete bipartite i,i-subgraphs between
    two parts, under inclusion.  Returns the geometry, the action of the
    per-part symmetric groups, and the full wreath-style action."""
    if m < 2:
        raise ValueError("need m >= 2")
    if not 1 < i < n:
        raise ValueError("need 1 < i < n")
    vname = {(c, s): "v%d.%d" % (c, s) for c in range(m) for s in range(n)}
    elems = [(name, 0, {v}) for v, name in vname.items()]  # (name, type, set)
    for c1, c2 in combinations(range(m), 2):
        elems += [("{%s,%s}" % (vname[(c1, s1)], vname[(c2, s2)]), 1,
                   {(c1, s1), (c2, s2)}) for s1 in range(n) for s2 in range(n)]
    for c1, c2 in combinations(range(m), 2):
        for sub1, sub2 in product(combinations(range(n), i), repeat=2):
            elems.append(("K{%s|%s}" % (",".join(vname[(c1, s)] for s in sub1),
                                        ",".join(vname[(c2, s)] for s in sub2)),
                          2, {(c1, s) for s in sub1} | {(c2, s) for s in sub2}))
    names, etype, vsets = zip(*elems)
    geom, induced = _set_system(["vertex", "edge", "K%d%d" % (i, i)],
                                names, etype, vsets)
    ngens = _part_symmetric_gens(induced, range(m), n)
    n_group = PermGroup(ngens, degree=geom.size)
    ggens = list(ngens)
    ggens.append(induced(lambda cs: ({0: 1, 1: 0}.get(cs[0], cs[0]), cs[1])))
    if m > 2:
        ggens.append(induced(lambda cs: ((cs[0] + 1) % m, cs[1])))
    g_group = PermGroup(ggens, degree=geom.size)
    return geom, n_group, g_group


def grid_complement():
    """The complement of the 3x3 grid, typed by row, with the partition
    pairing the first two columns in each row."""
    cells = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    names = ["(%d,%d)" % rc for rc in cells]
    etype = [r - 1 for r, _ in cells]
    pairs = [(a, b) for a in range(9) for b in range(a + 1, 9)
             if cells[a][0] != cells[b][0] and cells[a][1] != cells[b][1]]
    geom = Pregeometry(["R1", "R2", "R3"], names, etype, pairs)
    blocks = []
    for r in range(1, 4):
        blocks.append((cells.index((r, 1)), cells.index((r, 2))))
        blocks.append((cells.index((r, 3)),))
    part = Partition(geom, blocks)
    return geom, part


def cycle_geometry(n, type_names=("even", "odd")):
    """The n-cycle x * x+1 (mod n) on elements named 0..n-1, element x of
    type x mod the number of types."""
    k = len(type_names)
    return Pregeometry(type_names, [str(x) for x in range(n)],
                       [x % k for x in range(n)],
                       [(x, (x + 1) % n) for x in range(n)])


def cycle_rotation(n, s):
    """The group generated by the shift x -> x+s (mod n)."""
    return PermGroup([Perm([(x + s) % n for x in range(n)])], degree=n)


def hexagon():
    """Six elements in a cycle, antipodal pairs sharing a type, with the
    antipodal automorphism of order two."""
    return cycle_geometry(6, ("T0", "T1", "T2")), cycle_rotation(6, 3)


def eight_cycle():
    """The cycle of length eight as a rank-2 geometry, with the shift by
    four."""
    return cycle_geometry(8), cycle_rotation(8, 4)


def conneg_witness():
    """A rank-3 geometry whose rank-2 truncations are all connected but
    whose residue at one point is disconnected."""
    return Pregeometry.build(
        ["P", "L", "M"],
        [("p1", "P"), ("p2", "P"),
         ("l1", "L"), ("l2", "L"), ("l3", "L"),
         ("m1", "M"), ("m2", "M"), ("m3", "M")],
        [("p1", "l1"), ("p1", "l2"), ("p2", "l1"), ("p2", "l3"),
         ("p1", "m1"), ("p1", "m2"), ("p2", "m2"), ("p2", "m3"),
         ("l1", "m1"), ("l2", "m2"), ("l1", "m3"), ("l3", "m3"),
         ("l3", "m2")])


def flnotpq1_witness():
    """A rank-2 pregeometry with one incidence, quotiented by the two type
    classes: flags lift (rank two) but the one-element extension fails."""
    geom = Pregeometry.build(
        ["T0", "T1"],
        [("a1", "T0"), ("a2", "T0"), ("b1", "T1"), ("b2", "T1")],
        [("a2", "b1")])
    part = Partition(geom, [(0, 1), (2, 3)])
    return geom, part


def example_generators():
    """Named catalogue of the bespoke example constructors."""
    return {
        "hexagon": hexagon,
        "eightcycle": eight_cycle,
        "grid-complement": grid_complement,
        "multipartite": lambda: multipartite_geometry(2, 4, 2),
        "conneg": conneg_witness,
        "flnotpq1": flnotpq1_witness,
    }


def isomorphic(ga, gb):
    """Type-respecting incidence isomorphism; returns (found, mapping),
    the mapping being the first one the incidence-map search finds."""
    if ga.rank != gb.rank or ga.size != gb.size:
        return False, None
    if tuple(len(v) for v in ga.by_type) != tuple(len(v) for v in gb.by_type):
        return False, None
    if (sorted(_profile(ga, x) for x in range(ga.size))
            != sorted(_profile(gb, y) for y in range(gb.size))):
        return False, None
    mapping = next(_incidence_maps(ga, gb), None)
    return mapping is not None, mapping
