"""
Finite pregeometries: typed elements with a symmetric incidence relation.

A pregeometry is stored with dense integer indices for both types and
elements; all derived sets are ordered by index so every query is
deterministic.  Incidence is kept as an irreflexive edge set (reflexivity
is implicit), and for each element x as its neighbour set `adj[x]` and
as a mask `masks[x]`, an int with bit y set when x * y.  Flags are
sorted tuples of element indices.

The flag layer works on the masks: a flag's common neighbours are the
AND of its members' masks, and incidence is one bit.  `all_flags` is the
one flag backtracker: it passes the candidates of a flag down as a mask,
takes them lowest bit first, so it yields flags lazily in lexicographic
order.  `extensions` and the maximality test of `is_geometry` AND masks,
and quotient.lift_flag and the residue-map test do the same.  A pregeometry
never changes, so its full flag list, in (rank, lexicographic) order, is
built once on first use and kept with it (`flags_by_rank_lex`), or
taken from a caller that has walked them already (`keep_flags`); the
flags of each type set come from one index over that list, and the
geometry and residual-connectivity verdicts are computed once too.  The
flag count is exponential in the rank in the worst case, so everything
here is meant for desk scale (a few hundred elements, rank at most ~6).

`bfs` is the one graph search: a multi-source breadth-first search that
labels each reached vertex with its distance and nearest source.
Distances, components, diagram components, the bipartite test and the
same-block distance of quotient.min_block_distance all go through it.
"""

from __future__ import annotations

import functools
import math

INF = math.inf


class Pregeometry:
    """Immutable element set with a type map and incidence edges."""

    __slots__ = ("type_names", "elem_names", "elem_type", "pairs", "adj",
                 "masks", "by_type", "_elem_index", "_memo")

    def __init__(self, type_names, elem_names, elem_type, pairs):
        self.type_names = tuple(type_names)
        self.elem_names = tuple(elem_names)
        self.elem_type = tuple(elem_type)
        n = len(self.elem_names)
        if len(self.elem_type) != n:
            raise ValueError("one type per element required")
        if len(set(self.type_names)) != len(self.type_names):
            raise ValueError("duplicate type name")
        if len(set(self.elem_names)) != n:
            raise ValueError("duplicate element name")
        for t in self.elem_type:
            if not 0 <= t < len(self.type_names):
                raise ValueError("type index out of range: %r" % (t,))
        norm = set()
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("element index out of range: (%r, %r)" % (a, b))
            if a == b:
                continue  # self-incidence is implicit
            norm.add((a, b) if a < b else (b, a))
        self.pairs = frozenset(norm)
        self.adj, self.masks = incidence_sets(n, self.pairs)
        by_type = [[] for _ in self.type_names]
        for x, t in enumerate(self.elem_type):
            by_type[t].append(x)
        self.by_type = tuple(tuple(v) for v in by_type)
        self._elem_index = {name: i for i, name in enumerate(self.elem_names)}
        self._memo = None  # see _per_geometry

    @classmethod
    def build(cls, types, elems, incs):
        """Construct from names: elems is (name, typename) pairs, incs name pairs."""
        tidx = {t: i for i, t in enumerate(types)}
        names = []
        etype = []
        for name, tname in elems:
            if tname not in tidx:
                raise ValueError("unknown type %r for element %r" % (tname, name))
            names.append(name)
            etype.append(tidx[tname])
        eidx = {name: i for i, name in enumerate(names)}
        pairs = []
        for a, b in incs:
            if a not in eidx or b not in eidx:
                raise ValueError("unknown element in incidence (%r, %r)" % (a, b))
            pairs.append((eidx[a], eidx[b]))
        return cls(types, names, etype, pairs)

    @property
    def rank(self):
        return len(self.type_names)

    @property
    def size(self):
        return len(self.elem_names)

    def elem(self, name):
        return self._elem_index[name]

    def incident(self, a, b):
        return a == b or self.masks[a] >> b & 1 == 1

    def flag_names(self, flag):
        return tuple(self.elem_names[x] for x in flag)

    def __eq__(self, other):
        if not isinstance(other, Pregeometry):
            return NotImplemented
        return (self.type_names == other.type_names
                and self.elem_names == other.elem_names
                and self.elem_type == other.elem_type
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.type_names, self.elem_names, self.elem_type, self.pairs))

    def __repr__(self):
        return "Pregeometry(%d types, %d elements, %d incidences)" % (
            self.rank, self.size, len(self.pairs))


def validate(geom):
    """Check the pregeometry axioms; return None or a report naming the
    first violated invariant with witnesses."""
    for a, b in sorted(geom.pairs):
        if geom.elem_type[a] == geom.elem_type[b]:
            return ("same-type incidence: %s * %s (type %s)"
                    % (geom.elem_names[a], geom.elem_names[b],
                       geom.type_names[geom.elem_type[a]]))
    for t, members in enumerate(geom.by_type):
        if not members:
            return "empty type: %s has no elements" % geom.type_names[t]
    return None


def is_flag(geom, elems):
    """True iff elems are pairwise incident with pairwise distinct types."""
    elems = set(elems)
    types = [geom.elem_type[x] for x in elems]
    if len(set(types)) != len(types):
        return False
    want = 0
    for x in elems:
        want |= 1 << x
    masks = geom.masks
    return all((masks[x] | 1 << x) & want == want for x in elems)


def as_flag(geom, elems):
    flag = tuple(sorted(set(elems)))
    if not is_flag(geom, flag):
        raise ValueError("not a flag: %r" % (tuple(geom.elem_names[x] for x in flag),))
    return flag


def flag_type(geom, flag):
    return frozenset(geom.elem_type[x] for x in flag)


def extensions(geom, flag):
    """Elements incident with every member of flag, excluding the flag itself.

    Incidence between distinct same-type elements is impossible in a valid
    pregeometry, so the result automatically avoids the flag's types.
    """
    if not flag:
        return list(range(geom.size))
    masks = geom.masks
    common = masks[flag[0]]
    for x in flag[1:]:
        common &= masks[x]
    out = []
    while common:  # the set bits, lowest first
        low = common & -common
        out.append(low.bit_length() - 1)
        common ^= low
    return out


class _Record:
    """A plain record: repr and equality over the attributes __init__
    sets, in order, as @dataclass makes them; unhashable unless frozen."""

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in vars(self).items()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class _FrozenRecord(_Record):
    """A record whose __init__ fills vars(self); it hashes by value, and
    its attributes cannot be set or deleted afterwards."""

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash(tuple(vars(self).values()))


def _per_geometry(fn):
    """Memoize fn(geom) on the geometry object itself: a pregeometry never
    changes, so the value is kept for as long as the geometry lives.
    Exceptions are not kept; they are raised again on the next call."""
    @functools.wraps(fn)
    def cached(geom):
        memo = _memo(geom)
        try:
            return memo[fn]
        except KeyError:
            memo[fn] = value = fn(geom)
            return value
    return cached


def _memo(geom):
    if geom._memo is None:
        geom._memo = {}
    return geom._memo


def all_flags(geom):
    """Yield every flag (including the empty flag), each exactly once,
    extending by increasing element index, i.e. in lexicographic order.
    The candidates of a flag are a mask: the later elements incident
    with all of it."""
    masks = geom.masks

    def rec(flag, cand):
        yield flag
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            yield from rec(flag + (x,), cand & masks[x])
    yield from rec((), (1 << geom.size) - 1)


@_per_geometry
def flags_by_rank_lex(geom):
    """All flags sorted by (rank, lexicographic), for minimal witnesses.
    Enumerated once per geometry; the tuple returned is shared."""
    return _by_rank(all_flags(geom))


# flags_by_rank_lex's memo key, taken before a profiler can rebind the name
_FLAG_LIST = flags_by_rank_lex.__wrapped__


def _by_rank(flags):
    # a stable sort by rank keeps the lexicographic order within a rank
    return tuple(sorted(flags, key=len))


def keep_flags(geom, flags):
    """Keep flags, every flag of geom in the order all_flags yields them,
    as geom's flags_by_rank_lex, for a caller that has walked them
    already."""
    _memo(geom).setdefault(_FLAG_LIST, _by_rank(flags))


def flags_of_type(geom, types):
    """All flags whose type set is exactly the given set of type ids, in
    lexicographic order."""
    key = 0
    for t in sorted(set(types)):
        if not 0 <= t < geom.rank:
            raise ValueError("unknown type id %r" % (t,))
        key |= 1 << t
    return list(_flags_by_type(geom).get(key, ()))


@_per_geometry
def _flags_by_type(geom):
    """flags_by_rank_lex split by type set, keyed by the type set as a
    mask (bit t for type t); each list stays in lexicographic order."""
    et = geom.elem_type
    index = {}
    for flag in flags_by_rank_lex(geom):
        key = 0
        for x in flag:
            key |= 1 << et[x]
        index.setdefault(key, []).append(flag)
    return index


def chamber_count_through(geom, flag):
    """Number of chambers containing the given elements; 0 when they do
    not form a flag."""
    inside = set(flag)
    return sum(1 for c in flags_of_type(geom, range(geom.rank))
               if inside.issubset(c))


@_per_geometry
def is_geometry(geom):
    """True iff every maximal flag is a chamber; on failure returns the
    lexicographically least maximal flag of rank below the rank of the
    geometry.  The scan stops at that flag."""
    masks, rank = geom.masks, geom.rank
    everything = (1 << geom.size) - 1
    for flag in all_flags(geom):
        if len(flag) < rank:
            common = everything
            for x in flag:
                common &= masks[x]
            if not common:
                return False, flag
    return True, None


def is_firm(geom):
    """True iff every corank-1 flag lies in at least two chambers; the
    witness is a failing flag together with its unique chamber."""
    ok, w = is_geometry(geom)
    if not ok:
        raise ValueError("is_firm requires a geometry (witness %r)"
                         % (geom.flag_names(w),))
    return corank1_chambers_at_least(geom, 2)


def corank1_chambers_at_least(geom, bound):
    """Chamber-count test over corank-1 flags, usable on pregeometries;
    the witness flag is the lexicographically least failing one."""
    for flag in flags_by_rank_lex(geom):
        if len(flag) != geom.rank - 1:
            continue
        ext = extensions(geom, flag)
        if len(ext) < bound:
            witness = (flag, tuple(sorted(flag + (ext[0],))) if ext else None)
            return False, witness
    return True, None


def residue(geom, flag):
    """The residue of a flag: elements incident with all of it, of types
    outside the flag's type set.  Returns the residue and the map from
    residue indices back to parent element indices."""
    flag = as_flag(geom, flag)
    ftypes = set(flag_type(geom, flag))
    cotypes = [t for t in range(geom.rank) if t not in ftypes]
    members = extensions(geom, flag)
    return _restriction(geom, cotypes, members), tuple(members)


def truncation(geom, types):
    """Restriction to the elements whose type lies in the given set."""
    J = sorted(set(types))
    if not J:
        raise ValueError("truncation to an empty type set")
    for t in J:
        if not 0 <= t < geom.rank:
            raise ValueError("unknown type id %r" % (t,))
    members = [x for x in range(geom.size) if geom.elem_type[x] in J]
    return _restriction(geom, J, members)


def _restriction(geom, types, members):
    """The pregeometry on members (increasing) whose types are the given
    types (increasing), with the incidences among them."""
    tmap = {t: k for k, t in enumerate(types)}
    emap = {x: k for k, x in enumerate(members)}
    pairs = [(emap[a], emap[b]) for a, b in geom.pairs
             if a in emap and b in emap]
    return Pregeometry(
        [geom.type_names[t] for t in types],
        [geom.elem_names[x] for x in members],
        [tmap[geom.elem_type[x]] for x in members],
        pairs)


def incidence_sets(n, pairs):
    """The neighbours of each of 0..n-1 under an edge set, both as a
    frozenset and as a mask, an int with bit y set for each neighbour y."""
    adj = [set() for _ in range(n)]
    masks = [0] * n
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return tuple(frozenset(s) for s in adj), tuple(masks)


def bfs(adj, sources):
    """The one breadth-first search: from all sources at once, map each
    reached vertex to (distance, nearest source).  A vertex at equal
    distance from several sources takes the label that reaches it first,
    so the labels depend on the order of sources and of adj's entries,
    while the distances do not."""
    reach = {s: (0, s) for s in sources}
    frontier = list(reach)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            label = reach[x][1]
            for y in adj[x]:
                if y not in reach:
                    reach[y] = (d, label)
                    nxt.append(y)
        frontier = nxt
    return reach


def incidence_distance(geom, a, b):
    """Shortest-path length in the incidence graph, INF when unreachable."""
    return bfs(geom.adj, [a]).get(b, (INF,))[0]


def components(graph):
    """Connected components of a graph given by its adjacency (`adj`,
    indexed 0..n-1), each sorted, listed by least member."""
    adj = graph.adj
    seen = set()
    out = []
    for start in range(len(adj)):
        if start not in seen:
            comp = bfs(adj, [start])
            seen.update(comp)
            out.append(tuple(sorted(comp)))
    return out


def is_connected(geom):
    return len(components(geom)) <= 1


@_per_geometry
def is_residually_connected(geom):
    """Every flag of corank >= 2 must have a nonempty connected residue;
    the witness is a minimal failing flag."""
    for flag in flags_by_rank_lex(geom):
        if geom.rank - len(flag) < 2:
            continue
        res, _ = residue(geom, flag)
        if res.size == 0 or not is_connected(res):
            return False, flag
    return True, None


def is_generalized_digon(geom):
    """Rank-2 test: every type-0 element incident with every type-1 element."""
    if geom.rank != 2:
        raise ValueError("generalised digon test requires rank 2, got %d" % geom.rank)
    return all(geom.incident(a, b)
               for a in geom.by_type[0] for b in geom.by_type[1])
