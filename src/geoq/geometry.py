"""
Finite pregeometries: typed elements with a symmetric incidence relation.

A pregeometry is stored with dense integer indices for both types and
elements; all derived sets are ordered by index so every query is
deterministic.  Incidence is a mask `masks[x]` per element x, an int
with bit y set when x * y (reflexivity is implicit): every query reads
them, equality and hashing compare them, and library code builds from
them (`_of_masks`).  `incident_pairs`, the pairs a < b in order, and
`pairs`, their set, are read off them once.  `bits` and `mask_of` turn
a mask into its indices and back; `least` reads its least index alone.
Flags are sorted tuples of element indices.

A flag's common neighbours are the AND of its members' masks, and
every flag, residue and incidence question ANDs masks; no internal path
builds a residue pregeometry.  `all_flags` is the one flag walker,
lazily in lexicographic order, and `non_incident_pair` the one
total-incidence test.  A pregeometry never changes, so its flags are
walked once and kept with it as its flag table (`keep_flags`); its
tuples key every per-flag value, and `is_geometry`, `flags_by_rank_lex`
and `flags_of_type` read it.  Its verdicts are computed once too.  The
flag count is exponential in the rank in the worst case, so everything
here is meant for desk scale (a few hundred elements, rank at most ~6).

`bfs` is the one graph search: a multi-source breadth-first search on
masks, optionally confined to a mask and ended early, that labels each
reached vertex with its distance and a nearest source.  Distances,
components, residue connectivity, diagram components, the bipartite
test and both block distances go through it.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from itertools import islice

INF = math.inf


class Pregeometry:
    """Immutable element set with a type map and incidence masks."""

    __slots__ = ("type_names", "elem_names", "elem_type", "masks",
                 "by_type", "_elem_index", "_memo")

    def __init__(self, type_names, elem_names, elem_type, pairs):
        self.type_names = tuple(type_names)
        self.elem_names = tuple(elem_names)
        self.elem_type = tuple(elem_type)
        n = len(self.elem_names)
        if len(self.elem_type) != n:
            raise ValueError("one type per element required")
        if len(set(self.type_names)) != len(self.type_names):
            raise ValueError("duplicate type name")
        self._elem_index = {name: i for i, name in enumerate(self.elem_names)}
        if len(self._elem_index) != n:
            raise ValueError("duplicate element name")
        by_type = [[] for _ in self.type_names]
        for x, t in enumerate(self.elem_type):
            if not 0 <= t < len(by_type):
                raise ValueError("type index out of range: %r" % (t,))
            by_type[t].append(x)
        self.by_type = tuple(map(tuple, by_type))
        masks = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("element index out of range: (%r, %r)" % (a, b))
            if a != b:  # self-incidence is implicit
                masks[a] |= 1 << b
                masks[b] |= 1 << a
        self.masks = tuple(masks)
        self._memo = None  # see _per_geometry

    @classmethod
    def _of_masks(cls, type_names, elem_names, elem_type, masks):
        """From masks symmetric, irreflexive and in range by construction;
        names and types are checked as above."""
        geom = cls(type_names, elem_names, elem_type, ())
        geom.masks = tuple(masks)
        return geom

    @classmethod
    def build(cls, types, elems, incs):
        """Construct from names: elems is (name, typename) pairs, incs name pairs."""
        tidx = {t: i for i, t in enumerate(types)}
        for name, tname in elems:
            if tname not in tidx:
                raise ValueError("unknown type %r for element %r" % (tname, name))
        eidx = {name: i for i, (name, _) in enumerate(elems)}
        for a, b in incs:
            if a not in eidx or b not in eidx:
                raise ValueError("unknown element in incidence (%r, %r)" % (a, b))
        return cls(types, [name for name, _ in elems],
                   [tidx[tname] for _, tname in elems],
                   [(eidx[a], eidx[b]) for a, b in incs])

    @property
    def pairs(self):
        """The incidences as pairs a < b, read off the masks once."""
        return _pair_set(self)

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
                and self.masks == other.masks)

    def __hash__(self):
        return hash((self.type_names, self.elem_names, self.elem_type, self.masks))

    def __repr__(self):
        return "Pregeometry(%d types, %d elements, %d incidences)" % (
            self.rank, self.size, sum(map(int.bit_count, self.masks)) // 2)


def validate(geom):
    """Check the pregeometry axioms; return None or a report naming the
    first violated invariant with witnesses."""
    bad = same_type_incidence(geom)
    if bad is not None:
        return bad
    for t, members in enumerate(geom.by_type):
        if not members:
            return "empty type: %s has no elements" % geom.type_names[t]
    return None


def same_type_incidence(geom):
    """None, or a report naming the least incident pair a * b of one
    type: a is the least element with a neighbour of its own type."""
    of_type = [mask_of(members) for members in geom.by_type]
    for a, t in enumerate(geom.elem_type):
        same = geom.masks[a] & of_type[t]
        if same:
            return ("same-type incidence: %s * %s (type %s)"
                    % (geom.elem_names[a], geom.elem_names[least(same)],
                       geom.type_names[t]))
    return None


def is_flag(geom, elems):
    """True iff elems are pairwise incident with pairwise distinct types."""
    elems = set(elems)
    types = [geom.elem_type[x] for x in elems]
    if len(set(types)) != len(types):
        return False
    want = mask_of(elems)
    return all((geom.masks[x] | 1 << x) & want == want for x in elems)


def as_flag(geom, elems):
    flag = tuple(sorted(set(elems)))
    if not is_flag(geom, flag):
        raise ValueError("not a flag: %r" % (geom.flag_names(flag),))
    return flag


def flag_text(geom, flag):
    """A flag by element names, or None for None."""
    return None if flag is None else "{%s}" % ",".join(geom.flag_names(flag))


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
    return bits(common)


def non_incident_pair(geom, xs, ys):
    """The one total-incidence test, for disjoint element lists xs and
    ys: the first x of xs with the least y of ys not incident with it,
    or None when every x is incident with every y."""
    masks, want = geom.masks, mask_of(ys)
    for x in xs:
        missing = want & ~masks[x]
        if missing:
            return x, least(missing)
    return None


def bits(mask):
    """The set bits of mask, lowest first, as a list of indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def least(mask):
    """The least set bit of a nonzero mask, for callers that read one."""
    return (mask & -mask).bit_length() - 1


def mask_of(elements):
    """The mask with bit x set for each of the elements."""
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def _per_geometry(fn):
    """Memoize fn(obj) on obj, a Pregeometry or a Projection (an
    OrbitQuotient is one), neither of which changes, for as long as obj
    lives.  Exceptions are raised again on the next call."""
    @functools.wraps(fn)
    def cached(obj):
        memo = _memo(obj)
        try:
            return memo[fn]
        except KeyError:
            memo[fn] = value = fn(obj)
            return value
    return cached


def _memo(obj):
    if obj._memo is None:
        obj._memo = {}
    return obj._memo


@_per_geometry
def incident_pairs(geom):
    """The incidences as pairs a < b, in order."""
    return tuple([(a, b) for a, m in enumerate(geom.masks)
                  for b in bits(m >> a + 1 << a + 1)])


@_per_geometry
def _pair_set(geom):
    return frozenset(incident_pairs(geom))


def all_flags(geom):
    """Yield every flag (including the empty flag), each exactly once,
    extending by increasing element index, i.e. in lexicographic order.
    A stack holds each open flag with its candidates as a mask: the
    later elements incident with all of it.  Reads only geom.masks."""
    masks = geom.masks
    yield ()
    stack = [((), (1 << len(masks)) - 1)] if masks else []
    while stack:
        flag, cand = stack.pop()
        low = cand & -cand
        cand ^= low
        if cand:
            stack.append((flag, cand))
        x = low.bit_length() - 1
        flag += (x,)
        cand &= masks[x]
        if cand:
            stack.append((flag, cand))
        yield flag


@_per_geometry
def _flag_table(geom):
    """Every flag of geom in all_flags order, walked once and kept, or
    taken from an earlier walk (keep_flags)."""
    return tuple(all_flags(geom))


_TABLE = _flag_table.__wrapped__  # its memo key


def keep_flags(geom, flags, cap=None):
    """Keep flags, all_flags(geom) or a list of what it yields, as geom's
    flag table; with a cap, read at most cap + 1 of them and keep none
    when there are more.  Returns whether geom has at most cap flags.  A
    geometry with a table answers from it and reads none of flags."""
    memo = _memo(geom)
    table = memo.get(_TABLE)
    if table is None:
        table = tuple(flags if cap is None else islice(flags, cap + 1))
        if cap is not None and len(table) > cap:
            return False
        memo[_TABLE] = table
    return cap is None or len(table) <= cap


@_per_geometry
def flags_by_rank_lex(geom):
    """All flags sorted by (rank, lexicographic), for minimal witnesses:
    the flag table stably sorted by rank, and shared."""
    return tuple(sorted(_flag_table(geom), key=len))


def _rank_slice(flags, low, high=None):
    """The flags of ranks low to high (default: low) of a list in (rank,
    lex) order: flags_by_rank_lex, or a quotient's leaders."""
    return flags[bisect_left(flags, low, key=len):
                 bisect_right(flags, low if high is None else high, key=len)]


def flags_of_type(geom, types):
    """All flags whose type set is exactly the given set of type ids, in
    lexicographic order."""
    types = sorted(set(types))
    for t in types:
        if not 0 <= t < geom.rank:
            raise ValueError("unknown type id %r" % (t,))
    return list(_flags_by_type(geom).get(mask_of(types), ()))


@_per_geometry
def _flags_by_type(geom):
    """The flag table split by type set, keyed by the type set as a mask
    (bit t for type t); each list stays in lexicographic order."""
    et = geom.elem_type
    index = {}
    for flag in _flag_table(geom):
        index.setdefault(mask_of(et[x] for x in flag), []).append(flag)
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
    geometry.  Scans the flag table, walked and kept on first use.  A
    same-type incidence raises ValueError: the flag walk reads masks
    alone, and would take an incident pair of one type for a flag."""
    bad = same_type_incidence(geom)
    if bad is not None:
        raise ValueError("is_geometry: %s" % bad)
    flag = _short_maximal_flag(geom.masks, geom.rank, _flag_table(geom))
    return (True, None) if flag is None else (False, flag)


def _short_maximal_flag(masks, rank, flags):
    """The first of flags that is maximal (no element is incident with
    all of it) and shorter than rank, or None."""
    everything = (1 << len(masks)) - 1
    for flag in flags:
        if len(flag) < rank:
            common = everything
            for x in flag:
                common &= masks[x]
            if not common:
                return flag
    return None


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
    for flag in _rank_slice(flags_by_rank_lex(geom), geom.rank - 1):
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
    ftypes = {geom.elem_type[x] for x in flag}
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
    masks, inside = geom.masks, mask_of(members)
    return Pregeometry._of_masks(
        [geom.type_names[t] for t in types],
        [geom.elem_names[x] for x in members],
        [tmap[geom.elem_type[x]] for x in members],
        [mask_of(emap[y] for y in bits(masks[x] & inside)) for x in members])


def bfs(masks, sources, within=-1, stop=0, depth=INF):
    """The one breadth-first search, over neighbourhood masks: from all
    sources at once, map each reached vertex to (distance, nearest
    source), entering only the vertices of the mask within (default:
    all), and ending after layer depth or the first layer that meets the
    mask stop.  A vertex's source is that of its first neighbour in the
    layer before: the sources are the first layer, in the order given,
    and each later layer lists the new neighbours of each vertex of the
    one before, lowest index first.  Distances depend on neither order."""
    reach = {s: (0, s) for s in sources}
    seen = mask_of(reach) | ~within
    stop &= ~seen
    frontier = list(reach)
    d = 0
    while frontier:
        if d >= depth or seen & stop:
            break
        d += 1
        nxt = []
        for x in frontier:
            new = masks[x] & ~seen
            seen |= new
            label = (d, reach[x][1])
            for y in bits(new):
                reach[y] = label
                nxt.append(y)
        frontier = nxt
    return reach


def incidence_distance(geom, a, b):
    """Shortest-path length in the incidence graph, INF when unreachable."""
    return bfs(geom.masks, [a]).get(b, (INF,))[0]


def components(graph):
    """Connected components of a graph given by its neighbourhood masks
    (`masks`, indexed 0..n-1), each sorted, listed by least member."""
    masks = graph.masks
    seen = 0
    out = []
    for start in range(len(masks)):
        if not seen >> start & 1:
            comp = sorted(bfs(masks, [start]))
            seen |= mask_of(comp)
            out.append(tuple(comp))
    return out


def is_connected(geom):
    return len(components(geom)) <= 1


@_per_geometry
def is_residually_connected(geom):
    """Every flag of corank >= 2 must have a nonempty connected residue;
    the witness is a minimal failing flag.  A residue is connected when
    one search from its least member, confined to its members, reaches
    them all."""
    masks = geom.masks
    for flag in _rank_slice(flags_by_rank_lex(geom), 0, geom.rank - 2):
        members = extensions(geom, flag)
        inside = mask_of(members)
        if not inside or len(bfs(masks, members[:1], inside)) < len(members):
            return False, flag
    return True, None


def is_generalized_digon(geom):
    """Rank-2 test: every type-0 element incident with every type-1 element."""
    if geom.rank != 2:
        raise ValueError("generalised digon test requires rank 2, got %d" % geom.rank)
    return non_incident_pair(geom, geom.by_type[0], geom.by_type[1]) is None
