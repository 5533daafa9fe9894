"""
Permutation groups acting on a pregeometry.

A Perm is the tuple of its images (Seress 2003, ch. 1), so the chain,
the closure loop and the union-find below take Perms as they are.
A group is given by generators.  Its order, membership, point
stabilizers and normal closures come from one deterministic
Schreier-Sims chain (_Chain: a base, strong generators per level and
transversals; Sims 1970, Seress, *Permutation Group Algorithms*, 2003,
ch. 4), built on first use without listing the group.  _Chain.add is
the one generator picker: automorphism_group, normal_closure and
cosets.FiniteGroup keep a candidate exactly when the chain does not yet
hold it, and no group is built from its element list.  Only elements()
lists G, by _closure, the one closure loop, under a configurable cap;
the chain refuses a group with the same CapExceeded as soon as it grows
past that cap.  Every orbit question goes through _orbits, the one
union-find, on the generators' images of indices, never listing the
group: of points, every flag (_flag_orbits, keyed by the flag table's
own tuples) or any items (orbits_on).  Products and inverses are built
without re-checking that they are permutations; every Perm made from
outside data is checked.  Whether a generator is an automorphism is
decided once per geometry and kept with it.

_incidence_maps is the one incidence-map search: invariant-pruned
backtracking (McKay & Piperno, "Practical graph isomorphism, II", 2014,
without orbit pruning) over the type- and incidence-preserving
bijections between two pregeometries.  automorphism_group keeps those
from a geometry to itself that its chain accepts; constructions.isomorphic
takes the first.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from itertools import chain, combinations
from operator import itemgetter

from .geometry import (_memo, bits, flags_by_rank_lex, flags_of_type,
                       incident_pairs, mask_of, same_type_incidence)
from .quotient import Partition

DEFAULT_CAP = 200_000


class CapExceeded(Exception):
    """Raised when a group enumeration grows past its configured cap."""


COUNT_CEILING = 1_000_000  # a count past it is named as more than it


def _cap_count(counts, cap):
    """Raise CapExceeded when the element counts, read lazily, sum past
    cap.  Reading stops once the sum passes COUNT_CEILING, so a huge
    count is refused in bounded time and named in bounded length."""
    total = 0
    for count in counts:
        total += count
        if total > COUNT_CEILING:
            raise CapExceeded("element count more than %d exceeds cap %d"
                              % (COUNT_CEILING, cap))
    if total > cap:
        raise CapExceeded("element count %d exceeds cap %d" % (total, cap))


@functools.cache  # one int object per point, shared by every inverse
def _points(n):
    return tuple(range(n))


def _inverse(images):
    out = [0] * len(images)
    for x, y in zip(_points(len(images)), images):
        out[y] = x
    return tuple(out)


class Perm(tuple):
    """A permutation of 0..n-1: the tuple of its images, so p[x] is the
    image of x, and (p * q)[x] == q[p[x]]."""

    __slots__ = ()

    def __new__(cls, images):
        images = tuple(images)
        if (not all(type(x) is int for x in images)
                or sorted(images) != list(range(len(images)))):
            raise ValueError("not a permutation: %r" % (images,))
        return tuple.__new__(cls, images)

    @classmethod
    @functools.cache  # shared: a Perm never changes
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n, cycles):
        images = list(range(n))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self):
        return len(self)

    @classmethod
    def _trusted(cls, images):
        """A Perm from images that are a permutation by construction
        (products, inverses), skipping the check."""
        return tuple.__new__(cls, images)

    def __mul__(self, other):
        if len(other) != len(self):
            raise ValueError("degree mismatch: %d and %d"
                             % (len(self), len(other)))
        return Perm._trusted(_then(self)(other))

    def inv(self):
        return Perm._trusted(_inverse(self))

    def is_identity(self):
        return self == _points(len(self))

    def cycles(self):
        """Nontrivial cycles, each starting at its least point."""
        seen = set()
        out = []
        for x in range(len(self)):
            if x in seen or self[x] == x:
                continue
            cyc = [x]
            y = self[x]
            while y != x:
                cyc.append(y)
                y = self[y]
            seen.update(cyc)
            out.append(tuple(cyc))
        return out

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Perm(id/%d)" % len(self)
        return "Perm(%s)" % "".join("(%s)" % " ".join(map(str, c)) for c in cyc)


def _orbits(images, n):
    """The one union-find: the orbits on 0..n-1 of the group whose
    generators map i to images[k][i], each an increasing tuple, listed by
    least member.  A root is its class's least member, so links point
    down and one increasing pass reads each root off its parent's."""
    parent = list(range(n))
    for row in images:
        for a, b in enumerate(row):
            while parent[a] != a:  # path halving
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a > b:
                a, b = b, a
            parent[b] = a
    orbits = {}
    for i in range(n):
        parent[i] = parent[parent[i]]
        orbits.setdefault(parent[i], []).append(i)
    return [tuple(orbit) for orbit in orbits.values()]


def orbits_on(gens, items, act):
    """Orbits of the group generated by gens on the distinct hashable
    items, where act(g, item) is the image of item under g: the items'
    index images under each generator, through _orbits.  Each orbit is a
    tuple in items order, and the orbits are listed by their first
    member.  Raises ValueError when an image is not among the items."""
    items = list(items)
    index = {x: i for i, x in enumerate(items)}
    rows = [[index.get(act(g, x)) for x in items] for g in gens]
    for g, row in zip(gens, rows):
        if None in row:
            raise ValueError("image of %r under %r is not among the items"
                             % (items[row.index(None)], g))
    return [tuple([items[i] for i in orbit])
            for orbit in _orbits(rows, len(items))]


def _then(h):
    """g -> h then g, on images tuples of h's degree."""
    return itemgetter(*h) if len(h) > 1 else lambda g: g


def _closure(gens, identity, cap=None):
    """The one closure loop: the images tuples reached from identity by
    putting generators in front, breadth first; the group they generate."""
    els = {identity}
    frontier = [identity]
    fronts = [_then(g) for g in gens]  # h -> g then h
    while frontier:
        new = []
        for h in frontier:
            for front in fronts:
                c = front(h)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if cap is not None and len(els) > cap:
                        raise CapExceeded("group order exceeds cap %d" % cap)
        frontier = new
    return els


def mulclose(gens, cap=DEFAULT_CAP):
    """Breadth-first closure of a generator set under composition."""
    if not gens:
        return set()
    return {Perm._trusted(images) for images in _closure(
        gens, Perm.identity(gens[0].degree), cap)}


class _Chain:
    """A base and strong generating set, on images tuples.  Level i has
    the base point base[i], the strong generators gens[i] fixing
    base[:i], the orbit of base[i] under them (in discovery order) and a
    transversal trans[i] mapping each orbit point y to (u, u^-1) with
    base[i]^u == y.  Every element of the group is u_m...u_1 u_0 with
    one u from each level, in exactly one way, so the order is size, the
    product of the orbit lengths; the chain is complete (sifting decides
    membership) whenever add returns.  Exact: every Schreier generator
    is sifted, none sampled.  Deterministic: new base points are the
    least point a residue moves, after the given prefix.  An orbit in
    the making lies in the true one, so size never exceeds the order:
    with a cap, add raises CapExceeded as soon as size passes it."""

    def __init__(self, degree, base=(), cap=None):
        self.identity = _points(degree)
        self.base, self.gens, self.trans, self.orbit = [], [], [], []
        self.done = []  # done[i][k]: gens[i] applied to orbit[i][k]
        self.size = 1
        self.cap = cap
        for b in base:
            self._new_level(b)

    def _new_level(self, b):
        self.base.append(b)
        self.gens.append([])
        self.trans.append({b: (self.identity, self.identity)})
        self.orbit.append([b])
        self.done.append([0])

    def strong_gens(self, level=0):
        """The strong generators fixing base[:level]; they generate the
        pointwise stabilizer of those points."""
        return self.gens[level] if level < len(self.base) else []

    def sift(self, h, level=0):
        """Strip h by the transversals from the given level down; returns
        the level where it left the orbit (or len(base)) and the rest."""
        base, trans = self.base, self.trans
        for i in range(level, len(base)):
            t = trans[i].get(h[base[i]])
            if t is None:
                return i, h
            h = _then(h)(t[1])
        return len(base), h

    def __contains__(self, h):
        return self.sift(h)[1] == self.identity

    def add(self, g):
        """Extend the group by the generator g; False when g is already
        in it."""
        level, h = self.sift(g)
        if h == self.identity:
            return False
        self._insert(level, h)
        i = level
        while i >= 0:
            j = self._schreier(i)
            i = i - 1 if j is None else j
        return True

    def _insert(self, level, h):
        if level == len(self.base):
            self._new_level(next(x for x, y in enumerate(h) if x != y))
        for i in range(level + 1):
            self.gens[i].append(h)

    def _schreier(self, i):
        """Close level i's orbit under its generators and sift every new
        Schreier generator u_y s u_{y^s}^-1 into the levels below
        (Schreier's lemma: they generate the stabilizer of base[i]).  On
        a residue, insert it and return its level; else None.  A pair
        (y, s) that reaches a new point is a tree edge, u_y s == u_{y^s},
        and is not sifted."""
        gens, trans, orbit, done = (self.gens[i], self.trans[i],
                                    self.orbit[i], self.done[i])
        identity = self.identity
        k = 0
        while k < len(orbit):
            y = orbit[k]
            then_uy = _then(trans[y][0])  # s -> u_y s
            while done[k] < len(gens):
                s = gens[done[k]]
                done[k] += 1
                z = s[y]
                t = trans.get(z)
                if t is None:
                    u = then_uy(s)
                    trans[z] = (u, _inverse(u))
                    self.size = self.size // len(orbit) * (len(orbit) + 1)
                    if self.cap is not None and self.size > self.cap:
                        raise CapExceeded("group order exceeds cap %d"
                                          % self.cap)
                    orbit.append(z)
                    done.append(0)
                    continue
                h = _then(then_uy(s))(t[1])  # u_y s u_z^-1
                if h == identity:
                    continue
                level, h = self.sift(h, i + 1)
                if h != identity:
                    self._insert(level, h)
                    return level
            k += 1
        return None


class PermGroup:
    """Generators, a Schreier-Sims chain (built on first use, or handed
    over by the picker that chose the generators) and an element set
    listed only when asked for, never built from it (construct, then
    freeze; all queries after construction are pure)."""

    def __init__(self, gens, degree=None, cap=DEFAULT_CAP):
        gens = list(gens)
        if degree is None:
            if not gens:
                raise ValueError("degree required for a trivial group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.gens = tuple(g for g in gens if not g.is_identity())
        self.degree = degree
        self.cap = cap
        self._elements = None
        self._sorted = None  # the elements as a sorted tuple, see __iter__
        self._sims = None

    @classmethod
    def trivial(cls, degree):
        return cls([], degree=degree)

    def _chain(self):
        """The group's chain; raises CapExceeded when the order is above
        the cap, with the message listing the group would raise."""
        if self._sims is None:
            sims = _Chain(self.degree, cap=self.cap)
            for g in self.gens:
                sims.add(g)
            self._sims = sims  # only once complete
        return self._sims

    def elements(self):
        if self._elements is None:
            els = mulclose(list(self.gens), self.cap)
            if not els:
                els = {Perm.identity(self.degree)}
            self._elements = frozenset(els)
        return self._elements

    def order(self):
        return self._chain().size

    def __contains__(self, perm):
        return (isinstance(perm, Perm) and perm.degree == self.degree
                and perm in self._chain())

    def __iter__(self):
        """The elements in increasing order, sorted once per group."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements()))
        return iter(self._sorted)

    def orbits(self):
        """All orbits on 0..degree-1, each sorted, listed by least point."""
        return _orbits(self.gens, self.degree)


def is_automorphism(geom, perm):
    """Type-preserving and incidence-preserving; closure under inverses
    makes edge-set preservation sufficient in a finite group.  Each
    incident pair's images are looked up in the masks; the pairs are
    listed once per geometry, for all the generators checked on it."""
    et, masks = geom.elem_type, geom.masks
    return (perm.degree == geom.size
            and all(et[y] == t for y, t in zip(perm, et))
            and all(masks[perm[a]] >> perm[b] & 1
                    for a, b in incident_pairs(geom)))


def check_automorphisms(geom, group):
    """Raise ValueError unless every generator is an automorphism of the
    geometry.  A (geometry, generator) pair is checked once, and the
    verified ones are kept with the geometry; a failure is never kept
    and is raised again on every call."""
    verified = _memo(geom).setdefault(check_automorphisms, set())
    for g in group.gens:
        if g in verified:
            continue
        if not is_automorphism(geom, g):
            raise ValueError("generator %r is not an automorphism" % (g,))
        verified.add(g)


def orbit_partition(group, geom):
    """The orbits of an automorphism group as a type-refining partition."""
    check_automorphisms(geom, group)
    if group.degree != geom.size:
        raise ValueError("group degree %d, not %d" % (group.degree, geom.size))
    return Partition._of_blocks(geom, group.orbits())


def stabilizer(group, flag):
    """Pointwise flag stabilizer (type preservation makes the setwise one
    pointwise): the strong generators below the flag's points in a chain
    for G, built from G's strong generators, whose base starts with them."""
    flag = tuple(flag)
    chain = _Chain(group.degree, flag)
    for g in group._chain().strong_gens():
        chain.add(g)
    return PermGroup([Perm._trusted(h) for h in chain.strong_gens(len(flag))],
                     degree=group.degree, cap=group.cap)


def normal_closure(group, sub):
    """Smallest subgroup containing sub and normalised by group."""
    for g in sub.gens:
        if g not in group:
            raise ValueError("subgroup generator outside the group")
    gens = list(sub.gens)
    chain = _Chain(group.degree)
    for h in gens:
        chain.add(h)
    conjugators = [(g.inv(), g) for g in group.gens]
    # one pass over the growing generator list of N: once h^g lies in N
    # for every generator h of N and g of G, N^g is inside N
    for h in gens:
        for ginv, g in conjugators:
            c = ginv * h * g
            if chain.add(c):
                gens.append(c)
    out = PermGroup(gens, degree=group.degree, cap=group.cap)
    out._sims = chain
    return out


def _flag_orbits(geom, gens):
    """The orbits of the group generated by gens on the flags: the least
    flag of each, in (rank, lex) order, and each flag's orbit index,
    keyed by the flag table's own tuples.  g keeps types, so it maps a
    flag's members in type order to its image's in type order, and each
    image is looked up as that tuple: the table's own where elements are
    numbered type by type.  Kept with the geometry per generator tuple;
    a same-type incidence (the walk takes it for a flag) raises ValueError."""
    key = (_flag_orbits, gens)
    got = _memo(geom).get(key)
    if got is None:
        bad = same_type_incidence(geom)
        if bad is not None:
            raise ValueError("flag orbits: %s" % bad)
        flags = flags_by_rank_lex(geom)
        ends = [bisect_right(flags, r, key=len)
                for r in range(len(flags[-1]) + 1)]
        et = geom.elem_type  # typed: each flag's members in type order
        typed = flags if list(et) == sorted(et) else [
            tuple(sorted(f, key=et.__getitem__)) for f in flags]
        at = dict(zip(typed, range(len(flags))))  # position in the table
        rows = []
        for g in gens:
            image = g.__getitem__
            row = [0]  # the empty flag; then each r images of rank r
            for r in range(1, len(ends)):  # make one flag's images tuple
                xs = chain.from_iterable(typed[ends[r - 1]:ends[r]])
                row += map(at.__getitem__, zip(*[map(image, xs)] * r))
            rows.append(row)
        orbits = _orbits(rows, len(flags))
        got = _memo(geom)[key] = (
            [flags[orbit[0]] for orbit in orbits],
            {flags[p]: k for k, orbit in enumerate(orbits) for p in orbit})
    return got


def transitivity(group, geom, kind, types=None):
    """Transitivity of an automorphism group on a flag family.

    kind is one of 'vertex' (each type class), 'incidence' (every 2-subset
    of types), 'jflags' (the given type set), 'chamber', or 'flag' (every
    subset of types), each a list of type sets tested in turn.  Returns
    (ok, witness): on the first type set with two flag orbits or more,
    the least flags of its first two orbits, i.e. its first two orbit
    leaders.  A type set with no flags passes; an unknown type id or a
    same-type incidence raises ValueError."""
    check_automorphisms(geom, group)
    sizes = {"vertex": [1], "incidence": [2], "chamber": [geom.rank],
             "flag": range(1, geom.rank + 1), "jflags": []}
    if kind not in sizes:
        raise ValueError("unknown transitivity kind %r" % (kind,))
    sets = [mask_of(J) for r in sizes[kind]
            for J in combinations(range(geom.rank), r)]
    if kind == "jflags":
        if types is None:
            raise ValueError("jflags requires a type set")
        types = sorted(set(types))
        flags_of_type(geom, types)  # raises on an unknown type id
        sets = [mask_of(types)]
    leaders = {}  # type set mask -> its orbit leaders, in lex order
    for flag in _flag_orbits(geom, group.gens)[0]:
        leaders.setdefault(mask_of(geom.elem_type[x] for x in flag),
                           []).append(flag)
    for s in sets:
        if len(leaders.get(s, ())) > 1:
            return False, tuple(leaders[s][:2])
    return True, None


def is_semiregular(group, geom=None, types=None):
    """True iff every point stabilizer (of an element of the given types,
    if any) is trivial: as |orbit(x)| = |G : G_x|, iff every orbit
    meeting the domain has length |G|.  The types are read from geom."""
    if types is not None and geom is None:
        raise ValueError("is_semiregular: types given without a geometry")
    allowed = None if types is None else set(types)
    order = group.order()
    return all(len(orbit) == order for orbit in group.orbits()
               if allowed is None
               or any(geom.elem_type[x] in allowed for x in orbit))


def _profile(geom, x):
    """The search invariant of x: its type, its degree and the sorted
    (type, degree) pairs of its neighbours."""
    masks, et = geom.masks, geom.elem_type
    nbr = sorted((et[y], masks[y].bit_count()) for y in bits(masks[x]))
    return (et[x], masks[x].bit_count(), tuple(nbr))


def _incidence_maps(ga, gb):
    """Yield every type- and incidence-preserving bijection ga -> gb as a
    tuple of images, by backtracking with _profile invariants.  Each
    element of ga is a candidate for the elements of gb with its profile,
    in index order; elements are placed fewest candidates first (ties by
    index), and each placement is checked against every earlier one.
    The callers guarantee equal sizes.  Desk scale only: a search nested
    deeper than Python's recursion limit raises CapExceeded."""
    n = ga.size
    pa = [_profile(ga, x) for x in range(n)]
    pb = [_profile(gb, y) for y in range(gb.size)]
    cands = {x: [y for y in range(gb.size) if pb[y] == pa[x]]
             for x in range(n)}
    order = sorted(range(n), key=lambda x: (len(cands[x]), x))
    images = [None] * n
    used = [False] * gb.size

    def rec(k):
        if k == n:
            yield tuple(images)
            return
        x = order[k]
        for y in cands[x]:
            if used[y]:
                continue
            ok = True
            for z in order[:k]:
                if ga.incident(x, z) != gb.incident(y, images[z]):
                    ok = False
                    break
            if ok:
                images[x] = y
                used[y] = True
                yield from rec(k + 1)
                used[y] = False
                images[x] = None

    try:
        yield from rec(0)
    except RecursionError:
        raise CapExceeded("incidence-map search of %d elements exceeds the "
                          "recursion limit" % n) from None


def automorphism_group(geom, cap=DEFAULT_CAP):
    """All type- and incidence-preserving permutations, one search leaf
    per automorphism (_incidence_maps from geom to itself), generated by
    the leaves a chain accepts, in search order; the chain refuses as
    soon as the order passes the cap."""
    chain = _Chain(geom.size, cap=cap)
    gens = [Perm._trusted(images) for images in _incidence_maps(geom, geom)
            if chain.add(images)]
    group = PermGroup(gens, degree=geom.size, cap=cap)
    group._sims = chain
    return group


def multicover_array(geom, group):
    """For each incident type pair (i, j), the number of elements of the
    group-orbit of b incident with a, for incident a of type i and b of
    type j.  Raises ValueError with a witness when the count is not
    constant over incident pairs (the uniformity hypothesis fails)."""
    part = orbit_partition(group, geom)
    first = {}  # (i, j) -> the first count and its pair
    for a, b in incident_pairs(geom):
        for x, y in ((a, b), (b, a)):
            i, j = geom.elem_type[x], geom.elem_type[y]
            orbit = mask_of(part.blocks[part.block_of[y]])
            k = (geom.masks[x] & orbit).bit_count()
            k0, pair = first.setdefault((i, j), (k, (x, y)))
            if k0 != k:
                raise ValueError(
                    "count not constant on type pair (%d, %d): "
                    "%d at %r vs %d at %r"
                    % (i, j, k0, geom.flag_names(pair), k,
                       geom.flag_names((x, y))))
    return [[first.get((i, j), (None,))[0] for j in range(geom.rank)]
            for i in range(geom.rank)]


def induced_quotient_group(proj, group):
    """The action induced on the quotient by a group preserving the
    partition; raises when a generator does not preserve it."""
    block_of = proj.block_of
    gens = []
    for g in group.gens:
        images = [None] * len(proj.partition.blocks)
        for k, block in enumerate(proj.partition.blocks):
            targets = {block_of[g[x]] for x in block}
            if len(targets) != 1:
                raise ValueError("generator does not preserve the partition")
            images[k] = targets.pop()
        gens.append(Perm(images))
    return PermGroup(gens, degree=len(proj.partition.blocks), cap=group.cap)
