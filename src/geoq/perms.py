"""
Permutation groups acting on a pregeometry.

A group is given by generators.  Its order, membership, point
stabilizers and normal closures come from one deterministic
Schreier-Sims chain (_Chain: a base, strong generators per level and
transversals; Sims 1970, Seress, *Permutation Group Algorithms*, 2003,
ch. 4), built on first use without listing the group.  Only elements()
lists G, by plain breadth-first closure under a configurable cap; the
chain refuses a group above that cap with the same CapExceeded.  Every
orbit question -- on points, flags, incident pairs or ordered tuples --
goes through orbits_on, a union-find over generator images that never
enumerates the group.  Products and inverses are built without
re-checking that they are permutations; every Perm made from outside
data is checked.  Whether a generator is an automorphism is decided
once per geometry and kept in the geometry's memo (check_automorphisms).

_incidence_maps is the one incidence-map search: invariant-pruned
backtracking (McKay & Piperno, "Practical graph isomorphism, II", 2014,
without orbit pruning) over the type- and incidence-preserving
bijections between two pregeometries.  automorphism_group collects all of
them from a geometry to itself; constructions.isomorphic takes the first.
"""

from __future__ import annotations

from itertools import combinations

from .geometry import _per_geometry, bits, flags_of_type, same_type_incidence
from .quotient import Partition

DEFAULT_CAP = 200_000


class CapExceeded(Exception):
    """Raised when a group enumeration grows past its configured cap."""


def _inverse(images):
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[y] = x
    return tuple(out)


class Perm:
    """A permutation of 0..n-1 as a tuple of images; x**-like action is
    written p[x], and (p * q)[x] == q[p[x]]."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation: %r" % (images,))
        self.images = images

    @classmethod
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
        return len(self.images)

    def __getitem__(self, x):
        return self.images[x]

    @classmethod
    def _trusted(cls, images):
        """A Perm from an images tuple that is a permutation by
        construction (products, inverses), skipping the check."""
        perm = object.__new__(cls)
        perm.images = images
        return perm

    def __mul__(self, other):
        images = other.images
        if len(images) != len(self.images):
            raise ValueError("degree mismatch: %d and %d"
                             % (len(self.images), len(images)))
        return Perm._trusted(tuple([images[x] for x in self.images]))

    def inv(self):
        return Perm._trusted(_inverse(self.images))

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles, each starting at its least point."""
        seen = set()
        out = []
        for x in range(len(self.images)):
            if x in seen or self.images[x] == x:
                continue
            cyc = [x]
            y = self.images[x]
            while y != x:
                cyc.append(y)
                y = self.images[y]
            seen.update(cyc)
            out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Perm(id/%d)" % len(self.images)
        return "Perm(%s)" % "".join("(%s)" % " ".join(map(str, c)) for c in cyc)


def orbits_on(gens, items, act):
    """Orbits of the group generated by gens on the distinct hashable
    items, where act(g, item) is the image of item under g.  Union-find
    over generator images; each orbit is a tuple in items order, and the
    orbits are listed by their first member.  Raises ValueError when an
    image is not among the items."""
    index = {x: i for i, x in enumerate(items)}
    parent = list(range(len(index)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in gens:
        for x, i in index.items():
            j = index.get(act(g, x))
            if j is None:
                raise ValueError("image of %r under %r is not among the items"
                                 % (x, g))
            if j != i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    orbits = {}
    for x, i in index.items():
        orbits.setdefault(find(i), []).append(x)
    return [tuple(orbit) for orbit in orbits.values()]


def mulclose(gens, cap=DEFAULT_CAP):
    """Breadth-first closure of a generator set under composition."""
    if not gens:
        return set()
    els = {Perm.identity(gens[0].degree)}
    els.update(gens)
    frontier = list(els)
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                c = h * g
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if cap is not None and len(els) > cap:
                        raise CapExceeded("group order exceeds cap %d" % cap)
        frontier = new
    return els


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
    least point a residue moves, after the given prefix."""

    def __init__(self, degree, base=()):
        self.identity = tuple(range(degree))
        self.base, self.gens, self.trans, self.orbit = [], [], [], []
        self.done = []  # done[i][k]: gens[i] applied to orbit[i][k]
        self.size = 1
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
            uinv = t[1]
            h = tuple([uinv[x] for x in h])
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
            uy = trans[y][0]
            while done[k] < len(gens):
                s = gens[done[k]]
                done[k] += 1
                z = s[y]
                t = trans.get(z)
                if t is None:
                    u = tuple([s[x] for x in uy])
                    trans[z] = (u, _inverse(u))
                    self.size = self.size // len(orbit) * (len(orbit) + 1)
                    orbit.append(z)
                    done.append(0)
                    continue
                uzinv = t[1]
                h = tuple([uzinv[s[x]] for x in uy])
                if h == identity:
                    continue
                level, h = self.sift(h, i + 1)
                if h != identity:
                    self._insert(level, h)
                    return level
            k += 1
        return None


class PermGroup:
    """Generators, a Schreier-Sims chain built on first use, and an
    element set listed only when asked for (construct, then freeze; all
    queries after construction are pure)."""

    def __init__(self, gens, degree=None, cap=DEFAULT_CAP):
        gens = [g for g in gens if not g.is_identity()]
        if degree is None:
            if not gens:
                raise ValueError("degree required for a trivial group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.gens = tuple(gens)
        self.degree = degree
        self.cap = cap
        self._elements = None
        self._sorted = None  # the elements as a sorted tuple, see __iter__
        self._sims = None

    @classmethod
    def trivial(cls, degree):
        return cls([], degree=degree)

    @classmethod
    def from_elements(cls, elems, degree=None, cap=DEFAULT_CAP):
        elems = set(elems)
        group = cls(sorted(elems), degree=degree, cap=cap)
        group._elements = frozenset(elems) | {Perm.identity(group.degree)}
        return group

    def _chain(self):
        """The group's chain; raises CapExceeded when the order is above
        the cap, with the message listing the group would raise."""
        chain = self._sims
        if chain is None:
            chain = _Chain(self.degree)
            for g in self.gens:
                chain.add(g.images)
            self._sims = chain  # only once complete
        if self.cap is not None and chain.size > self.cap:
            raise CapExceeded("group order exceeds cap %d" % self.cap)
        return chain

    def elements(self):
        if self._elements is None:
            els = mulclose(list(self.gens), self.cap)
            if not els:
                els = {Perm.identity(self.degree)}
            self._elements = frozenset(els)
        return self._elements

    def order(self):
        if self._elements is not None:
            return len(self._elements)
        return self._chain().size

    def __contains__(self, perm):
        return (isinstance(perm, Perm) and perm.degree == self.degree
                and perm.images in self._chain())

    def __iter__(self):
        """The elements in increasing order, sorted once per group."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements()))
        return iter(self._sorted)

    def orbits(self):
        """All orbits on 0..degree-1, each sorted, listed by least point."""
        return orbits_on(self.gens, range(self.degree), Perm.__getitem__)

    def orbit_transversal(self, x):
        """Map y -> group element sending x to y, for y in the orbit of x."""
        reps = {x: Perm.identity(self.degree)}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in self.gens:
                    z = g[y]
                    if z not in reps:
                        reps[z] = reps[y] * g
                        nxt.append(z)
            frontier = nxt
        return reps

    def element_mapping(self, x, y):
        """Some group element with x -> y, or None."""
        reps = self.orbit_transversal(x)
        return reps.get(y)


def is_automorphism(geom, perm):
    """Type-preserving and incidence-preserving; closure under inverses
    makes edge-set preservation sufficient in a finite group."""
    if perm.degree != geom.size:
        return False
    for x in range(geom.size):
        if geom.elem_type[perm[x]] != geom.elem_type[x]:
            return False
    return all((min(perm[a], perm[b]), max(perm[a], perm[b])) in geom.pairs
               for a, b in geom.pairs)


@_per_geometry
def _verified_automorphisms(geom):
    """The images of the generators already found to be automorphisms of
    the geometry, kept with it."""
    return set()


def check_automorphisms(geom, group):
    """Raise ValueError unless every generator is an automorphism of the
    geometry.  A (geometry, generator) pair is checked once; a failure is
    never kept and is raised again on every call."""
    verified = _verified_automorphisms(geom)
    for g in group.gens:
        if g.images in verified:
            continue
        if not is_automorphism(geom, g):
            raise ValueError("generator %r is not an automorphism" % (g,))
        verified.add(g.images)


def orbit_partition(group, geom):
    """The orbits of an automorphism group as a type-refining partition."""
    check_automorphisms(geom, group)
    return Partition(geom, group.orbits())


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
        chain.add(h.images)
    conjugators = [(g.inv(), g) for g in group.gens]
    # one pass over the growing generator list of N: once h^g lies in N
    # for every generator h of N and g of G, N^g is inside N
    for h in gens:
        for ginv, g in conjugators:
            c = ginv * h * g
            if chain.add(c.images):
                gens.append(c)
    out = PermGroup(gens, degree=group.degree, cap=group.cap)
    out._sims = chain
    return out


def _flag_image(g, flag):
    """The image of a flag (a sorted tuple) under g, as a sorted tuple."""
    images = g.images
    return tuple(sorted([images[x] for x in flag]))


def transitivity(group, geom, kind, types=None):
    """Transitivity of an automorphism group on a flag family.

    kind is one of 'vertex' (each type class), 'incidence' (every 2-subset
    of types), 'jflags' (the given type set), 'chamber', or 'flag' (every
    subset of types), each a list of type sets tested in turn.  Returns
    (ok, witness): on the first type set whose flags form more than one
    orbit, the least flags of its first two orbits.  A same-type
    incidence raises ValueError."""
    bad = same_type_incidence(geom)
    if bad is not None:
        raise ValueError("transitivity: %s" % bad)
    check_automorphisms(geom, group)
    every = tuple(range(geom.rank))
    families = {
        "vertex": [(t,) for t in every],
        "incidence": list(combinations(every, 2)),
        "jflags": [types],
        "chamber": [every],
        "flag": [J for r in range(1, geom.rank + 1)
                 for J in combinations(every, r)],
    }
    if kind not in families:
        raise ValueError("unknown transitivity kind %r" % (kind,))
    if types is None and kind == "jflags":
        raise ValueError("jflags requires a type set")
    for J in families[kind]:
        orbits = orbits_on(group.gens, flags_of_type(geom, J), _flag_image)
        if len(orbits) > 1:
            return False, (orbits[0][0], orbits[1][0])
    return True, None


def is_semiregular(group, geom=None, types=None):
    """True iff every point stabilizer is trivial.  With types given, only
    stabilizers of elements of those types are required trivial.  Since
    |orbit(x)| = |G : G_x|, that is: every orbit meeting the domain has
    length |G|."""
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
    The callers guarantee equal sizes.  Desk scale only."""
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

    return rec(0)


def automorphism_group(geom, cap=DEFAULT_CAP):
    """All type- and incidence-preserving permutations, one search leaf
    per automorphism (_incidence_maps from geom to itself)."""
    found = []
    for images in _incidence_maps(geom, geom):
        found.append(Perm._trusted(images))
        if cap is not None and len(found) > cap:
            raise CapExceeded("automorphism count exceeds cap %d" % cap)
    return PermGroup.from_elements(found, degree=geom.size, cap=cap)


def multicover_array(geom, group):
    """For each incident type pair (i, j), the number of elements of the
    group-orbit of b incident with a, for incident a of type i and b of
    type j.  Raises ValueError with a witness when the count is not
    constant over incident pairs (the uniformity hypothesis fails)."""
    part = orbit_partition(group, geom)
    blocks, block_of = part.blocks, part.block_of
    counts = {}
    witness_pair = {}
    for a, b in sorted(geom.pairs):
        for x, y in ((a, b), (b, a)):
            i, j = geom.elem_type[x], geom.elem_type[y]
            k = sum(1 for z in blocks[block_of[y]] if geom.incident(x, z))
            if (i, j) not in counts:
                counts[(i, j)] = k
                witness_pair[(i, j)] = (x, y)
            elif counts[(i, j)] != k:
                raise ValueError(
                    "count not constant on type pair (%d, %d): "
                    "%d at %r vs %d at %r"
                    % (i, j, counts[(i, j)],
                       geom.flag_names(witness_pair[(i, j)]), k,
                       geom.flag_names((x, y))))
    return [[counts.get((i, j)) for j in range(geom.rank)]
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
