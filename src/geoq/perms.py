"""
Permutation groups acting on a pregeometry.

Groups are given by generators and enumerated by plain breadth-first
closure (no strong generating sets; desk scale, with a configurable cap).
Orbits use union-find over generator images.
"""

from __future__ import annotations

from .quotient import Partition

DEFAULT_CAP = 200_000


class CapExceeded(Exception):
    """Raised when a group enumeration grows past its configured cap."""


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

    def __mul__(self, other):
        return Perm(other.images[x] for x in self.images)

    def inv(self):
        images = [0] * len(self.images)
        for x, y in enumerate(self.images):
            images[y] = x
        return Perm(images)

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


class PermGroup:
    """Generators plus a lazily enumerated element set (construct, then
    freeze; all queries after enumeration are pure)."""

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

    @classmethod
    def trivial(cls, degree):
        return cls([], degree=degree)

    @classmethod
    def from_elements(cls, elems, degree=None, cap=DEFAULT_CAP):
        elems = set(elems)
        group = cls(sorted(elems), degree=degree, cap=cap)
        group._elements = frozenset(elems) | {Perm.identity(group.degree)}
        return group

    def elements(self):
        if self._elements is None:
            els = mulclose(list(self.gens), self.cap)
            if not els:
                els = {Perm.identity(self.degree)}
            self._elements = frozenset(els)
        return self._elements

    def order(self):
        return len(self.elements())

    def __contains__(self, perm):
        return perm in self.elements()

    def __iter__(self):
        return iter(sorted(self.elements()))

    def orbit(self, x):
        seen = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in self.gens:
                    z = g[y]
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
            frontier = nxt
        return tuple(sorted(seen))

    def orbits(self):
        """All orbits on 0..degree-1, by union-find over generator images."""
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.gens:
            for x in range(self.degree):
                rx, ry = find(x), find(g[x])
                if rx != ry:
                    parent[ry] = rx
        groups = {}
        for x in range(self.degree):
            groups.setdefault(find(x), []).append(x)
        return sorted(tuple(sorted(v)) for v in groups.values())

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


def check_automorphisms(geom, group):
    for g in group.gens:
        if not is_automorphism(geom, g):
            raise ValueError("generator %r is not an automorphism" % (g,))


def orbit_partition(group, geom):
    """The orbits of an automorphism group as a type-refining partition."""
    check_automorphisms(geom, group)
    return Partition(geom, group.orbits())


def stabilizer(group, flag):
    """Setwise flag stabilizer; type preservation makes it pointwise."""
    flag = tuple(flag)
    members = [g for g in group.elements()
               if all(g[x] == x for x in flag)]
    return PermGroup.from_elements(members, degree=group.degree, cap=group.cap)


def normal_closure(group, sub):
    """Smallest subgroup containing sub and normalised by group."""
    for g in sub.gens:
        if g not in group:
            raise ValueError("subgroup generator outside the group")
    gens = list(sub.gens)
    els = mulclose(gens, group.cap) or {Perm.identity(group.degree)}
    changed = True
    while changed:
        changed = False
        for g in group.gens:
            ginv = g.inv()
            for h in sorted(els):
                c = ginv * h * g
                if c not in els:
                    gens.append(c)
                    els = mulclose(gens, group.cap)
                    changed = True
    out = PermGroup(gens, degree=group.degree, cap=group.cap)
    out._elements = frozenset(els)
    return out


def _flag_orbit_count(group, flags):
    """Number of orbits of the group on a collection of flags."""
    index = {frozenset(f): i for i, f in enumerate(flags)}
    parent = list(range(len(flags)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in group.gens:
        for f, i in index.items():
            j = index[frozenset(g[x] for x in f)]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
    roots = {find(i) for i in range(len(flags))}
    witness = None
    if len(roots) > 1:
        by_root = {}
        for i in range(len(flags)):
            by_root.setdefault(find(i), i)
        picks = sorted(by_root.values())[:2]
        witness = (flags[picks[0]], flags[picks[1]])
    return len(roots), witness


def transitivity(group, geom, kind, types=None):
    """Transitivity of an automorphism group on a flag family.

    kind is one of 'vertex' (each type class), 'incidence' (every 2-subset
    of types), 'jflags' (the given type set), 'chamber', or 'flag' (every
    subset of types).  Returns (ok, witness pair of flags)."""
    from .geometry import flags_of_type
    from itertools import combinations
    check_automorphisms(geom, group)

    def offor(J):
        flags = flags_of_type(geom, J)
        if not flags:
            return True, None
        count, witness = _flag_orbit_count(group, flags)
        return count == 1, witness

    if kind == "jflags":
        if types is None:
            raise ValueError("jflags requires a type set")
        return offor(types)
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


def is_semiregular(group, geom=None, types=None):
    """True iff every point stabilizer is trivial.  With types given, only
    stabilizers of elements of those types are required trivial."""
    if types is None:
        domain = range(group.degree)
    else:
        allowed = set(types)
        domain = [x for x in range(geom.size) if geom.elem_type[x] in allowed]
    for g in group.elements():
        if g.is_identity():
            continue
        if any(g[x] == x for x in domain):
            return False
    return True


def automorphism_group(geom, cap=DEFAULT_CAP):
    """All type- and incidence-preserving permutations, by backtracking
    with (type, degree profile) invariants.  Desk scale only."""
    n = geom.size

    def invariant(x):
        nbr = sorted((geom.elem_type[y], len(geom.adj[y])) for y in geom.adj[x])
        return (geom.elem_type[x], len(geom.adj[x]), tuple(nbr))

    inv = [invariant(x) for x in range(n)]
    cands = {x: [y for y in range(n) if inv[y] == inv[x]] for x in range(n)}
    order = sorted(range(n), key=lambda x: (len(cands[x]), x))
    found = []
    images = [None] * n
    used = [False] * n

    def rec(k):
        if k == n:
            found.append(Perm(list(images)))
            if cap is not None and len(found) > cap:
                raise CapExceeded("automorphism count exceeds cap %d" % cap)
            return
        x = order[k]
        for y in cands[x]:
            if used[y]:
                continue
            ok = True
            for z in order[:k]:
                if geom.incident(x, z) != geom.incident(y, images[z]):
                    ok = False
                    break
            if ok:
                images[x] = y
                used[y] = True
                rec(k + 1)
                used[y] = False
                images[x] = None

    rec(0)
    group = PermGroup.from_elements(found, degree=n, cap=cap)
    return group


def multicover_array(geom, group):
    """For each incident type pair (i, j), the number of elements of the
    group-orbit of b incident with a, for incident a of type i and b of
    type j.  Raises ValueError with a witness when the count is not
    constant over incident pairs (the uniformity hypothesis fails)."""
    check_automorphisms(geom, group)
    blocks = group.orbits()
    block_of = [0] * geom.size
    for k, block in enumerate(blocks):
        for x in block:
            block_of[x] = k
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
