"""
Abstract finite groups (multiplication-table semantics), subgroups and
coset pregeometries: right cosets of designated subgroups, incident when
they intersect, with the right-multiplication action.

A coset pregeometry is one index table, coset_of[i][x]: the coset of
type i that holds group element x.  Incidences are the pairs
(coset_of[i][x], coset_of[j][x]) over x, and g acts on the coset H_i x as
x -> coset_of[i][x g].  Recognising a coset pregeometry of a permutation
group (is_coset_pregeometry) works from generator orbits alone; nothing
here lists a permutation group.
"""

from __future__ import annotations

from itertools import permutations

from .geometry import Pregeometry, flags_of_type, mask_of, same_type_incidence
from .perms import (Perm, PermGroup, _flag_orbits, check_automorphisms,
                    transitivity)


class FiniteGroup:
    """Indexed element set with a full multiplication table."""

    __slots__ = ("names", "mul", "inv", "id", "_index")

    def __init__(self, names, mul, check=True):
        self.names = tuple(names)
        n = len(self.names)
        self.mul = tuple(tuple(row) for row in mul)
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise ValueError("multiplication table must be %d x %d" % (n, n))
        ident = None
        for e in range(n):
            if all(self.mul[e][x] == x and self.mul[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        self.id = ident
        inv = [None] * n
        for x in range(n):
            for y in range(n):
                if self.mul[x][y] == ident and self.mul[y][x] == ident:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValueError("element %r has no inverse" % (self.names[x],))
        self.inv = tuple(inv)
        self._index = {name: i for i, name in enumerate(self.names)}
        if check:
            self._check_associativity()

    def _check_associativity(self):
        """Light's test: the elements s with (x*s)*y == x*(s*y) for all x, y
        are closed under products, so checking the generators, from which
        right multiplication reaches every element, is exact."""
        mul = self.mul
        n = len(self.names)
        for s in self.generators():
            for x in range(n):
                xs = mul[x][s]
                for y in range(n):
                    if mul[xs][y] != mul[x][mul[s][y]]:
                        raise ValueError(
                            "multiplication table is not associative")

    def __len__(self):
        return len(self.names)

    def index(self, name):
        return self._index[name]

    def is_abelian(self):
        n = len(self.names)
        return all(self.mul[x][y] == self.mul[y][x]
                   for x in range(n) for y in range(x + 1, n))

    @classmethod
    def cyclic(cls, n):
        names = [str(i) for i in range(n)]
        mul = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(names, mul, check=False)

    @classmethod
    def direct_product(cls, *groups):
        """Elements in itertools.product order: (c_1, ..., c_k) has the
        mixed-radix index ((c_1 n_2 + c_2) n_3 + ...) n_k + c_k, so each
        factor extends the table by index arithmetic."""
        names, mul = [()], [[0]]
        for g in groups:
            n = len(g)
            names = [p + (name,) for p in names for name in g.names]
            mul = [[a * n + b for a in row for b in g.mul[c]]
                   for row in mul for c in range(n)]
        return cls(["(%s)" % ",".join(p) for p in names], mul, check=False)

    @classmethod
    def symmetric(cls, n):
        perms = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        names = ["[%s]" % "".join(map(str, p)) for p in perms]
        mul = [[index[tuple(q[x] for x in p)] for q in perms] for p in perms]
        return cls(names, mul, check=False)

    def _closure(self, seed):
        """Everything reached from the identity by right multiplication by
        seed elements; in a finite group that is the subgroup they generate,
        as inverses are positive powers."""
        members = {self.id}
        frontier = [self.id]
        seed = sorted(set(seed))
        while frontier:
            nxt = []
            for x in frontier:
                for s in seed:
                    y = self.mul[x][s]
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        return members

    def subgroup_generated(self, seed):
        return Subgroup(self, self._closure(seed))

    def generators(self, members=None):
        """A small generating set of the subgroup on the given members
        (default: the whole group), chosen greedily in index order."""
        members = range(len(self.names)) if members is None else sorted(members)
        gens = []
        have = {self.id}
        for x in members:
            if x not in have:
                gens.append(x)
                have = self._closure(gens)
                if len(have) == len(members):
                    break
        return gens


class Subgroup:
    """A verified subgroup: closed under products and inverses."""

    __slots__ = ("parent", "members", "name")

    def __init__(self, parent, members, name=None):
        self.parent = parent
        self.members = tuple(sorted(set(members)))
        self.name = name
        mem = set(self.members)
        if parent.id not in mem:
            raise ValueError("subgroup must contain the identity")
        for x in self.members:
            if parent.inv[x] not in mem:
                raise ValueError("subgroup not closed under inverses")
            for y in self.members:
                if parent.mul[x][y] not in mem:
                    raise ValueError("subgroup not closed under products")

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in set(self.members)

    def named(self, name):
        return Subgroup(self.parent, self.members, name)


def set_product(G, xs, ys):
    return frozenset(G.mul[x][y] for x in xs for y in ys)


def product_condition(G, pivot, others):
    """The flag-transitivity product condition with the given pivot:
    the intersection of the products pivot*G_j equals pivot*(intersection
    of the G_j)."""
    lhs = None
    for sub in others:
        term = set_product(G, pivot.members, sub.members)
        lhs = term if lhs is None else (lhs & term)
    inter = set(others[0].members)
    for sub in others[1:]:
        inter &= set(sub.members)
    rhs = set_product(G, pivot.members, inter)
    return lhs == rhs


def rank3_ft_condition(G, G1, G2, G3):
    """Rank-3 flag-transitivity criterion: the product condition with
    pivot G1, G1G2 & G1G3 == G1(G2 & G3)."""
    return product_condition(G, G1, [G2, G3])


class CosetGeometry:
    """The coset pregeometry of a group with designated subgroups, plus
    the right-multiplication action.

    coset_of[i][x] is the element (the right coset H_i x) that contains
    group element x.  It is filled in one pass per type over x in index
    order, so each coset is met first at its least member, its rep; the
    elements are listed by type, then by rep."""

    __slots__ = ("group", "subgroups", "geometry", "reps", "coset_of")

    def __init__(self, group, subgroups):
        if not subgroups:
            raise ValueError("at least one subgroup required")
        if any(sub.parent is not group for sub in subgroups):
            raise ValueError("subgroups must be subgroups of the group")
        self.group = group
        self.subgroups = tuple(subgroups)
        type_names = [sub.name or ("G%d" % (i + 1))
                      for i, sub in enumerate(subgroups)]
        if len(set(type_names)) != len(type_names):
            raise ValueError("duplicate subgroup names")
        mul = group.mul
        elems, etype, reps, coset_of = [], [], [], []
        for i, sub in enumerate(subgroups):
            of = [None] * len(group)
            for x in range(len(group)):
                if of[x] is None:
                    k = len(elems)
                    for h in sub.members:
                        of[mul[h][x]] = k
                    elems.append(type_names[i] if x == group.id else
                                 "%s*%s" % (type_names[i], group.names[x]))
                    etype.append(i)
                    reps.append(x)
            coset_of.append(tuple(of))
        # two cosets meet exactly when some x lies in both
        masks = [0] * len(elems)
        for column in zip(*coset_of):  # the cosets that hold x
            meet = mask_of(column)
            for k in column:
                masks[k] |= meet
        self.geometry = Pregeometry._of_masks(
            type_names, elems, etype,
            [m & ~(1 << k) for k, m in enumerate(masks)])
        self.reps = tuple(reps)
        self.coset_of = tuple(coset_of)

    def action_of(self, g):
        """The permutation induced on cosets by right multiplication:
        H_i x g is the coset of type i that contains x g."""
        mul = self.group.mul
        return Perm([self.coset_of[i][mul[x][g]]
                     for i, x in zip(self.geometry.elem_type, self.reps)])

    def action_group(self, members=None):
        """Right-multiplication action of the whole group (or of the given
        member subset, which must be a subgroup) as a permutation group."""
        return PermGroup([self.action_of(g)
                          for g in self.group.generators(members)],
                         degree=self.geometry.size)


def coset_pregeometry(G, subgroups):
    """Elements are right cosets of the subgroups (one type each),
    incident when the cosets intersect; returns the geometry and the
    right-multiplication action bundle."""
    cg = CosetGeometry(G, subgroups)
    return cg.geometry, cg


def rank2_connectivity(G, Gi, Gj):
    """The rank-2 truncation on two cosets types is connected iff the two
    subgroups generate the whole group."""
    generated = G.subgroup_generated(set(Gi.members) | set(Gj.members))
    return len(generated) == len(G)


class CosetExampleFamily:
    """The rank-4 family over an abelian group: subgroups
    {(x,1,x)}, {(x,1,1)}, {(x,x,1)}, 1 inside the cube, with the diagonal
    as the designated normal subgroup."""

    __slots__ = ("A", "G", "subgroups", "N", "cg", "geometry")

    def __init__(self, A):
        if not A.is_abelian():
            raise ValueError("base group must be abelian")
        if len(A) < 2:
            raise ValueError("base group must have order at least 2")
        self.A = A
        G = FiniteGroup.direct_product(A, A, A)
        self.G = G
        n = len(A)
        g1 = {self._triple((x, A.id, x)) for x in range(n)}
        g2 = {self._triple((x, A.id, A.id)) for x in range(n)}
        g3 = {self._triple((x, x, A.id)) for x in range(n)}
        g4 = {G.id}
        diag = {self._triple((x, x, x)) for x in range(n)}
        self.subgroups = (Subgroup(G, g1, "G1"), Subgroup(G, g2, "G2"),
                          Subgroup(G, g3, "G3"), Subgroup(G, g4, "G4"))
        self.N = Subgroup(G, diag, "N")
        self.geometry, self.cg = coset_pregeometry(G, self.subgroups)

    def _triple(self, xyz):
        return self.G.index("(%s,%s,%s)" % tuple(self.A.names[c] for c in xyz))

    def element(self, x, y, z):
        """Index in the cube of the triple with the given base-group parts."""
        return self._triple((x, y, z))

    def action_group(self):
        return self.cg.action_group()

    def n_action_group(self):
        return self.cg.action_group(self.N.members)

    def truncation3(self):
        """The rank-3 member on the first three subgroups."""
        subs = self.subgroups[:3]
        geom, cg = coset_pregeometry(self.G, subs)
        return geom, cg


def coseteg_family(A):
    """Build the rank-4 coset example family over an abelian group."""
    return CosetExampleFamily(A)


def is_coset_pregeometry(geom, group):
    """Whether a pregeometry with a given automorphism group is
    (isomorphic to) a coset pregeometry of that group, by the
    characterisation (Buekenhout & Cohen, Diagram Geometry, 2013, ch. 1):
    it has a chamber C, no two elements of one type are incident, and G
    is transitive on the flags of each single type and of each pair of
    types.  Returns (True, C) for the least chamber C, or (False,
    reason).

    Sketch: by vertex-transitivity, x of type i is g c_i for the g of one
    coset of the stabilizer G_{c_i}.  Elements x of type i and y of type
    j != i are incident exactly when some single g maps (c_i, c_j) onto
    (x, y), as the incident pairs of types {i, j} form the one orbit of
    (c_i, c_j); and that is when the two cosets meet.  Cosets of one type
    are disjoint, so no two elements of one type are incident.  So the
    chamber stabilizers G_{c_i} give the coset model."""
    chams = flags_of_type(geom, range(geom.rank))
    if not chams:
        return False, "no chamber"
    bad = same_type_incidence(geom)
    if bad is not None:
        return False, bad
    check_automorphisms(geom, group)
    _flag_orbits(geom, group.gens, 2)  # one labelling for both tests
    ok, w = transitivity(group, geom, "vertex")
    if not ok:
        return False, ("not vertex-transitive", w)
    ok, w = transitivity(group, geom, "incidence")
    if not ok:
        return False, ("not incidence-transitive", w)
    return True, chams[0]
