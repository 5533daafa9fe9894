"""
Finite groups as permutation actions, subgroups and coset pregeometries:
right cosets of designated subgroups, incident when they intersect, with
the right-multiplication action.

A FiniteGroup is the faithful permutation action of its construction:
element x is the images tuple act[x], and x*y is the element whose
action is act[x] followed by act[y] (Perm's product).  The identity and
inverses are looked up in one {action: index} dict.  Generators are
picked, and outside actions checked closed, by perms' one generator
picker (_Chain.add); subgroups are closed by perms' one closure loop;
no product table is kept.

A coset pregeometry is one index table, coset_of[i][x]: the coset of
type i that holds group element x.  Incidences are the pairs
(coset_of[i][x], coset_of[j][x]) over x, and g acts on the coset H_i x as
x -> coset_of[i][x g].  Recognising a coset pregeometry of a permutation
group (is_coset_pregeometry) works from generator orbits alone; nothing
here lists a permutation group.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .geometry import Pregeometry, flags_of_type, mask_of, same_type_incidence
from .perms import (CapExceeded, Perm, PermGroup, _Chain,
                    _closure, _flag_orbits, _inverse, _then,
                    check_automorphisms, transitivity)


class FiniteGroup:
    """Named elements, each a permutation (its images tuple act[x]) of
    one set of points; the actions are distinct and form a group."""

    __slots__ = ("names", "act", "id", "_of", "_then", "_gens")

    def __init__(self, names, act, check=True):
        """check=False takes actions that form a group by construction."""
        self.names, self.act = tuple(names), tuple(map(tuple, act))
        act = self.act
        self._of = {a: x for x, a in enumerate(act)}
        self._then = [_then(a) for a in act]  # _then[x](act[y]): x*y
        self.id = self._of.get(tuple(range(len(act[0]))) if act else ())
        self._gens = None
        if not check:
            return
        if len(self.names) != len(act):
            raise ValueError("%d names for %d actions"
                             % (len(self.names), len(act)))
        if len(set(map(len, act))) > 1:
            raise ValueError("actions of mixed degree")
        for a in act:
            Perm(a)  # raises ValueError("not a permutation: ...")
        if len(self._of) != len(act):
            raise ValueError("repeated action")
        if self.id is None:
            raise ValueError("no identity element")
        try:  # the actions lie in their picks' group, capped at their count
            self._gens = self._pick(range(len(act)), len(act))
        except CapExceeded:
            raise ValueError("actions not closed under products") from None

    def __len__(self):
        return len(self.names)

    def product(self, x, y):
        return self._of[self._then[x](self.act[y])]

    def inverse(self, x):
        return self._of[_inverse(self.act[x])]

    def is_abelian(self):
        return all(self.product(a, b) == self.product(b, a)
                   for a, b in combinations(self.generators(), 2))

    @classmethod
    def cyclic(cls, n):
        """The rotations of n points; n must be at least 1."""
        if n < 1:
            raise ValueError("cyclic group needs n >= 1, got n=%d" % n)
        return cls([str(i) for i in range(n)],
                   [tuple(range(i, n)) + tuple(range(i)) for i in range(n)])

    @classmethod
    def direct_product(cls, *groups):
        """Elements in itertools.product order: (c_1, ..., c_k) has the
        mixed-radix index ((c_1 n_2 + c_2) n_3 + ...) n_k + c_k, and acts
        on the disjoint union of the factors' points."""
        names, act = [()], [()]
        for g in groups:
            shift = len(act[0])
            moved = [tuple(p + shift for p in a) for a in g.act]
            names = [p + (name,) for p in names for name in g.names]
            act = [a + b for a in act for b in moved]
        return cls(["(%s)" % ",".join(p) for p in names], act, check=False)

    @classmethod
    def symmetric(cls, n):
        """The permutations of n points themselves, in sorted order."""
        act = tuple(permutations(range(n)))  # sorted
        return cls(["[%s]" % "".join(map(str, p)) for p in act], act,
                   check=False)

    def subgroup_generated(self, seed):
        act, index = self.act, self._of
        return Subgroup(self, [index[a] for a in _closure(
            {act[s] for s in seed}, act[self.id])], check=False)

    def generators(self, members=None):
        """A small generating set of the subgroup on the given members
        (default: the whole group), chosen greedily in index order: each
        member not generated by the earlier picks, as _Chain.add decides."""
        if members is None:
            if self._gens is None:
                self._gens = self._pick(range(len(self)))
            return list(self._gens)
        return self._pick(sorted(members))

    def _pick(self, members, cap=None):
        act = self.act
        chain = _Chain(len(act[self.id]), cap=cap)
        return [x for x in members if chain.add(act[x])]


class Subgroup:
    """A subgroup, given by its members: made by a closure, or checked to
    be closed when a caller lists them."""

    __slots__ = ("parent", "members", "name")

    def __init__(self, parent, members, name=None, check=True):
        """check=False takes the members of a closure."""
        self.parent, self.name = parent, name
        self.members = tuple(sorted(set(members)))
        if not check:
            return
        # members lie in the group they generate: equal sizes make it them
        act = parent.act
        if parent.id not in self.members:
            raise ValueError("subgroup must contain the identity")
        if len(_closure({act[x] for x in self.members},
                        act[parent.id])) != len(self.members):
            raise ValueError("subgroup not closed under products")

    def __len__(self):
        return len(self.members)

    def named(self, name):
        return Subgroup(self.parent, self.members, name, check=False)


def set_product(G, xs, ys):
    return frozenset(G.product(x, y) for x in xs for y in ys)


def product_condition(G, pivot, others):
    """The flag-transitivity product condition with the given pivot:
    the intersection of the products pivot*G_j equals pivot*(intersection
    of the G_j)."""
    lhs = frozenset.intersection(*[set_product(G, pivot.members, sub.members)
                                   for sub in others])
    inter = set.intersection(*[set(sub.members) for sub in others])
    return lhs == set_product(G, pivot.members, inter)


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
        act, index = group.act, group._of
        elems, etype, reps, coset_of = [], [], [], []
        for i, sub in enumerate(subgroups):
            of = [None] * len(group)
            left = [group._then[h] for h in sub.members]  # x -> h x
            for x in range(len(group)):
                if of[x] is None:
                    k = len(elems)
                    ax = act[x]
                    for then in left:
                        of[index[then(ax)]] = k
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
        group, coset_of = self.group, self.coset_of
        ag, index, then = group.act[g], group._of, group._then
        return Perm._trusted(tuple([
            coset_of[i][index[then[x](ag)]]
            for i, x in zip(self.geometry.elem_type, self.reps)]))

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
    return len(G.subgroup_generated(Gi.members + Gj.members)) == len(G)


class CosetExampleFamily:
    """The rank-4 family over an abelian group: subgroups
    {(x,1,x)}, {(x,1,1)}, {(x,x,1)}, 1 inside the cube, with the diagonal
    as the designated normal subgroup."""

    __slots__ = ("A", "G", "subgroups", "N", "cg", "geometry")
    MAX_ELEMENTS = 10_000  # admits n = 20, 9,200 elements, refuses n = 21

    def __init__(self, A):
        if not A.is_abelian():
            raise ValueError("base group must be abelian")
        if len(A) < 2:
            raise ValueError("base group must have order at least 2")
        size = 3 * len(A) ** 2 + len(A) ** 3  # the cosets, before building
        if size > self.MAX_ELEMENTS:
            raise CapExceeded("element count %d exceeds cap %d"
                              % (size, self.MAX_ELEMENTS))
        self.A = A
        G = FiniteGroup.direct_product(A, A, A)
        self.G = G
        e, one, n = self.element, A.id, len(A)
        g1 = {e(x, one, x) for x in range(n)}
        g2 = {e(x, one, one) for x in range(n)}
        g3 = {e(x, x, one) for x in range(n)}
        g4 = {G.id}
        diag = {e(x, x, x) for x in range(n)}
        self.subgroups = (Subgroup(G, g1, "G1"), Subgroup(G, g2, "G2"),
                          Subgroup(G, g3, "G3"), Subgroup(G, g4, "G4"))
        self.N = Subgroup(G, diag, "N")
        self.geometry, self.cg = coset_pregeometry(G, self.subgroups)

    def element(self, x, y, z):
        """Index in the cube of the triple with the given base-group parts
        (mixed radix, as direct_product lists them)."""
        n = len(self.A)
        return (x * n + y) * n + z

    def action_group(self):
        return self.cg.action_group()

    def n_action_group(self):
        return self.cg.action_group(self.N.members)

    def truncation3(self):
        """The rank-3 member on the first three subgroups."""
        return coset_pregeometry(self.G, self.subgroups[:3])


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
