"""
Basic diagrams: the graph on the type set with an edge wherever some
cotype-{i,j} residue fails to be a generalised digon.  Includes purity,
the direct-sum cross-incidence check, and chamber lifting along forest
diagrams.  Every total-incidence question here -- residue digons,
direct sums, the path property -- goes to geometry.non_incident_pair on
the masks; no residue pregeometry is built.
"""

from __future__ import annotations

from itertools import combinations

from .geometry import (_per_geometry, bits, components, extensions,
                       flags_of_type, is_flag, is_geometry,
                       is_residually_connected, least, mask_of,
                       non_incident_pair)


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


class Diagram(_FrozenRecord):
    """rank; edges, a frozenset of frozensets {i, j}; evidence, mapping
    (i, j) to ("edge", flag), ("digons", None) or ("no-flags", None)."""

    def __init__(self, rank, edges, evidence):
        vars(self).update(rank=rank, edges=edges, evidence=evidence)

    def adjacent(self, i, j):
        return frozenset((i, j)) in self.edges

    def neighbours(self, i):
        return sorted(j for j in range(self.rank)
                      if j != i and self.adjacent(i, j))

    @property
    def masks(self):
        """Neighbourhood masks indexed by type."""
        return [mask_of(self.neighbours(i)) for i in range(self.rank)]

    def components(self):
        """Connected components of the diagram, listed by least type."""
        return components(self)

    def is_forest(self):
        """A simple graph is a forest iff its edge count is its vertex
        count (the rank) minus its component count."""
        return len(self.edges) == self.rank - len(self.components())


@_per_geometry
def basic_diagram(geom):
    """Exhaustive over all corank-2 flags per type pair; pairs with no
    cotype-{i,j} flags get no edge and are recorded separately.  Computed
    once per geometry; the Diagram returned is shared."""
    ok, w = is_geometry(geom)
    if not ok:
        raise ValueError("basic diagram requires a geometry (witness %r)"
                         % (geom.flag_names(w),))
    evidence = {}
    for i, j in combinations(range(geom.rank), 2):
        cotype = [t for t in range(geom.rank) if t not in (i, j)]
        flags = flags_of_type(geom, cotype)
        if not flags:
            evidence[(i, j)] = ("no-flags", None)
            continue
        witness = next((flag for flag in flags
                        if not _residue_is_digon(geom, flag, i, j)), None)
        evidence[(i, j)] = (("digons", None) if witness is None
                            else ("edge", witness))
    edges = frozenset(frozenset(pair) for pair, (kind, _) in evidence.items()
                      if kind == "edge")
    return Diagram(geom.rank, edges, evidence)


def _residue_is_digon(geom, flag, i, j):
    """Whether the residue of a cotype-{i,j} flag is a generalised
    digon: its type-i and type-j members are totally incident."""
    members = extensions(geom, flag)
    et = geom.elem_type
    return non_incident_pair(geom, [x for x in members if et[x] == i],
                             [y for y in members if et[y] == j]) is None


def is_pure(geom):
    """For every diagram edge {i,j}, no cotype-{i,j} residue is a digon."""
    diag = basic_diagram(geom)
    for pair in diag.edges:
        i, j = sorted(pair)
        cotype = [t for t in range(geom.rank) if t not in (i, j)]
        if any(_residue_is_digon(geom, flag, i, j)
               for flag in flags_of_type(geom, cotype)):
            return False
    return True


class DirectSumResult(_FrozenRecord):
    def __init__(self, applicable, ok, detail):
        vars(self).update(applicable=applicable, ok=ok, detail=detail)


def direct_sum_check(geom):
    """Types in distinct diagram components must be totally incident in a
    residually connected geometry; a violation would be a bug witness."""
    ok, w = is_geometry(geom)
    if not ok:
        return DirectSumResult(False, True, "not a geometry")
    rc, w = is_residually_connected(geom)
    if not rc:
        return DirectSumResult(False, True, "not residually connected")
    diag = basic_diagram(geom)
    comp_of = {}
    for comp in diag.components():
        for t in comp:
            comp_of[t] = comp
    for i, j in combinations(range(geom.rank), 2):
        if comp_of[i] is comp_of[j] or comp_of[i] == comp_of[j]:
            continue
        pair = non_incident_pair(geom, geom.by_type[i], geom.by_type[j])
        if pair is not None:
            return DirectSumResult(True, False, pair)
    return DirectSumResult(True, True, None)


def place_tree_flag(oq, qflag, tree_edges, root_type, root_elem):
    """Given a quotient flag, a tree on its type set, a root type and a
    root element in the root block, place one element per block so that
    tree-adjacent types give incident elements (outward induction along
    the tree; guaranteed under the hypotheses, so failure raises)."""
    geom = oq.source
    q = oq.quotient
    by_type = {}
    for k in qflag:
        by_type[q.elem_type[k]] = k
    J = sorted(by_type)
    edges = {frozenset(e) for e in tree_edges}
    for e in edges:
        if not (len(e) == 2 and e <= set(J)):
            raise ValueError("tree edge %r outside the flag's type set" % (sorted(e),))
    if root_type not in by_type:
        raise ValueError("root type not in the flag")
    if root_elem not in oq.fiber(by_type[root_type]):
        raise ValueError("root element not in the root block")
    placed = {root_type: root_elem}
    while len(placed) < len(J):
        frontier = [(ell, i) for ell in placed for i in J
                    if i not in placed and frozenset((ell, i)) in edges]
        if not frontier:
            missing = [i for i in J if i not in placed]
            if edges:
                raise ValueError("tree does not span the flag types: %r left" % missing)
            # rank-1 trees are empty; nothing further to place
            raise ValueError("disconnected tree on the flag types: %r left" % missing)
        ell, i = frontier[0]
        block_i = oq.inside[by_type[i]]
        # the first member of block l incident with block i, and its least
        # incident member there
        beta_l = next((bl for bl in oq.fiber(by_type[ell])
                       if geom.masks[bl] & block_i), None)
        if beta_l is None:
            raise RuntimeError("incident blocks with no incident members")
        beta_i = least(geom.masks[beta_l] & block_i)
        a = oq.group.element_mapping(beta_l, placed[ell])
        if a is None:
            raise RuntimeError("block is not a single orbit")
        placed[i] = a[beta_i]
    for e in edges:
        i, j = sorted(e)
        if not geom.incident(placed[i], placed[j]):
            raise RuntimeError("tree placement failed")
    return placed


@_per_geometry
def _forest_trees(geom):
    """Each component of the basic diagram with its edges as sorted
    pairs, or None when the diagram is not a forest; kept per geometry."""
    diag = basic_diagram(geom)
    return [(comp, [tuple(sorted(e)) for e in diag.edges if e <= set(comp)])
            for comp in diag.components()] if diag.is_forest() else None


def lift_chamber_forest(oq, qchamber):
    """Lift a quotient chamber through a forest diagram: place a flag per
    diagram component along its tree, close it up inside the component,
    and join components by total cross incidence."""
    geom = oq.source
    ok, w = is_geometry(geom)
    if not ok:
        raise ValueError("chamber lifting requires a geometry")
    rc, _ = is_residually_connected(geom)
    if not rc:
        raise ValueError("chamber lifting requires residual connectivity")
    trees = _forest_trees(geom)
    if trees is None:
        raise ValueError("chamber lifting requires a forest diagram")
    q = oq.quotient
    if len(qchamber) != geom.rank:
        raise ValueError("not a chamber of the quotient")
    block_by_type = {q.elem_type[k]: k for k in qchamber}
    lifted = {}
    for comp, tree in trees:
        sub_qflag = tuple(sorted(block_by_type[t] for t in comp))
        root = comp[0]
        root_elem = oq.fiber(block_by_type[root])[0]
        placed = place_tree_flag(oq, sub_qflag, tree, root, root_elem)
        if not is_flag(geom, placed.values()):
            raise RuntimeError(
                "path closure failed inside a diagram component")
        lifted.update(placed)
    flag = tuple(sorted(lifted.values()))
    if not is_flag(geom, flag):
        raise RuntimeError("direct-sum join failed across components")
    got = oq.project_flag(flag)
    if got != tuple(sorted(qchamber)):
        raise RuntimeError("lifted chamber projects incorrectly")
    return flag


def star_transitive_on_paths(geom):
    """For every diagram path i ~ j ~ k and incidence path a_i * a_j * a_k
    of those types, a_i * a_k must hold."""
    diag = basic_diagram(geom)
    of_type = [mask_of(members) for members in geom.by_type]
    for j in range(geom.rank):
        for i, k in combinations(diag.neighbours(j), 2):
            for aj in geom.by_type[j]:
                near = geom.masks[aj]
                if non_incident_pair(geom, bits(near & of_type[i]),
                                     bits(near & of_type[k])) is not None:
                    return False
    return True


def no_triangle_check(geom):
    """A pure geometry with the path property cannot carry a diagram
    triangle; vacuously true when the hypotheses fail."""
    if not (is_pure(geom) and star_transitive_on_paths(geom)):
        return True
    diag = basic_diagram(geom)
    for i, j, k in combinations(range(geom.rank), 3):
        if diag.adjacent(i, j) and diag.adjacent(j, k) and diag.adjacent(i, k):
            return False
    return True
