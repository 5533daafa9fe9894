"""
Basic diagrams: the graph on the type set with an edge wherever some
cotype-{i,j} residue fails to be a generalised digon.  Includes purity,
the direct-sum cross-incidence check, and chamber lifting along forest
diagrams.
"""

from __future__ import annotations

from itertools import combinations

from .geometry import (_FrozenRecord, _per_geometry, components,
                       extensions, flags_of_type, is_generalized_digon,
                       is_geometry, is_residually_connected, mask_of,
                       residue)


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
    edges = set()
    evidence = {}
    for i, j in combinations(range(geom.rank), 2):
        cotype = [t for t in range(geom.rank) if t not in (i, j)]
        flags = flags_of_type(geom, cotype)
        if not flags:
            evidence[(i, j)] = ("no-flags", None)
            continue
        witness = None
        for flag in flags:
            res, _ = residue(geom, flag)
            if not is_generalized_digon(res):
                witness = flag
                break
        if witness is not None:
            edges.add(frozenset((i, j)))
            evidence[(i, j)] = ("edge", witness)
        else:
            evidence[(i, j)] = ("digons", None)
    return Diagram(geom.rank, frozenset(edges), evidence)


def is_pure(geom):
    """For every diagram edge {i,j}, no cotype-{i,j} residue is a digon."""
    diag = basic_diagram(geom)
    for pair in diag.edges:
        i, j = sorted(pair)
        cotype = [t for t in range(geom.rank) if t not in (i, j)]
        for flag in flags_of_type(geom, cotype):
            res, _ = residue(geom, flag)
            if is_generalized_digon(res):
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
        for a in geom.by_type[i]:
            for b in geom.by_type[j]:
                if not geom.incident(a, b):
                    return DirectSumResult(True, False, (a, b))
    return DirectSumResult(True, True, None)


def place_tree_flag(oq, qflag, tree_edges, root_type, root_elem):
    """Given a quotient flag, a tree on its type set, a root type and a
    root element in the root block, place one element per block so that
    tree-adjacent types give incident elements (outward induction along
    the tree; guaranteed under the hypotheses, so failure raises)."""
    geom = oq.geom
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
    if root_elem not in oq.proj.fiber(by_type[root_type]):
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
        block_l = oq.proj.fiber(by_type[ell])
        block_i = oq.proj.fiber(by_type[i])
        beta_l, beta_i = None, None
        for bl in block_l:
            for bi in block_i:
                if geom.incident(bl, bi):
                    beta_l, beta_i = bl, bi
                    break
            if beta_l is not None:
                break
        if beta_l is None:
            raise RuntimeError("incident blocks with no incident members")
        a = oq.group.element_mapping(beta_l, placed[ell])
        if a is None:
            raise RuntimeError("block is not a single orbit")
        placed[i] = a[beta_i]
    for e in edges:
        i, j = sorted(e)
        if not geom.incident(placed[i], placed[j]):
            raise RuntimeError("tree placement failed")
    return placed


def lift_chamber_forest(oq, qchamber):
    """Lift a quotient chamber through a forest diagram: place a flag per
    diagram component along its tree, close it up inside the component,
    and join components by total cross incidence."""
    geom = oq.geom
    ok, w = is_geometry(geom)
    if not ok:
        raise ValueError("chamber lifting requires a geometry")
    rc, _ = is_residually_connected(geom)
    if not rc:
        raise ValueError("chamber lifting requires residual connectivity")
    diag = basic_diagram(geom)
    if not diag.is_forest():
        raise ValueError("chamber lifting requires a forest diagram")
    q = oq.quotient
    if len(qchamber) != geom.rank:
        raise ValueError("not a chamber of the quotient")
    block_by_type = {q.elem_type[k]: k for k in qchamber}
    lifted = {}
    for comp in diag.components():
        tree = [tuple(sorted(e)) for e in diag.edges
                if set(e) <= set(comp)]
        sub_qflag = tuple(sorted(block_by_type[t] for t in comp))
        root = comp[0]
        root_elem = oq.proj.fiber(block_by_type[root])[0]
        placed = place_tree_flag(oq, sub_qflag, tree, root, root_elem)
        for i in comp:
            for j in comp:
                if i < j and not geom.incident(placed[i], placed[j]):
                    raise RuntimeError(
                        "path closure failed inside a diagram component")
        lifted.update(placed)
    flag = tuple(sorted(lifted.values()))
    for i, a in enumerate(flag):
        for b in flag[i + 1:]:
            if not geom.incident(a, b):
                raise RuntimeError("direct-sum join failed across components")
    got = oq.proj.project_flag(flag)
    if got != tuple(sorted(qchamber)):
        raise RuntimeError("lifted chamber projects incorrectly")
    return flag


def star_transitive_on_paths(geom):
    """For every diagram path i ~ j ~ k and incidence path a_i * a_j * a_k
    of those types, a_i * a_k must hold."""
    diag = basic_diagram(geom)
    for j in range(geom.rank):
        nbrs = diag.neighbours(j)
        for i, k in combinations(nbrs, 2):
            for aj in geom.by_type[j]:
                near = extensions(geom, (aj,))
                ai_list = [x for x in near if geom.elem_type[x] == i]
                ak_list = [x for x in near if geom.elem_type[x] == k]
                for ai in ai_list:
                    for ak in ak_list:
                        if not geom.incident(ai, ak):
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
