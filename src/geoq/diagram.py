"""
Basic diagrams: the graph on the type set with an edge wherever some
cotype-{i,j} residue fails to be a generalised digon, and chamber
lifting along forest diagrams.  A residue digon is a total-incidence
question, and goes to geometry.non_incident_pair on the masks; no
residue pregeometry is built.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .geometry import (_per_geometry, components, extensions,
                       flags_of_type, is_flag, is_geometry,
                       is_residually_connected, least, mask_of,
                       non_incident_pair)


class Diagram(namedtuple("Diagram", "rank edges evidence")):
    """rank; edges, a frozenset of frozensets {i, j}; evidence, mapping
    (i, j) to ("edge", flag), ("digons", None) or ("no-flags", None)."""

    __slots__ = ()

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


def place_tree_flag(proj, qflag, tree_edges, root_type, root_elem):
    """Given a quotient flag, a tree on its type set, a root type and a
    root element in the root block, place one element per block so that
    tree-adjacent types give incident elements: outward along the tree,
    type i takes the least member of its block incident with the element
    placed at its parent.  Blocks that are G-orbits make one exist: if
    b * c with b, c in incident blocks, each g(b) of b's block is
    incident with g(c) in c's.  A placement incident along a forest
    diagram's tree is a flag of a residually connected geometry, by the
    direct-sum property of its residues (Buekenhout & Cohen, Diagram
    Geometry, 2013); lift_chamber_forest checks it.  An empty choice
    raises: the blocks are then not orbits."""
    geom = proj.source
    by_type = {proj.quotient.elem_type[k]: k for k in qflag}
    J = sorted(by_type)
    edges = {frozenset(e) for e in tree_edges}
    for e in edges:
        if not (len(e) == 2 and e <= set(J)):
            raise ValueError("tree edge %r outside the flag's type set" % (sorted(e),))
    if root_type not in by_type:
        raise ValueError("root type not in the flag")
    if root_elem not in proj.fiber(by_type[root_type]):
        raise ValueError("root element not in the root block")
    placed = {root_type: root_elem}
    while len(placed) < len(J):
        ell, i = next(((ell, i) for ell in placed for i in J if i not in placed
                       and frozenset((ell, i)) in edges), (None, None))
        if i is None:
            raise ValueError("tree does not span the flag types: %r left"
                             % [t for t in J if t not in placed])
        near = geom.masks[placed[ell]] & proj.inside[by_type[i]]
        if not near:
            raise RuntimeError("no member of a block is incident with the "
                               "element placed at its tree parent")
        placed[i] = least(near)
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


def lift_chamber_forest(proj, qchamber):
    """Lift a quotient chamber through a forest diagram: place a flag per
    diagram component along its tree, close it up inside the component,
    and join components by total cross incidence."""
    geom = proj.source
    ok, w = is_geometry(geom)
    if not ok:
        raise ValueError("chamber lifting requires a geometry")
    rc, _ = is_residually_connected(geom)
    if not rc:
        raise ValueError("chamber lifting requires residual connectivity")
    trees = _forest_trees(geom)
    if trees is None:
        raise ValueError("chamber lifting requires a forest diagram")
    q = proj.quotient
    if len(qchamber) != geom.rank:
        raise ValueError("not a chamber of the quotient")
    block_by_type = {q.elem_type[k]: k for k in qchamber}
    lifted = {}
    for comp, tree in trees:
        sub_qflag = tuple(sorted(block_by_type[t] for t in comp))
        root = comp[0]
        root_elem = proj.fiber(block_by_type[root])[0]
        placed = place_tree_flag(proj, sub_qflag, tree, root, root_elem)
        if not is_flag(geom, placed.values()):
            raise RuntimeError(
                "path closure failed inside a diagram component")
        lifted.update(placed)
    flag = tuple(sorted(lifted.values()))
    if not is_flag(geom, flag):
        raise RuntimeError("direct-sum join failed across components")
    got = proj.project_flag(flag)
    if got != tuple(sorted(qchamber)):
        raise RuntimeError("lifted chamber projects incorrectly")
    return flag
