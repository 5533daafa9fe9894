"""
Type-refining partitions, quotient pregeometries and the projection map.

Deciders for flag lifting, (PQ1)/(PQ2), covers and m-covers live here,
on masks: a projection keeps each block as a mask, and a decider ANDs a
flag's members' masks and their blocks' quotient masks (_extensions).
A projection refuses a source with a same-type incidence, as
is_geometry does, so residual surjectivity is (PQ1).  FlagsLift
compares projected flag sets, rank by rank: a quotient flag lifts
exactly when some source flag projects onto it (lift_flag walks
all_flags for the least one).  Witnesses are minimal under (rank, lex)
order.  A decider takes one quotient and scans a rank slice of its
leaders (_rank_slice), flags in (rank, lex) order: every flag of a
Projection, which never changes and keeps its verdicts; the least flag
of each G-orbit of an orbit-quotient (the projection of its orbit
partition), where every per-flag condition here is G-invariant.  So
the cover and corank-1 tests, on rank 1, read the flag table too.
"""

from __future__ import annotations

from types import SimpleNamespace

from .geometry import (INF, Pregeometry, _per_geometry, _rank_slice,
                       all_flags, as_flag, bfs, bits, flags_by_rank_lex,
                       least, mask_of, same_type_incidence)


class Partition:
    """A type-refining partition: blocks are disjoint nonempty element
    sets, each inside a single type class, covering the element set."""

    __slots__ = ("blocks", "block_of")

    def __init__(self, geom, blocks):
        norm, seen = [], set()
        for block in blocks:
            block = tuple(sorted(set(block)))
            if not block:
                raise ValueError("empty block")
            for x in block:
                if type(x) is not int or not 0 <= x < geom.size:
                    raise ValueError("element index %r not in 0..%d"
                                     % (x, geom.size - 1))
            if len({geom.elem_type[x] for x in block}) > 1:
                raise ValueError("block %r crosses types"
                                 % (geom.flag_names(block),))
            if not seen.isdisjoint(block):
                raise ValueError("overlapping blocks")
            seen.update(block)
            norm.append(block)
        if len(seen) != geom.size:
            missing = sorted(set(range(geom.size)) - seen)
            raise ValueError("blocks do not cover: missing %r"
                             % (geom.flag_names(missing),))
        self._fill(geom, norm)

    @classmethod
    def _of_blocks(cls, geom, blocks):
        """Unchecked, from increasing tuples that form a partition."""
        part = object.__new__(cls)
        part._fill(geom, blocks)
        return part

    def _fill(self, geom, blocks):
        self.blocks = tuple(sorted(blocks,
                                   key=lambda b: (geom.elem_type[b[0]], b)))
        block_of = [0] * geom.size
        for k, block in enumerate(self.blocks):
            for x in block:
                block_of[x] = k
        self.block_of = tuple(block_of)

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)


def singleton_partition(geom):
    return Partition(geom, [(x,) for x in range(geom.size)])


class Projection:
    """Projection onto the quotient by a partition; inside[k] masks block k.
    A source with a same-type incidence raises ValueError."""

    __slots__ = ("source", "partition", "block_of", "quotient", "inside",
                 "_memo")

    def __init__(self, source, partition):
        self.source, self.partition = source, partition
        self.block_of = block_of = partition.block_of
        self.inside = [mask_of(block) for block in partition.blocks]
        names, etype, qmasks = [], [], [0] * len(partition.blocks)
        of_type = [mask_of(members) for members in source.by_type]
        later = (1 << source.size) - 1  # the members of the blocks after k
        for k, block in enumerate(partition.blocks):
            later &= ~self.inside[k]
            near, t = 0, source.elem_type[block[0]]
            for x in block:
                near |= source.masks[x]
            if near & of_type[t]:
                raise ValueError("projection: " + same_type_incidence(source))
            # each pair of incident blocks once, from the earlier block
            for y in bits(near & later):
                qmasks[k] |= 1 << block_of[y]
                qmasks[block_of[y]] |= 1 << k
            names.append("{%s}" % ",".join(source.elem_names[x] for x in block))
            etype.append(t)
        if len(set(names)) < len(names):  # commas in element names
            names = ["%s~%d" % (name, k) for k, name in enumerate(names)]
        self.quotient = Pregeometry._of_masks(source.type_names, names, etype,
                                              qmasks)
        self._memo = None  # see _per_geometry

    @property
    def leaders(self):
        """The flags the deciders scan: every source flag."""
        return flags_by_rank_lex(self.source)

    @property
    def block_distance(self):
        """min_block_distance of the partition."""
        return min_block_distance(self.source, self.partition)

    def project_flag(self, flag):
        """The quotient flag of a source flag; raises ValueError when the
        argument is not a flag."""
        return tuple(sorted({self.block_of[x]
                             for x in as_flag(self.source, flag)}))

    def fiber(self, k):
        return self.partition.blocks[k]


def quotient(geom, partition):
    """Quotient pregeometry and its projection: blocks are incident iff
    some of their members are."""
    proj = Projection(geom, partition)
    return proj.quotient, proj


def lift_flag(proj, qflag):
    """The least source flag projecting onto the quotient flag (under
    block order, least member first), or None: the first flag meeting
    every block in the all_flags walk of the blocks' members, numbered
    block by block.  A lift meets the first block, so the walk ends at
    the first flag that starts past it."""
    qflag = as_flag(proj.quotient, qflag)
    members = [x for k in qflag for x in proj.fiber(k)]
    first = len(proj.fiber(qflag[0])) if qflag else 0
    within = mask_of(members)
    at = {x: i for i, x in enumerate(members)}
    local = SimpleNamespace(masks=[  # what all_flags reads
        mask_of(map(at.__getitem__, bits(proj.source.masks[x] & within)))
        for x in members])
    for flag in all_flags(local):
        if len(flag) == len(qflag):
            return tuple(sorted(members[i] for i in flag))
        if flag and flag[0] >= first:  # past the first block
            return None
    return None


def _first_unlifted(proj, qflags, flags):
    """The least of the quotient flags that is the projection of none of
    the source flags, all of one rank, or None.  A lift of a quotient
    flag is exactly a source flag projecting onto it, so the scan of the
    source flags ends once every quotient flag has one."""
    image = proj.block_of.__getitem__
    unlifted = set(qflags)
    for flag in flags:
        if not unlifted:
            return None
        unlifted.discard(tuple(sorted(map(image, flag))))
    return min(unlifted, default=None)


@_per_geometry
def check_flagslift(proj):
    """True iff every quotient flag lifts; the witness is a minimal
    non-lifting quotient flag.  Flags of rank <= 2 always lift; at each
    rank r >= 3 the witness is the least rank-r quotient flag that no
    rank-r leader projects onto."""
    if proj.quotient.rank < 3:
        return True, None  # read no flag table
    qflags, flags = flags_by_rank_lex(proj.quotient), proj.leaders
    for r in range(3, proj.quotient.rank + 1):
        missing = _first_unlifted(proj, _rank_slice(qflags, r),
                                  _rank_slice(flags, r))
        if missing is not None:
            return False, missing
    return True, None


def _extensions(proj, flag):
    """The masks of the elements incident with every member of a source
    flag and of the blocks incident with every block it meets."""
    masks, qmasks = proj.source.masks, proj.quotient.masks
    ext, qext = (1 << len(masks)) - 1, (1 << len(qmasks)) - 1
    for x in flag:
        ext &= masks[x]
        qext &= qmasks[proj.block_of[x]]
    return ext, qext


def residual_surjectivity(proj):
    """True iff every flag's residue projects onto the whole quotient
    residue (every block of it met, no element outside them): (PQ1).  An
    element incident with all of a flag F is in a block incident with all
    of F's, of a type F lacks (the source has no same-type incidence), so
    never outside the quotient residue; what is left is (PQ1)'s test."""
    return check_PQ1(proj)[0]


def corank1_surjective(proj):
    """Residual surjectivity, so (PQ1), restricted to rank-1 flags."""
    return _unextended(proj, _rank_slice(proj.leaders, 1)) is None


def corank1_injective(proj):
    """No two distinct elements of a rank-1 residue share a block."""
    masks, block_of = proj.source.masks, proj.block_of
    return all(len({block_of[y] for y in bits(masks[x])})
               == masks[x].bit_count()
               for (x,) in _rank_slice(proj.leaders, 1))


def min_block_distance(geom, partition):
    """Minimum incidence-graph distance over distinct same-block pairs;
    INF when every block is a singleton (or pairs are unreachable).

    One breadth-first search per block, from all its members at once,
    labels each reached element u with a nearest member s(u) at distance
    d(u).  An incidence u * v with s(u) != s(v) gives a walk of length
    d(u) + 1 + d(v) between two members; along a shortest path between
    the closest two members the label changes on some incidence whose
    sum is at most their distance, so the least sum is exact (the
    nearest-source regions of Mehlhorn, IPL 27, 1988).  u comes in order
    of d(u), and d(v) >= d(u) - 1, so a block's scan stops once 2 d(u)
    reaches the best sum."""
    best = INF
    masks = geom.masks
    for block in partition.blocks:
        if len(block) < 2:
            continue
        reach = bfs(masks, block)
        for u, (du, su) in reach.items():
            if 2 * du >= best:
                break
            for v in bits(masks[u]):
                dv, sv = reach[v]
                if sv != su and du + 1 + dv < best:
                    best = du + 1 + dv
    return best


def _residue_map_failure(proj, classes, target):
    """The one residue-map test.  Each class of source elements (a
    singleton, or a stabilizer orbit) maps to the block of its members,
    and two classes are incident when some of their members are.  Returns
    why the map is not an isomorphism onto target, a mask of blocks
    (injectivity, surjectivity, then each class's neighbours meeting just
    the other classes whose blocks are incident with its own), or None."""
    masks, qmasks, block_of = (proj.source.masks, proj.quotient.masks,
                               proj.block_of)
    image = mask_of(block_of[c[0]] for c in classes)
    if image.bit_count() != len(classes):
        return "not injective"
    if image != target:
        return "not surjective"
    members = mask_of(x for c in classes for x in c)
    for c in classes:
        near = 0  # the elements incident with some member of c
        for x in c:
            near |= masks[x]
        k, met = block_of[c[0]], 0
        for y in bits(near & members):
            met |= 1 << block_of[y]
        if met != qmasks[k] & target:
            return "incidence not matched"
    return None


def _residue_isomorphic_onto(proj, flag):
    """Why the projection, restricted to the residue of the flag, is not
    an isomorphism onto the quotient residue; None when it is."""
    ext, target = _extensions(proj, flag)
    return _residue_map_failure(proj, [(x,) for x in bits(ext)], target)


def is_m_cover(proj, m):
    """True iff for every corank-m flag of the source, 0 <= m < rank, the
    projection restricts to an isomorphism of residues (both incidence
    directions; m = 0 holds, with empty residues); the witness is the
    least failing flag and why.  Scans the rank - m leaders, so it reads
    the source's flag table, which every command has walked already."""
    rank = proj.source.rank
    if not 0 <= m <= rank - 1:
        raise ValueError("m must satisfy 0 <= m <= rank-1, got %r" % (m,))
    for flag in _rank_slice(proj.leaders, rank - m):
        reason = _residue_isomorphic_onto(proj, flag)
        if reason is not None:
            return False, (flag, reason)
    return True, None


@_per_geometry
def is_cover(proj):
    """A covering restricts to residue isomorphisms at every element:
    is_m_cover at m = rank - 1, so it reads the flag table too."""
    return is_m_cover(proj, proj.source.rank - 1)[0]


def is_incidence_graph_cover(proj):
    """The weaker graph-cover notion: neighbour sets map bijectively,
    with no requirement on incidences inside the residue."""
    return corank1_injective(proj) and corank1_surjective(proj)


@_per_geometry
def check_PQ1(proj):
    """(PQ1): whenever the projection of a flag extends by a block in the
    quotient, the flag itself extends by an element of that block."""
    failure = _unextended(proj, proj.leaders)
    return failure is None, failure


def _unextended(proj, flags):
    """The one (PQ1) scan: the first of the flags whose projection extends
    by a block holding no extension of the flag, and that block; or None."""
    for flag in flags:
        ext, qext = _extensions(proj, flag)
        for k in bits(qext):
            if not ext & proj.inside[k]:
                return flag, k
    return None


def check_PQ2(proj):
    """(PQ2): every rank-1 residue (of a corank-1 flag) meets at least
    two blocks of the partition: it is not empty, and not inside the
    block of its least member."""
    for flag in _rank_slice(proj.leaders, proj.source.rank - 1):
        ext = _extensions(proj, flag)[0]
        if not ext or not ext & ~proj.inside[proj.block_of[least(ext)]]:
            return False, flag
    return True, None


def total_order_flagslift(proj, order):
    """Test the total-order lifting criterion: for every element, the
    projection restricted to the upward part of its residue (types at or
    above its own in the given order) is an isomorphism onto the upward
    part of the quotient residue.  When the criterion holds, FlagsLift is
    implied; this is re-verified before returning True."""
    src, q = proj.source, proj.quotient
    if sorted(order) != list(range(src.rank)):
        raise ValueError("order must be a permutation of the type ids")
    pos = {t: i for i, t in enumerate(order)}
    for (x,) in _rank_slice(proj.leaders, 1):
        px = pos[src.elem_type[x]]
        up = [(y,) for y in bits(src.masks[x]) if pos[src.elem_type[y]] > px]
        target = mask_of(k for k in bits(q.masks[proj.block_of[x]])
                         if pos[q.elem_type[k]] > px)
        if _residue_map_failure(proj, up, target) is not None:
            return False
    ok, witness = check_flagslift(proj)
    if not ok:
        raise RuntimeError("total-order criterion held but a quotient flag "
                           "failed to lift: %r" % (witness,))
    return True
