"""
Quotient axioms for orbit-quotients: (TQ1), (TQ2'), (TQ2''), (TQ3).

All deciders are exhaustive; witnesses are minimal under (flag rank,
lexicographic) order, and an orbit-quotient, which never changes, keeps
its block distance and (TQ1), (TQ2'), (TQ2'') verdicts.  No decider
lists the elements of G; the G-orbits on flags come from
perms._flag_orbits, keyed by the flags themselves.  G keeps types, so x,
y in the residue of F share a G_F-orbit exactly when F + {x} and F + {y}
share a G-orbit.  The blocks are the G-orbits, so F and every gF
project onto the same quotient flag, and every per-flag condition
decided here -- (TQ1), (TQ2'), (TQ2''), and (PQ1), (PQ2) and residual
surjectivity in axioms_report -- has the same verdict at F and at gF.
So each decider scans only the least flag of each orbit: the first
failing one is the least failing flag, and the rest of a witness depends
on that flag alone.  For the same reason the cover test and the block
distance look at the least member of each block only.
"""

from __future__ import annotations

from .geometry import INF, _per_geometry, bfs, bits, flag_text
from .perms import _flag_orbits, orbit_partition
from .quotient import Projection, _extensions, _residue_map_failure


class OrbitQuotient:
    """A pregeometry together with an automorphism group, its orbit
    partition and the projection onto the orbit quotient."""

    __slots__ = ("geom", "group", "partition", "proj", "_memo")

    def __init__(self, geom, group):
        self.geom = geom
        self.group = group
        self.partition = orbit_partition(group, geom)
        self.proj = Projection(geom, self.partition)
        self._memo = None  # see _per_geometry

    @property
    def quotient(self):
        return self.proj.quotient

    @property
    @_per_geometry
    def block_distance(self):
        """min_block_distance of the orbit partition, kept.  A block is a
        G-orbit, so it is the least d(x0, y) over each block's least
        member x0 and its block-mates y, one more than the least d(x0, u)
        over the u incident with y: one search from each x0 ends at the
        first layer that holds such a u, or where it cannot beat the
        best distance so far."""
        best, masks = INF, self.geom.masks
        for block in self.partition.blocks:
            near = 0  # the elements incident with a block-mate of x0
            for y in block[1:]:
                near |= masks[y]
            if near:
                reach = bfs(masks, block[:1], stop=near, depth=best - 2)
                best = next((d + 1 for u, (d, _) in reach.items()
                             if near >> u & 1), best)
        return best


def _plus(flag, x):
    """The table key of flag + {x}, sorted only if x is not after flag[-1]."""
    return flag + (x,) if flag[-1:] < (x,) else tuple(sorted(flag + (x,)))


def check_TQ3(oq):
    """(TQ3): same-orbit elements are at incidence-graph distance >= 4."""
    return oq.block_distance >= 4


@_per_geometry
def check_TQ2prime(oq):
    """(TQ2'): orbit members inside a residue lie in one stabilizer orbit;
    the witness is a failing flag and two members it splits."""
    leaders, orbit_of = _flag_orbits(oq.geom, oq.group.gens, oq.geom.rank)
    inside = oq.proj.inside
    for flag in leaders[1:]:  # the first is the empty flag
        ext, qext = _extensions(oq.proj, flag)
        for k in bits(qext):  # the blocks that can meet the residue
            xs = bits(ext & inside[k])
            if len(xs) > 1:
                first = orbit_of[_plus(flag, xs[0])]
                for x in xs[1:]:
                    if orbit_of[_plus(flag, x)] != first:
                        return False, (flag, xs[0], x)
    return True, None


@_per_geometry
def check_TQ2doubleprime(oq):
    """(TQ2''): when a flag is incident to the orbits of both ends of an
    incident pair, some single group element brings both ends onto it.

    Equivalently, the flag's reflexive residue contains a pair from the
    G-orbit of the incident pair.  The incident pairs are the rank-2
    flags, and whether a pair fails at a flag depends only on its orbit,
    so a scan of their orbit leaders finds the first failing pair."""
    masks, block_of = oq.geom.masks, oq.proj.block_of
    leaders, orbit_of = _flag_orbits(oq.geom, oq.group.gens, oq.geom.rank)
    pair_orbits = [(k, pair) for k, pair in enumerate(leaders)
                   if len(pair) == 2]
    for flag in leaders:
        touch = (1 << len(masks)) - 1
        for x in flag:
            touch &= masks[x] | 1 << x
        inside = bits(touch)
        met = {block_of[x] for x in inside}
        hit = {orbit_of[a, b] for a in inside
               for b in bits(masks[a] & (touch >> a + 1 << a + 1))}
        for k, (a, b) in pair_orbits:
            if k not in hit and block_of[a] in met and block_of[b] in met:
                return False, (flag, a, b)
    return True, None


_TQ1_REASON = {"not injective": "orbit map not injective",
               "not surjective": "orbit map not onto the quotient residue"}


@_per_geometry
def check_TQ1(oq):
    """(TQ1): for every flag, quotienting the residue by the flag
    stabilizer is isomorphic (via orbit -> block) to the residue of the
    projected flag in the quotient."""
    leaders, orbit_of = _flag_orbits(oq.geom, oq.group.gens, oq.geom.rank)
    for flag in leaders:
        ext, target = _extensions(oq.proj, flag)
        orbits = {}
        for x in bits(ext):
            orbits.setdefault(orbit_of[_plus(flag, x)], []).append(x)
        reason = _residue_map_failure(oq.proj, list(orbits.values()), target)
        if reason is not None:
            return False, (flag, _TQ1_REASON.get(reason, reason))
    return True, None


def format_witness(oq, name, witness):
    """Readable rendering of a decider witness, by element name."""
    if witness is None:
        return None
    geom, q = oq.geom, oq.quotient
    if name == "flagslift":
        return flag_text(q, witness)
    if name == "pq1":
        f, k = witness
        return "%s + block %s" % (flag_text(geom, f), q.elem_names[k])
    if name == "pq2":
        return flag_text(geom, witness)
    if name == "tq2prime":
        f, x, y = witness
        return "%s splits %s,%s" % (flag_text(geom, f), geom.elem_names[x],
                                    geom.elem_names[y])
    if name == "tq2doubleprime":
        f, a, b = witness
        return "%s vs pair %s*%s" % (flag_text(geom, f), geom.elem_names[a],
                                     geom.elem_names[b])
    if name == "tq1":
        f, reason = witness
        return "%s: %s" % (flag_text(geom, f), reason)
    return str(witness)


def axioms_report(oq):
    """All quotient-axiom deciders on one orbit-quotient, as a dict of
    name -> (bool, witness-or-None)."""
    from .quotient import (check_flagslift, check_PQ1, check_PQ2, is_cover,
                           residual_surjectivity)
    reps = _flag_orbits(oq.geom, oq.group.gens, oq.geom.rank)[0]
    return {  # the deciders run in this order
        "flagslift": check_flagslift(oq.proj, reps),
        "pq1": check_PQ1(oq.proj, reps),
        "pq2": check_PQ2(oq.proj, reps),
        "tq1": check_TQ1(oq),
        "tq2prime": check_TQ2prime(oq),
        "tq2doubleprime": check_TQ2doubleprime(oq),
        "tq3": (check_TQ3(oq), None),
        "residually-surjective": (residual_surjectivity(oq.proj, reps),
                                  None),
        "is-cover": (is_cover(oq.proj,
                              [block[0] for block in oq.partition.blocks]),
                     None),
    }
