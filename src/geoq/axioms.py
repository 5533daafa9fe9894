"""
Quotient axioms for orbit-quotients: (TQ1), (TQ2'), (TQ2''), (TQ3), and
DECIDERS, the one table the decider rows of `axioms` and `quotient` come from.

An orbit-quotient is the projection of its orbit partition, keeping one
set of verdicts; all deciders are exhaustive, and witnesses are minimal
under (flag rank, lexicographic) order.  No decider lists the elements
of G; the G-orbits on flags come from perms._flag_orbits, keyed by the
flags themselves.  G keeps types, so x, y in the residue of F share a
G_F-orbit exactly when F + {x} and F + {y} share a G-orbit.  The blocks
are the G-orbits, so F and every gF project onto the same quotient
flag, and every per-flag condition decided here -- (TQ1), (TQ2'),
(TQ2''), and (PQ1) and (PQ2) in DECIDERS -- has the same verdict at F
and at gF.  So each decider scans only the least flag of each orbit:
the first failing one is the least failing flag, and the rest of a
witness depends on that flag alone.  For the same reason the cover test
and the block distance look at the least member of each block only: an
OrbitQuotient's leaders and block_leaders.  The residually-surjective
row is (PQ1), witness and all (quotient.residual_surjectivity), since a
projection refuses a source with a same-type incidence.
"""

from __future__ import annotations

from .geometry import INF, _per_geometry, bfs, bits, flag_text
from .perms import _flag_orbits, orbit_partition
from .quotient import (Projection, _extensions, _residue_map_failure,
                       check_flagslift, check_PQ1, check_PQ2, is_cover)


class OrbitQuotient(Projection):
    """Projection onto the quotient by the orbits of an automorphism
    group; deciders scan one flag per G-orbit, one member per block."""

    __slots__ = ("group",)

    def __init__(self, geom, group):
        super().__init__(geom, orbit_partition(group, geom))
        self.group = group

    @property
    def flag_orbits(self):
        """The least flag of each G-orbit and each flag's orbit index."""
        return _flag_orbits(self.source, self.group.gens)

    @property
    def leaders(self):
        """The least flag of each G-orbit, which the deciders scan."""
        return self.flag_orbits[0]

    @property
    def block_leaders(self):
        """The least member of each block, which the cover test scans."""
        return [block[0] for block in self.partition.blocks]

    @property
    @_per_geometry
    def block_distance(self):
        """min_block_distance of the orbit partition, kept.  A block is a
        G-orbit, so it is the least d(x0, y) over each block's least
        member x0 and its block-mates y, one more than the least d(x0, u)
        over the u incident with y: one search from each x0 ends at the
        first layer that holds such a u, or where it cannot beat the
        best distance so far."""
        best, masks = INF, self.source.masks
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
    leaders, orbit_of = oq.flag_orbits
    inside = oq.inside
    for flag in leaders[1:]:  # the first is the empty flag
        ext, qext = _extensions(oq, flag)
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
    masks, block_of = oq.source.masks, oq.block_of
    leaders, orbit_of = oq.flag_orbits
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
    leaders, orbit_of = oq.flag_orbits
    for flag in leaders:
        ext, target = _extensions(oq, flag)
        orbits = {}
        for x in bits(ext):
            orbits.setdefault(orbit_of[_plus(flag, x)], []).append(x)
        reason = _residue_map_failure(oq, list(orbits.values()), target)
        if reason is not None:
            return False, (flag, _TQ1_REASON.get(reason, reason))
    return True, None


def _pq1_text(q, w):
    return "%s + block %s" % (flag_text(q.source, w[0]),
                              q.quotient.elem_names[w[1]])


# The decider rows, in run order: name, decider and witness text.  A
# decider reads one quotient, an OrbitQuotient or another Projection
# (then only PROJECTION_ROWS run), and looks its function up by name
# when it runs, so that a rebound name (perfbench's tracer) is called.
# The text names a witness's elements; None for a row that gives none.
DECIDERS = (
    ("flagslift", lambda q: check_flagslift(q),
     lambda q, qflag: flag_text(q.quotient, qflag)),
    ("pq1", lambda q: check_PQ1(q), _pq1_text),
    ("pq2", lambda q: check_PQ2(q), lambda q, flag: flag_text(q.source, flag)),
    ("tq1", lambda q: check_TQ1(q),
     lambda q, w: "%s: %s" % (flag_text(q.source, w[0]), w[1])),
    ("tq2prime", lambda q: check_TQ2prime(q),
     lambda q, w: "%s splits %s,%s" % (flag_text(q.source, w[0]),
                                       *q.source.flag_names(w[1:]))),
    ("tq2doubleprime", lambda q: check_TQ2doubleprime(q),
     lambda q, w: "%s vs pair %s*%s" % (flag_text(q.source, w[0]),
                                        *q.source.flag_names(w[1:]))),
    ("tq3", lambda q: (check_TQ3(q), None), None),
    ("residually-surjective", lambda q: check_PQ1(q), _pq1_text),
    ("is-cover", lambda q: (is_cover(q), None), None),
)
PROJECTION_ROWS = ("flagslift", "pq1", "pq2", "is-cover")


def decider_rows(q):
    """(name, verdict, witness text or None) for each row of DECIDERS, in
    run order: every row on an orbit-quotient, the PROJECTION_ROWS on
    any other projection."""
    return [(name, verdict, None if witness is None else text(q, witness))
            for name, decide, text in DECIDERS
            if isinstance(q, OrbitQuotient) or name in PROJECTION_ROWS
            for verdict, witness in [decide(q)]]
