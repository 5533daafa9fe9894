"""
Quotient axioms for orbit-quotients: (TQ1), (TQ2'), (TQ2''), (TQ3).

All deciders are exhaustive over enumerated flags; witnesses are minimal
under (flag rank, lexicographic) ordering.  Orbits come from
perms.orbits_on over generators, and no decider lists the elements of G:
(TQ1) and (TQ2') read the flag stabilizer's orbits on each residue from
the G-orbits of incident (flag, residue member) pairs, and (TQ2'') works
on the G-orbits of incident pairs.
"""

from __future__ import annotations

from .geometry import extensions, flags_by_rank_lex
from .perms import orbit_partition, orbits_on
from .quotient import Projection, _residue_map_failure, min_block_distance


class OrbitQuotient:
    """A pregeometry together with an automorphism group, its orbit
    partition and the projection onto the orbit quotient."""

    __slots__ = ("geom", "group", "partition", "proj", "_residue_orbits")

    def __init__(self, geom, group):
        self.geom = geom
        self.group = group
        self.partition = orbit_partition(group, geom)
        self.proj = Projection(geom, self.partition)
        self._residue_orbits = None  # see _residue_orbit_index

    @property
    def quotient(self):
        return self.proj.quotient


def check_TQ3(oq):
    """(TQ3): same-orbit elements are at incidence-graph distance >= 4."""
    return min_block_distance(oq.geom, oq.partition) >= 4


def check_TQ2prime(oq):
    """(TQ2'): orbit members inside a residue lie in one stabilizer orbit;
    the witness is a failing flag and two members it splits."""
    orbit_of = _residue_orbit_index(oq)
    for flag in flags_by_rank_lex(oq.geom):
        if not flag:
            continue
        per_block = {}
        for x in extensions(oq.geom, flag):
            per_block.setdefault(oq.proj.block_of[x], []).append(x)
        for k, xs in sorted(per_block.items()):
            for x in xs[1:]:
                if orbit_of[flag, x] != orbit_of[flag, xs[0]]:
                    return False, (flag, xs[0], x)
    return True, None


def _flag_member_image(g, item):
    flag, x = item
    return tuple(sorted(g[y] for y in flag)), g[x]


def _residue_orbit_index(oq):
    """Map each (flag F, x in the residue of F) to its G-orbit index.  Some
    g in G_F maps x to y exactly when (F, x) and (F, y) share a G-orbit:
    an automorphism mapping F onto itself keeps types, so fixes F.  Built
    once per orbit-quotient, on first use, and shared by (TQ1) and (TQ2')."""
    if oq._residue_orbits is None:
        geom = oq.geom
        items = [(flag, x) for flag in flags_by_rank_lex(geom)
                 for x in extensions(geom, flag)]
        orbits = orbits_on(oq.group.gens, items, _flag_member_image)
        oq._residue_orbits = {item: k for k, orbit in enumerate(orbits)
                              for item in orbit}
    return oq._residue_orbits


def _pair_image(g, pair):
    a, b = g[pair[0]], g[pair[1]]
    return (a, b) if a < b else (b, a)


def check_TQ2doubleprime(oq):
    """(TQ2''): when a flag is incident to the orbits of both ends of an
    incident pair, some single group element brings both ends onto it.

    Equivalently, the flag's reflexive residue contains a pair from the
    G-orbit of the incident pair.  The pair orbits are computed once from
    the generators; whether a pair fails at a flag depends only on its
    orbit, so scanning the orbits by least member finds the same first
    failing pair as a scan of the sorted pairs."""
    geom, block_of = oq.geom, oq.proj.block_of
    pair_orbits = orbits_on(oq.group.gens, sorted(geom.pairs), _pair_image)
    orbit_of = {p: k for k, orbit in enumerate(pair_orbits) for p in orbit}
    for flag in flags_by_rank_lex(geom):
        touch = set(range(geom.size))
        for x in flag:
            touch &= geom.adj[x] | {x}
        met = {block_of[x] for x in touch}
        hit = {orbit_of[(a, b)] for a in touch for b in geom.adj[a]
               if a < b and b in touch}
        for k, orbit in enumerate(pair_orbits):
            a, b = orbit[0]
            if k not in hit and block_of[a] in met and block_of[b] in met:
                return False, (flag, a, b)
    return True, None


_TQ1_REASON = {"not injective": "orbit map not injective",
               "not surjective": "orbit map not onto the quotient residue"}


def check_TQ1(oq):
    """(TQ1): for every flag, quotienting the residue by the flag
    stabilizer is isomorphic (via orbit -> block) to the residue of the
    projected flag in the quotient."""
    geom, q = oq.geom, oq.quotient
    orbit_of = _residue_orbit_index(oq)
    for flag in flags_by_rank_lex(geom):
        orbits = {}
        for x in extensions(geom, flag):
            orbits.setdefault(orbit_of[flag, x], []).append(x)
        target = set(extensions(q, oq.proj._project(flag)))
        reason = _residue_map_failure(oq.proj, list(orbits.values()), target)
        if reason is not None:
            return False, (flag, _TQ1_REASON.get(reason, reason))
    return True, None


def format_witness(oq, name, witness):
    """Readable rendering of a decider witness, by element name."""
    if witness is None:
        return None
    geom, q = oq.geom, oq.quotient

    def flag(g, f):
        return "{%s}" % ",".join(g.elem_names[x] for x in f)

    if name == "flagslift":
        return flag(q, witness)
    if name == "pq1":
        f, k = witness
        return "%s + block %s" % (flag(geom, f), q.elem_names[k])
    if name == "pq2":
        return flag(geom, witness)
    if name == "tq2prime":
        f, x, y = witness
        return "%s splits %s,%s" % (flag(geom, f), geom.elem_names[x],
                                    geom.elem_names[y])
    if name == "tq2doubleprime":
        f, a, b = witness
        return "%s vs pair %s*%s" % (flag(geom, f), geom.elem_names[a],
                                     geom.elem_names[b])
    if name == "tq1":
        f, reason = witness
        return "%s: %s" % (flag(geom, f), reason)
    return str(witness)


def axioms_report(oq):
    """All quotient-axiom deciders on one orbit-quotient, as a dict of
    name -> (bool, witness-or-None)."""
    from .quotient import (check_flagslift, check_PQ1, check_PQ2, is_cover,
                           residual_surjectivity)
    fl = check_flagslift(oq.proj)
    pq1 = check_PQ1(oq.proj)
    pq2 = check_PQ2(oq.proj)
    tq1 = check_TQ1(oq)
    tq2p = check_TQ2prime(oq)
    tq2pp = check_TQ2doubleprime(oq)
    return {
        "flagslift": fl,
        "pq1": pq1,
        "pq2": pq2,
        "tq1": tq1,
        "tq2prime": tq2p,
        "tq2doubleprime": tq2pp,
        "tq3": (check_TQ3(oq), None),
        "residually-surjective": (residual_surjectivity(oq.proj), None),
        "is-cover": (is_cover(oq.proj), None),
    }
