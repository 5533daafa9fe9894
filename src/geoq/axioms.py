"""
Quotient axioms for orbit-quotients: (TQ1), (TQ2'), (TQ2''), (TQ3).

All deciders are exhaustive over enumerated flags and orbits; witnesses
are minimal under (flag rank, lexicographic) ordering.
"""

from __future__ import annotations

from .geometry import extensions, flags_by_rank_lex
from .perms import orbit_partition, stabilizer
from .quotient import Projection, min_block_distance


class OrbitQuotient:
    """A pregeometry together with an automorphism group, its orbit
    partition and the projection onto the orbit quotient."""

    __slots__ = ("geom", "group", "partition", "proj")

    def __init__(self, geom, group):
        self.geom = geom
        self.group = group
        self.partition = orbit_partition(group, geom)
        self.proj = Projection(geom, self.partition)

    @property
    def quotient(self):
        return self.proj.quotient


def check_TQ3(oq):
    """(TQ3): same-orbit elements are at incidence-graph distance >= 4."""
    return min_block_distance(oq.geom, oq.partition) >= 4


def check_TQ2prime(oq):
    """(TQ2'): orbit members inside a residue lie in one stabilizer orbit;
    the witness is a failing flag and two members it splits."""
    for flag in flags_by_rank_lex(oq.geom):
        if not flag:
            continue
        stab = stabilizer(oq.group, flag)
        members = extensions(oq.geom, flag)
        per_block = {}
        for x in members:
            per_block.setdefault(oq.proj.block_of[x], []).append(x)
        for k, xs in sorted(per_block.items()):
            if len(xs) < 2:
                continue
            base = set(stab.orbit(xs[0]))
            for x in xs[1:]:
                if x not in base:
                    return False, (flag, xs[0], x)
    return True, None


def check_TQ2doubleprime(oq):
    """(TQ2''): when a flag is incident to the orbits of both ends of an
    incident pair, some single group element brings both ends onto it."""
    geom, group = oq.geom, oq.group
    reach = {}  # flag -> elements incident with all of it (reflexively)

    def inc_all(flag):
        if flag not in reach:
            if not flag:
                out = set(range(geom.size))
            else:
                out = set.intersection(*({y for y in geom.adj[x]} | {x}
                                         for x in flag))
            reach[flag] = out
        return reach[flag]

    orbit_of = {}
    for block in oq.partition.blocks:
        for x in block:
            orbit_of[x] = set(block)
    elements = sorted(group.elements())
    for flag in flags_by_rank_lex(geom):
        touch = inc_all(flag)
        for a, b in sorted(geom.pairs):
            if not (orbit_of[a] & touch and orbit_of[b] & touch):
                continue
            if not any(g[a] in touch and g[b] in touch for g in elements):
                return False, (flag, a, b)
    return True, None


def check_TQ1(oq):
    """(TQ1): for every flag, quotienting the residue by the flag
    stabilizer is isomorphic (via orbit -> block) to the residue of the
    projected flag in the quotient."""
    geom, q = oq.geom, oq.quotient
    for flag in flags_by_rank_lex(geom):
        stab = stabilizer(oq.group, flag)
        members = extensions(geom, flag)
        member_set = set(members)
        seen = set()
        orbits = []
        for x in members:
            if x in seen:
                continue
            orb = tuple(y for y in stab.orbit(x) if y in member_set)
            seen.update(orb)
            orbits.append(orb)
        qflag = oq.proj.project_flag(flag)
        target = set(extensions(q, qflag))
        image = [oq.proj.block_of[orb[0]] for orb in orbits]
        if len(set(image)) != len(image):
            return False, (flag, "orbit map not injective")
        if set(image) != target:
            return False, (flag, "orbit map not onto the quotient residue")
        for i in range(len(orbits)):
            for j in range(i + 1, len(orbits)):
                have = any(geom.incident(x, y)
                           for x in orbits[i] for y in orbits[j])
                want = q.incident(image[i], image[j])
                if have != want:
                    return False, (flag, "incidence not matched")
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
