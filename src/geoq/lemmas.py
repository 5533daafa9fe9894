"""
Randomized implication suites: each suite draws seed-fixed desk-scale
instances (random repaired geometries, coset pregeometries, cycles,
blow-ups, subset geometries with random subgroups) and checks one of the
quotient implications on every instance, reporting any violation.

The fixed instances the draws pick from are built once per process and
shared: the cycles and their rotations, the symmetric actions on
ssg(v, k), multipartite_geometry(2, 3, 2), the hexagon, the eight-cycle
and the pool of small groups.  So each keeps its flags, verdicts, flag
orbits and chain across draws, and one OrbitQuotient per drawn subgroup
(_orbit_quotient: found by the drawn generators before the group's
order is read, else by _per_subgroup among the kept groups of that
order) that keeps its chamber lifts and, in one memo, all its
verdicts.  The quotient conditions depend on the group, not on the
generators drawn for it.  An ssg geometry keeps the shadowable suite's
verdict per orbit partition and its normal-closure orbits per subgroup,
and a projection keeps its block distance.  Every rng call is made as
before and no check changes what it is given, so the draws are
unchanged and a shared instance answers as a fresh one would.  The
public constructors stay uncached.
"""

from __future__ import annotations

import functools
import os
import random
from itertools import tee
from types import SimpleNamespace

from .axioms import (OrbitQuotient, check_TQ1, check_TQ2doubleprime,
                     check_TQ2prime, check_TQ3)
from .cosets import FiniteGroup, CosetGeometry, is_coset_pregeometry
from .constructions import (SimpleGraph, blowup_projection, cycle_geometry,
                            cycle_rotation, eight_cycle, hexagon,
                            is_shadowable, multipartite_geometry,
                            ssg_symmetric_action)
from .diagram import _Record, _forest_trees, lift_chamber_forest
from .geometry import (Pregeometry, _memo, _per_geometry,
                       _short_maximal_flag, all_flags, flags_of_type,
                       is_connected, is_firm, is_geometry,
                       is_residually_connected, keep_flags)
from .perms import (CapExceeded, PermGroup, automorphism_group,
                    induced_quotient_group, is_semiregular, normal_closure,
                    orbit_partition, transitivity)
from .quotient import (Partition, Projection, check_flagslift, check_PQ1,
                       corank1_surjective, is_cover, lift_flag,
                       singleton_partition)

DEFAULT_SEED = 20260808


def seed_from_env():
    return int(os.environ.get("GEOQ_SEED", DEFAULT_SEED))


class SuiteResult(_Record):
    def __init__(self, name, checked=0, nonvacuous=0, violations=None):
        self.name = name
        self.checked = checked
        self.nonvacuous = nonvacuous
        self.violations = [] if violations is None else violations

    @property
    def ok(self):
        return not self.violations

    def line(self):
        return "%s: checked=%d nonvacuous=%d violations=%d" % (
            self.name, self.checked, self.nonvacuous, len(self.violations))


# ---------------------------------------------------------------- instances

def random_pregeometry(rng, max_rank=4, max_per_type=4):
    rank = rng.randint(2, max_rank)
    sizes = [rng.randint(1, max_per_type) for _ in range(rank)]
    names = []
    etype = []
    for t, s in enumerate(sizes):
        for i in range(s):
            names.append("x%d_%d" % (t, i))
            etype.append(t)
    density = rng.uniform(0.3, 0.9)
    masks = [0] * len(names)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            if etype[a] != etype[b] and rng.random() < density:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return Pregeometry._of_masks(map(str, range(rank)), names, etype, masks)


def repair_to_geometry(geom, rng):
    """Extend maximal non-chamber flags by new incidences until every
    maximal flag is a chamber; incidences only grow, so this terminates.
    They are added to local masks, and one pregeometry is built at the
    end, with the last walk, which saw every flag, as its flag table."""
    local = SimpleNamespace(masks=list(geom.masks))  # what all_flags reads
    masks = local.masks
    while True:
        flags, walked = tee(all_flags(local))  # walked: each flag read
        flag = _short_maximal_flag(masks, geom.rank, flags)
        if flag is None:
            break
        missing = sorted(set(range(geom.rank))
                         - {geom.elem_type[x] for x in flag})
        t = rng.choice(missing)
        z = rng.choice(geom.by_type[t])
        for y in flag:
            masks[y] |= 1 << z
            masks[z] |= 1 << y
    if masks != list(geom.masks):
        geom = Pregeometry._of_masks(geom.type_names, geom.elem_names,
                                     geom.elem_type, masks)
    keep_flags(geom, walked)
    return geom


def random_geometry(rng, max_rank=4, max_per_type=4):
    return repair_to_geometry(random_pregeometry(rng, max_rank, max_per_type), rng)


def random_partition(rng, geom):
    blocks = []
    for members in geom.by_type:
        pool = list(members)
        rng.shuffle(pool)
        while pool:
            k = rng.randint(1, len(pool))
            blocks.append(tuple(sorted(pool[:k])))
            pool = pool[k:]
    return Partition._of_blocks(geom, blocks)  # a partition by construction


# The suites' fixed instances, built once per process (module docstring).
_cycle_geometry = functools.cache(cycle_geometry)
_cycle_rotation = functools.cache(cycle_rotation)
_ssg_symmetric_action = functools.cache(ssg_symmetric_action)
_multipartite_geometry = functools.cache(multipartite_geometry)
_hexagon = functools.cache(hexagon)
_eight_cycle = functools.cache(eight_cycle)


@functools.cache
def _shadowable_ssg_action(v, k):
    """_ssg_symmetric_action(v, k), whose geometry is checked shadowable
    once per (v, k)."""
    geom, action = _ssg_symmetric_action(v, k)
    if not is_shadowable(geom)[0]:
        raise RuntimeError("ssg(%d, %d) is not shadowable" % (v, k))
    return geom, action


@functools.cache
def _small_groups():
    z = FiniteGroup.cyclic
    return (
        z(4), z(6), z(8),
        FiniteGroup.direct_product(z(2), z(2)),
        FiniteGroup.direct_product(z(2), z(4)),
        FiniteGroup.direct_product(z(2), z(2), z(2)),
        FiniteGroup.symmetric(3),
        FiniteGroup.symmetric(4),
        FiniteGroup.direct_product(FiniteGroup.symmetric(3), z(2)),
    )


def random_coset_instance(rng):
    """A coset pregeometry of 2 to 4 types over a random small group with
    random subgroups, plus its right-multiplication action."""
    G = rng.choice(_small_groups())
    k = rng.randint(2, 4)
    subs = []
    for i in range(k):
        seed = [rng.randrange(len(G)) for _ in range(rng.randint(0, 2))]
        sub = G.subgroup_generated(seed)
        if len(sub) == len(G) and rng.random() < 0.7:
            sub = G.subgroup_generated([])  # avoid too many single-coset types
        subs.append(sub.named("G%d" % (i + 1)))
    cg = CosetGeometry(G, subs)
    return cg.geometry, cg.action_group()


def random_subgroup(rng, group):
    elems = list(group)  # sorted, and listed once per group
    gens = [rng.choice(elems) for _ in range(rng.randint(1, 2))]
    return PermGroup([g for g in gens if not g.is_identity()],
                     degree=group.degree)


def random_orbit_quotient(rng, need_geometry=False):
    """Draw an orbit-quotient of at most 400 flags from a mixed pool; returns
    None for draws that miss the requested constraints (caller retries)."""
    kind = rng.randrange(6)
    try:
        if kind == 0:
            two_m = rng.choice([6, 8, 10, 12])
            geom = _cycle_geometry(two_m)
            divisors = [s for s in range(2, two_m + 1, 2) if two_m % s == 0]
            group = _cycle_rotation(two_m, rng.choice(divisors))
        elif kind == 1:
            geom, action = random_coset_instance(rng)
            if geom.size > 40:
                return None
            group = random_subgroup(rng, action)
        elif kind == 2:
            geom = random_geometry(rng, max_rank=3, max_per_type=3)
            auts = automorphism_group(geom, cap=2000)
            group = random_subgroup(rng, auts)
        elif kind == 3:
            v = rng.choice([3, 4])
            geom, action = _ssg_symmetric_action(v, rng.randint(2, v - 1))
            group = random_subgroup(rng, action)
        elif kind == 4:
            geom, group = rng.choice([_hexagon, _eight_cycle])()
        else:
            geom, n_group, g_group = _multipartite_geometry(2, 3, 2)
            group = random_subgroup(rng, n_group)
    except CapExceeded:
        return None
    if need_geometry and not is_geometry(geom)[0]:
        return None
    if not keep_flags(geom, all_flags(geom), 400):
        return None
    return _orbit_quotient(geom, group)


def _orbit_quotient(geom, group):
    """The OrbitQuotient kept with geom for the group, found by its
    generators before its order is read, or None when the group has over
    60 elements; one is kept only after that test."""
    kept = _memo(geom)
    key = ("OrbitQuotient", tuple(g.images for g in group.gens))
    if key not in kept and group.order() <= 60:
        kept[key] = _per_subgroup(kept, "orbit-quotient", group,
                                  lambda: OrbitQuotient(geom, group))
    return kept.get(key)


def _per_subgroup(kept, kind, group, make):
    """make(), kept in kept once per subgroup: a value kept for a group of
    the same order that holds every generator of group was made for this
    group, as H' <= H and |H'| = |H| give H' = H.  Membership is read off
    the kept group's chain, so no group is listed."""
    same = kept.setdefault(("per subgroup", kind, group.order()), [])
    for other, value in same:
        if all(g in other for g in group.gens):
            return value
    value = make()
    same.append((group, value))
    return value


def _draw(rng, maker, count):
    """Yield count instances of maker(rng), each as soon as it is drawn;
    a draw of None is retried.  The checks on an instance use no
    randomness, so the draws do not depend on when the caller checks."""
    made = guard = 0
    while made < count:
        guard += 1
        if guard > count * 60:
            raise RuntimeError("instance pool exhausted")
        inst = maker(rng)
        if inst is not None:
            made += 1
            yield inst


# ------------------------------------------------------------------- suites

def suite_rank3_quotient(rng, count=200):
    """Quotients of geometries of rank at most 3 are geometries."""
    res = SuiteResult("rank3-quotient")
    for _ in range(count):
        geom = random_geometry(rng, max_rank=3)
        part = random_partition(rng, geom)
        q = Projection(geom, part).quotient
        res.checked += 1
        res.nonvacuous += 1
        if not is_geometry(q)[0]:
            res.violations.append((geom, part))
    return res


def suite_flagslift_geometry(rng, count=200):
    """FlagsLift forces the quotient of a geometry to be a geometry."""
    res = SuiteResult("flagslift-quotient-geometry")
    for _ in range(count):
        geom = random_geometry(rng)
        part = random_partition(rng, geom)
        proj = Projection(geom, part)
        res.checked += 1
        if not check_flagslift(proj)[0]:
            continue
        res.nonvacuous += 1
        if not is_geometry(proj.quotient)[0]:
            res.violations.append((geom, part))
    return res


def _cover_instances(rng):
    kind = rng.randrange(4)
    if kind == 0:
        two_m = rng.choice([8, 12, 16])
        return _orbit_quotient(_cycle_geometry(two_m),
                               _cycle_rotation(two_m, two_m // 2))
    if kind == 1:
        geom = random_geometry(rng, max_rank=2, max_per_type=4)
        big, proj = blowup_projection(geom, SimpleGraph.matching(rng.randint(1, 2)))
        return proj
    if kind == 2:
        geom = random_geometry(rng)
        return Projection(geom, singleton_partition(geom))
    geom = random_geometry(rng, max_rank=3, max_per_type=3)
    part = random_partition(rng, geom)
    return Projection(geom, part)


def suite_cover_properties(rng, count=200):
    """A covering lifts flags; a covering of a (firm) geometry of rank at
    least 2 gives a (firm) geometry quotient."""
    res = SuiteResult("cover-properties")
    for proj in _draw(rng, _cover_instances, count):
        res.checked += 1
        if not is_cover(proj):
            continue
        res.nonvacuous += 1
        if not check_flagslift(proj)[0]:
            res.violations.append(("flagslift", proj.source))
            continue
        geo = is_geometry(proj.source)[0]
        if geo and proj.source.rank >= 2:
            if not is_geometry(proj.quotient)[0]:
                res.violations.append(("quotient-geometry", proj.source))
                continue
            if is_firm(proj.source)[0] and not is_firm(proj.quotient)[0]:
                res.violations.append(("quotient-firm", proj.source))
    return res


def suite_cover_semiregular(rng, count=200):
    """A cover onto an orbit-quotient of a connected pregeometry forces
    the group to act semiregularly."""
    res = SuiteResult("cover-semiregular")
    for oq in _draw(rng, random_orbit_quotient, count):
        res.checked += 1
        if not (is_connected(oq.source) and is_cover(oq)):
            continue
        res.nonvacuous += 1
        if not is_semiregular(oq.group):
            res.violations.append(oq.source)
    return res


def suite_distance4_cover(rng, count=200):
    """Corank-1 surjectivity plus same-block distance at least 4 forces a
    covering; covers keep same-block distance at least 3."""
    res = SuiteResult("distance4-cover")
    for proj in _draw(rng, _cover_instances, count):
        res.checked += 1
        d = proj.block_distance
        if corank1_surjective(proj) and d >= 4:
            res.nonvacuous += 1
            if not is_cover(proj):
                res.violations.append(("not-cover", proj.source))
                continue
        if is_cover(proj) and d < 3:
            res.violations.append(("cover-short-distance", proj.source))
    return res


def suite_tq_equivalences(rng, count=200):
    """On orbit-quotients of geometries: TQ1 holds exactly when TQ2' and
    TQ2'' both do."""
    res = SuiteResult("tq1-iff-tq2-both")
    maker = lambda rng: random_orbit_quotient(rng, need_geometry=True)
    for oq in _draw(rng, maker, count):
        res.checked += 1
        res.nonvacuous += 1
        tq1 = check_TQ1(oq)[0]
        both = check_TQ2prime(oq)[0] and check_TQ2doubleprime(oq)[0]
        if tq1 != both:
            res.violations.append((oq.source, tq1, both))
    return res


def suite_tq_chain(rng, count=200):
    """TQ3 => TQ1 => PQ1 => FlagsLift on orbit-quotients of geometries."""
    res = SuiteResult("tq3-tq1-pq1-flagslift")
    maker = lambda rng: random_orbit_quotient(rng, need_geometry=True)
    for oq in _draw(rng, maker, count):
        res.checked += 1
        tq3 = check_TQ3(oq)
        tq1 = check_TQ1(oq)[0]
        pq1 = check_PQ1(oq)[0]
        fl = check_flagslift(oq)[0]
        if tq3 or tq1 or pq1:
            res.nonvacuous += 1
        if (tq3 and not tq1) or (tq1 and not pq1) or (pq1 and not fl):
            res.violations.append((oq.source, tq3, tq1, pq1, fl))
    return res


def suite_flagslift_tq2(rng, count=200):
    """FlagsLift together with TQ2' forces TQ2'' on orbit-quotients."""
    res = SuiteResult("flagslift-tq2prime-tq2doubleprime")
    for oq in _draw(rng, random_orbit_quotient, count):
        res.checked += 1
        if not (check_flagslift(oq)[0] and check_TQ2prime(oq)[0]):
            continue
        res.nonvacuous += 1
        if not check_TQ2doubleprime(oq)[0]:
            res.violations.append(oq.source)
    return res


def suite_coset_quotient(rng, count=200):
    """Quotients of coset pregeometries by invariant partitions are coset
    pregeometries."""
    res = SuiteResult("coset-quotient-closed")

    def maker(rng):
        geom, action = random_coset_instance(rng)
        if geom.size > 30 or action.order() > 30:
            return None
        return geom, action, random_subgroup(rng, action)

    for geom, action, sub in _draw(rng, maker, count):
        n = normal_closure(action, sub)
        part = orbit_partition(n, geom)
        proj = Projection(geom, part)
        induced = induced_quotient_group(proj, action)
        res.checked += 1
        res.nonvacuous += 1
        ok, detail = is_coset_pregeometry(proj.quotient, induced)
        if not ok:
            res.violations.append((geom, detail))
    return res


def suite_shadowable_quotient(rng, count=200):
    """Orbit-quotients of shadowable geometries are geometries; a
    flag-transitive overgroup stays flag-transitive on the quotient of a
    normal subgroup's orbits.  Each partition is decided once per
    geometry, whose action is fixed: the quotient verdict is kept by the
    subgroup's orbits, the normal closure's orbits per subgroup, and the
    flag-transitivity verdict by those orbits."""
    res = SuiteResult("shadowable-quotient")
    for _ in range(count):
        v = rng.choice([3, 4, 5])
        k = rng.randint(2, min(3, v - 1))
        geom, action = _shadowable_ssg_action(v, k)
        sub = random_subgroup(rng, action)
        res.checked += 1
        res.nonvacuous += 1
        kept = _memo(geom)
        part = orbit_partition(sub, geom)
        key = ("quotient is a geometry", part.blocks)
        if key not in kept:
            kept[key] = is_geometry(Projection(geom, part).quotient)[0]
        if not kept[key]:
            res.violations.append(("quotient-not-geometry", v, k))
            continue
        npart = _per_subgroup(
            kept, "normal-closure orbits", sub,
            lambda: orbit_partition(normal_closure(action, sub), geom))
        key = ("flag-transitive", npart.blocks)
        if key not in kept:
            kept[key] = _induced_flag_transitive(Projection(geom, npart),
                                                 action)
        if not kept[key]:
            res.violations.append(("not-flag-transitive", v, k))
    return res


def _induced_flag_transitive(proj, action):
    """Whether the action induced on proj's quotient is flag-transitive."""
    induced = induced_quotient_group(proj, action)
    return transitivity(induced, proj.quotient, "flag")[0]


def suite_chamber_lift(rng, count=200):
    """Forest-diagram chamber lifting succeeds on every quotient chamber
    and agrees with the exhaustive lift oracle."""
    res = SuiteResult("forest-chamber-lift")

    def maker(rng):
        oq = random_orbit_quotient(rng, need_geometry=True)
        if (oq is None or not is_residually_connected(oq.source)[0]
                or _forest_trees(oq.source) is None):
            return None
        return oq

    for oq in _draw(rng, maker, count):
        res.checked += 1
        chambers, misses = _chamber_lift_misses(oq)
        res.nonvacuous += chambers
        res.violations += [(oq.source, cham) for cham in misses]
    return res


@_per_geometry
def _chamber_lift_misses(oq):
    """How many quotient chambers there are, and those the lift oracle
    cannot lift or the forest lift misses; kept with the orbit-quotient."""
    chams = flags_of_type(oq.quotient, range(oq.quotient.rank))
    misses = []
    for cham in chams:
        lifted = lift_chamber_forest(oq, cham)
        oracle = lift_flag(oq, cham)
        if oracle is None or oq.project_flag(lifted) != cham:
            misses.append(cham)
    return len(chams), tuple(misses)


ALL_SUITES = [
    suite_rank3_quotient,
    suite_flagslift_geometry,
    suite_cover_properties,
    suite_cover_semiregular,
    suite_distance4_cover,
    suite_tq_equivalences,
    suite_tq_chain,
    suite_flagslift_tq2,
    suite_coset_quotient,
    suite_shadowable_quotient,
    suite_chamber_lift,
]


def run_all_suites(seed=None, count=200):
    seed = seed_from_env() if seed is None else seed
    out = []
    for suite in ALL_SUITES:
        rng = random.Random("%d:%s" % (seed, suite.__name__))
        out.append(suite(rng, count))
    return out
