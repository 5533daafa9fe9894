"""
Randomized implication suites: seed-fixed (GEOQ_SEED), at least 200
instances per suite, zero violations expected.
"""

import os
import random

import pytest

from geoq import lemmas

COUNT = int(os.environ.get("GEOQ_PROP_COUNT", "200"))
SEED = lemmas.seed_from_env()

# require a healthy number of hypothesis-true draws so the implication
# suites cannot silently go vacuous
MIN_NONVACUOUS = {
    "cover-semiregular": 40,
    "flagslift-tq2prime-tq2doubleprime": 80,
    "distance4-cover": 100,
    "tq3-tq1-pq1-flagslift": 100,
}


@pytest.mark.parametrize("row", lemmas.SUITES, ids=lambda row: row[1])
def test_suite(row):
    rng = random.Random("%d:%s" % (SEED, row[1]))
    res = lemmas.run_suite(row, rng, COUNT)
    assert res.checked >= COUNT
    floor = MIN_NONVACUOUS.get(res.name, COUNT // 4)
    assert res.nonvacuous >= min(floor, COUNT), res
    assert res.violations == [], res


def test_suites_are_deterministic():
    a = lemmas.run_all_suites(seed=SEED, count=15)
    b = lemmas.run_all_suites(seed=SEED, count=15)
    assert a == b


def test_draws_are_streamed():
    # each instance reaches its check before the next is drawn, so a
    # suite holds one instance at a time; None draws are retried
    made = []

    def maker(rng):
        made.append(rng.random())
        return None if len(made) % 2 else len(made)

    draws = lemmas._draw(random.Random(0), maker, 3)
    assert next(draws) == 2 and len(made) == 2
    assert list(draws) == [4, 6] and len(made) == 6
    with pytest.raises(RuntimeError):
        list(lemmas._draw(random.Random(0), lambda rng: None, 2))


def _row(name):
    return next(row for row in lemmas.SUITES if row[0] == name)


def test_run_suite_reports_a_planted_violation():
    # rank3-quotient's maker with its conclusion negated: every checked
    # instance is hypothesis-true and a violation, and a maker's None
    # draws are retried, not checked
    _, seed_name, maker, check = _row("rank3-quotient")
    made = []

    def every_other(rng):
        made.append(None)
        return None if len(made) % 2 else maker(rng)

    def negated(inst):
        nonvacuous, violations = check(inst)
        return nonvacuous, [] if violations else [inst]

    res = lemmas.run_suite(("planted", seed_name, every_other, negated),
                           random.Random(0), 12)
    assert res.name == "planted" and len(made) == 24
    assert res.checked == res.nonvacuous == len(res.violations) == 12


def test_forest_suite_reports_a_chamber_the_forest_lift_refuses(
        monkeypatch):
    # lift_chamber_forest raises RuntimeError unless its lift is a flag
    # projecting onto the chamber; the suite records that chamber as a
    # violation and goes on, and counts every chamber
    from geoq.axioms import OrbitQuotient
    from geoq.constructions import affine_geometry
    from geoq.geometry import flags_of_type
    geom, trans = affine_geometry(3, 2)
    name, seed_name, _, check = _row("forest-chamber-lift")
    row = (name, seed_name, lambda rng: OrbitQuotient(geom, trans), check)
    clean = lemmas.run_suite(row, random.Random(0), 1)
    assert (clean.checked, clean.nonvacuous, clean.violations) == (1, 21, [])
    chams = flags_of_type(OrbitQuotient(geom, trans).quotient, range(3))
    real = lemmas.lift_chamber_forest

    def refusing(proj, cham):
        if cham == chams[5]:
            raise RuntimeError("lifted chamber projects incorrectly")
        return real(proj, cham)

    monkeypatch.setattr(lemmas, "lift_chamber_forest", refusing)
    res = lemmas.run_suite(row, random.Random(0), 1)
    assert (res.checked, res.nonvacuous) == (1, 21)
    assert res.violations == [(geom, chams[5])]


def test_orbit_quotient_draws_go_through_the_module_name(monkeypatch):
    # a maker looks random_orbit_quotient up when it draws, so a rebinding
    # of the name (perfbench's tracer) sees every draw of every row that
    # draws orbit-quotients
    real = lemmas.random_orbit_quotient
    seen = []

    def counted(rng, **kwargs):
        seen.append(kwargs)
        return real(rng, **kwargs)

    monkeypatch.setattr(lemmas, "random_orbit_quotient", counted)
    for name, need in (("cover-semiregular", False),
                       ("flagslift-tq2prime-tq2doubleprime", False),
                       ("tq1-iff-tq2-both", True),
                       ("tq3-tq1-pq1-flagslift", True),
                       ("forest-chamber-lift", True)):
        _, seed_name, maker, check = _row(name)
        made = []

        def recorded(rng):
            made.append(rng)
            return maker(rng)

        seen.clear()
        lemmas.run_suite((name, seed_name, recorded, check),
                         random.Random(seed_name), 20)
        assert len(made) >= 20, name
        assert seen == [{"need_geometry": True} if need else {}] * len(made)



def _shared_instances():
    """Each shared constructor of the suites with the finite argument
    set the draws can give it."""
    cycles = [(m, s) for m in (6, 8, 10, 12)
              for s in range(2, m + 1, 2) if m % s == 0]
    cycles += [(m, m // 2) for m in (8, 12, 16)]
    return [
        (lemmas._cycle_geometry, [(m,) for m in (6, 8, 10, 12, 16)]),
        (lemmas._cycle_rotation, sorted(set(cycles))),
        (lemmas._ssg_symmetric_action,
         [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]),
        (lemmas._shadowable_ssg_action,
         [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]),
        (lemmas._multipartite_geometry, [(2, 3, 2)]),
        (lemmas._hexagon, [()]),
        (lemmas._eight_cycle, [()]),
        (lemmas._small_groups, [()]),
    ]


def _same_instance(shared, fresh):
    from geoq.cosets import FiniteGroup
    from geoq.geometry import Pregeometry
    from geoq.perms import PermGroup
    if isinstance(shared, tuple):
        return (len(shared) == len(fresh)
                and all(map(_same_instance, shared, fresh)))
    if isinstance(shared, PermGroup):
        return (shared.degree, shared.gens) == (fresh.degree, fresh.gens)
    if isinstance(shared, FiniteGroup):
        return (shared.names, shared.act) == (fresh.names, fresh.act)
    assert isinstance(shared, Pregeometry)
    return shared == fresh


def test_warm_draws_equal_cold_draws():
    # the suites share their fixed instances for the whole process; a
    # run on cold caches and a run on warm ones must draw and decide the
    # same, and no suite may change a shared instance
    shared = _shared_instances()
    for cached, _ in shared:
        cached.cache_clear()
    seed = lemmas.DEFAULT_SEED

    def outcome():
        return [(r.name, r.checked, r.nonvacuous, r.violations)
                for r in lemmas.run_all_suites(seed=seed, count=30)]

    cold = outcome()
    assert outcome() == cold
    for cached, args in shared:
        info = cached.cache_info()
        assert info.hits > 0 and 0 < info.currsize <= len(args), (
            cached, info)
        for a in args:  # __wrapped__ is the uncached constructor
            assert _same_instance(cached(*a), cached.__wrapped__(*a)), (
                cached, a)
    # an orbit-quotient kept with a shared geometry and used by both runs
    # answers every row as one built afresh on a copy, and so does every
    # verdict it and its projection keep: each kept value is recomputed
    # by its function on the fresh copy
    from geoq.axioms import DECIDERS, OrbitQuotient
    from geoq.geometry import Pregeometry
    from geoq.perms import PermGroup
    from geoq.quotient import Projection
    kept, names = 0, set()
    for geom in _shared_geometries(shared):
        for key, oq in list((geom._memo or {}).items()):
            if not (isinstance(key, tuple) and key[0] == "OrbitQuotient"):
                continue
            copy = Pregeometry(geom.type_names, geom.elem_names,
                               geom.elem_type, geom.pairs)
            fresh = OrbitQuotient(copy, PermGroup(oq.group.gens,
                                                  degree=geom.size))
            full = Projection(copy, oq.partition)  # scans every flag
            for fn, value in dict(oq._memo or {}).items():
                assert fn(fresh) == value, (fn.__name__, geom)
                if fn.__module__ == "geoq.quotient":
                    assert fn(full) == value, (fn.__name__, geom)
                names.add(fn.__name__)
            assert ({name: decide(oq) for name, decide, _ in DECIDERS}
                    == {name: decide(fresh) for name, decide, _ in DECIDERS})
            assert (oq.block_distance == fresh.block_distance
                    == full.block_distance)
            kept += 1
    assert kept >= 20, kept
    assert names == {"check_TQ1", "check_TQ2prime", "check_TQ2doubleprime",
                     "block_distance", "_chamber_lift_misses",
                     "check_flagslift", "is_cover", "check_PQ1"}, names
    # what the shadowable suite keeps with an ssg geometry: each kept
    # group's orbit-quotient or normal-closure orbits, and each partition's
    # verdict, recomputed on a fresh copy
    from geoq.geometry import is_geometry
    from geoq.perms import normal_closure, orbit_partition
    from geoq.quotient import Partition, Projection
    kinds = {}
    for v, k in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3)):
        geom, action = lemmas._shadowable_ssg_action(v, k)
        copy = Pregeometry(geom.type_names, geom.elem_names,
                           geom.elem_type, geom.pairs)
        for key, value in (geom._memo or {}).items():
            if not isinstance(key, tuple):
                continue
            kind = key[:2] if key[0] == "per subgroup" else key[0]
            kinds[kind] = kinds.get(kind, 0) + 1
            if key[0] == "per subgroup":
                for group, made in value:
                    assert group.order() == key[2]
                    if key[1] == "normal-closure orbits":
                        assert made.blocks == orbit_partition(
                            normal_closure(action, group), copy).blocks
                    else:
                        assert made.group is group
            elif key[0] == "quotient is a geometry":
                part = Partition._of_blocks(copy, key[1])
                assert value == is_geometry(Projection(copy, part).quotient)[0]
            elif key[0] == "flag-transitive":
                part = Partition._of_blocks(copy, key[1])
                assert value == lemmas._induced_flag_transitive(
                    Projection(copy, part), action)
    assert {("per subgroup", "normal-closure orbits"),
            ("per subgroup", "orbit-quotient"), "quotient is a geometry",
            "flag-transitive"} <= set(kinds), kinds


def _shared_geometries(shared):
    from geoq.geometry import Pregeometry
    found = {}
    for cached, args in shared:
        stack = [cached(*a) for a in args]
        while stack:
            item = stack.pop()
            if isinstance(item, tuple):
                stack.extend(item)
            elif isinstance(item, Pregeometry):
                found[id(item)] = item
    return list(found.values())


def test_orbit_quotients_are_built_once_per_drawn_subgroup(monkeypatch):
    # random_orbit_quotient keeps one OrbitQuotient per drawn (geometry,
    # subgroup), whatever generators were drawn for it: at GEOQ_SEED=1 the
    # suites accept 1,042 orbit-quotient draws and build 462, the cover
    # suites' half-turn quotients of the 8-, 12- and 16-cycles included
    # (the 16-cycle's is the one they add)
    for cached, _ in _shared_instances():
        cached.cache_clear()
    built, accepted = [], []
    real_draw = lemmas.random_orbit_quotient

    class Counted(lemmas.OrbitQuotient):
        __slots__ = ()

        def __init__(self, geom, group):
            built.append(geom)
            super().__init__(geom, group)

    def counted_draw(rng, **kwargs):
        oq = real_draw(rng, **kwargs)
        if oq is not None:
            accepted.append(oq)
        return oq

    monkeypatch.setattr(lemmas, "OrbitQuotient", Counted)
    monkeypatch.setattr(lemmas, "random_orbit_quotient", counted_draw)
    lemmas.run_all_suites(seed=1, count=200)
    assert (len(built), len(accepted)) == (462, 1042)
    for cached, _ in _shared_instances():  # drop the counted instances
        cached.cache_clear()


def test_kept_orbit_quotient_agrees_with_a_fresh_one(monkeypatch):
    # a drawn group answers from the orbit-quotient kept for its subgroup,
    # which may have been built for other generators; every verdict and
    # witness it gives is the one an OrbitQuotient of the drawn group gives
    from geoq.axioms import (OrbitQuotient, check_TQ1, check_TQ2doubleprime,
                             check_TQ2prime, check_TQ3)
    from geoq.diagram import _forest_trees
    from geoq.geometry import is_geometry, is_residually_connected
    from geoq.perms import is_semiregular
    from geoq.quotient import Projection, check_flagslift, check_PQ1, is_cover
    drawn = []
    real = lemmas._orbit_quotient

    def recorded(geom, group):
        oq = real(geom, group)
        if oq is not None:
            drawn.append((oq, group))
        return oq

    monkeypatch.setattr(lemmas, "_orbit_quotient", recorded)
    rng = random.Random(2024)
    while len(drawn) < 400:
        lemmas.random_orbit_quotient(rng, need_geometry=rng.random() < 0.5)
    shared = lifted = 0
    for oq, group in drawn:
        geom = oq.source
        fresh = OrbitQuotient(geom, group)
        shared += oq.group.gens != group.gens
        assert oq.partition.blocks == fresh.partition.blocks
        for check in (check_TQ1, check_TQ2prime, check_TQ2doubleprime,
                      check_TQ3):
            assert check(oq) == check(fresh), check.__name__
        full = Projection(geom, oq.partition)  # scans every flag
        for check in (check_PQ1, check_flagslift, is_cover):
            assert check(oq) == check(fresh) == check(full), check.__name__
        assert is_semiregular(oq.group) == is_semiregular(group)
        if (is_geometry(geom)[0] and is_residually_connected(geom)[0]
                and _forest_trees(geom) is not None):
            assert (lemmas._chamber_lift_misses(oq)
                    == lemmas._chamber_lift_misses(fresh))
            lifted += 1
    assert shared >= 30 and lifted >= 100, (shared, lifted)


def test_a_subgroup_shares_its_orbit_quotient_whatever_its_generators():
    # <a, b> and <b, a> are one subgroup, and so are <a> and <a^-1>; two
    # subgroups of the same order are not
    from geoq.constructions import multipartite_geometry
    from geoq.perms import PermGroup
    geom, n_group, _ = multipartite_geometry(2, 3, 2)  # not the shared one
    elems = [g for g in n_group if not g.is_identity()]
    a = next(g for g in elems if (g * g * g).is_identity())
    b, c = [g for g in elems if (g * g).is_identity()][:2]

    def kept(*gens):
        return lemmas._orbit_quotient(geom, PermGroup(gens, degree=geom.size))

    assert kept(a, b) is kept(b, a) is not None
    assert kept(a) is kept(a.inv()) is not None
    assert a != a.inv()
    assert kept(b) is not kept(c)
    assert kept(b).group.order() == kept(c).group.order() == 2


def test_kept_shadowable_verdict_agrees_with_fresh_projections():
    # the shadowable suite keeps each partition's verdict with the ssg
    # geometry; replaying its draws, each verdict and kept normal-closure
    # partition is the one recomputed from fresh projections
    from geoq.geometry import is_geometry
    from geoq.perms import (induced_quotient_group, normal_closure,
                            orbit_partition, transitivity)
    from geoq.quotient import Projection

    def unkept():
        raise AssertionError("normal-closure orbits not kept")

    for seed in range(4):
        name = "%d:suite_shadowable_quotient" % seed
        lemmas.run_suite(_row("shadowable-quotient"), random.Random(name),
                         200)
        rng = random.Random(name)
        for _ in range(200):  # the suite's draws, in its order
            v = rng.choice([3, 4, 5])
            k = rng.randint(2, min(3, v - 1))
            geom, action = lemmas._shadowable_ssg_action(v, k)
            sub = lemmas.random_subgroup(rng, action)
            part = orbit_partition(sub, geom)
            quotient = Projection(geom, part).quotient
            verdict = geom._memo[("quotient is a geometry", part.blocks)]
            assert verdict == is_geometry(quotient)[0]
            if not verdict:
                continue
            npart = orbit_partition(normal_closure(action, sub), geom)
            assert lemmas._per_subgroup(geom._memo, "normal-closure orbits",
                                        sub, unkept).blocks == npart.blocks
            nproj = Projection(geom, npart)
            induced = induced_quotient_group(nproj, action)
            assert (geom._memo[("flag-transitive", npart.blocks)]
                    == transitivity(induced, nproj.quotient, "flag")[0])


def test_a_repeated_draw_builds_no_chain(monkeypatch):
    # a draw that lands on a kept orbit-quotient finds it by its
    # generators before reading the group's order, so repeating the draw
    # builds no Schreier-Sims chain; the hits cover the symmetric actions
    # and multipartite(2, 3, 2), whose drawn subgroups are new groups
    from geoq import perms
    chains = []
    real_init = perms._Chain.__init__

    def counted(self, *args, **kwargs):
        chains.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(perms._Chain, "__init__", counted)
    repeated = []
    for seed in range(40):
        first = lemmas.random_orbit_quotient(random.Random(seed))
        chains.clear()
        again = lemmas.random_orbit_quotient(random.Random(seed))
        if first is not None and again is first:
            assert chains == [], seed
            repeated.append(first.source)
    new_groups = [lemmas._multipartite_geometry(2, 3, 2)[0]] + [
        lemmas._ssg_symmetric_action(*vk)[0] for vk in ((3, 2), (4, 2), (4, 3))]
    hits = [g for g in new_groups if any(g is h for h in repeated)]
    assert len(hits) >= 2, len(repeated)
