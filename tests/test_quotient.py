from itertools import combinations
from pathlib import Path

import pytest

import geoq
from geoq import io as gio

from geoq.constructions import (blowup_projection, eight_cycle,
                                flnotpq1_witness, hexagon, isomorphic,
                                SimpleGraph, ssg)
from geoq.geometry import (INF, Pregeometry, all_flags, flags_by_rank_lex,
                           incidence_distance, is_connected,
                           is_generalized_digon, is_geometry)
from geoq.lemmas import (random_geometry, random_orbit_quotient,
                         random_partition)
from geoq.perms import orbit_partition
from geoq.quotient import (Partition, Projection, check_flagslift,
                           check_PQ1, check_PQ2, corank1_injective,
                           corank1_surjective, is_cover,
                           is_incidence_graph_cover, is_m_cover, lift_flag,
                           min_block_distance, quotient,
                           residual_surjectivity, singleton_partition,
                           total_order_flagslift)


def quotient_restricted_to(proj, types):
    """Incidence structure of the quotient restricted to blocks of the
    given types, keyed by frozen block member sets.  Used to check that
    quotients commute with truncations."""
    q = proj.quotient
    J = set(types)
    keep = [k for k in range(q.size) if q.elem_type[k] in J]
    name = {k: frozenset(proj.fiber(k)) for k in keep}
    edges = {frozenset((name[a], name[b])) for a, b in q.pairs
             if a in name and b in name}
    return {name[k] for k in keep}, edges


def hexagon_projection():
    geom, group = hexagon()
    part = orbit_partition(group, geom)
    return geom, Projection(geom, part)


def test_partition_validation():
    geom, _ = hexagon()
    with pytest.raises(ValueError):
        Partition(geom, [(0, 1), (2, 3), (4, 5)])  # crosses types
    with pytest.raises(ValueError):
        Partition(geom, [(0, 3), (1, 4)])  # does not cover
    with pytest.raises(ValueError):
        Partition(geom, [(0, 3), (0, 3), (1, 4), (2, 5)])  # overlap


def test_partition_refuses_indices_outside_the_elements():
    # the constructor is the checked path: an index below 0 or past the
    # end would reach Projection as a negative shift or an IndexError,
    # and a float index as a TypeError
    geom = Pregeometry(["A"], ["a", "b"], [0, 0], [])
    for blocks, bad in (([(0,), (-1,)], "-1"), ([(0,), (1,), (2,)], "2"),
                        ([(0, 1, 5)], "5"), ([(0.0,), (1,)], "0.0")):
        with pytest.raises(ValueError, match=r"index %s not in 0\.\.1" % bad):
            Partition(geom, blocks)


def test_quotient_of_valid_pregeometry_is_valid(rng):
    from geoq.geometry import validate
    from geoq.lemmas import random_pregeometry
    for _ in range(30):
        geom = random_pregeometry(rng)
        assert validate(geom) is None
        proj = Projection(geom, random_partition(rng, geom))
        assert validate(proj.quotient) is None


def test_quotient_hexagon_triangle():
    geom, proj = hexagon_projection()
    q = proj.quotient
    assert q.size == 3 and len(q.pairs) == 3
    assert is_geometry(q)[0]


def test_quotient_singleton_isomorphic():
    geom = ssg(3, 2)
    q, proj = quotient(geom, singleton_partition(geom))
    assert isomorphic(q, geom)[0]


def test_quotient_eightcycle_k22():
    geom, group = eight_cycle()
    q, proj = quotient(geom, orbit_partition(group, geom))
    assert tuple(len(v) for v in q.by_type) == (2, 2)
    assert is_generalized_digon(q)


def test_project_flag_is_flag():
    geom, proj = hexagon_projection()
    from geoq.geometry import is_flag
    for flag in all_flags(geom):
        qflag = proj.project_flag(flag)
        assert is_flag(proj.quotient, qflag)
        assert len(qflag) == len(flag)
    # the projection checks its argument
    same_type = tuple(geom.by_type[0][:2])
    apart = next((a, b) for a in range(geom.size) for b in range(a)
                 if geom.elem_type[a] != geom.elem_type[b]
                 and not geom.incident(a, b))
    for bad in (same_type, apart):
        with pytest.raises(ValueError):
            proj.project_flag(bad)


def test_lift_flag_hexagon_chamber_none():
    geom, proj = hexagon_projection()
    assert lift_flag(proj, (0, 1, 2)) is None


def test_lift_flag_stops_past_the_first_block(monkeypatch):
    # a lift meets every block once, and members are numbered block by
    # block: the walk ends at the first flag whose least member lies
    # past the first block.  coseteg-2 by its N-orbits has 4 quotient
    # flags that do not lift; their walks read 32 local flags, not 52
    import sys
    data = Path(geoq.__file__).parent / "data"
    geom = gio.parse_geometry((data / "coseteg-2.geo").read_text())
    group = gio.parse_group((data / "coseteg-2-n.grp").read_text(), geom)
    proj = Projection(geom, orbit_partition(group, geom))
    module = sys.modules["geoq.quotient"]
    walked = []

    def counted(local):
        for flag in all_flags(local):
            walked.append(flag)
            yield flag

    monkeypatch.setattr(module, "all_flags", counted)
    assert lift_flag(proj, ()) == ()
    walks = []  # the flags read by each lift that fails
    for qflag in flags_by_rank_lex(proj.quotient):
        walked.clear()
        if lift_flag(proj, qflag) is None:
            assert walked[-1][0] == len(proj.fiber(qflag[0])), qflag
            walks.append(len(walked))
    assert (len(walks), sum(walks)) == (4, 32)


def test_rank_le2_quotient_flags_always_lift(rng):
    for _ in range(20):
        geom = random_geometry(rng, max_rank=4, max_per_type=3)
        proj = Projection(geom, random_partition(rng, geom))
        for qflag in all_flags(proj.quotient):
            if len(qflag) <= 2:
                got = lift_flag(proj, qflag)
                assert got is not None
                assert proj.project_flag(got) == qflag


def test_check_flagslift_hexagon():
    geom, proj = hexagon_projection()
    ok, witness = check_flagslift(proj)
    assert not ok and witness == (0, 1, 2)


def test_check_flagslift_singleton():
    geom = ssg(4, 3)
    _, proj = quotient(geom, singleton_partition(geom))
    assert check_flagslift(proj) == (True, None)


def _search_flagslift(proj):
    """FlagsLift by one lift_flag search per quotient flag of rank >= 3,
    in (rank, lex) order: the oracle of check_flagslift."""
    for qflag in flags_by_rank_lex(proj.quotient):
        if len(qflag) > 2 and lift_flag(proj, qflag) is None:
            return False, qflag
    return True, None


def test_flagslift_witness_past_rank_three():
    # four triangles a1b1c1, a2b2d1, a3c2d2, b3c3d3 and one block per
    # type: the quotient is one chamber whose four rank-3 faces each lift
    # through one triangle, and the chamber itself does not lift
    names = ["a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3",
             "d1", "d2", "d3"]
    x = {name: k for k, name in enumerate(names)}
    pairs = [(x[p], x[q]) for tri in ("a1 b1 c1", "a2 b2 d1", "a3 c2 d2",
                                      "b3 c3 d3")
             for p, q in combinations(tri.split(), 2)]
    geom = Pregeometry(list("abcd"), names, [k // 3 for k in range(12)],
                       pairs)
    proj = Projection(geom, Partition(geom, [range(3 * t, 3 * t + 3)
                                             for t in range(4)]))
    assert check_flagslift(proj) == _search_flagslift(proj) == (
        False, (0, 1, 2, 3))
    for qflag in combinations(range(4), 3):
        assert lift_flag(proj, qflag) is not None
    assert lift_flag(proj, (0, 1, 2, 3)) is None


def _drawn_projection(rng):
    """A projection by a random partition (of a geometry or of a
    pregeometry), the singleton partition, a blow-up, a cover instance
    of the suites or an orbit-quotient; None for a missed draw."""
    from geoq.lemmas import _cover_instances, random_pregeometry
    kind = rng.randrange(6)
    if kind == 0:
        geom = random_geometry(rng)
        return Projection(geom, random_partition(rng, geom))
    if kind == 1:
        geom = random_pregeometry(rng, 5, 3)
        return Projection(geom, random_partition(rng, geom))
    if kind == 2:
        geom = random_geometry(rng)
        return Projection(geom, singleton_partition(geom))
    if kind == 3:
        geom = random_geometry(rng, max_rank=3, max_per_type=3)
        graph = rng.choice([SimpleGraph.matching(1), SimpleGraph.matching(2),
                            SimpleGraph.path(3), SimpleGraph.cycle(4)])
        return blowup_projection(geom, graph)[1]
    if kind == 4:
        return _cover_instances(rng)
    oq = random_orbit_quotient(rng)
    return None if oq is None else Projection(oq.source, oq.partition)


def test_flagslift_agrees_with_lift_search(rng):
    # verdict and least witness of the projected-set decider match one
    # lift search per quotient flag
    seen = {True: 0, False: 0}
    drawn = 0
    while drawn < 1000:
        proj = _drawn_projection(rng)
        if proj is None:
            continue
        drawn += 1
        want = _search_flagslift(proj)
        assert check_flagslift.__wrapped__(proj) == want
        assert check_flagslift(proj) == want
        seen[want[0]] += 1
    assert min(seen.values()) >= 50, seen


def _neighbours(geom):
    """Each element's neighbour set, read from the pair set."""
    out = [set() for _ in range(geom.size)]
    for a, b in geom.pairs:
        out[a].add(b)
        out[b].add(a)
    return out


def neighbour_bijection_oracle(proj):
    """The incidence-graph cover test as one loop: at every element the
    neighbours map one to one onto the neighbours of its block."""
    src, q = _neighbours(proj.source), _neighbours(proj.quotient)
    for x in range(proj.source.size):
        image = [proj.block_of[y] for y in src[x]]
        if len(set(image)) != len(image):
            return False
        if set(image) != q[proj.block_of[x]]:
            return False
    return True


def assert_graph_cover_is_corank1_bijection(proj):
    want = neighbour_bijection_oracle(proj)
    assert is_incidence_graph_cover(proj) == want
    assert (corank1_injective(proj) and corank1_surjective(proj)) == want
    return want


def test_corank1_surjective_on_orbit_quotients(rng):
    covers = set()
    for _ in range(30):
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        assert corank1_surjective(oq)
        covers.add(assert_graph_cover_is_corank1_bijection(oq))
    assert covers == {False, True}


def test_corank1_surjective_agrees_with_neighbour_loop(rng):
    # the loop it ran before it became residual_surjectivity on rank-1
    # flags: each element's neighbours cover the neighbours of its block
    from geoq.lemmas import random_pregeometry
    seen = set()
    for i in range(200):
        if i % 2:
            geom = random_geometry(rng, max_rank=3, max_per_type=3)
        else:
            geom = random_pregeometry(rng, max_rank=3, max_per_type=3)
        proj = Projection(geom, random_partition(rng, geom))
        src, q = _neighbours(geom), _neighbours(proj.quotient)
        want = all({proj.block_of[y] for y in src[x]} == q[proj.block_of[x]]
                   for x in range(geom.size))
        assert corank1_surjective(proj) == want
        seen.add(want)
    assert seen == {False, True}


def test_corank1_injective_distance3(rng):
    # same-block distance >= 3 forces injectivity on element residues
    covers = set()
    for _ in range(40):
        geom = random_geometry(rng, max_rank=3, max_per_type=3)
        part = random_partition(rng, geom)
        proj = Projection(geom, part)
        if min_block_distance(geom, part) >= 3:
            assert corank1_injective(proj)
        covers.add(assert_graph_cover_is_corank1_bijection(proj))
    assert covers == {False, True}


def test_residual_surjectivity_counterexample_true():
    from geoq.reproduce import tq1_counterexample
    geom, group = tq1_counterexample()
    proj = Projection(geom, orbit_partition(group, geom))
    assert residual_surjectivity(proj)


def test_min_block_distance():
    geom, proj = hexagon_projection()
    assert min_block_distance(geom, proj.partition) == 3
    assert min_block_distance(geom, singleton_partition(geom)) == INF
    g8, grp8 = eight_cycle()
    assert min_block_distance(g8, orbit_partition(grp8, g8)) == 4


def pairwise_block_distance(geom, partition):
    """The sweep min_block_distance ran before its one search per block:
    a distance for every same-block pair."""
    best = INF
    for block in partition.blocks:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                best = min(best, incidence_distance(geom, a, b))
    return best


def test_min_block_distance_agrees_with_pairwise_loop(rng):
    from geoq.lemmas import random_pregeometry
    seen = {}
    orbit_draws = 0
    while orbit_draws < 300:
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        orbit_draws += 1
        got = min_block_distance(oq.source, oq.partition)
        assert got == pairwise_block_distance(oq.source, oq.partition)
        seen[got] = seen.get(got, 0) + 1
    for _ in range(200):
        geom = random_pregeometry(rng, max_rank=4, max_per_type=4)
        part = random_partition(rng, geom)
        got = min_block_distance(geom, part)
        assert got == pairwise_block_distance(geom, part)
        seen[got] = seen.get(got, 0) + 1
    assert {2, 3, 4, INF} <= set(seen), seen
    print(seen)


def test_is_m_cover():
    geom, proj = hexagon_projection()
    assert not is_cover(proj)
    s = ssg(4, 3)
    _, sproj = quotient(s, singleton_partition(s))
    for m in (0, 1, 2):
        assert is_m_cover(sproj, m)[0]
    assert is_cover(sproj)
    for m in (3, -1):
        with pytest.raises(ValueError):
            is_m_cover(sproj, m)


def test_m_cover_at_m_zero_on_a_rank_one_source(tmp_path, capsys):
    # m = 0 scans the chambers, whose residues are empty, and is the cover
    # test of a rank-1 source: two elements of one type, swapped
    from geoq.axioms import OrbitQuotient
    from geoq.cli import main
    from geoq.perms import Perm, PermGroup
    geom = Pregeometry(["A"], ["a", "b"], [0, 0], [])
    for proj in (Projection(geom, singleton_partition(geom)),
                 OrbitQuotient(geom, PermGroup([Perm((1, 0))]))):
        assert is_m_cover(proj, 0) == (True, None)
        assert is_cover(proj)
        for m in (1, -1):
            with pytest.raises(ValueError):
                is_m_cover(proj, m)
    (tmp_path / "r1.geo").write_text("type A\nelem a A\nelem b A\n")
    (tmp_path / "r1.grp").write_text("gen (a b)\n")
    geo, grp = str(tmp_path / "r1.geo"), str(tmp_path / "r1.grp")
    for argv, row in ((["axioms", geo, grp], "is-cover"),
                      (["quotient", geo, "--orbits", grp,
                        "-o", str(tmp_path / "q.geo")], "cover")):
        code = main(["--machine"] + argv)
        out = capsys.readouterr().out.splitlines()
        assert code == 1  # pq2 fails: the empty flag's residue is one block
        assert "%s=true" % row in out, out


def test_cover_iff_graph_cover_plus_rank3_lift(rng):
    # orbit-quotient covers match graph covers with liftable rank-3 flags
    for _ in range(40):
        oq = random_orbit_quotient(rng, need_geometry=True)
        if oq is None:
            continue
        cov = is_cover(oq)
        gcov = is_incidence_graph_cover(oq)
        rank3 = all(lift_flag(oq, f) is not None
                    for f in all_flags(oq.quotient) if len(f) == 3)
        assert cov == (gcov and rank3)


def test_pq1_flnotpq1():
    geom, part = flnotpq1_witness()
    proj = Projection(geom, part)
    ok, witness = check_PQ1(proj)
    assert not ok
    flag, block = witness
    assert flag == (geom.elem("a1"),)
    assert proj.quotient.elem_names[block] == "{b1,b2}"
    assert check_flagslift(proj) == (True, None)


def test_pq1_singleton_true():
    geom = ssg(3, 2)
    _, proj = quotient(geom, singleton_partition(geom))
    assert check_PQ1(proj) == (True, None)


def test_pq2():
    geom = ssg(4, 2)
    _, proj = quotient(geom, singleton_partition(geom))
    assert check_PQ2(proj)[0]
    # collapsing a whole type class starves corank-1 flags of choices
    part = Partition(geom, [tuple(geom.by_type[0])]
                     + [(x,) for x in geom.by_type[1]])
    proj = Projection(geom, part)
    ok, witness = check_PQ2(proj)
    assert not ok and geom.elem_type[witness[0]] == 1


def test_total_order_flagslift():
    geom, proj = hexagon_projection()
    for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
        assert not total_order_flagslift(proj, order)
    s = ssg(3, 2)
    _, sproj = quotient(s, singleton_partition(s))
    assert total_order_flagslift(sproj, [0, 1])
    with pytest.raises(ValueError):
        total_order_flagslift(sproj, [0, 0])


def test_quotient_connected_and_commutes_with_truncation(rng):
    from geoq.geometry import truncation
    for _ in range(25):
        geom = random_geometry(rng, max_rank=4, max_per_type=3)
        part = random_partition(rng, geom)
        proj = Projection(geom, part)
        if is_connected(geom):
            assert is_connected(proj.quotient)
        # (quotient of truncation) equals (truncation of quotient),
        # matching blocks by their member sets
        for J in ([0], [0, 1], list(range(geom.rank))):
            tr = truncation(geom, J)
            sub_blocks = [b for b in part.blocks
                          if geom.elem_type[b[0]] in set(J)]
            remap = {x: i for i, x in
                     enumerate(sorted(y for b in sub_blocks for y in b))}
            tr_part = Partition(tr, [tuple(remap[x] for x in b)
                                     for b in sub_blocks])
            tr_proj = Projection(tr, tr_part)
            inv = {i: x for x, i in remap.items()}
            side_a = {frozenset(inv[x] for x in b) for b in tr_part.blocks}
            edges_a = {frozenset((frozenset(inv[x] for x in tr_proj.fiber(i)),
                                  frozenset(inv[x] for x in tr_proj.fiber(j))))
                       for i, j in tr_proj.quotient.pairs}
            side_b, edges_b = quotient_restricted_to(proj, J)
            assert side_a == side_b and edges_a == edges_b


def test_flagslift_agrees_with_projection_image_oracle(rng):
    # independent route: the set of projected source flags must contain
    # every quotient flag
    for _ in range(40):
        geom = random_geometry(rng, max_rank=4, max_per_type=3)
        proj = Projection(geom, random_partition(rng, geom))
        projected = {proj.project_flag(f) for f in all_flags(geom)}
        oracle = all(f in projected for f in all_flags(proj.quotient))
        assert check_flagslift(proj)[0] == oracle


def test_pq1_agrees_with_literal_quantifier(rng):
    # independent route: the hypothesis spelled out with one witness
    # element per member of the flag
    from geoq.geometry import extensions

    def literal_pq1(proj):
        geom, q = proj.source, proj.quotient
        for flag in all_flags(geom):
            if not flag:
                continue
            for k in range(q.size):
                if q.elem_type[k] in {geom.elem_type[x] for x in flag}:
                    continue
                witnesses = []
                for x in flag:
                    block = proj.fiber(proj.block_of[x])
                    witnesses.append(any(
                        geom.incident(b, xb)
                        for b in proj.fiber(k) for xb in block))
                if all(witnesses):
                    if not any(b in set(extensions(geom, flag))
                               for b in proj.fiber(k)):
                        return False
        return True

    for _ in range(30):
        geom = random_geometry(rng, max_rank=3, max_per_type=3)
        proj = Projection(geom, random_partition(rng, geom))
        assert check_PQ1(proj)[0] == literal_pq1(proj)


def test_tq1_agrees_with_generic_quotient_machinery(rng):
    # independent route: build the stabilizer quotient of each residue
    # with the ordinary Partition/Projection machinery and compare the
    # block correspondence explicitly
    from geoq.axioms import check_TQ1
    from geoq.geometry import residue
    from geoq.lemmas import random_orbit_quotient
    from geoq.perms import Perm, PermGroup, stabilizer

    def oracle(oq):
        geom = oq.source
        q = oq.quotient
        for flag in all_flags(geom):
            stab = stabilizer(oq.group, flag)
            res, emap = residue(geom, flag)
            back = {x: i for i, x in enumerate(emap)}
            gens = []
            for g in stab.gens:
                gens.append(Perm([back[g[emap[i]]] for i in range(res.size)]))
            stab_on_res = PermGroup(gens, degree=res.size)
            part = Partition(res, stab_on_res.orbits())
            inner = Projection(res, part)
            qflag = oq.project_flag(flag)
            target = {k for k in range(q.size)
                      if k not in qflag and
                      all(q.incident(k, m) for m in qflag)}
            image = [oq.block_of[emap[block[0]]]
                     for block in part.blocks]
            if len(set(image)) != len(image) or set(image) != target:
                return False
            for i in range(len(part.blocks)):
                for j in range(i + 1, len(part.blocks)):
                    if inner.quotient.incident(i, j) != q.incident(image[i],
                                                                   image[j]):
                        return False
        return True

    done = 0
    while done < 25:
        oq = random_orbit_quotient(rng)
        if oq is None:
            continue
        done += 1
        assert check_TQ1(oq)[0] == oracle(oq)


def test_blowup_matching_gives_cover_rank2():
    base = ssg(3, 2)
    big, proj = blowup_projection(base, SimpleGraph.matching(2))
    assert is_cover(proj)
    assert check_flagslift(proj)[0]


def _residue_isomorphic_by_pairs(proj, flag):
    # the residue loop of is_cover and is_m_cover, one member pair at a time
    from geoq.geometry import extensions
    src, q = proj.source, proj.quotient
    members = extensions(src, flag)
    target = set(extensions(q, proj.project_flag(flag)))
    image = [proj.block_of[x] for x in members]
    if len(set(image)) != len(image):
        return False, "not injective"
    if set(image) != target:
        return False, "not surjective"
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            qa, qb = proj.block_of[a], proj.block_of[b]
            if src.incident(a, b) != q.incident(qa, qb):
                return False, "incidence not matched"
    return True, None


def test_cover_witness_is_the_least_failing_element(rng):
    # the is-cover row (and quotient's cover row) names the least element
    # whose residue map fails, and why, on every bundled input and on
    # draws, half of them orbit-quotients, whose scan sees one element
    # per block
    from geoq.axioms import OrbitQuotient, decider_rows
    from geoq.lemmas import random_pregeometry
    from test_axioms import _bundled_orbit_quotients
    data = Path(geoq.__file__).parent / "data"
    projs = [OrbitQuotient(g, grp) for g, grp in _bundled_orbit_quotients()]
    for path in sorted(data.glob("*.part")):
        geom = gio.parse_geometry(path.with_suffix(".geo").read_text())
        projs.append(Projection(geom, gio.parse_partition(path.read_text(),
                                                          geom)))
    draws = 0
    while draws < 300:
        if draws % 2:
            geom = random_pregeometry(rng, max_rank=4, max_per_type=4)
            proj = Projection(geom, random_partition(rng, geom))
        else:
            proj = random_orbit_quotient(rng)
            if proj is None:
                continue
        projs.append(proj)
        draws += 1
    seen = set()
    for proj in projs:
        src = proj.source
        failing = ((x, reason) for x in range(src.size)
                   for ok, reason in [_residue_isomorphic_by_pairs(proj, (x,))]
                   if not ok)
        x, reason = next(failing, (None, None))
        want = (True, None) if x is None else (
            False, "{%s}: %s" % (src.elem_names[x], reason))
        rows = {name: (verdict, text)
                for name, verdict, text in decider_rows(proj)}
        assert rows["is-cover"] == want, (src, want)
        seen.add(reason)
    assert seen == {None, "not injective", "not surjective",
                    "incidence not matched"}, seen


def _m_cover_by_pairs(proj, m):
    # every corank-m flag, not the quotient's leaders: on an orbit-quotient
    # this checks that one flag per G-orbit decides, witness included
    from geoq.geometry import flags_by_rank_lex
    for flag in flags_by_rank_lex(proj.source):
        if len(flag) == proj.source.rank - m:
            ok, reason = _residue_isomorphic_by_pairs(proj, flag)
            if not ok:
                return False, (flag, reason)
    return True, None


def _total_order_criterion_by_pairs(proj, order):
    # the upward-residue loop of total_order_flagslift
    src, q = proj.source, proj.quotient
    src_adj, q_adj = _neighbours(src), _neighbours(q)
    pos = {t: i for i, t in enumerate(order)}
    for x in range(src.size):
        px = pos[src.elem_type[x]]
        up = [y for y in sorted(src_adj[x]) if pos[src.elem_type[y]] > px]
        target = {k for k in q_adj[proj.block_of[x]]
                  if pos[q.elem_type[k]] > px}
        image = [proj.block_of[y] for y in up]
        if len(set(image)) != len(image) or set(image) != target:
            return False
        for i, a in enumerate(up):
            for b in up[i + 1:]:
                if src.incident(a, b) != q.incident(proj.block_of[a],
                                                    proj.block_of[b]):
                    return False
    return True


def test_residue_maps_agree_with_pairwise_loops(rng):
    from itertools import permutations
    from geoq.lemmas import random_pregeometry
    seen = {}
    draws = 0
    while draws < 240:
        if draws % 2:
            geom = random_pregeometry(rng, max_rank=3, max_per_type=3)
            proj = Projection(geom, random_partition(rng, geom))
        else:
            oq = random_orbit_quotient(rng, need_geometry=True)
            if oq is None:
                continue
            proj = oq
        draws += 1
        cover = is_cover(proj)
        assert cover == all(_residue_isomorphic_by_pairs(proj, (x,))[0]
                            for x in range(proj.source.size))
        seen["cover", cover] = seen.get(("cover", cover), 0) + 1
        for m in range(1, proj.source.rank):
            got = is_m_cover(proj, m)
            assert got == _m_cover_by_pairs(proj, m)
            key = ("m-cover", got[1][1] if got[1] else None)
            seen[key] = seen.get(key, 0) + 1
        for order in permutations(range(proj.source.rank)):
            got = total_order_flagslift(proj, list(order))
            assert got == _total_order_criterion_by_pairs(proj, order)
            seen["order", got] = seen.get(("order", got), 0) + 1
    assert {("cover", True), ("cover", False), ("order", True),
            ("order", False), ("m-cover", None), ("m-cover", "not injective"),
            ("m-cover", "not surjective"),
            ("m-cover", "incidence not matched")} <= set(seen), seen
    print(seen)
