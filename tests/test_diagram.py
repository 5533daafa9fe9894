from itertools import combinations

import pytest

from geoq.axioms import OrbitQuotient
from geoq.constructions import (affine_geometry, eight_cycle, grid_complement,
                                hexagon, ssg, ssg_symmetric_action)
from geoq.diagram import (Diagram, basic_diagram, direct_sum_check, is_pure,
                          lift_chamber_forest, no_triangle_check,
                          place_tree_flag, star_transitive_on_paths)
from geoq.geometry import Pregeometry, flags_of_type, is_geometry, residue
from geoq.lemmas import random_geometry, random_subgroup
from geoq.perms import Perm, PermGroup, normal_closure, orbit_partition, transitivity
from geoq.quotient import Projection, lift_flag


def double_cover(geom):
    """Two disjoint copies with the swap action; the quotient is the base."""
    n = geom.size
    names = [x + "/0" for x in geom.elem_names] + [x + "/1" for x in geom.elem_names]
    etype = list(geom.elem_type) * 2
    pairs = [(a, b) for a, b in geom.pairs]
    pairs += [(a + n, b + n) for a, b in geom.pairs]
    big = Pregeometry(geom.type_names, names, etype, pairs)
    swap = Perm([(x + n) % (2 * n) for x in range(2 * n)])
    return big, PermGroup([swap])


def test_diagram_eightcycle_and_quotient():
    geom, group = eight_cycle()
    assert len(basic_diagram(geom).edges) == 1
    proj = Projection(geom, orbit_partition(group, geom))
    assert len(basic_diagram(proj.quotient).edges) == 0


def test_diagram_ssg_path():
    diag = basic_diagram(ssg(5, 3))
    assert diag.edges == frozenset({frozenset((0, 1)), frozenset((1, 2))})
    assert diag.is_forest()
    assert diag.components() == [(0, 1, 2)]


def test_diagram_requires_geometry():
    geom, _ = hexagon()
    with pytest.raises(ValueError):
        basic_diagram(geom)


def test_diagram_evidence_no_flags():
    # two isolated chambers of rank 2 plus an isolated third type element
    geom = Pregeometry(["A", "B"], ["a", "b"], [0, 1], [(0, 1)])
    diag = basic_diagram(geom)
    assert diag.evidence[(0, 1)][0] == "digons"


def test_digon_same_answer_both_paths(rng, bundled_geometries):
    # the diagram decision agrees with calling the rank-2 digon test on
    # each cotype residue directly: on ssg(4,3), coseteg-7, the bundled
    # geometries and seeded random draws
    from geoq.cosets import FiniteGroup, coseteg_family
    from geoq.geometry import is_generalized_digon
    from geoq.lemmas import random_pregeometry
    geoms = [ssg(4, 3), coseteg_family(FiniteGroup.cyclic(7)).geometry]
    geoms += bundled_geometries
    for k in range(500):
        geoms.append(random_geometry(rng, max_rank=4, max_per_type=3)
                     if k % 2 else random_pregeometry(rng))
    seen = set()
    for geom in geoms:
        if not is_geometry(geom)[0]:
            continue
        diag = basic_diagram(geom)
        for i, j in combinations(range(geom.rank), 2):
            cotype = [t for t in range(geom.rank) if t not in (i, j)]
            flags = flags_of_type(geom, cotype)
            direct = any(not is_generalized_digon(residue(geom, f)[0])
                         for f in flags)
            assert diag.adjacent(i, j) == direct
            seen.add(direct)
    assert seen == {True, False}


def test_is_pure():
    assert is_pure(ssg(4, 3))
    one = Pregeometry(["A", "B"], ["a", "b", "c"], [0, 1, 1], [(0, 1), (0, 2)])
    assert is_pure(one)  # a generalised digon has an empty diagram
    assert is_pure(grid_complement()[0])


def test_direct_sum_k22():
    geom = Pregeometry(["P", "L"], ["p0", "p1", "l0", "l1"], [0, 0, 1, 1],
                       [(0, 2), (0, 3), (1, 2), (1, 3)])
    res = direct_sum_check(geom)
    assert res.applicable and res.ok


def test_direct_sum_affine_quotient():
    geom, trans = affine_geometry(3, 2)
    proj = Projection(geom, orbit_partition(trans, geom))
    q = proj.quotient
    res = direct_sum_check(q)
    assert res.applicable and res.ok
    diag = basic_diagram(q)
    assert not diag.adjacent(0, 1) and not diag.adjacent(0, 2)
    assert diag.adjacent(1, 2)


def test_direct_sum_inapplicable():
    from geoq.constructions import conneg_witness
    res = direct_sum_check(conneg_witness())
    assert not res.applicable and res.ok


def test_direct_sum_random_never_violates(rng):
    from geoq.geometry import is_residually_connected
    hits = 0
    for _ in range(40):
        geom = random_geometry(rng, max_rank=3, max_per_type=3)
        res = direct_sum_check(geom)
        assert res.ok
        hits += res.applicable
    assert hits >= 10


def test_place_tree_flag_rank1():
    geom, action = ssg_symmetric_action(4, 3)
    group = random_subgroup_named(action, 7)
    oq = OrbitQuotient(geom, group)
    k = oq.block_of[0]
    placed = place_tree_flag(oq, (k,), [], oq.quotient.elem_type[k], 0)
    assert placed == {oq.quotient.elem_type[k]: 0}


def random_subgroup_named(action, seed):
    import random
    return random_subgroup(random.Random(seed), action)


def test_place_tree_flag_path():
    geom, action = ssg_symmetric_action(4, 3)
    group = random_subgroup_named(action, 11)
    oq = OrbitQuotient(geom, group)
    for cham in flags_of_type(oq.quotient, range(3)):
        blocks = {oq.quotient.elem_type[k]: k for k in cham}
        root_elem = oq.fiber(blocks[0])[0]
        placed = place_tree_flag(oq, cham, [(0, 1), (1, 2)], 0, root_elem)
        assert geom.incident(placed[0], placed[1])
        assert geom.incident(placed[1], placed[2])


def test_place_tree_flag_star_on_hexagon():
    # tree placement succeeds along the star even though the full chamber
    # does not lift
    geom, group = hexagon()
    oq = OrbitQuotient(geom, group)
    cham = (0, 1, 2)
    assert lift_flag(oq, cham) is None
    placed = place_tree_flag(oq, cham, [(0, 1), (0, 2)], 0, 0)
    assert geom.incident(placed[0], placed[1])
    assert geom.incident(placed[0], placed[2])


def test_place_tree_flag_validates_input():
    geom, group = hexagon()
    oq = OrbitQuotient(geom, group)
    with pytest.raises(ValueError):
        place_tree_flag(oq, (0, 1), [(0, 5)], 0, 0)
    with pytest.raises(ValueError):
        place_tree_flag(oq, (0, 1), [(0, 1)], 2, 0)
    with pytest.raises(ValueError):
        place_tree_flag(oq, (0, 1), [(0, 1)], 0, 4)


def test_lift_chamber_forest_ssg():
    geom, action = ssg_symmetric_action(4, 3)
    for seed in (3, 5, 9):
        group = random_subgroup_named(action, seed)
        oq = OrbitQuotient(geom, group)
        for cham in flags_of_type(oq.quotient, range(3)):
            lifted = lift_chamber_forest(oq, cham)
            assert oq.project_flag(lifted) == cham
            assert lift_flag(oq, cham) is not None


def test_lift_chamber_forest_affine():
    geom, trans = affine_geometry(3, 2)
    oq = OrbitQuotient(geom, trans)
    chams = flags_of_type(oq.quotient, range(3))
    assert len(chams) == 21
    for cham in chams:
        lifted = lift_chamber_forest(oq, cham)
        assert oq.project_flag(lifted) == cham


def test_lift_chamber_forest_rejects_cyclic_diagram():
    geom, part = grid_complement()
    assert not basic_diagram(geom).is_forest()
    swap = Perm([geom.elem("(%d,%d)" % (r, {1: 2, 2: 1}.get(c, c)))
                 for r in range(1, 4) for c in range(1, 4)])
    oq = OrbitQuotient(geom, PermGroup([swap]))
    cham = flags_of_type(oq.quotient, range(3))[0]
    with pytest.raises(ValueError):
        lift_chamber_forest(oq, cham)


def test_star_transitive_and_no_triangle():
    assert star_transitive_on_paths(ssg(4, 3))
    assert no_triangle_check(ssg(4, 3))
    geom, _ = grid_complement()
    assert not star_transitive_on_paths(geom)
    assert no_triangle_check(geom)  # hypotheses fail, vacuously fine
    digon = Pregeometry(["A", "B"], ["a", "b"], [0, 1], [(0, 1)])
    assert star_transitive_on_paths(digon)
    assert no_triangle_check(digon)


def test_two_cover_same_diagram(rng):
    # 2-covers need corank-2 flags, so only ranks >= 3 are in scope
    from geoq.quotient import is_m_cover
    done = 0
    while done < 12:
        geom = random_geometry(rng, max_rank=4, max_per_type=3)
        if geom.rank < 3:
            continue
        done += 1
        big, group = double_cover(geom)
        proj = Projection(big, orbit_partition(group, big))
        assert is_m_cover(proj, 2)[0]
        da = basic_diagram(big)
        db = basic_diagram(proj.quotient)
        assert da.edges == db.edges


def test_nonadjacent_types_stay_nonadjacent_in_residues(rng):
    for _ in range(15):
        geom = random_geometry(rng, max_rank=4, max_per_type=3)
        diag = basic_diagram(geom)
        for x in range(geom.size):
            res, _ = residue(geom, (x,))
            if not is_geometry(res)[0]:
                continue
            rdiag = basic_diagram(res)
            cotypes = [t for t in range(geom.rank)
                       if t != geom.elem_type[x]]
            for a, b in combinations(range(len(cotypes)), 2):
                if not diag.adjacent(cotypes[a], cotypes[b]):
                    assert not rdiag.adjacent(a, b)


def test_chamber_transitive_descends_on_forest_diagram():
    geom, action = ssg_symmetric_action(4, 2)
    assert transitivity(action, geom, "chamber")[0]
    import random
    rng = random.Random(31)
    for _ in range(6):
        sub = random_subgroup(rng, action)
        n = normal_closure(action, sub)
        proj = Projection(geom, orbit_partition(n, geom))
        from geoq.perms import induced_quotient_group
        induced = induced_quotient_group(proj, action)
        assert transitivity(induced, proj.quotient, "chamber")[0]


def test_rank3_noncycle_flag_transitive_quotient_is_ft_geometry():
    # flag-transitive + residually connected + rank-3 path diagram: the
    # normal quotient is again a flag-transitive geometry
    geom, action = ssg_symmetric_action(4, 3)
    diag = basic_diagram(geom)
    assert geom.rank == 3 and diag.is_forest()
    assert transitivity(action, geom, "flag")[0]
    import random
    rng = random.Random(77)
    for _ in range(6):
        sub = random_subgroup(rng, action)
        n = normal_closure(action, sub)
        proj = Projection(geom, orbit_partition(n, geom))
        from geoq.perms import induced_quotient_group
        induced = induced_quotient_group(proj, action)
        assert is_geometry(proj.quotient)[0]
        assert transitivity(induced, proj.quotient, "flag")[0]


def dfs_has_cycle(diag):
    """The depth-first cycle search the diagram ran before its forest
    test became an edge count."""
    seen = set()
    for start in range(diag.rank):
        if start in seen:
            continue
        stack = [(start, None)]
        comp_seen = set()
        while stack:
            x, par = stack.pop()
            if x in comp_seen:
                return True
            comp_seen.add(x)
            for y in diag.neighbours(x):
                if y != par:
                    stack.append((y, x))
        seen |= comp_seen
    return False


def test_forest_test_agrees_with_dfs_on_all_graphs_on_five_vertices():
    pairs = list(combinations(range(5), 2))
    forests = 0
    for mask in range(1 << len(pairs)):
        edges = frozenset(frozenset(p) for i, p in enumerate(pairs)
                          if mask >> i & 1)
        diag = Diagram(5, edges, {})
        cyclic = dfs_has_cycle(diag)
        assert diag.is_forest() == (not cyclic)
        forests += not cyclic
    assert forests == 291  # labelled forests on 5 vertices
