"""
Executable reproduction scenarios: each one rebuilds a worked example and
asserts its known behaviour exactly (no tolerances), returning a
line-oriented report.  The same scenarios back the command-line
`reproduce` command and the acceptance test suite.
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations

from .axioms import OrbitQuotient, check_TQ1, check_TQ2prime
from .cosets import FiniteGroup, coseteg_family, product_condition, rank2_connectivity
from .constructions import (SimpleGraph, blowup_group, blowup_projection,
                            eight_cycle, fano_plane, grid_complement,
                            hexagon, isomorphic, multipartite_geometry,
                            shadowable_lift, ssg_symmetric_action,
                            conneg_witness, flnotpq1_witness, affine_geometry)
from .diagram import _Record, basic_diagram
from .io import format_geometry, format_group, format_partition
from .geometry import (Pregeometry, chamber_count_through,
                       components, corank1_chambers_at_least, extensions,
                       incidence_distance, is_connected, is_firm, is_flag,
                       is_generalized_digon, is_geometry,
                       is_residually_connected, truncation, validate)
from .perms import (Perm, PermGroup, induced_quotient_group, orbit_partition,
                    orbits_on, stabilizer, transitivity)
from .quotient import (Projection, check_flagslift, is_cover,
                       is_incidence_graph_cover, min_block_distance,
                       residual_surjectivity, total_order_flagslift)


class Report(_Record):
    def __init__(self, name, ok=True, lines=None, notes=None, elapsed=0.0):
        self.name = name
        self.ok = ok
        self.lines = [] if lines is None else lines
        self.notes = [] if notes is None else notes
        self.elapsed = elapsed

    def expect(self, key, got, want):
        good = got == want
        self.lines.append((key, got, want, good))
        if not good:
            self.ok = False

    def note(self, text):
        self.notes.append(text)

    def render(self, machine=False):
        out = []
        lines = sorted(self.lines) if machine else self.lines
        for key, got, want, good in lines:
            if machine:
                out.append("%s.%s=%s" % (self.name, key, got))
            else:
                mark = "ok" if good else "FAIL (want %r)" % (want,)
                out.append("  %-46s %-18r %s" % (key, got, mark))
        for note in self.notes:
            prefix = "%s.note=" % self.name if machine else "  note: "
            out.append(prefix + note)
        return out


def scenario_hexagon():
    rep = Report("hexagon")
    geom, group = hexagon()
    rep.expect("validate", validate(geom), None)
    rep.expect("is-geometry", is_geometry(geom)[0], False)
    part = orbit_partition(group, geom)
    proj = Projection(geom, part)
    q = proj.quotient
    rep.expect("min-block-distance", min_block_distance(geom, part), 3)
    rep.expect("is-cover", is_cover(proj), False)
    rep.expect("quotient-is-3-cycle",
               (q.size, sum(map(int.bit_count, q.masks)) // 2,
                all(q.incident(a, b) for a in range(3) for b in range(3))),
               (3, 3, True))
    fl, witness = check_flagslift(proj)
    rep.expect("flagslift", fl, False)
    rep.expect("flagslift-witness-rank", len(witness or ()), 3)
    rep.expect("flag-transitive-source",
               transitivity(group, geom, "flag")[0], True)
    gq = induced_quotient_group(proj, group)
    rep.expect("flag-transitive-quotient",
               transitivity(gq, q, "flag")[0], True)
    rep.expect("antipodal-distance", incidence_distance(geom, 0, 3), 3)
    return rep


def _coset_scenario(n):
    rep = Report("coseteg-z%d" % n)
    fam = coseteg_family(FiniteGroup.cyclic(n))
    geom = fam.geometry
    G1, G2, G3, G4 = fam.subgroups
    rep.expect("coset-counts", tuple(len(v) for v in geom.by_type),
               (n * n, n * n, n * n, n ** 3))
    rep.expect("is-geometry", is_geometry(geom)[0], True)
    conds = (product_condition(fam.G, G1, [G2, G3]),
             product_condition(fam.G, G1, [G2, G4]),
             product_condition(fam.G, G1, [G3, G4]),
             product_condition(fam.G, G2, [G3, G4]),
             product_condition(fam.G, G1, [G2, G3, G4]))
    rep.expect("five-product-conditions", conds, (True,) * 5)
    act = fam.action_group()
    rep.expect("flag-transitive", transitivity(act, geom, "flag")[0], True)
    rep.expect("chamber-orbits",
               transitivity(act, geom, "chamber")[0], True)
    rep.expect("rank2-truncations-disconnected",
               tuple(rank2_connectivity(fam.G, a, b)
                     for a, b in combinations(fam.subgroups, 2)),
               (False,) * 6)
    nact = fam.n_action_group()
    part = orbit_partition(nact, geom)
    proj = Projection(geom, part)
    ok, w = is_geometry(proj.quotient)
    rep.expect("normal-quotient-geometry", ok, False)
    wtypes = tuple(sorted(proj.quotient.type_names[proj.quotient.elem_type[x]]
                          for x in (w or ())))
    rep.expect("witness-type", wtypes, ("G1", "G2", "G3"))
    # the distinguished witness flag: blocks of G1, G2 and G3*(a,b,b), a != b
    a, b = 1 % n, 0
    g = fam.element(a, b, b)
    coset3 = fam.cg.coset_of[2][g]
    qflag = tuple(sorted({part.block_of[geom.by_type[0][0]],
                          part.block_of[geom.by_type[1][0]],
                          part.block_of[coset3]}))
    rep.expect("paper-flag-is-flag", is_flag(proj.quotient, qflag), True)
    rep.expect("paper-flag-chambers",
               chamber_count_through(proj.quotient, qflag), 0)
    # rank-3 truncation
    sgeom, scg = fam.truncation3()
    snact = scg.action_group(fam.N.members)
    spart = orbit_partition(snact, sgeom)
    sproj = Projection(sgeom, spart)
    rep.expect("sigma-quotient-geometry", is_geometry(sproj.quotient)[0], True)
    rep.expect("sigma-flagslift", check_flagslift(sproj)[0], False)
    sact = scg.action_group()
    rep.expect("sigma-flag-transitive", transitivity(sact, sgeom, "flag")[0], True)
    sgq = induced_quotient_group(sproj, sact)
    rep.expect("sigma-quotient-flag-transitive",
               transitivity(sgq, sproj.quotient, "flag")[0], False)
    return rep


def scenario_affine():
    rep = Report("affine-3-2")
    geom, trans = affine_geometry(3, 2)
    rep.expect("element-counts", tuple(len(v) for v in geom.by_type), (8, 28, 14))
    part = orbit_partition(trans, geom)
    by_type = {}
    for block in part.blocks:
        t = geom.elem_type[block[0]]
        by_type.setdefault(t, []).append(len(block))
    rep.expect("orbit-counts",
               tuple(len(by_type[t]) for t in range(3)), (1, 7, 7))
    rep.expect("orbit-lengths",
               tuple(tuple(sorted(set(by_type[t]))) for t in range(3)),
               ((8,), (4,), (2,)))
    # the printed length formula at i=1 equals the number of lines, not the
    # translation orbit length; record both rather than asserting it
    q, d = 2, 3
    formula_i1 = (q ** (d - 1) * (q ** d - 1)) // (q - 1)
    rep.expect("formula-value-i1-equals-line-count", formula_i1,
               len(geom.by_type[1]))
    rep.note("printed orbit-length formula gives %d at i=1; actual orbit "
             "length is %d (count of lines vs translates)" % (formula_i1, 4))
    proj = Projection(geom, part)
    qg = proj.quotient
    rep.expect("point-block-incident-to-all",
               all(qg.incident(0, k) for k in range(qg.size)), True)
    rep.expect("is-cover", is_cover(proj), False)
    rep.expect("total-order-flagslift",
               total_order_flagslift(proj, [0, 1, 2]), True)
    rep.expect("quotient-geometry", is_geometry(qg)[0], True)
    rep.expect("fano-isomorphic",
               isomorphic(truncation(qg, [1, 2]), fano_plane())[0], True)
    return rep


def scenario_notfirm():
    rep = Report("notfirm-multipartite")
    geom, ngrp, ggrp = multipartite_geometry(2, 4, 2)
    rep.expect("is-geometry", is_geometry(geom)[0], True)
    rep.expect("is-firm", is_firm(geom)[0], True)
    ve = tuple(sorted((geom.elem("v0.0"), geom.elem("{v0.0,v1.0}"))))
    ek = tuple(sorted((geom.elem("{v0.0,v1.0}"),
                       geom.elem("K{v0.0,v0.1|v1.0,v1.1}"))))
    vk = tuple(sorted((geom.elem("v0.0"),
                       geom.elem("K{v0.0,v0.1|v1.0,v1.1}"))))
    rep.expect("chambers-through-vertex-edge",
               chamber_count_through(geom, ve), 9)
    rep.expect("chambers-through-edge-K", chamber_count_through(geom, ek), 2)
    rep.expect("chambers-through-vertex-K", chamber_count_through(geom, vk), 2)
    rep.expect("edge-K-components-m2",
               len(components(truncation(geom, [1, 2]))), 1)
    g3, _, _ = multipartite_geometry(3, 4, 2)
    rep.expect("edge-K-components-m3",
               len(components(truncation(g3, [1, 2]))), 3)
    part = orbit_partition(ngrp, geom)
    proj = Projection(geom, part)
    rep.expect("quotient-geometry", is_geometry(proj.quotient)[0], True)
    rep.expect("quotient-firm", is_firm(proj.quotient)[0], False)
    rep.expect("flag-transitive", transitivity(ggrp, geom, "flag")[0], True)
    return rep


def scenario_grid():
    rep = Report("grid-complement")
    geom, part = grid_complement()
    rep.expect("is-geometry", is_geometry(geom)[0], True)
    rep.expect("rank2-truncations-connected",
               tuple(is_connected(truncation(geom, J))
                     for J in combinations(range(3), 2)),
               (True,) * 3)
    proj = Projection(geom, part)
    q = proj.quotient
    flag = tuple(sorted((q.elem("{(1,1),(1,2)}"), q.elem("{(2,3)}"))))
    rep.expect("quotient-flag-chambers", chamber_count_through(q, flag), 1)
    return rep


def scenario_eightcycle():
    rep = Report("eightcycle")
    geom, group = eight_cycle()
    rep.expect("is-firm", is_firm(geom)[0], True)
    rep.expect("residually-connected", is_residually_connected(geom)[0], True)
    rep.expect("diagram-edges", len(basic_diagram(geom).edges), 1)
    part = orbit_partition(group, geom)
    proj = Projection(geom, part)
    q = proj.quotient
    rep.expect("quotient-sizes", tuple(len(v) for v in q.by_type), (2, 2))
    rep.expect("quotient-digon", is_generalized_digon(q), True)
    rep.expect("quotient-diagram-edges", len(basic_diagram(q).edges), 0)
    rep.expect("min-block-distance", min_block_distance(geom, part), 4)
    return rep


def scenario_lemma_suites(count=200, seed=None):
    from .lemmas import run_all_suites
    rep = Report("lemma-suites")
    for res in run_all_suites(seed=seed, count=count):
        key = "%s[checked=%d,nonvacuous=%d]" % (res.name, res.checked,
                                                res.nonvacuous)
        rep.expect(key, (res.checked >= count, len(res.violations)), (True, 0))
    return rep


def _ordered_clique_transitive(graph, group, size):
    tuples = sorted({t for c in graph.cliques_of_size(size)
                     for t in permutations(c)})
    return len(orbits_on(group.gens, tuples,
                         lambda g, t: tuple(g[x] for x in t))) <= 1


def scenario_blowup():
    rep = Report("blowup")
    graphs = [("K2", SimpleGraph.complete(2)),
              ("K3", SimpleGraph.complete(3)),
              ("P3", SimpleGraph.path(3)),
              ("2K2", SimpleGraph.matching(2)),
              ("C5", SimpleGraph.cycle(5))]
    for v, k in ((3, 2), (4, 3)):
        parent, gact = ssg_symmetric_action(v, k)
        n = parent.rank
        for gname, graph in graphs:
            tag = "ssg(%d,%d)x%s" % (v, k, gname)
            big, proj = blowup_projection(parent, graph)
            # (1) connectivity is implied by connected non-bipartite graphs
            if graph.is_connected() and not graph.is_bipartite():
                rep.expect(tag + ".connected", is_connected(big), True)
            # (2) the neighbour bijection holds exactly for matchings
            rep.expect(tag + ".graph-cover",
                       is_incidence_graph_cover(proj), graph.is_matching())
            if n == 2:
                rep.expect(tag + ".cover", is_cover(proj), graph.is_matching())
            elif graph.is_matching():
                rep.expect(tag + ".cover-strict-rank3", is_cover(proj), False)
            # (3) geometry iff small cliques extend to n-cliques
            ncliques = [set(c) for c in graph.cliques_of_size(n)]
            pred3 = all(any(set(c) <= big_c for big_c in ncliques)
                        for r in range(n + 1)
                        for c in graph.cliques_of_size(r))
            rep.expect(tag + ".geometry", is_geometry(big)[0], pred3)
            # (4) firmness via the clique counts
            pred4a = is_firm(parent)[0] and bool(ncliques)
            pred4b = all(sum(1 for big_c in ncliques if set(c) <= big_c) >= 2
                         for r in range(n) for c in graph.cliques_of_size(r))
            rep.expect(tag + ".firm", corank1_chambers_at_least(big, 2)[0],
                       pred4a or pred4b)
            # (5) flag-transitivity of the product action
            H = graph.automorphisms()
            GH = blowup_group(parent, graph, gact, H)
            pred5 = (transitivity(gact, parent, "flag")[0]
                     and all(_ordered_clique_transitive(graph, H, i)
                             for i in range(1, n + 1)))
            rep.expect(tag + ".flag-transitive",
                       transitivity(GH, big, "flag")[0], pred5)
            # the base is the quotient by the fibres
            rep.expect(tag + ".quotient-is-base",
                       isomorphic(proj.quotient, parent)[0], True)
    rep.note("for rank-3 bases a matching gives the neighbour bijection but "
             "not a residue isomorphism (fibre residues are anticliques), so "
             "the strict cover fails there; recorded, not asserted")
    return rep


def scenario_liftshadowable():
    rep = Report("liftshadowable")
    parent, s3 = ssg_symmetric_action(3, 2)
    lift = shadowable_lift(parent, 3, 2)
    big = lift.geometry
    rep.expect("sizes", tuple(len(v) for v in big.by_type), (9, 27))
    rep.expect("is-geometry", is_geometry(big)[0], True)
    wr = lift.wreath_group(s3)
    rep.expect("wreath-order", wr.order(), 1296)
    rep.expect("wreath-flag-transitive", transitivity(wr, big, "flag")[0], True)
    ngrp = lift.base_group()
    rep.expect("base-group-order", ngrp.order(), 216)
    part = orbit_partition(ngrp, big)
    proj = Projection(big, part)
    rep.expect("quotient-isomorphic-to-parent",
               isomorphic(proj.quotient, parent)[0], True)
    return rep


def tq1_counterexample():
    """Rank-3 geometry with two elements per type, all cross-type pairs
    incident, and the group generated by the two double swaps."""
    geom = Pregeometry(
        ["0", "1", "2"],
        ["a0", "b0", "a1", "b1", "a2", "b2"],
        [0, 0, 1, 1, 2, 2],
        [(i, j) for i in range(6) for j in range(i + 1, 6) if i // 2 != j // 2])
    group = PermGroup([Perm.from_cycles(6, [(0, 1), (2, 3)]),
                       Perm.from_cycles(6, [(0, 1), (4, 5)])])
    return geom, group


def scenario_tq1_vs_ressurj():
    rep = Report("tq1-vs-residual-surjectivity")
    geom, group = tq1_counterexample()
    rep.expect("is-geometry", is_geometry(geom)[0], True)
    rep.expect("is-firm", is_firm(geom)[0], True)
    rep.expect("residually-connected", is_residually_connected(geom)[0], True)
    rep.expect("group-order", group.order(), 4)
    oq = OrbitQuotient(geom, group)
    rep.expect("residually-surjective", residual_surjectivity(oq), True)
    rep.expect("tq2prime", check_TQ2prime(oq)[0], False)
    rep.expect("tq1", check_TQ1(oq)[0], False)
    # the distinguished witness flag {a1, a2} of type {1, 2}
    flag = (geom.elem("a1"), geom.elem("a2"))
    stab = stabilizer(group, flag)
    rep.expect("stabilizer-trivial", stab.order(), 1)
    res_members = extensions(geom, flag)
    rep.expect("residue-size", len(res_members), 2)
    rep.expect("residue-single-block",
               len({oq.block_of[x] for x in res_members}), 1)
    rep.expect("stabilizer-orbits-in-residue",
               len(orbits_on(stab.gens, res_members, Perm.__getitem__)), 2)
    return rep


GOLDEN_FILES = {
    "hexagon.geo": lambda: format_geometry(hexagon()[0]),
    "hexagon.grp": lambda: format_group(hexagon()[1], hexagon()[0]),
    "eightcycle.geo": lambda: format_geometry(eight_cycle()[0]),
    "eightcycle.grp": lambda: format_group(eight_cycle()[1],
                                           eight_cycle()[0]),
    "conneg.geo": lambda: format_geometry(conneg_witness()),
    "flnotpq1.geo": lambda: format_geometry(flnotpq1_witness()[0]),
    "flnotpq1.part": lambda: format_partition(*flnotpq1_witness()[::-1]),
    "grid-complement.geo": lambda: format_geometry(grid_complement()[0]),
    "grid-complement.part": lambda: format_partition(
        *grid_complement()[::-1]),
    "multipartite-2-4-2.geo": lambda: format_geometry(
        multipartite_geometry(2, 4, 2)[0]),
    "coseteg-2.geo": lambda: format_geometry(_coseteg2().geometry),
    "coseteg-2.grp": lambda: format_group(_coseteg2().action_group(),
                                          _coseteg2().geometry),
    "coseteg-2-n.grp": lambda: format_group(_coseteg2().n_action_group(),
                                            _coseteg2().geometry),
}


@functools.cache
def _coseteg2():
    return coseteg_family(FiniteGroup.cyclic(2))


def golden_text(name):
    from importlib.resources import files
    return files("geoq").joinpath("data", name).read_text()


def scenario_goldens():
    import difflib
    rep = Report("goldens")
    for name, producer in sorted(GOLDEN_FILES.items()):
        want = producer()
        try:
            got = golden_text(name)
        except FileNotFoundError:
            rep.expect(name, "missing", "present")
            continue
        rep.expect(name, "match" if got == want else "differs", "match")
        if got != want:
            for line in difflib.unified_diff(want.splitlines(),
                                             got.splitlines(),
                                             "generated", name, lineterm=""):
                rep.note(line)
    return rep


SCENARIOS = [
    ("hexagon", scenario_hexagon),
    ("coseteg-z2", functools.partial(_coset_scenario, 2)),
    ("coseteg-z3", functools.partial(_coset_scenario, 3)),
    ("affine-3-2", scenario_affine),
    ("notfirm-multipartite", scenario_notfirm),
    ("grid-complement", scenario_grid),
    ("eightcycle", scenario_eightcycle),
    ("lemma-suites", scenario_lemma_suites),
    ("blowup", scenario_blowup),
    ("liftshadowable", scenario_liftshadowable),
    ("tq1-vs-residual-surjectivity", scenario_tq1_vs_ressurj),
    ("goldens", scenario_goldens),
]


def run_scenarios(names=None, count=200, seed=None):
    chosen = SCENARIOS if not names else [
        (n, f) for n, f in SCENARIOS if n in set(names)]
    if names:
        unknown = set(names) - {n for n, _ in SCENARIOS}
        if unknown:
            raise ValueError("unknown scenario(s): %s" % ", ".join(sorted(unknown)))
    import time
    reports = []
    for name, func in chosen:
        t0 = time.time()
        if name == "lemma-suites":
            rep = func(count=count, seed=seed)
        else:
            rep = func()
        rep.elapsed = time.time() - t0
        reports.append(rep)
    return reports
