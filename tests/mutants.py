"""The mutation table: one-line faults in src/geoq that the tests must
keep catching.

Each row of MUTANTS names a module of src/geoq, an exact snippet of it,
the snippet's replacement, and the test files (or file::test ids) that
should fail once the replacement is made: the mutant is then killed.  A
row with a reason in `equivalent` is a mutant that changes no answer;
it is checked for staleness but not run.

    python tests/mutants.py [ID ...]

copies src/geoq to a temporary directory for each mutant (all of them,
or the ids given), applies it, and runs its test files there with
`pytest -x`.  Each mutant is reported killed, survived, stale (its
snippet no longer occurs exactly once) or, when pytest itself could not
run, error; the exit status is 1 unless every row is killed or
equivalent.  tests/test_mutants.py checks that the table is well
formed without running a mutant.  A change that rewrites a mutated line
replaces its row.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "geoq"

Mutant = namedtuple("Mutant", "id module snippet replacement tests equivalent",
                    defaults=(None,))

Q, A = "tests/test_quotient.py", "tests/test_axioms.py"
M, G = "tests/test_masks.py", "tests/test_geometry.py"
SCENARIOS = "tests/test_acceptance.py::test_scenario"

MUTANTS = (
    # the rank slices the quotient and geometry deciders scan
    Mutant("cover-rank", "quotient",
           "is_m_cover(proj, proj.source.rank - 1)[0]",
           "is_m_cover(proj, proj.source.rank - 2)[0]", (Q,)),
    Mutant("cover-row-rank", "axioms",
           "else is_m_cover(q, q.source.rank - 1)",
           "else is_m_cover(q, max(q.source.rank - 2, 0))", (Q,)),
    Mutant("m-cover-slice-rank", "quotient",
           "_rank_slice(proj.leaders, rank - m)",
           "_rank_slice(proj.leaders, rank - m + 1)", (Q,)),
    Mutant("m-cover-first-leader", "quotient",
           "_rank_slice(proj.leaders, rank - m)",
           "_rank_slice(proj.leaders, rank - m)[:1]", (Q,)),
    Mutant("pq2-slice", "quotient",
           "_rank_slice(proj.leaders, proj.source.rank - 1)",
           "_rank_slice(proj.leaders, proj.source.rank - 2)", (Q,)),
    Mutant("corank1-surjective-slice", "quotient",
           "_unextended(proj, _rank_slice(proj.leaders, 1))",
           "_unextended(proj, _rank_slice(proj.leaders, 1)[1:])", (Q,)),
    Mutant("corank1-injective-slice", "quotient",
           "for (x,) in _rank_slice(proj.leaders, 1))",
           "for (x,) in _rank_slice(proj.leaders, 1)[1:])", (Q,)),
    Mutant("total-order-slice", "quotient",
           "for (x,) in _rank_slice(proj.leaders, 1):",
           "for (x,) in _rank_slice(proj.leaders, 1)[:-1]:", (Q,)),
    Mutant("tq2doubleprime-slice", "axioms",
           "for pair in _rank_slice(leaders, 2)]",
           "for pair in _rank_slice(leaders, 2)[:-1]]", (A,)),
    Mutant("tq2doubleprime-first-pair-orbit", "axioms",
           "for pair in _rank_slice(leaders, 2)]",
           "for pair in _rank_slice(leaders, 2)[1:]]", (A,)),
    Mutant("tq2doubleprime-orbit-index", "axioms",
           "[(orbit_of[pair], pair)\n                   for pair in "
           "_rank_slice(leaders, 2)]",
           "list(enumerate(_rank_slice(leaders, 2)))", (A,)),
    Mutant("residually-connected-prefix", "geometry",
           "_rank_slice(flags_by_rank_lex(geom), 0, geom.rank - 2)",
           "_rank_slice(flags_by_rank_lex(geom), 0, geom.rank - 1)", (G,)),
    Mutant("residually-connected-from-rank1", "geometry",
           "_rank_slice(flags_by_rank_lex(geom), 0, geom.rank - 2)",
           "_rank_slice(flags_by_rank_lex(geom), 1, geom.rank - 2)", (G,)),
    Mutant("chambers-slice", "geometry",
           "_rank_slice(flags_by_rank_lex(geom), geom.rank - 1)",
           "_rank_slice(flags_by_rank_lex(geom), geom.rank - 2)",
           (G, SCENARIOS)),
    Mutant("rank-slice-left", "geometry",
           "flags[bisect_left(flags, low, key=len):",
           "flags[bisect_left(flags, low - 1, key=len):", (Q,)),
    Mutant("rank-slice-right", "geometry",
           "bisect_right(flags, low if high is None else high, key=len)]",
           "bisect_left(flags, low if high is None else high, key=len)]",
           (G,)),
    # axioms
    Mutant("tq3-bound", "axioms", "return oq.block_distance >= 4",
           "return oq.block_distance >= 3", (A,)),
    Mutant("tq2prime-skips-rank1", "axioms", "for flag in leaders[1:]:",
           "for flag in leaders[2:]:", (A,)),
    Mutant("tq2prime-last-member", "axioms",
           "first = orbit_of[_plus(flag, xs[0])]",
           "first = orbit_of[_plus(flag, xs[-1])]", (A,)),
    Mutant("tq2doubleprime-reflexive", "axioms",
           "touch &= masks[x] | 1 << x", "touch &= masks[x]", (A,)),
    Mutant("tq2doubleprime-one-end", "axioms",
           "block_of[a] in met and block_of[b] in met",
           "block_of[a] in met", (A,)),
    Mutant("tq1-element-classes", "axioms",
           "orbits.setdefault(orbit_of[_plus(flag, x)], [])",
           "orbits.setdefault(x, [])", (A,)),
    Mutant("block-distance-depth", "axioms",
           "stop=near, depth=best - 2)", "stop=near, depth=best - 3)", (A,)),
    # quotient
    Mutant("pq2-empty-residue", "quotient",
           "if not ext or not ext & ~proj.inside",
           "if ext and not ext & ~proj.inside", (M,)),
    Mutant("flagslift-from-rank4", "quotient",
           "for r in range(3, proj.quotient.rank + 1):",
           "for r in range(4, proj.quotient.rank + 1):", (Q,)),
    Mutant("unlifted-max", "quotient", "return min(unlifted, default=None)",
           "return max(unlifted, default=None)", (Q,)),
    Mutant("residue-map-incidence", "quotient",
           "if met != qmasks[k] & target:",
           "if met != qmasks[k] & target and False:", (Q,)),
    Mutant("pq1-last-block", "quotient",
           "for k in bits(qext):\n            if not ext & proj.inside[k]:",
           "for k in bits(qext)[:-1]:\n            if not ext & proj.inside[k]:",
           (Q,)),
    Mutant("total-order-downward", "quotient",
           "if pos[src.elem_type[y]] > px]",
           "if pos[src.elem_type[y]] < px]", (Q,)),
    Mutant("total-order-upward-or-level", "quotient",
           "if pos[src.elem_type[y]] > px]",
           "if pos[src.elem_type[y]] >= px]", (Q,),
           equivalent="y of x's own type is never incident with x, since a "
                      "projection refuses a same-type incidence"),
    Mutant("corank1-injective-loose", "quotient",
           "== masks[x].bit_count()", ">= masks[x].bit_count() - 1", (Q,)),
    Mutant("block-distance-stop", "quotient", "if 2 * du >= best:",
           "if 2 * du > best + 1:", (Q,),
           equivalent="a weaker early stop only searches further: the "
                      "least sum is found either way"),
    # geometry
    Mutant("firm-bound", "geometry",
           "return corank1_chambers_at_least(geom, 2)",
           "return corank1_chambers_at_least(geom, 1)", (G, SCENARIOS)),
    # perms
    Mutant("union-find-swap", "perms",
           "            if a > b:\n                a, b = b, a\n", "",
           ("tests/test_perms.py",)),
    Mutant("transitivity-last-leaders", "perms",
           "return False, tuple(leaders[s][:2])",
           "return False, tuple(leaders[s][-2:])", ("tests/test_perms.py",)),
    Mutant("stabilizer-short", "perms", "chain.strong_gens(len(flag))",
           "chain.strong_gens(len(flag) - 1)", ("tests/test_perms.py",)),
    Mutant("induced-group-unchecked", "perms", "if len(targets) != 1:",
           "if not targets:", ("tests/test_perms.py",)),
    Mutant("normal-closure-first-generator", "perms",
           "conjugators = [(g.inv(), g) for g in group.gens]",
           "conjugators = [(g.inv(), g) for g in group.gens[:1]]",
           ("tests/test_perms.py",)),
    # cosets
    Mutant("coset-incidence-transitivity", "cosets",
           'ok, w = transitivity(group, geom, "incidence")',
           "ok, w = True, None", ("tests/test_cosets.py",)),
    # diagram
    Mutant("digon-reads-type-i-twice", "diagram",
           "[y for y in members if et[y] == j]",
           "[y for y in members if et[y] == i]", ("tests/test_diagram.py", M)),
    Mutant("forest-counts-cycles", "diagram",
           "return len(self.edges) == self.rank - len(self.components())",
           "return len(self.edges) >= self.rank - len(self.components())",
           ("tests/test_diagram.py",)),
    # lemmas
    Mutant("distance4-cover-bound", "lemmas",
           "nonvacuous = int(corank1_surjective(proj) and d >= 4)",
           "nonvacuous = int(corank1_surjective(proj) and d > 4)",
           ("tests/test_cli.py::test_lemma_suite_counts_are_pinned",)),
    Mutant("orbit-quotient-geometry-unchecked", "lemmas",
           "if need_geometry and not is_geometry(geom)[0]:",
           "if False:", ("tests/test_properties.py",)),
)


def occurrences(mutant):
    """How often the mutant's snippet occurs in today's source."""
    return (SRC / (mutant.module + ".py")).read_text().count(mutant.snippet)


def run(mutant):
    """'killed', 'survived', 'stale' or 'error N': the mutant applied to
    a copy of src/geoq, its test files run there with -x."""
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "geoq"
        shutil.copytree(SRC, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / (mutant.module + ".py")
        path.write_text(path.read_text().replace(mutant.snippet,
                                                 mutant.replacement))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
    # 1: a test failed; 2: a test file failed to import the mutant
    return "survived" if code == 0 else "killed" if code in (1, 2) else (
        "error %d" % code)


def main(ids):
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        raise SystemExit("unknown mutant id: %s" % sorted(unknown))
    rows = [m for m in MUTANTS if not ids or m.id in ids]
    bad = 0
    for mutant in rows:
        t0 = time.perf_counter()
        if mutant.equivalent:
            status = "stale" if occurrences(mutant) != 1 else "equivalent"
        else:
            status = run(mutant)
        bad += status not in ("killed", "equivalent")
        print("%-34s %-10s %5.1fs" % (mutant.id, status,
                                      time.perf_counter() - t0), flush=True)
    print("%d mutants, %d not killed" % (len(rows), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
