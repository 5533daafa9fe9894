"""Self-tests of the benchmark.  Run with: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
ENV.pop("GEOQ_SEED", None)

# Cheap commands covering every layer: the wreath axiom table, and a
# reproduce subset that reaches lemmas, diagram and the lift search.
REPRODUCE_SMALL = ["--machine", "reproduce", "hexagon", "lemma-suites",
                   "--count", "8"]


def child(args, env_extra=None):
    return subprocess.run([sys.executable, str(HERE / "child.py")] + args,
                          env=dict(ENV, **(env_extra or {})),
                          capture_output=True, text=True, timeout=120)


def write_wreath(tmp_path, seed):
    geo_text, grp_text = workloads.axioms_texts(workloads.wreath_lift, seed)
    geo, grp = tmp_path / ("w%d.geo" % seed), tmp_path / ("w%d.grp" % seed)
    geo.write_text(geo_text)
    grp.write_text(grp_text)
    return [str(geo), str(grp)]


def traced(tmp_path, args, env_extra=None, tag="t"):
    stats = tmp_path / ("%s.json" % tag)
    proc = child(["traced", str(stats)] + args, env_extra)
    return proc, json.loads(stats.read_text())


def test_every_target_is_rebound_in_every_namespace():
    tracer.load_geoq_modules()
    spaces = tracer.geoq_namespaces()
    holders = {}
    for mod, names in tracer.TARGETS.items():
        for attr in names:
            original = getattr(sys.modules["geoq." + mod], attr)
            if isinstance(original, type):  # timed through its constructor
                holders[(mod, attr)] = (original.__init__,
                                        [(original, "__init__")])
                continue
            holders[(mod, attr)] = (original, [
                (space, key) for space in spaces
                for key, value in vars(space).items() if value is original])
    users = {space.__name__ for space, _ in
             holders[("geometry", "all_flags")][1]}
    assert {"geoq.geometry", "geoq.quotient", "geoq.lemmas",
            "geoq.cli"} <= users
    t = tracer.Tracer()
    t.install()
    try:
        for (mod, attr), (original, places) in holders.items():
            assert places, (mod, attr)
            for space, key in places:
                bound = getattr(space, key)
                assert getattr(bound, "__wrapped__", None) is original, \
                    "%s.%s not rebound in %s" % (mod, attr, space.__name__)
            for space in spaces:
                assert all(v is not original for v in vars(space).values())
    finally:
        t.uninstall()
    for (mod, attr), (original, places) in holders.items():
        for space, key in places:
            assert getattr(space, key) is original


@pytest.mark.parametrize("workload", ["wreath", "reproduce"])
def test_layer_counts_repeat_and_answers_match_untraced(tmp_path, workload):
    if workload == "wreath":
        args = ["--machine", "axioms"] + write_wreath(tmp_path, 1)
        env = {}
    else:
        args, env = REPRODUCE_SMALL, {"GEOQ_SEED": "7"}
    plain = child(["cli"] + args, env)
    one, m1 = traced(tmp_path, args, env, "a")
    two, m2 = traced(tmp_path, args, env, "b")
    for proc in (one, two):
        assert (proc.returncode, proc.stdout) == (plain.returncode,
                                                  plain.stdout)
    counts = {k for k in m1 if run.layer_unit(k) != "s"}
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert m1["cli.main.calls"] == 1
    if workload == "reproduce":
        for name in ("geometry.all_flags", "diagram.lift_chamber_forest",
                     "lemmas.random_orbit_quotient", "perms.mulclose"):
            assert m1[name + ".calls"] > 0, name


def test_self_time_is_busy_time_minus_children(tmp_path):
    args = ["--machine", "axioms"] + write_wreath(tmp_path, 0)
    _, m = traced(tmp_path, args)
    for name in tracer.target_names():
        assert -1e-6 <= m[name + ".self_s"] <= m[name + ".busy_s"] + 1e-6
    # The axiom table is one command: everything else nests in cli.main.
    assert m["cli.main.busy_s"] >= m["axioms.check_TQ2doubleprime.busy_s"]
    assert m["perms.stabilizer.scanned"] == (
        m["perms.stabilizer.calls"] * 1296)


def test_all_flags_stays_lazy():
    from geoq.geometry import Pregeometry
    import geoq.geometry
    t = tracer.Tracer()
    t.install()
    try:
        geom = Pregeometry(["a", "b"], ["x", "y"], [0, 1], [(0, 1)])
        it = geoq.geometry.all_flags(geom)
        assert next(it) == ()
        it.close()
    finally:
        t.uninstall()
    assert t.stats["geometry.all_flags"].calls == 1
    assert t.stats["geometry.all_flags"].counts["flags"] == 1


def test_relabelling_keeps_answers_and_size(tmp_path):
    seeds = (0, 1, 2, 3)
    seen = set()
    for seed in seeds:
        geo_text, grp_text = workloads.axioms_texts(workloads.wreath_lift,
                                                    seed)
        assert workloads.fingerprint(geo_text, grp_text) == (36, 145, 1296)
        seen.add(geo_text)
        proc = child(["cli", "--machine", "axioms"]
                     + write_wreath(tmp_path, seed))
        assert proc.returncode == workloads.AXIOMS_EXIT
        assert proc.stdout == workloads.AXIOMS_OUTPUT
    assert len(seen) == len(seeds)  # the relabelling did change the file


def test_wrong_size_is_refused(tmp_path):
    wrong = workloads.AxiomsWorkload("x", "", workloads.wreath_lift,
                                     (36, 145, 1), inputs=2)
    with pytest.raises(workloads.Refused):
        wrong.prepare(tmp_path, 0)
    assert not list(tmp_path.iterdir())


def test_a_run_takes_distinct_inputs_from_its_seed(tmp_path):
    wreath = workloads.WORKLOADS["axioms-wreath"]
    texts = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        jobs = wreath.prepare(tmp_path / name, 3)
        texts.append([Path(job.cli_args[2]).read_text() for job in jobs])
    assert len(texts[0]) == wreath.inputs == len(set(texts[0]))
    assert texts[0] == texts[1]  # the same seed gives the same inputs
    seeds = [job.env["GEOQ_SEED"] for job in
             workloads.WORKLOADS["reproduce"].prepare(tmp_path, 3)]
    assert len(set(seeds)) == len(seeds) == workloads.REPRODUCE_INPUTS


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    t = tracer.Tracer()
    printed = list(t.metrics()) + ["trace_overhead"]
    assert [m["name"] for m in spec["per_layer"]] == printed
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "axioms-wreath",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in ENV.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
