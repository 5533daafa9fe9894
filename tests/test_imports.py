"""Each command loads only the modules it runs, and the package exports
every name it had, less two deleted ones that repeated another
(`axioms_report`, the dict form of `decider_rows`, and
`rank3_ft_condition`, `product_condition` with two subgroups) and six
that only tests reached (`check_jflags_lift`, `multicover_array`,
`direct_sum_check`, `is_pure`, `star_transitive_on_paths` and
`no_triangle_check`).  The loading tests run a fresh interpreter,
since the test process itself has imported the whole package.  The
records, now the stdlib's namedtuple and SimpleNamespace, keep the
behaviour they had as dataclasses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geoq
from geoq.diagram import Diagram
from geoq.lemmas import SuiteResult
from geoq.reproduce import Report

SRC = Path(geoq.__file__).resolve().parent.parent
DATA = SRC / "geoq" / "data"

# every name the package exported when it imported all of its modules,
# less the eight deleted ones
EXPORTS = {
    "geometry": ("Pregeometry", "validate", "flags_of_type", "is_geometry",
                 "is_firm", "residue", "truncation", "incidence_distance",
                 "is_connected", "is_residually_connected",
                 "is_generalized_digon", "INF"),
    "quotient": ("Partition", "Projection", "quotient",
                 "singleton_partition", "lift_flag", "check_flagslift",
                 "residual_surjectivity", "corank1_surjective",
                 "corank1_injective", "min_block_distance", "is_m_cover",
                 "is_cover", "check_PQ1", "check_PQ2",
                 "total_order_flagslift"),
    "perms": ("Perm", "PermGroup", "CapExceeded", "orbit_partition",
              "stabilizer", "normal_closure", "transitivity",
              "is_semiregular", "automorphism_group",
              "induced_quotient_group"),
    "axioms": ("OrbitQuotient", "check_TQ1", "check_TQ2prime",
               "check_TQ2doubleprime", "check_TQ3"),
    "cosets": ("FiniteGroup", "Subgroup", "CosetGeometry",
               "coset_pregeometry", "rank2_connectivity",
               "product_condition", "coseteg_family", "is_coset_pregeometry"),
    "diagram": ("Diagram", "basic_diagram", "place_tree_flag",
                "lift_chamber_forest"),
    "constructions": ("SimpleGraph", "ssg", "shadow", "is_shadowable",
                      "blowup", "blowup_projection", "shadowable_lift",
                      "affine_geometry", "fano_plane",
                      "multipartite_geometry", "grid_complement", "hexagon",
                      "eight_cycle", "conneg_witness", "flnotpq1_witness",
                      "example_generators", "isomorphic"),
}

CORE = {"geoq", "geoq.geometry", "geoq.quotient", "geoq.perms",
        "geoq.axioms"}


def python(code, *args, flags=()):
    """Run code in a fresh interpreter, started with the given flags;
    return its parsed JSON output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GEOQ_SEED", None)
    proc = subprocess.run([sys.executable, *flags, "-c", code] + list(args),
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


RUN_CLI = """
import contextlib, io, json, sys
from geoq.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))
"""


def cli_modules(*argv):
    code, out, modules = python(RUN_CLI, *argv)
    return code, out, set(modules)


def test_axioms_loads_only_the_core():
    code, out, modules = cli_modules(
        "--machine", "axioms", str(DATA / "eightcycle.geo"),
        str(DATA / "eightcycle.grp"))
    assert code == 0 and "tq1=true" in out
    assert {m for m in modules if m.startswith("geoq")} == (
        CORE | {"geoq.cli", "geoq.io"})
    assert not modules & {"geoq.constructions", "geoq.cosets",
                          "geoq.diagram", "geoq.lemmas", "geoq.reproduce",
                          "dataclasses", "inspect", "argparse", "gettext"}


def test_check_loads_no_lemmas_or_constructions():
    code, out, modules = cli_modules("--machine", "check",
                                     str(DATA / "coseteg-2.geo"))
    assert code == 1 and "diagram-edges=none" in out
    assert "geoq.diagram" in modules
    assert not modules & {"geoq.lemmas", "geoq.reproduce",
                          "geoq.constructions", "geoq.cosets",
                          "dataclasses", "inspect", "argparse", "gettext"}


RUN_BARE = """
import sys
from geoq.cli import main
code = main(sys.argv[1:])
loaded = sorted(sys.modules)
import json  # after the list is taken: json loads re
print(json.dumps([code, loaded]))
"""
# what importing pathlib loads besides the command line; it differs
# between Python versions (3.13's pathlib loads no urllib.parse)
RUN_PATHLIB = """
import sys
import geoq.cli
before = set(sys.modules)
import pathlib
added = sorted(set(sys.modules) - before)
import json  # after the list is taken: json loads re
print(json.dumps(added))
"""


def test_only_gen_loads_pathlib(tmp_path):
    # run without site (python -S): a site that loads pathlib itself
    # would hide what the commands load
    by_pathlib = set(python(RUN_PATHLIB, flags=["-S"]))
    assert {"pathlib", "re"} <= by_pathlib
    geo, grp = str(DATA / "eightcycle.geo"), str(DATA / "eightcycle.grp")
    for argv in (["axioms", geo, grp], ["check", geo], ["diagram", geo],
                 ["iso", geo, geo], ["quotient", geo, "--orbits", grp,
                                     "-o", str(tmp_path / "q.geo")]):
        code, modules = python(RUN_BARE, "--machine", *argv, flags=["-S"])
        assert code in (0, 1), argv
        assert not by_pathlib & set(modules), argv
    assert (tmp_path / "q.geo").exists()
    code, modules = python(RUN_BARE, "gen", "ssg", "3", "2", "--dir",
                           str(tmp_path), flags=["-S"])
    assert code == 0 and by_pathlib <= set(modules)


def test_package_loads_lazy_modules_on_first_access():
    before, after, submodule = python("""
import json, sys
import geoq
before = sorted(m for m in sys.modules if m.startswith("geoq"))
geoq.ssg
after = sorted(m for m in sys.modules if m.startswith("geoq"))
submodule = geoq.cosets.__name__  # the lazy submodules by name, as before
print(json.dumps([before, after, submodule]))
""")
    assert set(before) == CORE
    assert set(after) == CORE | {"geoq.constructions"}
    assert submodule == "geoq.cosets"


def test_every_export_is_its_submodules_object():
    # names are read from the package first, so the lazy path is the one
    # tested; geoq.quotient stays the function, not the submodule
    bad, public, listed = python("""
import importlib, json, sys
import geoq
exports = json.loads(sys.argv[1])
got = {(mod, name): getattr(geoq, name)
       for mod, names in exports.items() for name in names}
bad = [[mod, name] for (mod, name), value in got.items()
       if value is not getattr(importlib.import_module("geoq." + mod), name)]
namespace = {}
exec("from geoq import *", namespace)
print(json.dumps([bad, sorted(n for n in dir(geoq) if not n.startswith("_")),
                  sorted(set(namespace) - {"__builtins__"})]))
""", json.dumps(EXPORTS))
    names = {name for group in EXPORTS.values() for name in group}
    assert bad == []
    assert names <= set(public) and set(listed) == names
    assert callable(geoq.quotient) and geoq.quotient.__module__ == (
        "geoq.quotient")


def test_unknown_name_raises_attribute_error():
    result = python("""
import json
import geoq
try:
    geoq.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), hasattr(geoq, "lemmas_suite")]))
""")
    assert result == ["module 'geoq' has no attribute 'no_such_name'", False]


def test_records_keep_their_dataclass_behaviour():
    d = Diagram(2, frozenset({frozenset({0, 1})}), {(0, 1): ("edge", (0,))})
    assert repr(d) == ("Diagram(rank=2, edges=frozenset({frozenset({0, 1})}),"
                       " evidence={(0, 1): ('edge', (0,))})")
    assert d == Diagram(rank=2, edges=d.edges, evidence=dict(d.evidence))
    assert d != Diagram(3, d.edges, d.evidence) and d != (2, d.edges)
    for change in (lambda: setattr(d, "rank", 3), lambda: delattr(d, "rank")):
        with pytest.raises(AttributeError):
            change()
    with pytest.raises(TypeError):
        hash(d)  # hashed by value, and evidence is a dict
    s = SuiteResult("x")
    s.checked += 1
    s.violations.append("v")
    assert SuiteResult("x").violations == []  # a fresh list per instance
    assert s == SuiteResult("x", 1, 0, ["v"]) and s != SuiteResult("x")
    assert repr(s) == ("SuiteResult(name='x', checked=1, nonvacuous=0,"
                       " violations=['v'])")
    rep = Report("a", elapsed=1.5)
    assert rep == Report("a", True, [], [], 1.5)
    assert repr(rep) == ("Report(name='a', ok=True, lines=[], notes=[],"
                         " elapsed=1.5)")
    for mutable in (s, rep):
        with pytest.raises(TypeError):
            hash(mutable)
