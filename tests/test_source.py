import ast
from pathlib import Path

import geoq

SOURCES = sorted(Path(geoq.__file__).parent.glob("*.py"))


def test_library_checks_survive_optimize_flag():
    # `python -O` strips assert statements, so library invariants raise
    hits = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        hits += ["%s:%d" % (path.name, node.lineno)
                 for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 10
    assert not hits, hits


def test_one_union_find_and_no_group_listing_in_axioms():
    # orbits_on is the only union-find; the axiom deciders work from
    # generators and never list the elements of G
    finds = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef) and node.name == "orbits_on"
                    and path.name == "perms.py"):
                allowed.update(id(n) for n in ast.walk(node))
        finds += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "find" and id(node) not in allowed]
    assert not finds, finds
    axioms = [p for p in SOURCES if p.name == "axioms.py"][0]
    calls = ["axioms.py:%d" % node.lineno
             for node in ast.walk(ast.parse(axioms.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "elements"]
    assert not calls, calls
