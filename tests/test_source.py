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
