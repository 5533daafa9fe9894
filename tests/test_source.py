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
    # perms._orbits is the only union-find (the only function that makes
    # a parent list, and no `find` helper anywhere): points, flags and
    # orbits_on's items all reach it as index images; the axiom deciders
    # work from generators and never list the elements of G, directly
    # or through a stabilizer scan
    finds, parents = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        finds += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "find"]
        parents += [(path.name, fn.name) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "parent"
                            for t in node.targets)]
    assert not finds, finds
    assert parents == [("perms.py", "_orbits")], parents
    perms = [p for p in SOURCES if p.name == "perms.py"][0]
    callers = {fn for fn, called in _calls_by_function(perms)
               if called == "_orbits"}
    assert callers == {"orbits_on", "PermGroup.orbits", "_flag_orbits"}
    axioms = [p for p in SOURCES if p.name == "axioms.py"][0]
    calls = ["axioms.py:%d" % node.lineno
             for node in ast.walk(ast.parse(axioms.read_text()))
             if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("elements", "stabilizer")
                  or isinstance(node.func, ast.Name)
                  and node.func.id == "stabilizer")]
    assert not calls, calls


def test_one_residue_map_comparison():
    # quotient._residue_map_failure is the only residue-to-quotient
    # isomorphism test; each copy of it carries this reason
    hits = ["%s:%d" % (path.name, n)
            for path in SOURCES
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "incidence not matched" in line]
    assert len(hits) == 1, hits


def test_two_recursive_searches_and_no_permutation_scans():
    # the incidence-map search and lift_flag are the only recursive
    # searches: a nested function that calls itself anywhere else is a
    # new backtracker (all_flags walks on an explicit stack)
    recursive = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if (inner is not outer and isinstance(inner, ast.FunctionDef)
                        and any(isinstance(n, ast.Name) and n.id == inner.name
                                for n in ast.walk(inner))):
                    recursive.add((path.name, outer.name, inner.name))
    assert recursive == {("perms.py", "_incidence_maps", "rec"),
                         ("quotient.py", "lift_flag", "rec")}
    # no scan over all n! permutations in the group and search modules
    for path in SOURCES:
        if path.name not in ("constructions.py", "perms.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.module == "itertools" for a in node.names}
        attrs = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        assert "permutations" not in names | attrs, path.name


def test_one_breadth_first_search():
    # geometry.bfs is the only graph search; a `while frontier` loop
    # anywhere else is a new one, except the one closure that grows a
    # group by generators (perms._closure, behind mulclose and the
    # subgroups of cosets) and the orbit transversal
    allowed = {("geometry.py", "bfs"), ("perms.py", "_closure"),
               ("perms.py", "orbit_transversal")}
    loops = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            loops += [(path.name, fn.name) for node in ast.walk(fn)
                      if isinstance(node, ast.While)
                      and isinstance(node.test, ast.Name)
                      and node.test.id == "frontier"]
    assert sorted(loops) == sorted(allowed), loops


def _calls_by_function(path):
    """(enclosing function name, called name) for every call in a file;
    methods are named Class.method, module-level calls by ''."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                visit(child, (where if where.endswith(".") else "")
                      + child.name)
            else:
                if isinstance(child, ast.Call):
                    func = child.func
                    name = (func.attr if isinstance(func, ast.Attribute)
                            else getattr(func, "id", None))
                    out.append((where.rstrip("."), name))
                visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return out


def test_no_library_code_builds_a_residue():
    # residue questions are decided on masks (geometry.non_incident_pair
    # and a confined bfs); `residue` stays public for library callers,
    # and nothing under src/geoq calls it
    hits = ["%s:%s" % (path.name, fn) for path in SOURCES
            for fn, called in _calls_by_function(path) if called == "residue"]
    assert not hits, hits


def test_only_elements_lists_a_group():
    # order, membership, stabilizers, normal closures and semiregularity
    # come from the Schreier-Sims chain; mulclose runs only inside
    # PermGroup.elements, and the cap path never lists G.  Coset
    # recognition works from generator orbits, so cosets.py lists no group
    by_name = {path.name: _calls_by_function(path) for path in SOURCES}
    listing = ["%s:%s" % (name, fn) for name, calls in by_name.items()
               for fn, called in calls if called == "mulclose"]
    assert listing == ["perms.py:PermGroup.elements"], listing
    chain_only = {"stabilizer", "normal_closure", "is_semiregular",
                  "PermGroup.order", "PermGroup.__contains__",
                  "automorphism_group"}
    hits = ["%s:%s" % (name, fn) for name, calls in by_name.items()
            for fn, called in calls if called == "elements"
            and (name in ("cli.py", "axioms.py", "cosets.py")
                 or name == "perms.py" and fn in chain_only)]
    assert not hits, hits
    assert ("perms.py", "stabilizer") in {
        (name, fn) for name, calls in by_name.items() for fn, _ in calls}


def imports_of(package):
    """Where a library module imports package or one of its modules."""
    hits = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits += ["%s:%d" % (path.name, node.lineno)
                     for name in names if name.split(".")[0] == package]
    return hits


def test_no_dataclasses_in_the_library():
    # dataclasses imports inspect, ast, dis and tokenize; every command
    # would pay for them at start-up
    assert imports_of("dataclasses") == []


def test_no_argparse_in_the_library():
    # the command line is read from cli.COMMANDS; argparse built 13
    # parsers and loaded gettext on every run
    assert imports_of("argparse") == []


def test_masks_are_the_only_incidence():
    # incidence is read from the masks alone: no `adj` attribute is read,
    # defined or listed in __slots__, and the lowest-set-bit idiom
    # `m & -m` appears only in bits, least and all_flags, the flag walker
    adj, lowbit = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        adj += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "adj"
                or isinstance(node, ast.FunctionDef) and node.name == "adj"
                or isinstance(node, ast.Constant) and node.value == "adj"]
        # each module-level statement, or method, named as a whole
        for top in tree.body:
            for unit in top.body if isinstance(top, ast.ClassDef) else [top]:
                lowbit += [(path.name, getattr(unit, "name", ""))
                           for node in ast.walk(unit)
                           if isinstance(node, ast.BinOp)
                           and isinstance(node.op, ast.BitAnd)
                           and isinstance(node.right, ast.UnaryOp)
                           and isinstance(node.right.op, ast.USub)]
    assert not adj, adj
    assert sorted(set(lowbit)) == [("geometry.py", "all_flags"),
                                   ("geometry.py", "bits"),
                                   ("geometry.py", "least")], lowbit


def test_one_generator_picker():
    # _Chain.add picks every generator the library keeps (sifting decides
    # membership): no group is built from its element list, and no picker
    # re-closes its picks; _closure serves mulclose and the subgroups of
    # cosets alone
    hits = ["%s:%d" % (path.name, n)
            for path in SOURCES
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "from_elements" in line]
    assert not hits, hits
    callers = {"%s:%s" % (path.name, fn) for path in SOURCES
               for fn, called in _calls_by_function(path)
               if called == "_closure"}
    assert callers == {"perms.py:mulclose",
                       "cosets.py:FiniteGroup.subgroup_generated",
                       "cosets.py:Subgroup.__init__"}, callers


def test_projection_layer_reads_no_pair_set():
    # the library reads the masks alone: a `.pairs` attribute, the edge
    # set derived from the masks on first read, is read only where it is
    # defined (geometry.py; the writer reads incident_pairs), so no
    # decider or constructor slips back to a pair scan
    hits = ["%s:%d" % (path.name, node.lineno)
            for path in SOURCES if path.name != "geometry.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "pairs"]
    assert not hits, hits


def _source(name):
    return [p for p in SOURCES if p.name == name][0].read_text()


def test_only_gen_imports_pathlib():
    # pathlib loads re, enum, fnmatch, urllib.parse and ipaddress: the
    # commands that decide read and write files with open and os.path
    gen = [fn for fn in ast.walk(ast.parse(_source("cli.py")))
           if isinstance(fn, ast.FunctionDef) and fn.name == "cmd_gen"][0]
    inside = ["cli.py:%d" % n for n in range(gen.lineno, gen.end_lineno + 1)]
    hits = imports_of("pathlib")
    assert hits and set(hits) <= set(inside), hits


def test_deciders_take_one_quotient():
    # a quotient names what its deciders scan (leaders, block_leaders) and
    # keeps its block distance, so no decider takes a second argument
    # naming flags or elements, the memo passes no argument through, and
    # cli and lemmas compute no block distance of their own
    import inspect
    from geoq.axioms import (check_TQ1, check_TQ2doubleprime, check_TQ2prime,
                             decider_rows)
    from geoq.geometry import is_geometry
    from geoq.quotient import (check_flagslift, check_PQ1, check_PQ2,
                               is_cover, residual_surjectivity)
    one = [inspect.Parameter.POSITIONAL_OR_KEYWORD]
    for fn in (check_flagslift, check_PQ1, check_PQ2, is_cover,
               residual_surjectivity, check_TQ1, check_TQ2prime,
               check_TQ2doubleprime, decider_rows):
        params = inspect.signature(fn).parameters.values()
        assert [p.kind for p in params] == one, fn.__name__
    wrapper = inspect.signature(is_geometry, follow_wrapped=False)
    assert [p.kind for p in wrapper.parameters.values()] == one
    assert "min_block_distance" not in _source("cli.py")
    assert "_block_distance" not in [
        fn.name for fn in ast.walk(ast.parse(_source("lemmas.py")))
        if isinstance(fn, ast.FunctionDef)]


def test_an_orbit_quotient_is_a_projection():
    # an orbit-quotient is the projection of its orbit partition, with one
    # memo: it holds no second projection (`proj`) and no second name for
    # its source (`geom`), and no library code reads a `.proj` attribute
    from geoq.axioms import OrbitQuotient
    from geoq.constructions import hexagon
    from geoq.quotient import Projection
    assert issubclass(OrbitQuotient, Projection)
    oq = OrbitQuotient(*hexagon())
    for name in ("proj", "geom"):
        assert not hasattr(OrbitQuotient, name), name
        assert not hasattr(oq, name), name
    hits = ["%s:%d" % (path.name, node.lineno)
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "proj"]
    assert not hits, hits


def test_decider_rows_come_from_one_table():
    # axioms.DECIDERS names every decider row: no row is picked by an
    # `==` on its name, and the row code of `axioms` and `quotient` names
    # no decider; `quotient` only renames is-cover to cover, by a map
    from geoq.axioms import DECIDERS
    names = {name for name, _, _ in DECIDERS} | {"cover"}
    deciders = {"check_flagslift", "check_PQ1", "check_PQ2", "check_TQ1",
                "check_TQ2prime", "check_TQ2doubleprime", "check_TQ3",
                "residual_surjectivity", "is_cover", "format_witness"}
    compared = []
    for name in ("cli.py", "axioms.py"):
        tree = ast.parse(_source(name))
        compared += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                     if isinstance(node, ast.Compare)
                     and any(isinstance(op, (ast.Eq, ast.NotEq))
                             for op in node.ops)
                     and any(isinstance(c, ast.Constant) and c.value in names
                             for c in [node.left, *node.comparators])]
    assert not compared, compared
    cli = ast.parse(_source("cli.py"))
    for fn in ast.walk(cli):
        if isinstance(fn, ast.FunctionDef) and fn.name in ("cmd_axioms",
                                                           "cmd_quotient"):
            named = [n.value for n in ast.walk(fn)
                     if isinstance(n, ast.Constant) and n.value in names]
            called = [n.id for n in ast.walk(fn)
                      if isinstance(n, ast.Name) and n.id in deciders]
            assert sorted(named) == (["cover", "is-cover"]
                                     if fn.name == "cmd_quotient" else [])
            assert not called, (fn.name, called)
    assert "format_witness" not in _source("axioms.py")
