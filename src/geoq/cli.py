"""
Command-line front end.

Exit codes: 0 when every requested check holds, 1 when some reported
check is false or a comparison fails, 2 for parse/usage errors, 3 when a
size cap is exceeded (a refusal, never a wrong answer), 141 when the
reader of stdout left early (SIGPIPE).

Each command imports only the modules it runs.  Every command loads io
and the core (geometry, quotient, perms, axioms); on top of that `check`
and `diagram` load diagram, `iso` loads constructions, `gen` loads
constructions and cosets, and `reproduce` loads all of them with lemmas
and reproduce.  `axioms` and `quotient` load nothing more.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import io as gio
from .axioms import OrbitQuotient, axioms_report, format_witness
from .geometry import (all_flags, flag_text, is_connected, is_firm,
                       is_geometry, is_residually_connected, keep_flags,
                       validate)
from .perms import CapExceeded, PermGroup, normal_closure
from .quotient import (Partition, Projection, check_flagslift, check_PQ1,
                       check_PQ2, is_cover, min_block_distance)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_PIPE = 141


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise gio.ParseError(0, "cannot read %s: %s" % (path, exc))


def _load_geometry(path):
    """Parse a geometry file; refuse one that validate rejects (exit 2)."""
    geom = gio.parse_geometry(_read(path))
    bad = validate(geom)
    if bad is not None:
        raise ValueError("%s: %s" % (path, bad))
    return geom


def _count_flags_capped(geom, cap, what="flag count"):
    """Refuse a geometry with more than cap flags; otherwise the flags
    walked are kept as its flag table, so that they are walked once."""
    if not keep_flags(geom, all_flags(geom), cap):
        raise CapExceeded("%s exceeds --max-flags %d" % (what, cap))


def _load_group(path, geom, cap):
    """Parse a group file and read its order, so that a group
    larger than --max-group-order is refused before any work is done."""
    group = gio.parse_group(_read(path), geom, cap=cap)
    group.order()
    return group


def _emit(rows, notes, machine, elapsed=None):
    """rows: list of (key, value, witness-or-None)."""
    if machine:
        for key, value, _ in sorted(rows):
            print("%s=%s" % (key, _machine_value(value)))
    else:
        width = max(len(k) for k, _, _ in rows) if rows else 0
        for key, value, witness in sorted(rows):
            line = "%-*s  %s" % (width, key, _machine_value(value))
            if witness is not None:
                line += "   witness: %s" % (witness,)
            print(line)
        for note in notes:
            print("note: %s" % note)
        if elapsed is not None:
            print("elapsed: %.2fs" % elapsed)


def _machine_value(value):
    for const, text in ((True, "true"), (False, "false"), (None, "ok")):
        if value is const:
            return text
    return str(value)


def _exit_from_rows(rows):
    return EXIT_CHECK_FAILED if any(v is False for _, v, _ in rows) else EXIT_OK


def cmd_check(args):
    from .diagram import basic_diagram
    geom = gio.parse_geometry(_read(args.geometry))  # validated below
    _count_flags_capped(geom, args.max_flags)
    t0 = time.time()
    bad = validate(geom)
    rows = [("validate", bad is None, bad)]
    if bad is None:
        geo, w = is_geometry(geom)
        rows.append(("geometry", geo, flag_text(geom, w)))
        rows.append(("connected", is_connected(geom), None))
        rc, w = is_residually_connected(geom)
        rows.append(("residually-connected", rc, flag_text(geom, w)))
        if geo:
            firm, w = is_firm(geom)
            rows.append(("firm", firm,
                         None if firm else flag_text(geom, w[0])))
            edges = sorted(basic_diagram(geom).edges, key=sorted)
            rows.append(("diagram-edges", ";".join(
                "%d-%d" % tuple(sorted(e)) for e in edges) or "none", None))
    _emit(rows, [], args.machine, time.time() - t0)
    return _exit_from_rows(rows)


def _load_projection(args, geom):
    """The projection, and with --orbits the orbit-quotient it is
    taken from (None with --partition)."""
    if args.partition:
        part = gio.parse_partition(_read(args.partition), geom)
        return Projection(geom, part), None
    group = _load_group(args.orbits, geom, args.max_group_order)
    if args.normal_closure:
        over = _load_group(args.normal_closure, geom, args.max_group_order)
        group = normal_closure(over, group)
    oq = OrbitQuotient(geom, group)
    return oq.proj, oq


def cmd_quotient(args):
    geom = _load_geometry(args.geometry)
    _count_flags_capped(geom, args.max_flags)
    t0 = time.time()
    proj, oq = _load_projection(args, geom)
    _count_flags_capped(proj.quotient, args.max_flags, "quotient flag count")
    out = args.output or (Path(args.geometry).stem + ".quotient.geo")
    Path(out).write_text(gio.format_geometry(proj.quotient))
    q = proj.quotient
    if oq is None:
        report = {"flagslift": check_flagslift(proj),
                  "pq1": check_PQ1(proj), "pq2": check_PQ2(proj),
                  "is-cover": (is_cover(proj), None)}
    else:  # decided once per G-orbit, rows kept under this command's keys
        report = axioms_report(oq)
    fl, w = report.pop("flagslift")
    rows = [("flagslift", fl, flag_text(q, w))]
    geo, w = is_geometry(q)
    rows.append(("quotient-geometry", geo, flag_text(q, w)))
    rows.append(("cover", report.pop("is-cover")[0], None))
    pq1, w = report.pop("pq1")
    rows.append(("pq1", pq1,
                 None if pq1 else flag_text(geom, w[0])))
    pq2, w = report.pop("pq2")
    rows.append(("pq2", pq2, flag_text(geom, w)))
    dist = (min_block_distance(geom, proj.partition) if oq is None
            else oq.block_distance)
    rows.append(("min-block-distance", str(dist), None))
    for name, (value, witness) in sorted(report.items()):
        rows.append((name, value, format_witness(oq, name, witness)))
    notes = ["quotient written to %s" % out]
    _emit(rows, notes, args.machine, time.time() - t0)
    return _exit_from_rows(rows)


def cmd_axioms(args):
    geom = _load_geometry(args.geometry)
    _count_flags_capped(geom, args.max_flags)
    group = _load_group(args.group, geom, args.max_group_order)
    t0 = time.time()
    oq = OrbitQuotient(geom, group)
    _count_flags_capped(oq.quotient, args.max_flags, "quotient flag count")
    rows = []
    for name, (value, witness) in sorted(axioms_report(oq).items()):
        rows.append((name, value, format_witness(oq, name, witness)))
    _emit(rows, [], args.machine, time.time() - t0)
    return _exit_from_rows(rows)


def cmd_diagram(args):
    from .diagram import basic_diagram
    geom = _load_geometry(args.geometry)
    _count_flags_capped(geom, args.max_flags)
    t0 = time.time()
    diag = basic_diagram(geom)
    rows = []
    for (i, j), (kind, flag) in sorted(diag.evidence.items()):
        key = "pair-%s-%s" % (geom.type_names[i], geom.type_names[j])
        if kind == "edge":
            rows.append((key, "edge", flag_text(geom, flag)))
        else:
            rows.append((key, kind, None))
    rows.append(("forest", diag.is_forest(), None))
    _emit(rows, [], args.machine, time.time() - t0)
    return EXIT_OK


def cmd_iso(args):
    from .constructions import isomorphic
    ga = _load_geometry(args.first)
    gb = _load_geometry(args.second)
    found, mapping = isomorphic(ga, gb)
    rows = [("isomorphic", found,
             None if mapping is None else
             " ".join("%s->%s" % (ga.elem_names[x], gb.elem_names[y])
                      for x, y in enumerate(mapping)))]
    _emit(rows, [], args.machine)
    return EXIT_OK if found else EXIT_CHECK_FAILED


def cmd_gen(args):
    from .constructions import (affine_geometry, blowup, example_generators,
                                shadowable_lift, ssg)
    from .cosets import FiniteGroup, coseteg_family
    kind = args.what
    extras = []  # (suffix, group or partition) written beside the geometry
    if kind == "ssg":
        prefix, geom = "ssg-%d-%d" % (args.a, args.b), ssg(args.a, args.b)
    elif kind == "affine":
        prefix = "affine-%d-%d" % (args.a, args.b)
        geom, trans = affine_geometry(args.a, args.b)
        extras = [(".grp", trans)]
    elif kind == "coseteg":
        prefix = "coseteg-%d" % args.a
        fam = coseteg_family(FiniteGroup.cyclic(args.a))
        geom = fam.geometry
        extras = [(".grp", fam.action_group()),
                  ("-n.grp", fam.n_action_group())]
    elif kind == "blowup":
        prefix = "blowup"
        geom = blowup(_load_geometry(args.geometry),
                      gio.parse_graph(_read(args.graph)))
    elif kind == "lift":
        prefix = "lift-%d-%d" % (args.a, args.b)
        geom = shadowable_lift(_load_geometry(args.geometry),
                               args.a, args.b).geometry
    else:  # catalogue
        gens = example_generators()
        if args.name not in gens:
            print("unknown catalogue entry %r; have: %s"
                  % (args.name, ", ".join(sorted(gens))), file=sys.stderr)
            return EXIT_PARSE
        made = gens[args.name]()
        prefix = args.name
        geom, *rest = made if isinstance(made, tuple) else (made,)
        groups = 0
        for extra in rest:
            if isinstance(extra, PermGroup):
                groups += 1
                extras.append((".grp" if groups == 1 else "-%d.grp" % groups,
                               extra))
            elif isinstance(extra, Partition):
                extras.append((".part", extra))
    outputs = [(".geo", gio.format_geometry(geom))]
    outputs += [(suffix, gio.format_partition(x, geom)
                 if isinstance(x, Partition) else gio.format_group(x, geom))
                for suffix, x in extras]
    base = Path(args.dir or ".")
    base.mkdir(parents=True, exist_ok=True)
    for suffix, text in outputs:
        path = base / ((args.output or prefix) + suffix)
        path.write_text(text)
        print("wrote %s" % path)
    return EXIT_OK


def cmd_reproduce(args):
    from .lemmas import seed_from_env
    from .reproduce import run_scenarios, SCENARIOS
    try:
        reports = run_scenarios(args.names or None, count=args.count,
                                seed=seed_from_env())
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        print("known scenarios: %s" % ", ".join(n for n, _ in SCENARIOS),
              file=sys.stderr)
        return EXIT_PARSE
    all_ok = True
    for rep in reports:
        status = "PASS" if rep.ok else "FAIL"
        if args.machine:
            print("%s=%s" % (rep.name, status.lower()))
            for line in rep.render(machine=True):
                print(line)
        else:
            print("%-34s %-4s  %6.2fs" % (rep.name, status, rep.elapsed))
            if not rep.ok or args.verbose:
                for line in rep.render():
                    print(line)
        all_ok = all_ok and rep.ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser():
    top = argparse.ArgumentParser(
        prog="geoq",
        description="finite incidence pregeometries: checks, quotients, "
                    "axioms, diagrams and example generators")
    top.add_argument("--machine", action="store_true",
                     help="stable line-oriented key=value output")
    sub = top.add_subparsers(dest="command", required=True)

    def flag_cap(p):
        p.add_argument("--max-flags", type=int, default=2_000_000)

    def common(p):
        p.add_argument("--max-group-order", type=int, default=200_000)
        flag_cap(p)

    p = sub.add_parser("check", help="validate a geometry file and run the "
                                     "structural checks")
    p.add_argument("geometry")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("quotient", help="quotient by a partition or orbits")
    p.add_argument("geometry")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--partition")
    g.add_argument("--orbits")
    p.add_argument("--normal-closure", metavar="OVERGROUP",
                   help="replace the orbit group by its normal closure in "
                        "this overgroup before orbiting")
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("axioms", help="quotient-axiom table for an "
                                      "orbit-quotient")
    p.add_argument("geometry")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("diagram", help="basic diagram with witnesses")
    p.add_argument("geometry")
    flag_cap(p)  # reads no group, so no --max-group-order
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("iso", help="type-respecting isomorphism test")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("gen", help="emit example files")
    gensub = p.add_subparsers(dest="what", required=True)
    # each kind's positionals; a dest:metavar is an int
    for what, params in (("ssg", "a:v b:k"), ("affine", "a:d b:q"),
                         ("coseteg", "a:n"), ("blowup", "geometry graph"),
                         ("lift", "geometry a:n b:j"), ("catalogue", "name")):
        q = gensub.add_parser(what)
        for param in params.split():
            dest, _, metavar = param.partition(":")
            q.add_argument(dest, **{"type": int, "metavar": metavar}
                           if metavar else {})
        q.add_argument("-o", "--output")
        q.add_argument("--dir")
        q.set_defaults(func=cmd_gen)

    p = sub.add_parser("reproduce", help="run the reproduction scenarios")
    p.add_argument("names", nargs="*")
    p.add_argument("--count", type=int, default=200,
                   help="instances per randomized suite")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the buffered rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except gio.ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
