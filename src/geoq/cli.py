"""
Command-line front end.

Exit codes: 0 when every requested check holds, 1 when some reported
check is false or a comparison fails, 2 for parse/usage errors and paths
that cannot be read or written, 3 when a size cap is exceeded (a
refusal, never a wrong answer), 141 when stdout's reader left (SIGPIPE).

Each command imports only the modules it runs.  Every command loads io
and the core (geometry, quotient, perms, axioms); on top of that `check`
and `diagram` load diagram, `iso` loads constructions, `gen` loads
constructions and cosets, and `reproduce` loads all of them with lemmas
and reproduce.  `axioms` and `quotient` load nothing more.  Only `gen`
and `reproduce` (importlib.resources, for its goldens) load pathlib,
which brings re, enum, fnmatch and urllib.parse with it; the others read
and write files with open and os.path.

The command line is read from one table, COMMANDS, by parse_args: no
argparse parser is built, so no command loads argparse or gettext.  -h
prints help rendered from the table; a refused line prints its command's
usage line and the reason, and exits 2.
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from . import io as gio
from .axioms import OrbitQuotient, decider_rows
from .geometry import (all_flags, flag_text, is_connected, is_firm,
                       is_geometry, is_residually_connected, keep_flags,
                       validate)
from .perms import DEFAULT_CAP, CapExceeded, PermGroup, normal_closure
from .quotient import Partition, Projection

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_PIPE = 141


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise gio.ParseError(0, "cannot read %s: %s" % (path, exc))


def _write(path, text=None):
    """Write text to path, or without text make the directory path;
    refuse (exit 2) where the system does."""
    try:
        if text is None:
            os.makedirs(path, exist_ok=True)
        else:
            with open(path, "w") as f:
                f.write(text)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc))


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
    t0 = time.perf_counter()
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
    _emit(rows, [], args.machine, time.perf_counter() - t0)
    return _exit_from_rows(rows)


def _load_quotient(args, geom):
    """The projection by --partition, or the orbit-quotient by --orbits."""
    if args.partition is not None:  # an empty path too, refused unread
        part = gio.parse_partition(_read(args.partition), geom)
        return Projection(geom, part)
    group = _load_group(args.orbits, geom, args.max_group_order)
    if args.normal_closure:
        over = _load_group(args.normal_closure, geom, args.max_group_order)
        group = normal_closure(over, group)
    return OrbitQuotient(geom, group)


def cmd_quotient(args):
    geom = _load_geometry(args.geometry)
    _count_flags_capped(geom, args.max_flags)
    t0 = time.perf_counter()
    proj = _load_quotient(args, geom)
    _count_flags_capped(proj.quotient, args.max_flags, "quotient flag count")
    base = os.path.basename(args.geometry)
    stem, suffix = os.path.splitext(base)  # as Path.stem, "a." keeps its dot
    out = args.output or (base if suffix == "." else stem) + ".quotient.geo"
    _write(out, gio.format_geometry(proj.quotient))
    q = proj.quotient
    rows = [({"is-cover": "cover"}.get(name, name), value, witness)
            for name, value, witness in decider_rows(proj)]
    geo, w = is_geometry(q)
    rows += [("quotient-geometry", geo, flag_text(q, w)),
             ("min-block-distance", str(proj.block_distance), None)]
    _emit(rows, ["quotient written to %s" % out], args.machine,
          time.perf_counter() - t0)
    return _exit_from_rows(rows)


def cmd_axioms(args):
    geom = _load_geometry(args.geometry)
    _count_flags_capped(geom, args.max_flags)
    group = _load_group(args.group, geom, args.max_group_order)
    t0 = time.perf_counter()
    oq = OrbitQuotient(geom, group)
    _count_flags_capped(oq.quotient, args.max_flags, "quotient flag count")
    rows = decider_rows(oq)
    _emit(rows, [], args.machine, time.perf_counter() - t0)
    return _exit_from_rows(rows)


def cmd_diagram(args):
    from .diagram import basic_diagram
    geom = _load_geometry(args.geometry)
    _count_flags_capped(geom, args.max_flags)
    t0 = time.perf_counter()
    diag = basic_diagram(geom)
    rows = []
    for (i, j), (kind, flag) in sorted(diag.evidence.items()):
        key = "pair-%s-%s" % (geom.type_names[i], geom.type_names[j])
        if kind == "edge":
            rows.append((key, "edge", flag_text(geom, flag)))
        else:
            rows.append((key, kind, None))
    rows.append(("forest", diag.is_forest(), None))
    _emit(rows, [], args.machine, time.perf_counter() - t0)
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
    from pathlib import Path
    from .constructions import (affine_geometry, blowup, example_generators,
                                shadowable_lift, ssg)
    from .cosets import CosetExampleFamily, FiniteGroup
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
        CosetExampleFamily.refuse_order(args.a)  # before Z_n is built
        fam = CosetExampleFamily(FiniteGroup.cyclic(args.a))
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
    _write(base)
    for suffix, text in outputs:
        path = base / ((args.output or prefix) + suffix)
        _write(path, text)
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


class UsageError(Exception):
    """A command line that COMMANDS refuses: (usage line, reason)."""


def cmd_help(args):
    from textwrap import fill
    _, _, about, sub = args.entry
    print(_usage(args.path, args.entry), fill(about, 79), sep="\n\n")
    if isinstance(sub, dict):
        print()
        for name, (_, _, text, _) in sub.items():
            print(fill(text, 79, initial_indent="  %-11s" % name,
                       subsequent_indent=" " * 13))
    return EXIT_OK


# name: (positionals, options, help, its cmd_* or a table of kinds).  A
# positional "dest:metavar" is an int and "dest*" takes the rest; an
# option's default gives its type: None a string, False a switch.  No
# option's name is a prefix of another's.
_FLAG_CAP = {"max-flags": 2_000_000}  # check and diagram load no group
_CAPS = {"max-group-order": DEFAULT_CAP, **_FLAG_CAP}
_SHORT = {"-h": "help", "-o": "output", "-v": "verbose"}
GEN_KINDS = {what: (params, {"output": None, "dir": None}, about, cmd_gen)
             for what, params, about in (
    ("ssg", "a:v b:k", "subset geometry of the 1..k-subsets of a v-set"),
    ("affine", "a:d b:q", "affine space AG(d, q) and its translation group"),
    ("coseteg", "a:n", "rank-4 coset example over Z_n and its two groups"),
    ("blowup", "geometry graph", "blow-up of a geometry along a graph"),
    ("lift", "geometry a:n b:j", "multipartite lift of a shadowable geometry"),
    ("catalogue", "name", "a named example of the catalogue"))}
COMMANDS = {
    "check": ("geometry", _FLAG_CAP, "validate a geometry file and run the "
              "structural checks", cmd_check),
    "quotient": ("geometry", dict.fromkeys(("partition", "orbits",
                 "normal-closure", "output")) | _CAPS, "quotient by a "
                 "partition or orbits; --normal-closure OVERGROUP replaces "
                 "the orbit group by its normal closure in OVERGROUP",
                 cmd_quotient),
    "axioms": ("geometry group", _CAPS, "quotient-axiom table for an "
               "orbit-quotient", cmd_axioms),
    "diagram": ("geometry", _FLAG_CAP, "basic diagram with witnesses",
                cmd_diagram),
    "iso": ("first second", {}, "type-respecting isomorphism test", cmd_iso),
    "gen": ("what", {}, "emit example files", GEN_KINDS),
    "reproduce": ("names*", {"count": 200, "verbose": False}, "run the "
                  "reproduction scenarios; --count: instances per "
                  "randomized suite", cmd_reproduce)}
_TOP = ("command", {"machine": False}, "finite incidence pregeometries: "
        "checks, quotients, axioms, diagrams and example generators; "
        "--machine: stable line-oriented key=value output; COMMAND -h: "
        "that command's help", COMMANDS)


def _is_value(token):  # not an option: "-", a negative number, no "-"
    return (token[:1] != "-" or token == "-"
            or token[1:].replace(".", "", 1).isdecimal())


def _usage(path, entry):
    names, options, _, sub = entry
    short = {long: s for s, long in _SHORT.items()}
    words = path + ["[-h]"]
    for option, default in options.items():
        metavar = ("" if default is False else " N" if default is not None
                   else " " + option.upper().replace("-", "_"))
        words.append("[%s%s]" % (short.get(option, "--" + option), metavar))
    if isinstance(sub, dict):
        return "usage: %s {%s} ..." % (" ".join(words), ",".join(sub))
    for spec in names.split():
        dest, _, metavar = spec.partition(":")
        words.append("[%s ...]" % dest[:-1] if dest[-1] == "*"
                     else metavar or dest)
    return "usage: " + " ".join(words)


def parse_args(argv):
    """argv as argparse read it: a namespace of machine, command, gen's
    what, func and each option's dest.  Options follow their command
    anywhere, as --opt value, --opt=value or a unique prefix, up to
    "--"; -h gives cmd_help.  Raises UsageError on a refused line."""
    path, entry, given, ended = ["geoq"], _TOP, [], False
    values, tokens = dict(_TOP[1]), iter(argv)

    def refuse(reason):
        return UsageError(_usage(path, entry),
                          "%s: error: %s" % (" ".join(path), reason))

    def typed(value, default):  # an int when the default is one
        try:
            return int(value) if type(default) is int else value
        except ValueError:
            raise refuse("invalid int value: %r" % value) from None

    for token in tokens:
        names, options, _, sub = entry
        if ended or _is_value(token):
            if not isinstance(sub, dict):
                given.append(token)
            elif token not in sub:
                raise refuse("invalid choice: %r" % token)
            else:  # its option defaults; options so far were its parent's
                values[names], path, entry = token, path + [token], sub[token]
                values.update(entry[1])
            continue
        if token == "--" and not isinstance(sub, dict):
            ended = True
            continue
        name, eq, value = token.partition("=")
        name = _SHORT.get(name, name[2:] if name[:2] == "--" else "")
        match = [o for o in [*options, "help"] if name and o.startswith(name)]
        if len(match) != 1:
            raise refuse("%s option: %s" % (
                "ambiguous" if match else "unrecognized", token))
        name, default = match[0], options.get(match[0], False)
        if default is False and eq:
            raise refuse("argument --%s takes no value" % name)
        if name == "help":
            return SimpleNamespace(func=cmd_help, path=path, entry=entry)
        if default is not False and not eq:
            value = next(tokens, "--")  # none left reads as an option
            if not _is_value(value):
                raise refuse("argument --%s expects a value" % name)
        values[name] = default is False or typed(value, default)
    for spec in entry[0].split():
        dest, _, metavar = spec.partition(":")
        if dest[-1] == "*":
            values[dest[:-1]], given = given, []
        elif not given:
            raise refuse("the following arguments are required: %s" % dest)
        else:
            values[dest] = typed(given.pop(0), 0 if metavar else None)
    if given:
        raise refuse("unrecognized arguments: %s" % " ".join(given))
    if entry[3] is cmd_quotient and (values["partition"] is None) == (
            values["orbits"] is None):
        raise refuse("give one of --partition and --orbits")
    return SimpleNamespace(func=entry[3], **{
        key.replace("-", "_"): value for key, value in values.items()})


def _refuse_negative(args):
    """Refuse a negative cap or a count below one before any work:
    parse_args reads one as argparse did, but no flag set or group fits
    a negative cap, and a count of zero or less would check nothing and
    pass."""
    for option, low in (("max-flags", 0), ("max-group-order", 0),
                        ("count", 1)):
        value = getattr(args, option.replace("-", "_"), low)
        if value < low:
            path = ["geoq", args.command]
            need = "not be negative" if value < 0 else "be positive"
            raise UsageError(_usage(path, COMMANDS[args.command]),
                             "%s: error: argument --%s: must %s: %d"
                             % (" ".join(path), option, need, value))


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        _refuse_negative(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the buffered rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UsageError as exc:
        print("%s\n%s" % exc.args, file=sys.stderr)
        return EXIT_PARSE
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
