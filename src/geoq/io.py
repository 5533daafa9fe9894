"""
Line-oriented text formats for geometries, partitions, groups and graphs.

Serialization is canonical (types, elements and incidences in index
order) and round-trips bit-exactly on canonical files.
"""

from __future__ import annotations

from .geometry import Pregeometry, incident_pairs
from .perms import DEFAULT_CAP, Perm, PermGroup
from .quotient import Partition


class ParseError(ValueError):
    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _records(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_geometry(text):
    types, elems, incs = [], [], []
    for lineno, rec in _records(text):
        kind, args = rec[0], rec[1:]
        if kind == "type" and len(args) == 1:
            types.append(args[0])
        elif kind == "elem" and len(args) == 2:
            elems.append((args[0], args[1]))
        elif kind == "inc" and len(args) == 2:
            incs.append((args[0], args[1]))
        else:
            raise ParseError(lineno, "bad record %r" % " ".join(rec))
    if not (types or elems or incs):  # each record fills one
        raise ParseError(0, "empty geometry file")
    try:
        return Pregeometry.build(types, elems, incs)
    except ValueError as exc:
        raise ParseError(0, str(exc))


def format_geometry(geom):
    lines = ["type %s" % t for t in geom.type_names]
    lines += ["elem %s %s" % (name, geom.type_names[geom.elem_type[x]])
              for x, name in enumerate(geom.elem_names)]
    lines += ["inc %s %s" % (geom.elem_names[a], geom.elem_names[b])
              for a, b in incident_pairs(geom)]
    return "\n".join(lines) + "\n"


def parse_partition(text, geom):
    listed = {}
    for lineno, rec in _records(text):
        if rec[0] != "block" or len(rec) < 3:
            raise ParseError(lineno, "bad record %r" % " ".join(rec))
        members = []
        for name in rec[2:]:
            try:
                members.append(geom.elem(name))
            except KeyError:
                raise ParseError(lineno, "unknown element %r" % name)
        key = rec[1]
        if key in listed:
            raise ParseError(lineno, "duplicate block name %r" % key)
        listed[key] = members
    blocks = list(listed.values())
    covered = {x for b in blocks for x in b}
    blocks += [(x,) for x in range(geom.size) if x not in covered]
    try:
        return Partition(geom, blocks)
    except ValueError as exc:
        raise ParseError(0, str(exc))


def format_partition(part, geom):
    lines = ["block b%d %s" % (k, " ".join(geom.flag_names(block)))
             for k, block in enumerate(b for b in part.blocks if len(b) > 1)]
    return "\n".join(lines) + ("\n" if lines else "")


def _split_cycles(body, lineno):
    """Split cycle notation at top-level parentheses; element names may
    themselves contain balanced parentheses (never whitespace)."""
    groups = []
    depth = 0
    start = None
    for i, ch in enumerate(body):
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(lineno, "unbalanced parentheses %r" % body)
            if depth == 0:
                groups.append(body[start:i])
        elif depth == 0 and not ch.isspace():
            raise ParseError(lineno, "bad cycle notation %r" % body)
    if depth != 0:
        raise ParseError(lineno, "unbalanced parentheses %r" % body)
    return groups


def parse_group(text, geom, cap=DEFAULT_CAP):
    """One generator per line in cycle notation over element names; an
    empty file is the trivial group."""
    gens = []
    for lineno, rec in _records(text):
        if rec[0] != "gen":
            raise ParseError(lineno, "bad record %r" % " ".join(rec))
        body = " ".join(rec[1:])
        cycles = []
        for group in _split_cycles(body, lineno):
            names = group.split()
            try:
                cyc = [geom.elem(n) for n in names]
            except KeyError:
                raise ParseError(lineno, "unknown element in cycle (%s)" % group)
            if len(set(cyc)) != len(cyc):
                raise ParseError(lineno, "repeated element in cycle (%s)" % group)
            cycles.append(cyc)
        flat = [x for c in cycles for x in c]
        if len(set(flat)) != len(flat):
            raise ParseError(lineno, "cycles are not disjoint")
        gens.append(Perm.from_cycles(geom.size, cycles))
    return PermGroup(gens, degree=geom.size, cap=cap)


def format_group(group, geom):
    lines = ["gen %s" % "".join("(%s)" % " ".join(geom.flag_names(cyc))
                                for cyc in g.cycles()) for g in group.gens]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_graph(text):
    from .constructions import SimpleGraph
    names, edges = [], []
    for lineno, rec in _records(text):
        if rec[0] == "vert" and len(rec) == 2:
            names.append(rec[1])
        elif rec[0] == "edge" and len(rec) == 3:
            edges.append((rec[1], rec[2]))
        else:
            raise ParseError(lineno, "bad record %r" % " ".join(rec))
    index = {n: i for i, n in enumerate(names)}
    if len(index) != len(names):
        raise ParseError(0, "duplicate vertex name")
    try:
        idx_edges = [(index[a], index[b]) for a, b in edges]
    except KeyError as exc:
        raise ParseError(0, "unknown vertex %s" % exc)
    return SimpleGraph(names, idx_edges)
