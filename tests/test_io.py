import pytest

from geoq.constructions import eight_cycle, grid_complement, hexagon, ssg
from geoq.io import (ParseError, format_geometry, format_group,
                     format_partition, parse_geometry, parse_graph,
                     parse_group, parse_partition)


def format_graph(graph):
    """The graph file format, canonical: vertices in index order, then
    the edges sorted."""
    lines = ["vert %s" % n for n in graph.names]
    lines += ["edge %s %s" % (graph.names[a], graph.names[b])
              for a, b in sorted(graph.edges)]
    return "\n".join(lines) + "\n"


def test_geometry_roundtrip_object():
    for geom in (ssg(4, 3), hexagon()[0], grid_complement()[0]):
        assert parse_geometry(format_geometry(geom)) == geom


def test_geometry_roundtrip_text():
    text = format_geometry(ssg(3, 2))
    assert format_geometry(parse_geometry(text)) == text


def test_quotient_roundtrip_with_commas_in_names():
    # block names "{...}" join member names with commas; element names may
    # hold commas and braces, so two blocks can get one name.  Every
    # partition's quotient is written with distinct whitespace-free names
    # and parses back as itself; names that are distinct are kept
    from itertools import combinations
    from geoq.quotient import Partition, quotient
    geom = parse_geometry("type P\ntype L\nelem a P\nelem b P\n"
                          "elem a,b P\nelem b} P\nelem {a P\n"
                          "elem b},{a P\nelem l L\n"
                          "inc a l\ninc b l\ninc a,b l\ninc {a l\n")
    points, renamed = geom.by_type[0], 0
    for r in range(1, len(points) + 1):
        for block in combinations(points, r):
            rest = [(x,) for x in range(geom.size) if x not in block]
            q, _ = quotient(geom, Partition(geom, [block] + rest))
            assert parse_geometry(format_geometry(q)) == q
            plain = ["{%s}" % ",".join(geom.flag_names(b))
                     for b in Partition(geom, [block] + rest).blocks]
            if len(set(plain)) == len(plain):
                assert list(q.elem_names) == plain
            else:
                assert list(q.elem_names) == [
                    "%s~%d" % (name, k) for k, name in enumerate(plain)]
                renamed += 1
    assert renamed >= 2


def test_geometry_comments_and_blanks():
    text = "# a comment\ntype A\n\nelem x A  # trailing comment\n"
    geom = parse_geometry(text)
    assert geom.size == 1 and geom.rank == 1


def test_geometry_parse_errors():
    with pytest.raises(ParseError):
        parse_geometry("")
    with pytest.raises(ParseError):
        parse_geometry("typ A\n")
    with pytest.raises(ParseError):
        parse_geometry("type A\nelem x B\n")
    with pytest.raises(ParseError):
        parse_geometry("type A\nelem x A\ninc x y\n")
    try:
        parse_geometry("type A\nbadline\n")
    except ParseError as exc:
        assert exc.lineno == 2


def test_partition_roundtrip():
    geom, part = grid_complement()
    text = format_partition(part, geom)
    assert parse_partition(text, geom) == part
    assert format_partition(parse_partition(text, geom), geom) == text


def test_partition_unlisted_are_singletons():
    geom = ssg(3, 2)
    part = parse_partition("", geom)
    assert all(len(b) == 1 for b in part.blocks)


def test_partition_parse_errors():
    geom = ssg(3, 2)
    with pytest.raises(ParseError):
        parse_partition("block b\n", geom)
    with pytest.raises(ParseError):
        parse_partition("block b nope\n", geom)
    with pytest.raises(ParseError):
        parse_partition("block b {1} {2}\nblock b {3}\n", geom)
    with pytest.raises(ParseError):
        parse_partition("block b {1} {1,2}\n", geom)  # crosses types


def test_group_roundtrip():
    geom, group = eight_cycle()
    text = format_group(group, geom)
    parsed = parse_group(text, geom)
    assert parsed.gens == group.gens
    assert format_group(parsed, geom) == text


def test_group_empty_file_is_trivial():
    geom = ssg(3, 2)
    group = parse_group("# nothing\n", geom)
    assert group.order() == 1


def test_group_parse_errors():
    geom, _ = hexagon()
    with pytest.raises(ParseError):
        parse_group("gen (0 nope)\n", geom)
    with pytest.raises(ParseError):
        parse_group("gen (0 1)(1 2)\n", geom)  # not disjoint
    with pytest.raises(ParseError):
        parse_group("gen (0 0)\n", geom)
    with pytest.raises(ParseError):
        parse_group("mystery (0 1)\n", geom)
    with pytest.raises(ParseError):
        parse_group("gen junk\n", geom)


def test_graph_roundtrip():
    text = "vert a\nvert b\nvert c\nedge a b\nedge b c\n"
    graph = parse_graph(text)
    assert format_graph(graph) == text
    with pytest.raises(ParseError):
        parse_graph("vert a\nedge a b\n")
    with pytest.raises(ParseError):
        parse_graph("vert a\nvert a\n")


def test_golden_files_parse():
    from geoq.reproduce import GOLDEN_FILES, golden_text
    for name in GOLDEN_FILES:
        text = golden_text(name)
        if name.endswith(".geo"):
            parse_geometry(text)
        elif name.endswith(".part"):
            base = name.rsplit(".", 1)[0] + ".geo"
            parse_partition(text, parse_geometry(golden_text(base)))
        elif name.endswith(".grp"):
            base = name.split("-n.grp")[0].split(".grp")[0] + ".geo"
            parse_group(text, parse_geometry(golden_text(base)))


def test_geometry_file_of_one_record_kind_is_not_empty():
    # a file is empty when it has no record at all, whichever kind a
    # record would be
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(ParseError, match="empty geometry file"):
            parse_geometry(text)
    with pytest.raises(ParseError, match="unknown element in incidence"):
        parse_geometry("inc x y\n")
    assert parse_geometry("type A\n").size == 0
    with pytest.raises(ParseError, match="unknown type 'A'"):
        parse_geometry("elem x A\n")
