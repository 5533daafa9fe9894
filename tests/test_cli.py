import contextlib
import errno
import functools
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from geoq.cli import EXIT_PIPE, main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_file(tmp_path, capsys, *argv):
    code, out, err = run(capsys, "gen", *argv, "--dir", str(tmp_path))
    assert code == 0, err
    return out


def test_check_good_geometry(tmp_path, capsys):
    gen_file(tmp_path, capsys, "ssg", "4", "3")
    code, out, _ = run(capsys, "check", str(tmp_path / "ssg-4-3.geo"))
    assert code == 0
    assert "geometry" in out and "firm" in out


def test_check_hexagon_fails_geometry(tmp_path, capsys):
    gen_file(tmp_path, capsys, "catalogue", "hexagon")
    code, out, _ = run(capsys, "--machine", "check",
                       str(tmp_path / "hexagon.geo"))
    assert code == 1
    lines = out.strip().splitlines()
    assert "geometry=false" in lines
    assert lines == sorted(lines)


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.geo"
    bad.write_text("type A\nwhat is this\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 2" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.geo")
    assert code == 2


def test_check_flag_cap(tmp_path, capsys):
    gen_file(tmp_path, capsys, "ssg", "4", "3")
    code, _, err = run(capsys, "check", str(tmp_path / "ssg-4-3.geo"),
                       "--max-flags", "5")
    assert code == 3
    assert err.strip() == "cap exceeded: flag count exceeds --max-flags 5"


def test_diagram_flag_cap(tmp_path, capsys):
    gen_file(tmp_path, capsys, "ssg", "5", "3")
    code, out, err = run(capsys, "diagram", str(tmp_path / "ssg-5-3.geo"),
                         "--max-flags", "5")
    assert code == 3
    assert out == ""
    assert err.strip() == "cap exceeded: flag count exceeds --max-flags 5"


def test_flag_cap_walk_is_the_only_flag_walk(tmp_path, capsys, monkeypatch):
    # the --max-flags count keeps the flags it walks as the geometry's
    # flag list, so axioms and quotient walk the source's flags once; a
    # cap equal to the flag count is accepted
    import geoq.cli
    import geoq.geometry
    walked = []
    real = geoq.geometry.all_flags

    def counted(geom):
        walked.append(geom.size)
        return real(geom)

    monkeypatch.setattr(geoq.cli, "all_flags", counted)
    monkeypatch.setattr(geoq.geometry, "all_flags", counted)
    gen_file(tmp_path, capsys, "catalogue", "eightcycle")
    geo = str(tmp_path / "eightcycle.geo")
    grp = str(tmp_path / "eightcycle.grp")
    for argv in (["axioms", geo, grp],
                 ["quotient", geo, "--orbits", grp,
                  "-o", str(tmp_path / "q.geo")]):
        del walked[:]
        code, _, err = run(capsys, "--machine", *argv, "--max-flags", "17")
        assert (code, err) == (0, "")
        assert walked.count(8) == 1, (argv, walked)
    code, _, err = run(capsys, "diagram", geo, "--max-flags", "16")
    assert code == 3
    assert err.strip() == "cap exceeded: flag count exceeds --max-flags 16"


def _write_bipartite_pairs(tmp_path):
    # six types of two elements each, e<i>_<a> incident with e<j>_<b>
    # when i != j and a != b: 43 flags (no three elements are pairwise
    # incident), while the quotient by the swap a <-> 1 - a, one block per
    # type, is the 6-simplex with 64 flags
    from geoq import io
    from geoq.geometry import Pregeometry
    from geoq.perms import Perm, PermGroup
    from geoq.quotient import Partition
    names = ["e%d_%d" % (i, a) for i in range(6) for a in range(2)]
    geom = Pregeometry(["T%d" % i for i in range(6)], names,
                       [x // 2 for x in range(12)],
                       [(x, y) for x in range(12) for y in range(x + 1, 12)
                        if x // 2 != y // 2 and x % 2 != y % 2])
    swap = PermGroup([Perm.from_cycles(12, [(x, x + 1)
                                            for x in range(0, 12, 2)])])
    part = Partition(geom, [(x, x + 1) for x in range(0, 12, 2)])
    paths = [tmp_path / name for name in ("b.geo", "b.grp", "b.part")]
    for path, text in zip(paths, (io.format_geometry(geom),
                                  io.format_group(swap, geom),
                                  io.format_partition(part, geom))):
        path.write_text(text)
    return [str(path) for path in paths]


def test_quotient_flags_are_capped(tmp_path, capsys):
    # a quotient can have more flags than its source, so quotient and
    # axioms count the quotient's flags under --max-flags too, before any
    # decider reads them and before any file is written
    geo, grp, part = _write_bipartite_pairs(tmp_path)
    out = tmp_path / "q.geo"
    commands = [["axioms", geo, grp],
                ["quotient", geo, "--orbits", grp, "-o", str(out)],
                ["quotient", geo, "--partition", part, "-o", str(out)]]
    for argv in commands:
        for cap, what in ((42, "flag count"), (63, "quotient flag count")):
            code, stdout, err = run(capsys, "--machine", *argv,
                                    "--max-flags", str(cap))
            assert (code, stdout) == (3, "")
            assert err == ("cap exceeded: %s exceeds --max-flags %d\n"
                           % (what, cap))
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "b.geo", "b.grp", "b.part"]
    for argv in commands:
        code, stdout, err = run(capsys, "--machine", *argv,
                                "--max-flags", "64")
        assert code in (0, 1) and err == ""
        assert "quotient-geometry=true" in stdout or argv[0] == "axioms"
    assert out.exists()


def test_group_order_cap(tmp_path, capsys):
    gen_file(tmp_path, capsys, "coseteg", "2")
    code, _, err = run(capsys, "axioms", str(tmp_path / "coseteg-2.geo"),
                       str(tmp_path / "coseteg-2.grp"),
                       "--max-group-order", "3")
    assert code == 3


def test_quotient_group_order_cap(tmp_path, capsys):
    # the group is enumerated once, before any work or file output
    gen_file(tmp_path, capsys, "coseteg", "2")
    out = tmp_path / "q.geo"
    code, stdout, err = run(capsys, "quotient",
                            str(tmp_path / "coseteg-2.geo"),
                            "--orbits", str(tmp_path / "coseteg-2.grp"),
                            "-o", str(out), "--max-group-order", "3")
    assert code == 3
    assert err.strip() == "cap exceeded: group order exceeds cap 3"
    assert stdout == ""
    assert not out.exists()


def test_quotient_with_orbits(tmp_path, capsys):
    gen_file(tmp_path, capsys, "catalogue", "hexagon")
    out_file = tmp_path / "hexq.geo"
    code, out, _ = run(capsys, "--machine", "quotient",
                       str(tmp_path / "hexagon.geo"),
                       "--orbits", str(tmp_path / "hexagon.grp"),
                       "-o", str(out_file))
    assert code == 1  # flagslift and friends are false here
    assert "flagslift=false" in out
    assert "quotient-geometry=true" in out
    assert "tq3=false" in out
    text = out_file.read_text()
    assert "type T0" in text and "inc" in text


def test_quotient_with_partition(tmp_path, capsys):
    gen_file(tmp_path, capsys, "catalogue", "grid-complement")
    out_file = tmp_path / "gridq.geo"
    code, out, _ = run(capsys, "--machine", "quotient",
                       str(tmp_path / "grid-complement.geo"),
                       "--partition", str(tmp_path / "grid-complement.part"),
                       "-o", str(out_file))
    assert "quotient-geometry=true" in out
    assert out_file.exists()
    # an empty path is given, not absent: it is refused as unreadable
    code, out, err = run(capsys, "quotient",
                         str(tmp_path / "grid-complement.geo"),
                         "--partition", "")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 0: cannot read : ")


def test_unwritable_output_is_refused(tmp_path, capsys):
    # an output path that cannot be written is refused like an input that
    # cannot be read (exit 2, one line), not with a traceback and exit 1
    gen_file(tmp_path, capsys, "catalogue", "hexagon")
    orbits = ["quotient", str(tmp_path / "hexagon.geo"),
              "--orbits", str(tmp_path / "hexagon.grp"), "-o"]
    gen = ["gen", "ssg", "3", "2", "--dir"]
    missing, plain = tmp_path / "missing" / "q.geo", tmp_path / "plain"
    plain.write_text("kept")
    blocked = tmp_path / "ssg-3-2.geo"  # where gen writes, a directory
    blocked.mkdir()
    for argv, path, named, code in (
            (orbits, missing, missing, errno.ENOENT),
            (orbits, tmp_path, tmp_path, errno.EISDIR),
            (gen, plain, plain, errno.EEXIST),
            (gen, tmp_path, blocked, errno.EISDIR)):
        got, out, err = run(capsys, *argv, str(path))
        assert (got, out) == (2, ""), argv
        assert err.startswith("error: cannot write %s: [Errno %d] "
                              % (named, code)), err
    assert plain.read_text() == "kept"


def test_quotient_block_names_stay_distinct(tmp_path, capsys):
    # "{a,b}" names both the block of a and b and the block of the element
    # "a,b"; colliding names get the block index, and the quotient written
    # parses back as the quotient itself
    from geoq import io as gio
    from geoq.quotient import Projection
    geo, part, out_file = (tmp_path / "g.geo", tmp_path / "p.part",
                           tmp_path / "q.geo")
    geo.write_text("type P\ntype L\nelem a P\nelem b P\nelem a,b P\n"
                   "elem l L\ninc a l\ninc b l\ninc a,b l\n")
    part.write_text("block B a b\n")
    code, out, err = run(capsys, "--machine", "quotient", str(geo),
                         "--partition", str(part), "-o", str(out_file))
    assert (code, err) == (1, "")
    assert "quotient-geometry=true" in out.splitlines()
    written = gio.parse_geometry(out_file.read_text())
    assert written.elem_names == ("{a,b}~0", "{a,b}~1", "{l}~2")
    geom = gio.parse_geometry(geo.read_text())
    proj = Projection(geom, gio.parse_partition(part.read_text(), geom))
    assert written == proj.quotient


def test_quotient_normal_closure(tmp_path, capsys):
    gen_file(tmp_path, capsys, "coseteg", "2")
    sub = tmp_path / "sub.grp"
    # one diagonal generator; its normal closure in the full action is the
    # diagonal subgroup itself (the cube of an abelian group)
    full = (tmp_path / "coseteg-2-n.grp").read_text()
    sub.write_text(full.splitlines()[0] + "\n")
    code, out, _ = run(capsys, "--machine", "quotient",
                       str(tmp_path / "coseteg-2.geo"),
                       "--orbits", str(sub),
                       "--normal-closure", str(tmp_path / "coseteg-2.grp"),
                       "-o", str(tmp_path / "q.geo"))
    assert "quotient-geometry=false" in out


def test_axioms_table(tmp_path, capsys):
    gen_file(tmp_path, capsys, "catalogue", "eightcycle")
    code, out, _ = run(capsys, "--machine", "axioms",
                       str(tmp_path / "eightcycle.geo"),
                       str(tmp_path / "eightcycle.grp"))
    assert code == 0
    for key in ("flagslift=true", "pq1=true", "pq2=true", "tq1=true",
                "tq2prime=true", "tq2doubleprime=true", "tq3=true",
                "residually-surjective=true", "is-cover=true"):
        assert key in out


def test_diagram_command(tmp_path, capsys):
    gen_file(tmp_path, capsys, "ssg", "5", "3")
    code, out, _ = run(capsys, "diagram", str(tmp_path / "ssg-5-3.geo"))
    assert code == 0
    assert "pair-0-1" in out and "edge" in out
    assert "forest" in out


def test_iso_command(tmp_path, capsys):
    gen_file(tmp_path, capsys, "ssg", "3", "2")
    gen_file(tmp_path, capsys, "catalogue", "hexagon")
    code, out, _ = run(capsys, "iso", str(tmp_path / "ssg-3-2.geo"),
                       str(tmp_path / "ssg-3-2.geo"))
    assert code == 0 and "isomorphic" in out
    code, _, _ = run(capsys, "iso", str(tmp_path / "ssg-3-2.geo"),
                     str(tmp_path / "hexagon.geo"))
    assert code == 1


def test_iso_refuses_a_search_deeper_than_the_recursion_limit(tmp_path,
                                                              capsys):
    # the search nests one level per element: 900 elements answer, and
    # 2000 refuse with exit 3 instead of a RecursionError traceback
    from geoq.constructions import cycle_geometry
    from geoq.io import format_geometry
    from geoq.perms import CapExceeded, automorphism_group
    for n, want in ((900, 0), (2000, 3)):
        path = tmp_path / ("cycle-%d.geo" % n)
        path.write_text(format_geometry(cycle_geometry(n)))
        code, out, err = run(capsys, "--machine", "iso", str(path), str(path))
        assert code == want, (n, err)
        if want == 0:
            assert out.startswith("isomorphic=true") and err == ""
        else:
            assert out == ""
            assert err == ("cap exceeded: incidence-map search of 2000 "
                           "elements exceeds the recursion limit\n")
    with pytest.raises(CapExceeded):
        automorphism_group(cycle_geometry(2000))


def test_iso_prints_the_first_map_found(tmp_path, capsys):
    # the eight-cycle with its element lines shuffled; the search order
    # fixes which of its 8 isomorphisms is printed
    gen_file(tmp_path, capsys, "catalogue", "eightcycle")
    shuffled = tmp_path / "shuffled.geo"
    shuffled.write_text(
        "type even\ntype odd\n"
        + "".join("elem %d %s\n" % (x, ("even", "odd")[x % 2])
                  for x in (3, 6, 1, 5, 7, 0, 4, 2))
        + "".join("inc %d %d\n" % (x, (x + 1) % 8) for x in range(8)))
    code, out, _ = run(capsys, "iso", str(tmp_path / "eightcycle.geo"),
                       str(shuffled))
    assert code == 0
    assert out.splitlines()[0] == ("isomorphic  true   witness: 0->6 1->5 "
                                   "2->4 3->3 4->2 5->1 6->0 7->7")


def test_gen_coseteg_group_order_is_capped_before_building(
        tmp_path, capsys, monkeypatch):
    # coseteg-n has 3n^2 + n^3 elements: above 10,000 (n = 21 has 10,584,
    # n = 59 has 215,822) it is refused with exit 3 before the cube is
    # built; orders below 2 stay usage errors, and one below 1 is named
    from geoq.cosets import FiniteGroup

    def unbuilt(*groups):
        raise AssertionError("cube built")

    monkeypatch.setattr(FiniteGroup, "direct_product", unbuilt)
    for n, size in (("21", 10584), ("59", 215822)):
        code, out, err = run(capsys, "gen", "coseteg", n, "--dir",
                             str(tmp_path))
        assert (code, out) == (3, "")
        assert err == "cap exceeded: element count %d exceeds cap 10000\n" % (
            size)
    monkeypatch.undo()
    for n, msg in (("0", "cyclic group needs n >= 1, got n=0"),
                   ("-5", "cyclic group needs n >= 1, got n=-5"),
                   ("1", "base group must have order at least 2")):
        assert run(capsys, "gen", "coseteg", n, "--dir", str(tmp_path)) == (
            2, "", "error: %s\n" % msg)
    assert list(tmp_path.iterdir()) == []


def test_gen_ssg_element_count_is_capped_before_building(
        tmp_path, capsys, monkeypatch):
    # ssg(14, 7) has 14 + 91 + ... + 3432 = 9,907 elements, above the
    # cap of 5,000: refused with exit 3 before any subset is listed
    import geoq.constructions as cons

    def unbuilt(*args):
        raise AssertionError("subsets listed")

    monkeypatch.setattr(cons, "combinations", unbuilt)
    code, out, err = run(capsys, "gen", "ssg", "14", "7", "--dir",
                         str(tmp_path))
    assert (code, out) == (3, "")
    assert err == "cap exceeded: element count 9907 exceeds cap 5000\n"
    assert cons.SSG_MAX_ELEMENTS == 5000
    assert list(tmp_path.iterdir()) == []


def test_gen_blowup_element_count_is_capped_before_building(
        tmp_path, capsys, monkeypatch):
    # ssg(3, 2)'s 6 elements along a 1,000-vertex graph make 6,000
    # elements, above the cap of 5,000: refused before any pair is made
    import geoq.constructions as cons

    def unbuilt(*args):
        raise AssertionError("blow-up built")

    gen_file(tmp_path, capsys, "ssg", "3", "2")
    graph = tmp_path / "big.graph"
    graph.write_text("".join("vert v%d\n" % d for d in range(1000)))
    monkeypatch.setattr(cons, "incident_pairs", unbuilt)
    code, out, err = run(capsys, "gen", "blowup", str(tmp_path / "ssg-3-2.geo"),
                         str(graph), "--dir", str(tmp_path / "out"))
    assert (code, out) == (3, "")
    assert err == "cap exceeded: element count 6000 exceeds cap 5000\n"
    assert not (tmp_path / "out").exists()


def test_gen_lift_element_count_is_capped_before_building(
        tmp_path, capsys, monkeypatch):
    # lift(ssg(3, 2), 8, 4): 3 * 8 vertices and, per line, C(8, 4)^2
    # choices of its two parts, 24 + 3 * 4,900 = 14,724 elements
    import geoq.constructions as cons

    def unbuilt(*args):
        raise AssertionError("lift built")

    gen_file(tmp_path, capsys, "ssg", "3", "2")
    monkeypatch.setattr(cons, "product", unbuilt)
    code, out, err = run(capsys, "gen", "lift", str(tmp_path / "ssg-3-2.geo"),
                         "8", "4", "--dir", str(tmp_path / "out"))
    assert (code, out) == (3, "")
    assert err == "cap exceeded: element count 14724 exceeds cap 5000\n"
    assert not (tmp_path / "out").exists()


def test_gen_refuses_huge_counts_in_bounded_time(tmp_path, capsys):
    # Z_n is not built, and no count is carried past a million: each
    # refusal takes milliseconds and names the cap, where building Z_3000
    # took seconds and a count of thousands of digits could not be printed
    gen_file(tmp_path, capsys, "ssg", "4", "3")
    out_dir = tmp_path / "out"
    for argv, cap in ((["coseteg", "3000"], 10000),
                      (["coseteg", "6000"], 10000),
                      (["coseteg", "9" * 4000], 10000),
                      (["ssg", "10000", "5000"], 5000),
                      (["ssg", "20000", "10000"], 5000),
                      (["ssg", "5000", "4999"], 5000),
                      (["lift", str(tmp_path / "ssg-4-3.geo"), "30000",
                        "15000"], 5000)):
        start = time.perf_counter()
        got = run(capsys, "gen", *argv, "--dir", str(out_dir))
        assert time.perf_counter() - start < 1, argv[:2]
        assert got == (3, "", "cap exceeded: element count more than "
                       "1000000 exceeds cap %d\n" % cap), argv[:2]
    assert not out_dir.exists()


def test_gen_all_kinds(tmp_path, capsys):
    gen_file(tmp_path, capsys, "affine", "2", "2")
    assert (tmp_path / "affine-2-2.geo").exists()
    assert (tmp_path / "affine-2-2.grp").exists()
    gen_file(tmp_path, capsys, "coseteg", "2")
    for suffix in (".geo", ".grp", "-n.grp"):
        assert (tmp_path / ("coseteg-2" + suffix)).exists()
    gen_file(tmp_path, capsys, "ssg", "3", "2")
    gen_file(tmp_path, capsys, "blowup", str(tmp_path / "ssg-3-2.geo"),
             str(write_graph(tmp_path)))
    assert (tmp_path / "blowup.geo").exists()
    gen_file(tmp_path, capsys, "lift", str(tmp_path / "ssg-3-2.geo"), "3", "2")
    assert (tmp_path / "lift-3-2.geo").exists()


def write_graph(tmp_path):
    path = tmp_path / "k2.graph"
    path.write_text("vert a\nvert b\nedge a b\n")
    return path


def test_gen_catalogue_every_entry(tmp_path, capsys):
    from geoq.constructions import example_generators
    for name in example_generators():
        gen_file(tmp_path, capsys, "catalogue", name)
        assert (tmp_path / (name + ".geo")).exists()
    # the multipartite entry carries two groups
    assert (tmp_path / "multipartite.grp").exists()
    assert (tmp_path / "multipartite-2.grp").exists()
    assert (tmp_path / "grid-complement.part").exists()


def test_gen_catalogue_unknown(capsys):
    code, _, err = run(capsys, "gen", "catalogue", "nope")
    assert code == 2
    assert "unknown catalogue" in err


def test_reproduce_subset(capsys):
    code, out, _ = run(capsys, "reproduce", "hexagon", "grid-complement")
    assert code == 0
    assert "hexagon" in out and "PASS" in out


# (checked, nonvacuous) of every lemma suite at --count 200, suites in
# name order: every draw and every verdict of the randomized suites
LEMMA_SUITE_COUNTS = {
    "0": [("coset-quotient-closed", 200, 200),
          ("cover-properties", 200, 173),
          ("cover-semiregular", 200, 57),
          ("distance4-cover", 200, 163),
          ("flagslift-quotient-geometry", 200, 195),
          ("flagslift-tq2prime-tq2doubleprime", 200, 120),
          ("forest-chamber-lift", 200, 1009),
          ("rank3-quotient", 200, 200),
          ("shadowable-quotient", 200, 200),
          ("tq1-iff-tq2-both", 200, 200),
          ("tq3-tq1-pq1-flagslift", 200, 183)],
    "1": [("coset-quotient-closed", 200, 200),
          ("cover-properties", 200, 159),
          ("cover-semiregular", 200, 57),
          ("distance4-cover", 200, 164),
          ("flagslift-quotient-geometry", 200, 193),
          ("flagslift-tq2prime-tq2doubleprime", 200, 128),
          ("forest-chamber-lift", 200, 1268),
          ("rank3-quotient", 200, 200),
          ("shadowable-quotient", 200, 200),
          ("tq1-iff-tq2-both", 200, 200),
          ("tq3-tq1-pq1-flagslift", 200, 184)],
    "20260808": [("coset-quotient-closed", 200, 200),
                 ("cover-properties", 200, 178),
                 ("cover-semiregular", 200, 64),
                 ("distance4-cover", 200, 160),
                 ("flagslift-quotient-geometry", 200, 192),
                 ("flagslift-tq2prime-tq2doubleprime", 200, 138),
                 ("forest-chamber-lift", 200, 1269),
                 ("rank3-quotient", 200, 200),
                 ("shadowable-quotient", 200, 200),
                 ("tq1-iff-tq2-both", 200, 200),
                 ("tq3-tq1-pq1-flagslift", 200, 188)],
}


@functools.cache
def machine_reproduce(seed):
    """Exit code and stdout of `--machine reproduce --count 200` at a
    GEOQ_SEED, run once per seed for the tests below."""
    saved = os.environ.get("GEOQ_SEED")
    os.environ["GEOQ_SEED"] = seed
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["--machine", "reproduce", "--count", "200"])
    finally:
        if saved is None:
            del os.environ["GEOQ_SEED"]
        else:
            os.environ["GEOQ_SEED"] = saved
    return code, out.getvalue()


@pytest.mark.parametrize("seed", sorted(LEMMA_SUITE_COUNTS))
def test_lemma_suite_counts_are_pinned(seed):
    code, out = machine_reproduce(seed)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("lemma-suites=pass")
    assert lines[at:at + 12] == ["lemma-suites=pass"] + [
        "lemma-suites.%s[checked=%d,nonvacuous=%d]=(True, 0)" % counts
        for counts in LEMMA_SUITE_COUNTS[seed]]


@pytest.mark.parametrize("seed", sorted(LEMMA_SUITE_COUNTS))
def test_reproduce_output_is_pinned(seed):
    # every scenario's every line, the draws of the randomized suites
    # included, as the library printed them when these files were made
    code, out = machine_reproduce(seed)
    assert code == 0
    assert out == (DATA / ("reproduce-%s.txt" % seed)).read_text()


@pytest.mark.parametrize("argv, option", [
    (["check", "F", "--max-flags", "-5"], "max-flags"),
    (["diagram", "F", "--max-f=-1"], "max-flags"),
    (["axioms", "F", "G", "--max-group-order", "-3"], "max-group-order"),
    (["quotient", "F", "--orbits", "G", "--max-g=-2"], "max-group-order"),
    (["--machine", "reproduce", "--count", "-1", "lemma-suites"], "count"),
    (["reproduce", "--co", "-4"], "count"),
])
def test_negative_caps_and_counts_are_refused(argv, option, capsys,
                                              monkeypatch):
    # parse_args reads these as argparse did; main refuses them before any
    # command runs: no file is read and reproduce prints no suite
    from geoq import cli
    read = []
    monkeypatch.setattr(cli, "_read", read.append)
    code, out, err = run(capsys, *argv)
    assert (code, out, read) == (2, "", [])
    usage, reason = err.splitlines()
    assert usage.startswith("usage: geoq %s " % argv[argv[0] == "--machine"])
    assert ("error: argument --%s: must not be negative" % option) in reason


@pytest.mark.parametrize("argv", [
    ["--machine", "reproduce", "--count", "0", "lemma-suites"],
    ["reproduce", "--co=0"],
])
def test_zero_count_is_refused(argv, capsys, monkeypatch):
    # a count of zero checks no instance, so every suite would pass
    # vacuously: main refuses it before any scenario runs
    from geoq import reproduce
    monkeypatch.setattr(reproduce, "run_scenarios", None)  # not reached
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    usage, reason = err.splitlines()
    assert usage.startswith("usage: geoq reproduce [-h] [--count N]")
    assert reason == ("geoq reproduce: error: argument --count: must be "
                      "positive: 0")


def test_reproduce_unknown_scenario(capsys):
    code, _, err = run(capsys, "reproduce", "made-up")
    assert code == 2
    assert "known scenarios" in err


def test_reproduce_detects_corruption(capsys, monkeypatch):
    import geoq.reproduce as rep
    real = rep.golden_text

    def corrupt(name):
        text = real(name)
        if name == "hexagon.geo":
            return text.replace("inc 0 1", "inc 0 3")
        return text

    monkeypatch.setattr(rep, "golden_text", corrupt)
    code, out, _ = run(capsys, "reproduce", "goldens")
    assert code == 1
    assert "FAIL" in out
    assert "-inc 0 1" in out and "+inc 0 3" in out


def write_symmetric_action(tmp_path, v):
    # S_v acting on ssg(v, 2), written as the CLI reads it
    from geoq import io
    from geoq.constructions import ssg_symmetric_action
    geom, group = ssg_symmetric_action(v, 2)
    geo, grp = tmp_path / ("s%d.geo" % v), tmp_path / ("s%d.grp" % v)
    geo.write_text(io.format_geometry(geom))
    grp.write_text(io.format_group(group, geom))
    return str(geo), str(grp)


def count_listings(monkeypatch):
    import geoq.perms
    calls = []
    real = geoq.perms.mulclose

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(geoq.perms, "mulclose", counted)
    return calls


def test_large_group_axioms_without_listing(tmp_path, capsys, monkeypatch):
    # |S_9| = 362,880: the order comes from the Schreier-Sims chain, and
    # no decider lists the group
    geo, grp = write_symmetric_action(tmp_path, 9)
    listings = count_listings(monkeypatch)
    code, out, err = run(capsys, "--machine", "axioms", geo, grp,
                         "--max-group-order", "400000")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "flagslift=true", "is-cover=false", "pq1=true", "pq2=false",
        "residually-surjective=true", "tq1=true", "tq2doubleprime=true",
        "tq2prime=true", "tq3=false"]
    assert listings == []


def test_large_group_refused_at_default_cap(tmp_path, capsys, monkeypatch):
    # |S_10| = 3,628,800 is above the default cap of 200,000
    geo, grp = write_symmetric_action(tmp_path, 10)
    listings = count_listings(monkeypatch)
    code, out, err = run(capsys, "--machine", "axioms", geo, grp)
    assert code == 3
    assert err.strip() == "cap exceeded: group order exceeds cap 200000"
    assert out == ""
    assert listings == []


SAME_TYPE = """type A
type B
type C
elem a1 A
elem a2 A
elem b1 B
elem c1 C
inc a1 a2
inc a1 b1
inc a1 c1
inc a2 b1
inc a2 c1
inc b1 c1
"""
SAME_TYPE_REPORT = "same-type incidence: a1 * a2 (type A)"


def test_check_reports_invalid_geometry_without_later_rows(tmp_path, capsys):
    bad = tmp_path / "same.geo"
    bad.write_text(SAME_TYPE)
    code, out, err = run(capsys, "--machine", "check", str(bad))
    assert (code, out, err) == (1, "validate=false\n", "")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1 and err == ""
    assert out.splitlines()[0] == "validate  false   witness: " + SAME_TYPE_REPORT
    assert out.splitlines()[1].startswith("elapsed: ")


def test_other_commands_refuse_invalid_geometry(tmp_path, capsys):
    bad = tmp_path / "same.geo"
    bad.write_text(SAME_TYPE)
    grp = tmp_path / "same.grp"
    grp.write_text("gen (a1 a2)\n")
    out_file = tmp_path / "q.geo"
    for argv in (["diagram", str(bad)],
                 ["axioms", str(bad), str(grp)],
                 ["quotient", str(bad), "--orbits", str(grp),
                  "-o", str(out_file)],
                 ["iso", str(bad), str(bad)]):
        code, out, err = run(capsys, "--machine", *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: %s: %s\n" % (bad, SAME_TYPE_REPORT)
    assert not out_file.exists()


def test_quotient_orbits_builds_one_projection(tmp_path, capsys, monkeypatch):
    # the flag-lift, PQ1, PQ2 and cover rows come from the orbit-quotient's
    # axiom report, and the orbit-quotient is itself the projection: no
    # second partition or projection is built
    from geoq.quotient import Projection
    built = []
    real_init = Projection.__init__

    def counted(self, source, partition):
        built.append(partition)
        real_init(self, source, partition)

    monkeypatch.setattr(Projection, "__init__", counted)
    gen_file(tmp_path, capsys, "coseteg", "2")
    code, out, _ = run(capsys, "--machine", "quotient",
                       str(tmp_path / "coseteg-2.geo"),
                       "--orbits", str(tmp_path / "coseteg-2.grp"),
                       "-o", str(tmp_path / "q.geo"))
    assert len(built) == 1
    keys = [line.split("=")[0] for line in out.splitlines()]
    assert keys == ["cover", "flagslift", "min-block-distance", "pq1", "pq2",
                    "quotient-geometry", "residually-surjective", "tq1",
                    "tq2doubleprime", "tq2prime", "tq3"]


def test_quotient_orbits_computes_the_block_distance_once(tmp_path, capsys,
                                                         monkeypatch):
    # the min-block-distance row and check_TQ3 read one value kept on the
    # orbit-quotient: at most one search from the least member of each
    # block, and no min_block_distance
    from geoq import axioms, io
    from geoq.perms import orbit_partition
    from geoq.quotient import min_block_distance
    searches = []
    real = axioms.bfs

    def counted(masks, sources, **bounds):
        searches.append(sources[0])
        return real(masks, sources, **bounds)

    def refused(geom, partition):
        raise AssertionError("min_block_distance called")

    monkeypatch.setattr(axioms, "bfs", counted)
    monkeypatch.setattr(sys.modules["geoq.quotient"], "min_block_distance",
                        refused)
    gen_file(tmp_path, capsys, "coseteg", "2")
    geo, grp = tmp_path / "coseteg-2.geo", tmp_path / "coseteg-2-n.grp"
    code, out, _ = run(capsys, "--machine", "quotient", str(geo),
                       "--orbits", str(grp), "-o", str(tmp_path / "q.geo"))
    geom = io.parse_geometry(geo.read_text())
    part = orbit_partition(io.parse_group(grp.read_text(), geom), geom)
    assert 0 < len(searches) == len(set(searches))
    assert set(searches) <= {block[0] for block in part.blocks}
    want = min_block_distance(geom, part)
    assert "min-block-distance=%s" % want in out.splitlines()
    assert ("tq3=%s" % str(want >= 4).lower()) in out.splitlines()


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises, as a pipe
    whose other end is closed does; fileno is a descriptor of ours."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_with_its_own_status(tmp_path, capsys,
                                                 monkeypatch):
    # `geoq ... | head -1`: no traceback, and a status that no check
    # result uses; the rest of the output goes to devnull
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
        code = main(["--machine", "reproduce", "hexagon"])
        assert code == EXIT_PIPE == 141
        assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_closed_pipe_in_a_fresh_interpreter():
    # the reader closes its end before the command prints anything, so
    # the flush in main meets the closed pipe, and nothing is left for
    # the flush at exit to report
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from geoq.cli import main; sys.exit(main())",
         "--machine", "reproduce", "hexagon"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_PIPE
    assert err == b""


def argparse_parser():
    """The argparse parser the command line was read with before
    COMMANDS, kept as the oracle of parse_args."""
    import argparse
    from geoq import cli
    top = argparse.ArgumentParser(prog="geoq")
    top.add_argument("--machine", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)

    def flag_cap(p):
        p.add_argument("--max-flags", type=int, default=2_000_000)

    def common(p):
        p.add_argument("--max-group-order", type=int, default=200_000)
        flag_cap(p)

    p = sub.add_parser("check")
    p.add_argument("geometry")
    flag_cap(p)
    p.set_defaults(func=cli.cmd_check)
    p = sub.add_parser("quotient")
    p.add_argument("geometry")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--partition")
    g.add_argument("--orbits")
    p.add_argument("--normal-closure")
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(func=cli.cmd_quotient)
    p = sub.add_parser("axioms")
    p.add_argument("geometry")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cli.cmd_axioms)
    p = sub.add_parser("diagram")
    p.add_argument("geometry")
    flag_cap(p)
    p.set_defaults(func=cli.cmd_diagram)
    p = sub.add_parser("iso")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cli.cmd_iso)
    p = sub.add_parser("gen")
    gensub = p.add_subparsers(dest="what", required=True)
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
        q.set_defaults(func=cli.cmd_gen)
    p = sub.add_parser("reproduce")
    p.add_argument("names", nargs="*")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cli.cmd_reproduce)
    return top


VALID_ARGVS = [
    ["check", "a.geo"], ["--machine", "check", "a.geo"],
    ["check", "--max-flags", "5", "a.geo"], ["check", "a.geo", "--max-flags=5"],
    ["check", "a", "--max", "3"], ["--mach", "check", "--max-f=-3", "a"],
    ["check", "--", "-x.geo"], ["check", "a.geo", "--"], ["check", "-5"],
    ["check", "-"], ["check", ""], ["check", "-1.5"],
    ["quotient", "a.geo", "--partition", "p.part"],
    ["quotient", "--orbits", "g.grp", "a.geo", "-o", "out.geo"],
    ["quotient", "a.geo", "--orbits=g.grp", "--normal-closure", "o.grp",
     "--output=x"],
    ["quotient", "a.geo", "--part", "p", "--out", "x"],
    ["quotient", "a.geo", "--orb", "g", "--norm=o", "--max-group-order", "9"],
    ["quotient", "a.geo", "--partition", "p", "-o=x"],
    ["quotient", "a.geo", "--partition", "p", "--partition", "q"],
    ["quotient", "a.geo", "--orbits", "-", "--output="],
    ["axioms", "a.geo", "g.grp"], ["axioms", "a.geo", "--max-flags", "10", "g"],
    ["--machine", "axioms", "--max-group-order=400000", "a.geo", "g.grp"],
    ["axioms", "--", "a.geo", "g.grp"], ["axioms", "a", "--", "-g"],
    ["diagram", "a.geo"], ["diagram", "a.geo", "--max-flags", "-1"],
    ["diagram", "--max=4", "a.geo"],
    ["iso", "a.geo", "b.geo"], ["--machine", "iso", "a", "b"],
    ["iso", "a", "--", "-b"],
    ["gen", "ssg", "4", "3"], ["gen", "ssg", "4", "3", "-o", "x", "--dir", "d"],
    ["gen", "ssg", "--dir=d", "4", "3"], ["gen", "ssg", " 4", "3"],
    ["gen", "affine", "3", "2"], ["gen", "affine", "--out", "x", "2", "3"],
    ["gen", "coseteg", "5"], ["gen", "coseteg", "-5"],
    ["gen", "coseteg", "--", "7"],
    ["gen", "blowup", "a.geo", "k.graph"],
    ["gen", "blowup", "a.geo", "--d", "d", "k.graph"],
    ["gen", "lift", "a.geo", "3", "2"],
    ["gen", "lift", "a.geo", "3", "-2", "--output=-"],
    ["gen", "catalogue", "hexagon"],
    ["--machine", "gen", "catalogue", "-o", "h", "eightcycle"],
    ["reproduce"], ["reproduce", "hexagon", "blowup"],
    ["reproduce", "--count", "3", "hexagon"], ["reproduce", "-v", "--count=7"],
    ["reproduce", "--verb", "--co", "-4"], ["reproduce", "hexagon", "-v"],
    ["--machine", "reproduce", "--", "-v"],
]

MALFORMED_ARGVS = [
    [], ["--machine"], ["nope"], ["--machine=1", "check", "a"], ["check"],
    ["check", "a", "b"], ["check", "a", "--machine"],
    ["check", "a.geo", "--max-g", "7"], ["axioms", "a", "g", "--max", "3"],
    ["check", "a", "--max-flags", "x"],
    ["check", "a", "--max-flags"], ["check", "a", "--max-flags", "--"],
    ["check", "a", "--nope"], ["check", "-x"], ["check", "--", "a", "b"],
    ["quotient", "a.geo"], ["quotient", "a.geo", "--o", "x"],
    ["quotient", "a.geo", "--partition", "p", "--orbits", "g"],
    ["axioms", "only-one.geo"], ["iso", "a"], ["iso", "a", "b", "-x"],
    ["diagram", "a", "--max-group-order", "3"],
    ["gen"], ["gen", "nope"], ["gen", "ssg", "4"], ["gen", "ssg", "4", "x"],
    ["gen", "--dir", "d", "ssg", "4", "3"],
    ["gen", "coseteg", "5", "--max-flags", "3"], ["-o", "x", "check", "a"],
    ["reproduce", "--count"], ["reproduce", "--count", "-x"],
    ["reproduce", "-v=1"], ["reproduce", "--verbose=yes"],
]


def by_name(namespace):
    return {key: value.__name__ if key == "func" else value
            for key, value in vars(namespace).items()}


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_parse_args_agrees_with_argparse(argv):
    from geoq.cli import parse_args
    assert by_name(parse_args(argv)) == by_name(
        argparse_parser().parse_args(argv))


@pytest.mark.parametrize("argv", MALFORMED_ARGVS, ids=" ".join)
def test_refusals_agree_with_argparse(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        argparse_parser().parse_args(argv)
    assert refused.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    usage, reason = err.splitlines()
    assert usage.startswith("usage: geoq") and ": error: " in reason


def test_gen_refuses_a_double_dash_before_its_kind(capsys):
    # the argparse of Python 3.11 refuses this line and that of 3.13
    # accepts it, so it cannot be checked against argparse; parse_args
    # refuses it on every version
    code, out, err = run(capsys, "gen", "--", "ssg", "4", "3")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "usage: geoq gen [-h] {ssg,affine,coseteg,blowup,lift,catalogue} ...",
        "geoq gen: error: unrecognized option: --"]


def test_help_is_rendered_from_the_table(capsys):
    from geoq.cli import COMMANDS, GEN_KINDS
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    usage, _, listed = out.split("\n\n")
    assert usage == ("usage: geoq [-h] [--machine] {check,quotient,axioms,"
                     "diagram,iso,gen,reproduce} ...")
    assert " ".join(listed.split()) == " ".join(
        "%s %s" % (name, entry[2]) for name, entry in COMMANDS.items())
    argvs = [[name, "--help"] for name in COMMANDS] + [
        ["gen", kind, "-h"] for kind in GEN_KINDS]
    for argv in argvs + [["check", "a.geo", "--he"], ["--machine", "-h"]]:
        with pytest.raises(SystemExit) as shown:
            argparse_parser().parse_args(argv)
        assert shown.value.code == 0
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: geoq ")
    assert run(capsys, "gen", "ssg", "-h")[1].splitlines() == [
        "usage: geoq gen ssg [-h] [-o OUTPUT] [--dir DIR] v k", "",
        GEN_KINDS["ssg"][2]]


def test_no_option_name_is_a_prefix_of_another():
    # so a token matches an option exactly when it is a prefix of one
    from geoq.cli import _TOP, COMMANDS, GEN_KINDS
    for _, options, _, _ in [_TOP, *COMMANDS.values(), *GEN_KINDS.values()]:
        names = [*options, "help"]
        assert not [(a, b) for a in names for b in names
                    if a != b and b.startswith(a)]


def test_console_script_path():
    # the console script calls main() and exits with what it returns:
    # help exits 0, and a refused line exits 2 with no traceback
    from geoq.cli import COMMANDS
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = "import sys; from geoq.cli import main; sys.exit(main())"
    shown = subprocess.run([sys.executable, "-c", script, "-h"], env=env,
                           capture_output=True, text=True, timeout=120)
    assert (shown.returncode, shown.stderr) == (0, "")
    assert all(name in shown.stdout for name in COMMANDS)
    refused = subprocess.run([sys.executable, "-c", script, "axioms",
                              "only-one.geo"], env=env, capture_output=True,
                             text=True, timeout=120)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr.splitlines() == [
        "usage: geoq axioms [-h] [--max-group-order N] [--max-flags N] "
        "geometry group",
        "geoq axioms: error: the following arguments are required: group"]
