"""Seeded fuzzing of the CLI: mutated bundled inputs through cli.main."""

import random
from collections import Counter
from pathlib import Path

import geoq
from geoq import io as gio
from geoq.cli import main

DATA = Path(geoq.__file__).parent / "data"
RUNS = 3000
JUNK = ["", "-1", "0", "999", "#", "(", ")", "()", "(0 0)", "elem", "inc",
        "type", "gen", "block", "x", "T9", "1.5"]


def _mutate(rng, text, tokens):
    """One to three edits: delete, duplicate, truncate or swap a line, or
    replace one of its tokens."""
    lines = text.splitlines() or [""]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        elif op == 3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[rng.randrange(len(words))] = rng.choice(tokens)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def _commands():
    """For each command, its argv head and the input files that follow
    it, on each set of bundled inputs; a group or partition goes with
    the geometry of its stem.  iso runs on pairs of geometries of at
    most 50 elements, as a mutation adds at most three: its search is
    not bounded yet."""
    geos = sorted(DATA.glob("*.geo"))
    small = [g for g in geos
             if gio.parse_geometry(g.read_text()).size <= 50]
    grps = [(g, grp) for g in geos
            for grp in sorted(DATA.glob(g.stem + "*.grp"))]
    parts = [(g, part) for g in geos
             for part in sorted(DATA.glob(g.stem + "*.part"))]
    return [[(["check"], [g]) for g in geos],
            [(["diagram"], [g]) for g in geos],
            [(["iso"], [a, b]) for a in small for b in small],
            [(["axioms"], [g, grp]) for g, grp in grps],
            [(["quotient", "--orbits"], [grp, g]) for g, grp in grps],
            [(["quotient", "--partition"], [part, g]) for g, part in parts]]


def test_mutated_inputs_exit_with_a_code(tmp_path, capsys):
    # every command returns 0, 1, 2 or 3 on a mutated input: no exception
    # escapes main, and none of its catch-alls hides a traceback
    rng = random.Random(20261021)
    texts = {p: p.read_text() for p in sorted(DATA.iterdir())}
    tokens = sorted({w for t in texts.values() for w in t.split()}) + JUNK
    commands = _commands()
    exits = Counter()
    for run in range(RUNS):
        words, paths = rng.choice(rng.choice(commands))
        files = list(paths)  # one of them mutated, the others bundled
        k = rng.randrange(len(files))
        files[k] = tmp_path / ("mutated-%d%s" % (k, paths[k].suffix))
        files[k].write_text(_mutate(rng, texts[paths[k]], tokens))
        argv = ["--machine"] * (run % 2) + words + list(map(str, files))
        if words[0] == "quotient":
            argv += ["-o", str(tmp_path / "out.quotient.geo")]
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3), (argv, code)
        exits[code] += 1
    assert {0, 1, 2} <= set(exits), exits  # some reach past the parsers
