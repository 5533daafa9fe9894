"""The decider rows of `axioms` and `quotient`, pinned as the commands
printed them when the files under tests/data were made: the --machine
rows of `axioms` and both `quotient` paths, and their human rows, which
carry the witnesses (elapsed line dropped, the output directory read as
$TMP).  `python tests/test_rows.py` rewrites the files from the library
as it is."""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from geoq.cli import main

DATA = Path(__file__).parent / "data"
BUNDLED = Path(__file__).resolve().parents[1] / "src" / "geoq" / "data"
ORBITS = [("coseteg-2.geo", "coseteg-2.grp"),
          ("coseteg-2.geo", "coseteg-2-n.grp"),
          ("eightcycle.geo", "eightcycle.grp"),
          ("hexagon.geo", "hexagon.grp")]
PARTITIONS = [("flnotpq1.geo", "flnotpq1.part"),
              ("grid-complement.geo", "grid-complement.part")]


def transcript(runs, out_dir):
    """Each command line, its exit status and its stdout, in order."""
    text = []
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main([str(BUNDLED / a) if a.endswith((".geo", ".grp",
                                                         ".part")) else a
                         for a in argv] + (["-o", str(out_dir / "q.geo")]
                                           if "quotient" in argv else []))
        lines = [line.replace(str(out_dir), "$TMP")
                 for line in out.getvalue().splitlines()
                 if not line.startswith("elapsed: ")]
        text += ["$ geoq %s  [exit %d]" % (" ".join(argv), code)] + lines
    return "\n".join(text) + "\n"


def machine_runs():
    return ([["--machine", "axioms", geo, grp] for geo, grp in ORBITS]
            + [["--machine", "quotient", geo, "--orbits", grp]
               for geo, grp in ORBITS]
            + [["--machine", "quotient", geo, "--partition", part]
               for geo, part in PARTITIONS])


def human_runs():
    return [["axioms", geo, grp] for geo, grp in ORBITS]


def quotient_runs():
    return ([["quotient", geo, "--orbits", grp] for geo, grp in ORBITS]
            + [["quotient", geo, "--partition", part]
               for geo, part in PARTITIONS])


PINNED = {"rows-machine.txt": machine_runs, "rows-axioms.txt": human_runs,
          "rows-quotient.txt": quotient_runs}


def test_machine_rows_are_pinned(tmp_path):
    assert transcript(machine_runs(), tmp_path) == (
        DATA / "rows-machine.txt").read_text()


def test_axioms_human_rows_are_pinned(tmp_path):
    assert transcript(human_runs(), tmp_path) == (
        DATA / "rows-axioms.txt").read_text()


def test_quotient_human_rows_are_pinned(tmp_path):
    assert transcript(quotient_runs(), tmp_path) == (
        DATA / "rows-quotient.txt").read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, runs in PINNED.items():
            (DATA / name).write_text(transcript(runs(), Path(tmp)))
            print("wrote %s" % (DATA / name), file=sys.stderr)
