#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the geoq command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; NAME is a workload of workloads.py, or
`all` to run each in turn.  One client runs one `geoq` command at a time
as a fresh child process (a closed loop without concurrency).

A workload gives a run several inputs made from its seed (see
workloads.py).  With --trace 0 the set-up child runs SETUP_REPEATS times,
then the command repeats for about S seconds, taking the inputs in turn.
wall_s and cpu_s (from os.wait4) are the mean over inputs of each
input's median; peak_rss_mb and setup_s are medians over the run.  With
--trace 1 it alternates untraced and traced executions of the first
input and reports the per-layer metrics of tracer.py (medians over the
traced executions) and trace_overhead.  Every execution is checked: exit
code, output, and byte-identical stdout across the run for each input,
traced or not.

Host-speed scaling.  On a shared host each core drifts between a fast
and a slow state (up to 1.7x apart, for seconds to minutes at a time),
and cpu time drifts with it, so raw times of the same code differ more
between runs than any useful bound.  The benchmark therefore pins itself
and its children to one core and, while a child runs, wakes every
PROBE_PERIOD seconds to time a fixed piece of pure-Python work
(speed_probe) on that same core.  Each execution's times are multiplied
by its mean of PROBE_REF_S / probe time: wall_s, cpu_s and setup_s are
seconds at the reference speed, the probe's speed on a fast core of the
reference host.  A slower geoq still reads slower by the same factor; a
slower host does not.  A line before the summary prints wall_s, cpu_s
and setup_s unscaled, with the median scale factor.

The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it names
every metric with its unit, together with fail_ratio.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_REPEATS = 25
EXEC_TIMEOUT = 60.0    # one execution; the slowest takes about 13 s
RUN_BUDGET = 170.0     # the whole run must end within 180 s

PROBE_PERIOD = 0.01    # seconds between speed probes while a child runs
# speed_probe's duration on a fast core of the reference host (Intel Xeon
# at 2.1 GHz, Python 3.11.7); the scale of wall_s, cpu_s and setup_s.
PROBE_REF_S = 0.0001

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


_rng = random.Random(0)
_PERMS = [tuple(_rng.sample(range(40), 40)) for _ in range(60)]
_TOUCH = frozenset(range(0, 40, 3))
_PAIRS = [(a, b) for a in range(0, 40, 5) for b in range(1, 40, 7)]


def speed_probe():
    """Seconds taken by a fixed piece of work shaped like geoq's hottest
    loop (axioms.check_TQ2doubleprime): generator scans of permutation
    tuples against a set.  It calls no geoq code, so no change to geoq
    moves it."""
    t0 = perf_counter()
    for _ in range(2):
        for a, b in _PAIRS:
            any(g[a] in _TOUCH and g[b] in _TOUCH for g in _PERMS)
    return perf_counter() - t0


def pin_to_one_core():
    """Keep this process and every child on one core, so that the speed
    probe runs where the child runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for _ in range(20):  # warm the probe's code and data
        speed_probe()


@dataclass
class Exec:
    wall: float     # raw seconds, spawn to exit
    cpu: float      # raw user+sys seconds
    scale: float    # mean of PROBE_REF_S / probe time while it ran
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str


class Runner:
    def __init__(self, work, budget_end):
        self.work = work
        self.budget_end = budget_end
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env.pop("GEOQ_SEED", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def remaining(self):
        return self.budget_end - perf_counter()

    def spawn(self, args, env_extra, timeout):
        """Run child.py ARGS; wall time is spawn to exit.  Between polls
        for its exit, time speed_probe on the shared core."""
        env = dict(self.env, **env_extra)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD)] + args,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=env, cwd=str(ROOT))
            deadline = t0 + max(timeout, 0.0)
            probes = []
            ready = False
            fd = os.pidfd_open(proc.pid)
            try:
                while True:
                    wait = min(PROBE_PERIOD, deadline - perf_counter())
                    ready, _, _ = select.select([fd], [], [], max(wait, 0.0))
                    if ready or perf_counter() >= deadline:
                        break
                    probes.append(speed_probe())
            finally:
                os.close(fd)
                if not ready:  # timed out, or interrupted
                    proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        if not probes:  # exited within one period
            probes.append(speed_probe())
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Exec(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                    scale=statistics.fmean(PROBE_REF_S / p for p in probes),
                    rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
                    code=proc.returncode, timed_out=not ready,
                    stdout=out_path.read_text(), stderr=err_path.read_text())

    def attempt(self, args, env_extra, want_code, check, limit=EXEC_TIMEOUT):
        """One checked execution; returns (Exec, ok)."""
        self.attempted += 1
        ex = self.spawn(args, env_extra, min(limit, self.remaining()))
        if ex.timed_out:
            problem = "timed out"
        elif ex.code != want_code:
            problem = "exit code %d, want %d" % (ex.code, want_code)
        else:
            problem = check(ex.stdout)
        if problem:
            self.failed += 1
            print("FAILED %s: %s\n%s" % (" ".join(args[:3]), problem,
                                         ex.stderr[-2000:]), file=sys.stderr)
        return ex, not problem


def repeat_for(seconds, runner, step):
    """Call step() until another call would likely end past `seconds`."""
    start = perf_counter()
    n = 0
    while True:
        step()
        n += 1
        elapsed = perf_counter() - start
        if elapsed * (n + 1) / n > seconds:
            return
        if runner.remaining() < elapsed / n + 5.0:
            return


def output_check(job):
    """The workload's check, plus: stdout equals the first stdout of the
    same input in the run byte for byte, traced or not."""
    first = []

    def check(out):
        problem = job.check(out)
        if problem:
            return problem
        if first and out != first[0]:
            return "stdout differs from this run's first execution"
        first.append(out)
        return None
    return check


def measure_end_to_end(runner, jobs, seconds):
    setup = []
    for k in range(SETUP_REPEATS):
        job = jobs[k % len(jobs)]
        ex, ok = runner.attempt(job.setup_args, job.env, 0, lambda out: None,
                                limit=30.0)
        if ok:
            setup.append(ex)
    checks = [output_check(job) for job in jobs]
    execs = [[] for _ in jobs]
    turn = itertools.count()

    def step():
        i = next(turn) % len(jobs)
        ex, ok = runner.attempt(["cli"] + jobs[i].cli_args, jobs[i].env,
                                jobs[i].exit_code, checks[i])
        if ok:
            execs[i].append(ex)

    def over_inputs(value):
        """Mean over inputs of each input's median."""
        medians = [_median([value(e) for e in done]) for done in execs
                   if done]
        return statistics.fmean(medians) if medians else 0.0

    repeat_for(seconds, runner, step)
    every = [e for done in execs for e in done]
    print("raw: wall_s=%.6g s cpu_s=%.6g s setup_s=%.6g s; median scale "
          "%.4g; %d inputs, %d executions" % (
              over_inputs(lambda e: e.wall), over_inputs(lambda e: e.cpu),
              _median([e.wall for e in setup]),
              _median([e.scale for e in every]), len(jobs), len(every)))
    return {
        "wall_s": over_inputs(lambda e: e.wall * e.scale),
        "cpu_s": over_inputs(lambda e: e.cpu * e.scale),
        "peak_rss_mb": _median([e.rss_mb for e in every]),
        "setup_s": _median([e.wall * e.scale for e in setup]),
    }


def measure_layers(runner, job, seconds):
    stats_path = runner.work / "stats.json"
    check = output_check(job)
    plain, traced, layers = [], [], []

    def step():
        ex, ok = runner.attempt(["cli"] + job.cli_args, job.env,
                                job.exit_code, check)
        if ok:
            plain.append(ex.wall * ex.scale)
        if stats_path.exists():
            stats_path.unlink()
        ex, ok = runner.attempt(
            ["traced", str(stats_path)] + job.cli_args, job.env,
            job.exit_code, lambda out: check(out) or (
                None if stats_path.exists() else "no layer stats written"))
        if ok:
            traced.append(ex.wall * ex.scale)
            layers.append(json.loads(stats_path.read_text()))

    repeat_for(seconds, runner, step)
    metrics = {}
    if layers:
        for name in layers[0]:
            metrics[name] = _median([m[name] for m in layers])
    if plain and traced:
        metrics["trace_overhead"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    return metrics


def layer_unit(name):
    suffix = name.rsplit(".", 1)[-1]
    if suffix in ("busy_s", "self_s"):
        return "s"
    if suffix.endswith(("_ratio", "_share", "_overhead")):
        return "ratio"
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload, seed, seconds, trace, work):
    from workloads import Refused
    runner = Runner(work, perf_counter() + RUN_BUDGET)
    try:
        jobs = workload.prepare(work, seed)
    except Refused as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return None
    if trace:
        values = measure_layers(runner, jobs[0], seconds)
        units = {name: layer_unit(name) for name in values}
    else:
        values = measure_end_to_end(runner, jobs, seconds)
        units = END_TO_END_UNITS
    fail_ratio = runner.failed / max(runner.attempted, 1)
    print("%s seed=%d trace=%d: %s fail_ratio=%g (%d/%d)" % (
        workload.name, seed, trace,
        " ".join("%s=%.6g %s" % (k, v, units[k]) for k, v in values.items()),
        fail_ratio, runner.failed, runner.attempted))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geoq" / "__init__.py").is_file():
        print("no geoq sources at %s; run from a geoq checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error("unknown workload %r; have: all, %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    # Import every geoq module here first, so that no timed child pays
    # for compiling the package in a fresh checkout.
    from tracer import load_geoq_modules
    load_geoq_modules()
    pin_to_one_core()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    code = 0
    try:
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  args.trace, work)
            if result is None:
                code = 1
                continue
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return code


if __name__ == "__main__":
    sys.exit(main())
