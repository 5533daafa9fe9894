"""The benchmark's workloads: inputs built from geoq's own constructors,
their size fingerprints, and the output a correct geoq prints for them.

A workload's `prepare(work, seed)` writes its inputs under `work`,
refuses (raises Refused) when they do not have the pinned size, and
returns one Job per input: the CLI arguments, extra environment, the
set-up child's arguments, and the expected exit code and output checker.

A run uses several inputs, all derived from its seed (sub_seeds), because
the cost of one input depends on its seed: element order decides where
geoq's scans stop early, and GEOQ_SEED decides which random instances
reproduce draws.  One relabelling of the wreath lift costs over 20% more
than another; averaging over a run's inputs keeps that out of the
seed-to-seed spread.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from geoq import io
from geoq.constructions import shadowable_lift, ssg_symmetric_action
from geoq.cosets import FiniteGroup, coseteg_family
from geoq.geometry import Pregeometry, all_flags

AXIOMS_OUTPUT = "".join("%s\n" % line for line in (
    "flagslift=true", "is-cover=false", "pq1=true", "pq2=false",
    "residually-surjective=true", "tq1=true", "tq2doubleprime=true",
    "tq2prime=true", "tq3=false"))
AXIOMS_EXIT = 1  # pq2, is-cover and tq3 are false on both instances

REPRODUCE_COUNT = 200
REPRODUCE_SCENARIOS = 12
REPRODUCE_INPUTS = 4


class Refused(Exception):
    """The generated inputs are not the pinned workload."""


@dataclass
class Job:
    cli_args: list
    setup_args: list
    exit_code: int
    check: object  # stdout text -> error message or None
    env: dict = field(default_factory=dict)


def coseteg5():
    """`geoq gen coseteg 5`: the coset geometry and its action group."""
    fam = coseteg_family(FiniteGroup.cyclic(5))
    return fam.geometry, fam.action_group()


def wreath_lift():
    """The rank-2 shadowable lift of ssg(3,2) with its wreath group."""
    parent, sym = ssg_symmetric_action(3, 2)
    lift = shadowable_lift(parent, 3, 2)
    return lift.geometry, lift.wreath_group(sym)


def sub_seeds(seed, count):
    """The seeds of a run's `count` inputs.  Run seed 0 starts with
    sub-seed 0, the unrelabelled instance."""
    return [seed * 1000 + i for i in range(count)]


def relabel(geom, seed):
    """The same geometry with its element indices (file order) permuted
    by the seed; seed 0 leaves it as built.  Names are kept, so a group
    file written against the original still parses."""
    if seed == 0:
        return geom
    order = list(range(geom.size))
    random.Random(seed).shuffle(order)
    new = {old: k for k, old in enumerate(order)}
    return Pregeometry(geom.type_names,
                       [geom.elem_names[x] for x in order],
                       [geom.elem_type[x] for x in order],
                       [(new[a], new[b]) for a, b in geom.pairs])


def axioms_texts(build, seed):
    """(geometry text, group text) for an axioms workload at a seed."""
    geom, group = build()
    return instance_texts(geom, group, seed)


def instance_texts(geom, group, seed):
    return (io.format_geometry(relabel(geom, seed)),
            io.format_group(group, geom))


def fingerprint(geo_text, grp_text):
    """(elements, flags, |G|) of the instance the CLI will read."""
    geom = io.parse_geometry(geo_text)
    group = io.parse_group(grp_text, geom)
    return geom.size, sum(1 for _ in all_flags(geom)), group.order()


def check_axioms(out):
    if out != AXIOMS_OUTPUT:
        return "axiom table differs: %r" % out
    return None


class AxiomsWorkload:
    def __init__(self, name, why, build, size, inputs):
        self.name, self.why, self.build, self.size = name, why, build, size
        self.inputs = inputs

    def prepare(self, work, seed):
        geom, group = self.build()
        texts = [instance_texts(geom, group, sub)
                 for sub in sub_seeds(seed, self.inputs)]
        for geo_text, grp_text in texts:
            got = fingerprint(geo_text, grp_text)
            if got != self.size:
                raise Refused("%s: (elements, flags, |G|) = %r, pinned %r"
                              % (self.name, got, self.size))
        jobs = []
        for i, (geo_text, grp_text) in enumerate(texts):
            geo = work / ("%s-%d.geo" % (self.name, i))
            grp = work / ("%s-%d.grp" % (self.name, i))
            geo.write_text(geo_text)
            grp.write_text(grp_text)
            jobs.append(Job(
                cli_args=["--machine", "axioms", str(geo), str(grp)],
                setup_args=["setup-axioms", str(geo), str(grp)],
                exit_code=AXIOMS_EXIT, check=check_axioms))
        return jobs


class ReproduceWorkload:
    name = "reproduce"
    why = ("all 12 scenarios at --count 200, GEOQ_SEED taking 4 values "
           "from the seed: thousands of tiny instances, early exits, "
           "repeated flag work")

    def prepare(self, work, seed):
        from geoq.reproduce import SCENARIOS
        names = [n for n, _ in SCENARIOS]
        if len(names) != REPRODUCE_SCENARIOS:
            raise Refused("reproduce: %d scenarios, pinned %d"
                          % (len(names), REPRODUCE_SCENARIOS))

        def check(out):
            status = [line for line in out.splitlines()
                      if "." not in line.split("=", 1)[0]]
            want = ["%s=pass" % n for n in names]
            if status != want:
                return "scenario status lines %r, want %r" % (status, want)
            return None

        return [Job(cli_args=["--machine", "reproduce",
                              "--count", str(REPRODUCE_COUNT)],
                    setup_args=["setup-reproduce"], exit_code=0, check=check,
                    env={"GEOQ_SEED": str(sub)})
                for sub in sub_seeds(seed, REPRODUCE_INPUTS)]


WORKLOADS = {w.name: w for w in (
    AxiomsWorkload(
        "axioms-coseteg5",
        "one large instance (200 elements, 1576 flags, |G|=125; 2 "
        "relabellings a run) on which every decider sweeps to the end; "
        "TQ2'' dominates",
        coseteg5, (200, 1576, 125), inputs=2),
    AxiomsWorkload(
        "axioms-wreath",
        "group far larger than the flag set (36 elements, 145 flags, "
        "|G|=1296; 8 relabellings a run); stabilizer scans of G show here",
        wreath_lift, (36, 145, 1296), inputs=8),
    ReproduceWorkload(),
)}
