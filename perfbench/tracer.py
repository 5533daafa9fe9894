"""Per-layer tracer for geoq, installed from outside the package.

`Tracer.install()` rebinds the public functions named in TARGETS in every
loaded `geoq.*` namespace, so calls made through any import of them are
timed.  Spans are not stored: each name keeps aggregates only (calls,
busy time, self time and a few work counters).  Self time is busy time
minus the time covered by traced child spans.

Hot helpers called about 10^5 times per run, such as
`geometry.extensions`, are deliberately not wrapped: the wrapper's own
cost would then dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import perf_counter

# Module -> public names timed in it.  A class is timed through its
# constructor.
TARGETS = {
    "cli": ("main",),
    "io": ("parse_geometry", "parse_group"),
    "geometry": ("all_flags", "flags_by_rank_lex", "flags_of_type",
                 "residue", "is_geometry", "is_residually_connected"),
    "perms": ("stabilizer", "mulclose", "normal_closure", "transitivity",
              "automorphism_group", "orbit_partition"),
    "quotient": ("lift_flag", "check_flagslift", "check_PQ1", "check_PQ2",
                 "residual_surjectivity", "is_cover", "min_block_distance"),
    "axioms": ("OrbitQuotient", "check_TQ1", "check_TQ2prime",
               "check_TQ2doubleprime", "check_TQ3"),
    "diagram": ("basic_diagram", "lift_chamber_forest"),
    "lemmas": ("random_orbit_quotient",),
    "reproduce": ("run_scenarios",),
}

# Work counters kept besides calls, busy time and self time.
COUNTERS = {
    "geometry.all_flags": ("flags",),
    "perms.stabilizer": ("scanned", "kept"),
    "perms.mulclose": ("elements",),
    "geometry.is_geometry": ("repeats",),
    "geometry.flags_by_rank_lex": ("repeats",),
    "lemmas.random_orbit_quotient": ("accepted",),
}


def target_names():
    return ["%s.%s" % (mod, name)
            for mod, names in TARGETS.items() for name in names]


def load_geoq_modules():
    """Import every geoq submodule, so that every namespace holding a
    target is loaded before rebinding."""
    import geoq
    for info in pkgutil.iter_modules(geoq.__path__):
        importlib.import_module("geoq." + info.name)


def geoq_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "geoq" or name.startswith("geoq."))]


class Stat:
    __slots__ = ("calls", "busy", "self_time", "depth", "counts")

    def __init__(self, counters=()):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.counts = dict.fromkeys(counters, 0)


class Tracer:
    """Aggregated spans for the TARGETS of one process."""

    def __init__(self):
        self.stats = {name: Stat(COUNTERS.get(name, ()))
                      for name in target_names()}
        # One child-time accumulator per open span; the bottom one
        # collects time spent in top-level spans.
        self._child = [0.0]
        self._seen = {name: {} for name, c in COUNTERS.items()
                      if "repeats" in c}
        self._undo = []

    # -------------------------------------------------------------- spans

    def _enter(self, stat):
        stat.depth += 1
        self._child.append(0.0)
        return perf_counter()

    def _leave(self, stat, t0):
        dt = perf_counter() - t0
        child = self._child.pop()
        self._child[-1] += dt
        stat.self_time += dt - child
        stat.depth -= 1
        if stat.depth == 0:  # recursion is busy once, not twice
            stat.busy += dt

    # ------------------------------------------------------------ wrapping

    def _wrap_function(self, name, fn):
        if name == "geometry.all_flags":
            return self._wrap_generator(self.stats[name], fn)
        stat = self.stats[name]
        enter, leave = self._enter, self._leave
        seen = self._seen.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                # Identity, not equality: was this very geometry object
                # examined before?  Holding it keeps its id unique.
                geom = args[0]
                if id(geom) in seen:
                    stat.counts["repeats"] += 1
                else:
                    seen[id(geom)] = geom
            stat.calls += 1
            t0 = enter(stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(stat, t0)
            if after is not None:
                after(stat.counts, args, result)
            return result
        return wrapper

    def _wrap_generator(self, stat, fn):
        """Time the inside of each next() and count items, staying lazy
        so that a caller's early exit still stops the enumeration."""
        enter, leave = self._enter, self._leave
        counts = stat.counts

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            stat.calls += 1
            inner = fn(*args, **kwargs)
            while True:
                t0 = enter(stat)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(stat, t0)
                counts["flags"] += 1
                yield item
        return gen_wrapper

    def install(self):
        """Rebind every target in every loaded geoq namespace."""
        load_geoq_modules()
        spaces = geoq_namespaces()
        for mod_name, names in TARGETS.items():
            module = sys.modules["geoq." + mod_name]
            for attr in names:
                name = "%s.%s" % (mod_name, attr)
                original = getattr(module, attr)
                if isinstance(original, type):
                    init = original.__init__
                    self._undo.append((original, "__init__", init))
                    original.__init__ = self._wrap_function(name, init)
                    continue
                wrapped = self._wrap_function(name, original)
                for space in spaces:
                    for key, value in list(vars(space).items()):
                        if value is original:
                            self._undo.append((space, key, original))
                            setattr(space, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    # ------------------------------------------------------------- results

    def metrics(self):
        """Flat name -> value dict of every per-layer metric."""
        out = {}
        for name, stat in self.stats.items():
            out[name + ".calls"] = stat.calls
            out[name + ".busy_s"] = stat.busy
            out[name + ".self_s"] = stat.self_time
        c = {name: stat.counts for name, stat in self.stats.items()}
        out["geometry.all_flags.flags"] = c["geometry.all_flags"]["flags"]
        scanned = c["perms.stabilizer"]["scanned"]
        out["perms.stabilizer.scanned"] = scanned
        out["perms.stabilizer.kept_ratio"] = _ratio(
            c["perms.stabilizer"]["kept"], scanned)
        out["perms.mulclose.elements"] = c["perms.mulclose"]["elements"]
        for name in ("geometry.is_geometry", "geometry.flags_by_rank_lex"):
            out[name + ".repeat_share"] = _ratio(
                c[name]["repeats"], self.stats[name].calls)
        draws = self.stats["lemmas.random_orbit_quotient"]
        out["lemmas.random_orbit_quotient.accept_ratio"] = _ratio(
            draws.counts["accepted"], draws.calls)
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _after_stabilizer(counts, args, result):
    counts["scanned"] += len(args[0].elements())  # already enumerated
    counts["kept"] += result.order()


def _after_mulclose(counts, args, result):
    counts["elements"] += len(result)


def _after_draw(counts, args, result):
    counts["accepted"] += result is not None


_AFTER = {
    "perms.stabilizer": _after_stabilizer,
    "perms.mulclose": _after_mulclose,
    "lemmas.random_orbit_quotient": _after_draw,
}
