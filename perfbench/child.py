"""One child process of the benchmark.

    child.py cli ARGS...                 the geoq command line, as `geoq ARGS`
    child.py traced STATS.json ARGS...   the same, traced; writes the layer stats
    child.py setup-axioms GEO GRP        parse both files and build the
                                         orbit-quotient, then exit
    child.py setup-reproduce             import geoq.reproduce, then exit

The parent puts the checkout's `src` on PYTHONPATH.
"""

import sys


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        from geoq.cli import main as geoq_main
        return geoq_main(rest)
    if mode == "traced":
        import json
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        import geoq.cli
        code = geoq.cli.main(rest[1:])  # looked up after rebinding
        sys.stdout.flush()
        with open(rest[0], "w") as fh:
            json.dump(tracer.metrics(), fh)
        return code
    if mode == "setup-axioms":
        from geoq import io
        from geoq.axioms import OrbitQuotient
        with open(rest[0]) as fh:
            geom = io.parse_geometry(fh.read())
        with open(rest[1]) as fh:
            group = io.parse_group(fh.read(), geom)
        OrbitQuotient(geom, group)
        return 0
    if mode == "setup-reproduce":
        import geoq.reproduce  # noqa: F401
        return 0
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
