"""One benchmark repetition in a fresh process.

Usage: ``python3 bench/child.py TASK.json``.  The task names a mode
(``probe``: import and report the environment; ``ops``: run argv lists
through ``anisofield.cli.main`` back to back), whether to trace, and
where to write the result.  The parent times set-up from spawn to the
``ready`` timestamp written here; both read the system-wide monotonic
clock.
"""

import json
import resource
import sys
import time
import traceback


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                     if blas.get(k) is not None}}


def _run_op(cli, argv):
    """Exit code of one CLI call; an escaped exception counts as exit 1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main():
    with open(sys.argv[1]) as fh:
        task = json.load(fh)
    import anisofield.cli as cli
    result = {"ready": time.monotonic()}
    if task["mode"] == "probe":
        result["env"] = _environment()
    else:
        tracer = None
        if task["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        ops = []
        for argv in task["ops"]:
            start = time.perf_counter()
            rc = _run_op(cli, argv)
            ops.append({"rc": rc, "seconds": time.perf_counter() - start})
        result["ops"] = ops
        if tracer is not None:
            tracer.write(task["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(task["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
