"""Benchmark of the anisofield command line on four workloads.

Usage::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py`` for why each was chosen): variogram-2d,
krige-2d, simulate-2d and spacetime-3d.  Inputs are generated from
``--seed`` into ``bench/.work/`` and removed afterwards.

One client runs a closed loop: each repetition is a fresh child process
that imports ``anisofield.cli`` and issues the workload's ops through
``anisofield.cli.main(argv)`` back to back.  Repetitions run until the
next one would end past ``--seconds`` (at least one always runs), and
every output is checked.  The child environment is pinned: the
BLAS/OpenMP thread counts are 1 and ``ANISOFIELD_THREADS`` is unset.

End-to-end metrics (``--trace 0``): ``setup_s`` is the median time from
child spawn until ``anisofield.cli`` is imported, over a few import-only
children plus every repetition; ``items_per_s`` is items that passed
their check over the total op time; ``peak_rss_mb`` is the median peak
resident set of the repetition children.  ``fail_frac`` (failed over
attempted items) is printed and carried by the ``failed`` and
``attempted`` fields of the result line, not as a metric, because it is
0 on the 2-D workloads.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.py`` (medians over traced repetitions),
the source lines of each layer and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
exits 2 without that line if a child cannot run (for example when
``src/anisofield`` is absent).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_PROBES = 4
CHILD_TIMEOUT = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    """A child process could not run to completion."""


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "ANISOFIELD_THREADS"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(task, workdir, tag):
    """Run child.py on ``task``; returns its result with ``setup_s`` added."""
    task_path = workdir / f"{tag}.task.json"
    result_path = workdir / f"{tag}.result.json"
    task = {**task, "result": str(result_path)}
    task_path.write_text(json.dumps(task))
    stderr_path = workdir / f"{tag}.stderr"
    with open(stderr_path, "w") as stderr:
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(task_path)],
                                  env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=stderr, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise ChildError(f"{tag}: child exceeded {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise ChildError(f"{tag}: child exited {proc.returncode}:\n"
                         + stderr_path.read_text()[-2000:])
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - start
    return result


@dataclass
class Repetition:
    op_seconds: list
    setup_s: float
    peak_rss_mb: float
    failed: int
    wrong: int
    texts: list
    spans: list = None


def repetition(workload, plan, workdir, tag, traced, first):
    """One child running every op of ``plan``; outputs checked and removed."""
    spans_path = workdir / f"{tag}.spans.json"
    res = spawn({"mode": "ops", "ops": plan.ops, "trace": traced,
                 "spans": str(spans_path)}, workdir, tag)
    failed = wrong = 0
    texts = []
    for i, (op, out) in enumerate(zip(res["ops"], plan.outs)):
        text = None
        if op["rc"] != 0:
            failed += plan.items[i]
        else:
            text = out.read_text() if out.exists() else ""
            bad = workload.check(plan, i, text, first.texts[i] if first else None)
            failed += bad
            wrong += bad
        texts.append(text)
        out.unlink(missing_ok=True)
    spans = json.loads(spans_path.read_text()) if traced else None
    return Repetition(op_seconds=[op["seconds"] for op in res["ops"]],
                      setup_s=res["setup_s"], peak_rss_mb=res["peak_rss_mb"],
                      failed=failed, wrong=wrong, texts=texts, spans=spans)


def run_reference(plan, workdir):
    """Untimed reference ops; their output texts go to plan.expect."""
    res = spawn({"mode": "ops", "ops": plan.reference, "trace": False}, workdir, "ref")
    plan.expect["reference"] = [
        out.read_text() if op["rc"] == 0 and out.exists() else ""
        for op, out in zip(res["ops"], plan.reference_outs)]


def tail_percentile(samples):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def timing_text(samples, unit):
    text = f"median {statistics.median(samples):.4g} {unit}"
    tail = tail_percentile(samples)
    if tail:
        text += f", p{tail[0]:g} {tail[1]:.4g} {unit}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={len(samples)})"


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (result line dict, report lines)."""
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = workload.generate(workdir, seed)
        if plan.reference:
            run_reference(plan, workdir)
        probes = [] if trace else [spawn({"mode": "probe"}, workdir, f"probe{i}")
                                   for i in range(SETUP_PROBES)]
        modes = (False, True) if trace else (False,)
        reps, first = [], None
        start = time.monotonic()
        while True:
            for traced in modes:
                rep = repetition(workload, plan, workdir, f"rep{len(reps)}", traced, first)
                first = first or rep
                reps.append(rep)
            elapsed = time.monotonic() - start
            if elapsed * (1.0 + len(modes) / len(reps)) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(plan.items) * len(reps)
    failed = sum(r.failed for r in reps)
    result = {"correct": all(r.wrong == 0 for r in reps),
              "attempted": attempted, "failed": failed}
    plain = [r for r in reps if r.spans is None]
    op_seconds = [t for r in plain for t in r.op_seconds]
    lines = [f"[{workload.name}] seed {seed}: {len(reps)} repetitions, one client, "
             f"closed loop, fresh child each; {len(plan.ops)} ops and "
             f"{sum(plan.items)} items per repetition",
             f"  fail_frac    {failed / attempted:.4g} ({failed}/{attempted} items)",
             f"  op time      {timing_text(op_seconds, 's')} per CLI call"]
    if trace:
        metrics, units = traced_metrics(reps), tracer.UNITS
        lines += [f"  {k:26s} {v:.6g} {units[k]}" for k, v in metrics.items()]
        lines.append("  (models.density_points is computed from array sizes)")
    else:
        setups = [p["setup_s"] for p in probes] + [r.setup_s for r in plain]
        metrics, units = {"setup_s": statistics.median(setups),
                          "items_per_s": (attempted - failed) / sum(op_seconds),
                          "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps)
                          }, END_TO_END
        lines.append(f"  setup_s      {timing_text(setups, 's')}")
        lines.append(f"  items_per_s  {metrics['items_per_s']:.6g} items/s "
                     f"({attempted - failed} items passed in {sum(op_seconds):.4g} s of ops)")
        lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb']:.6g} MB "
                     f"(median over {len(reps)} children)")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result, lines


def traced_metrics(reps):
    per_rep = [tracer.per_layer(r.spans) for r in reps if r.spans is not None]
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    metrics.update(tracer.sloc(SRC / "anisofield"))
    plain = statistics.median(sum(r.op_seconds) for r in reps if r.spans is None)
    traced = statistics.median(sum(r.op_seconds) for r in reps if r.spans is not None)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    return {k: metrics[k] for k in tracer.UNITS}


def machine_line():
    """nproc, CPU model and child-side versions, recorded with the results."""
    probe_dir = WORK / f"env-{os.getpid()}"
    probe_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = spawn({"mode": "probe"}, probe_dir, "env")["env"]
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    pinned = " ".join(f"{k}=1" for k in THREAD_VARS)
    return (f"machine: nproc {len(os.sched_getaffinity(0))}, cpu {cpu}, python {env['python']}, "
            f"numpy {env['numpy']}, scipy {env['scipy']}, blas {json.dumps(env['blas'])}; "
            f"child env: {pinned}, ANISOFIELD_THREADS unset")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of " + ", ".join(WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "anisofield" / "cli.py").is_file():
        print(f"error: {SRC / 'anisofield'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        print(machine_line(), flush=True)
        results = []
        for name in names:
            result, lines = measure(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace))
            print("\n".join(lines), flush=True)
            results.append((name, result))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{name}.{k}": v for name, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
