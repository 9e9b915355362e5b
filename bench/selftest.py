"""Fast self-test of the benchmark at toy size.

Usage: ``python3 bench/selftest.py``.  For every workload it checks that
the generator is deterministic in the seed, runs the untraced and traced
measurement, asserts that every metric named in BENCHMARK.json is emitted
with its unit, and shows that each output check raises fail_frac on a
deliberately corrupted output.  It then checks the tracer on a public
function that the package does not have (a batched ``krige_many``).
"""

import dataclasses
import json
import shutil
import sys

import run
import tracer
from workloads import WORKLOADS, parse_csv


def toy(workload):
    """The same workload at a size that runs in seconds."""
    sizes = {"variogram-2d": {"n_lags": 4}, "krige-2d": {"n_obs": 3, "n_targets": 2},
             "simulate-2d": {"shape": 8, "lattice": 32, "realizations": 2},
             "spacetime-3d": {"n_lags": 2}}
    return dataclasses.replace(workload, **sizes[workload.name])


def _edit(text, row, col, value=None):
    """Replace (or with value None, delete) one data row's field."""
    lines = text.splitlines()
    first = 2 if lines[0].startswith("#") else 1
    fields = lines[first + row].split(",")
    if value is None:
        del lines[first + row]
    else:
        fields[col] = value
        lines[first + row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _field(text, row, col):
    return parse_csv(text)[1][row][col]


def _corruptions(name, plan, text):
    """(label, corrupted text, corrupted first-repetition text) per check."""
    if name == "variogram-2d":
        value = float(_field(text, 0, 2))
        return [("value off the closed form", _edit(text, 0, 2, repr(value * 1.05)), None),
                ("missing row", _edit(text, 1, 0), None),
                ("lag column changed", _edit(text, 0, 0, "0.5"), None),
                ("non-finite value", _edit(text, 0, 2, "nan"), None)]
    if name == "krige-2d":
        on = plan.expect["onsite"]
        off = 1 - on if len(plan.expect["targets"]) > 1 else on
        z = plan.expect["onsite_value"]
        return [("negative variance", _edit(text, off, 3, "-1e-3"), None),
                ("variance above v(u)", _edit(text, off, 3, "1e6"), None),
                ("on-site prediction moved", _edit(text, on, 2, repr(z + 0.1)), None),
                ("on-site variance too large", _edit(text, on, 3, "1e-3"), None),
                ("missing row", _edit(text, off, 0), None)]
    if name == "simulate-2d":
        rows = parse_csv(text)[1]
        origin = next(i for i, r in enumerate(rows) if float(r[0]) == float(r[1]) == 0)
        other = 1 if origin != 1 else 2
        return [("row count", _edit(text, other, 0), None),
                ("non-finite value", _edit(text, other, 3, "inf"), None),
                ("origin not pinned", _edit(text, origin, 3, "1e-3"), None),
                ("bytes differ between repetitions", text, text.replace(",", ", ", 1))]
    value = float(_field(text, 0, 3))
    return [("value not positive", _edit(text, 0, 3, "-1"), None),
            ("error above rel_tol * value", _edit(text, 0, 4, repr(value)), None),
            ("missing row", _edit(text, 0, 0), None)]


def check_workload(workload, bench):
    name = workload.name
    work = run.WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("a", "b", "c"):
        (work / sub).mkdir(parents=True)
    try:
        workload.generate(work / "a", 7)
        workload.generate(work / "b", 7)
        workload.generate(work / "c", 8)
        files = sorted(p.name for p in (work / "a").iterdir())
        same = all((work / "a" / f).read_bytes() == (work / "b" / f).read_bytes()
                   for f in files)
        differ = any((work / "a" / f).read_bytes() != (work / "c" / f).read_bytes()
                     for f in files)
        assert same, f"{name}: one seed gave two different inputs"
        assert differ, f"{name}: seed ignored"

        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result, lines = run.measure(workload, 0, 0.1, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in declared}, (name, emitted)
            assert result["correct"], (name, lines)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            if trace:
                _check_trace(name, workload, result["metrics"])

        # Corrupted outputs must raise fail_frac.
        plan = workload.generate(work / "a", 0)
        if plan.reference:
            run.run_reference(plan, work / "a")
        rep = run.repetition(workload, plan, work / "a", "corrupt", False, None)
        op = next(i for i, t in enumerate(rep.texts) if t is not None)
        items = plan.items[op]
        assert workload.check(plan, op, rep.texts[op], rep.texts[op]) == 0
        for label, bad, bad_first in _corruptions(name, plan, rep.texts[op]):
            failed = workload.check(plan, op, bad, bad_first)
            assert failed > 0, f"{name}: corrupted output passed ({label})"
            print(f"  {name}: {label}: fail_frac 0 -> {failed / items:.3g}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _check_trace(name, workload, metrics):
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["cli.self_s"] > 0 and value["fileio.calls"] > 0, name
    assert value["fileio.bytes"] > 0 and value["cli.sloc"] > 0, name
    if name == "variogram-2d":
        assert value["variogram.calls"] == workload.n_lags, value
        assert value["variogram.distinct_ratio"] == 1.0, value
        assert value["models.density_points"] > 0 and value["models.density_s"] > 0
    if name == "krige-2d":
        assert value["kriging.calls"] == workload.n_targets, value
        assert value["variogram.distinct_ratio"] < 1.0, value
    if name == "simulate-2d":
        assert value["simulate.calls"] == 1 and value["simulate.cells"] > 0, value
        assert value["quadrature.calls"] == 0, value
    if name == "spacetime-3d":
        assert value["variogram.calls"] == workload.n_lags, value


def check_tracer_on_new_function():
    """A public function added to a layer is traced, and rebinding reaches
    every namespace that imported the original."""
    assert tracer._covered([(0, 2), (1, 3), (5, 6)]) == 4
    sys.path.insert(0, str(run.SRC))
    import anisofield
    import anisofield.cli
    import anisofield.kriging as kriging

    def krige_many(obs, sites, quad=None):
        return [kriging.krige(obs, site, quad) for site in sites]

    krige_many.__module__ = kriging.__name__
    kriging.krige_many = krige_many
    model = anisofield.canonical_c((1, 2), 4)
    obs = anisofield.Observations(sites=[[0.5, 0.25]], values=[0.3], model=model)
    original = kriging.krige
    t = tracer.Tracer()
    t.install()
    assert kriging.krige is not original and anisofield.krige is kriging.krige
    assert anisofield.cli.krige is kriging.krige
    kriging.krige_many(obs, [[0.25, 0.5], [0.5, 0.25]])
    names = [s[1] for s in t.spans]
    assert names[0] == "krige_many" and names.count("krige") == 2, names[:5]
    assert "DensityParts.outer_map" in names and "spectral_integral" in names
    m = tracer.per_layer(t.spans)
    assert m["kriging.calls"] == 1 and m["variogram.calls"] == 6, m
    assert m["quadrature.calls"] == 4, m
    assert m["variogram.distinct_lags"] == 4, m


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS.values():
        check_workload(toy(workload), bench)
    check_tracer_on_new_function()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
