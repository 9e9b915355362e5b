"""Workload definitions: seeded input generators and output checks.

Each workload writes its inputs (model JSON, lag/observation/target CSVs,
a config JSON carrying the grid and the simulate seed) into a work
directory from the workload seed alone, so the program sees only files.
The same seed always gives the same files; any other seed is a holdout.

Lags and sites are drawn by Latin hypercube sampling: every point is
uniform in the stated box, and the strata keep the per-run mix of cheap
and expensive lags close to its expectation, which keeps runs with
different seeds comparable.

A check looks at one op's output text (for an op that exited 0) and
returns how many of the op's items failed.  An op with a nonzero exit
code fails all of its items; that is decided by the caller.
"""

import json
import math
import random
from dataclasses import dataclass, field


@dataclass
class Plan:
    """Generated inputs of one workload run.

    ``ops`` are argv lists for ``anisofield.cli.main``, issued back to
    back in one child per repetition; ``outs`` is the output path of each
    op and ``items`` how many items it attempts.  ``reference`` ops run
    once, untimed, before the repetitions; their output texts land in
    ``expect["reference"]``.
    """

    ops: list
    outs: list
    items: list
    expect: dict
    reference: list = field(default_factory=list)
    reference_outs: list = field(default_factory=list)


def latin_hypercube(rng, n, lo, hi, dims):
    """n points in [lo, hi]^dims, each uniform, one per stratum per axis."""
    cols = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        cols.append([lo + (hi - lo) * (s + rng.random()) / n for s in strata])
    return [tuple(col[i] for col in cols) for i in range(n)]


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _write_json(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def _write_rows(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def parse_csv(text):
    """(provenance, data rows) of a CLI CSV; rows are lists of strings."""
    lines = text.splitlines()
    provenance = {}
    if lines and lines[0].startswith("# provenance: "):
        provenance = json.loads(lines[0][len("# provenance: "):])
        lines = lines[1:]
    return provenance, [line.split(",") for line in lines[1:]]


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _lag_matches(row, lag):
    """Row starts with the coordinates of ``lag`` (CSV keeps 10 digits)."""
    return len(row) >= len(lag) and all(
        _close(float(row[j]), lag[j], 1e-9) for j in range(len(lag)))


def _count_failed(rows, expected, row_ok):
    """Items failed: missing rows plus rows whose check fails or raises."""
    failed = max(0, expected - len(rows))
    for i, row in enumerate(rows[:expected]):
        try:
            ok = row_ok(i, row)
        except (ValueError, IndexError):
            ok = False
        failed += not ok
    return failed


# Acceptance check 1's gate on the fbm closed form, and the on-site
# kriging gates: the observed value back and a vanishing variance.
FBM_REL_GATE = 1e-2
ONSITE_REL_TOL = 1e-6
ONSITE_MAX_VARIANCE = 1e-8

CANONICAL_2D = {"kind": "canonical_c", "dims": 2, "beta": [1.0, 2.0],
                "gamma": 4.0, "scale": 1.0}
CANONICAL_3D = {"kind": "canonical_c", "dims": 3, "beta": [1.0, 2.0, 2.0],
                "gamma": 4.0, "scale": 1.0}


@dataclass(frozen=True)
class Variogram2D:
    """fbm(0.35, 2) variogram table over distinct lags in [0.01, 1]^2.

    Why: quadrature and density evaluation do nearly all the work and no
    lag repeats, so this is where a faster spectral engine shows, and it
    is the no-repeat control for lag reuse in krige-2d.  The closed form
    ||h||^0.7 gives an exact reference (acceptance check 1's gate).
    """

    name: str = "variogram-2d"
    n_lags: int = 200
    hurst: float = 0.35

    def generate(self, workdir, seed):
        rng = _rng(self.name, seed)
        lags = latin_hypercube(rng, self.n_lags, 0.01, 1.0, 2)
        model = workdir / "model.json"
        _write_json(model, {"kind": "fbm", "dims": 2, "hurst": self.hurst})
        _write_rows(workdir / "lags.csv", ["h_1", "h_2"], lags)
        out = workdir / "variogram.csv"
        argv = ["variogram", "--model", str(model),
                "--lags", str(workdir / "lags.csv"), "--out", str(out)]
        return Plan(ops=[argv], outs=[out], items=[len(lags)],
                    expect={"lags": lags})

    def check(self, plan, op, text, first_text=None):
        lags = plan.expect["lags"]
        _, rows = parse_csv(text)

        def row_ok(i, row):
            exact = math.hypot(*lags[i]) ** (2.0 * self.hurst)
            value = float(row[2])
            return (len(row) == 4 and _lag_matches(row, lags[i])
                    and math.isfinite(value)
                    and abs(value - exact) <= FBM_REL_GATE * exact)

        return _count_failed(rows, len(lags), row_ok)


@dataclass(frozen=True)
class Krige2D:
    """canonical_c((1, 2), 4) kriging with one target on an observation site.

    Why: the same variogram and quadrature layers as variogram-2d, but
    with heavy lag repetition (about a third of the variogram calls are
    distinct), plus the kriging assembly, factorization and solve.  This
    is where factoring once or reusing lags shows.
    """

    name: str = "krige-2d"
    n_obs: int = 8
    n_targets: int = 4

    def generate(self, workdir, seed):
        rng = _rng(self.name, seed)
        sites = latin_hypercube(rng, self.n_obs, 0.05, 1.0, 2)
        values = [rng.gauss(0.0, 1.0) for _ in sites]
        targets = latin_hypercube(rng, self.n_targets - 1, 0.05, 1.0, 2)
        onsite_obs = rng.randrange(len(sites))
        onsite_target = rng.randrange(len(targets) + 1)
        targets.insert(onsite_target, sites[onsite_obs])
        model = workdir / "model.json"
        _write_json(model, CANONICAL_2D)
        _write_rows(workdir / "obs.csv", ["t_1", "t_2", "value"],
                    [s + (v,) for s, v in zip(sites, values)])
        _write_rows(workdir / "targets.csv", ["t_1", "t_2"], targets)
        out = workdir / "krige.csv"
        ref = workdir / "target_variogram.csv"
        argv = ["krige", "--model", str(model), "--obs", str(workdir / "obs.csv"),
                "--targets", str(workdir / "targets.csv"), "--out", str(out)]
        # v(u) at each target bounds the kriging variance from above.
        reference = ["variogram", "--model", str(model),
                     "--lags", str(workdir / "targets.csv"), "--out", str(ref)]
        return Plan(ops=[argv], outs=[out], items=[len(targets)],
                    expect={"targets": targets, "onsite": onsite_target,
                            "onsite_value": values[onsite_obs]},
                    reference=[reference], reference_outs=[ref])

    def check(self, plan, op, text, first_text=None):
        targets = plan.expect["targets"]
        _, ref_rows = parse_csv(plan.expect["reference"][0])
        _, rows = parse_csv(text)

        def row_ok(i, row):
            prediction, variance = float(row[2]), float(row[3])
            v_u = float(ref_rows[i][2])
            ok = (len(row) == 4 and _lag_matches(row, targets[i])
                  and _lag_matches(ref_rows[i], targets[i])
                  and math.isfinite(prediction)
                  and 0.0 <= variance <= v_u * (1.0 + 1e-9))
            if i == plan.expect["onsite"]:
                z = plan.expect["onsite_value"]
                ok = ok and (abs(prediction - z) <= ONSITE_REL_TOL * max(1.0, abs(z))
                             and variance <= ONSITE_MAX_VARIANCE)
            return ok

        return _count_failed(rows, len(targets), row_ok)


@dataclass(frozen=True)
class Simulate2D:
    """Seeded canonical_c((1, 2), 4) field on a 48x48 grid, 4 realizations.

    Why: the direct trig-sum evaluation and the field CSV writer do the
    work and quadrature is idle, so separable synthesis shows here and
    quadrature-side changes should not.  Items are grid points times
    realizations.
    """

    name: str = "simulate-2d"
    shape: int = 48
    lattice: int = 128
    realizations: int = 4

    def generate(self, workdir, seed):
        rng = _rng(self.name, seed)
        model = workdir / "model.json"
        _write_json(model, CANONICAL_2D)
        config = workdir / "config.json"
        axis = f"0:1:{self.shape}"
        _write_json(config, {"grid": f"{axis},{axis}", "lattice": self.lattice,
                             "realizations": self.realizations,
                             "seed": rng.randrange(2**31)})
        out = workdir / "field.csv"
        argv = ["simulate", "--config", str(config), "--model", str(model),
                "--out", str(out)]
        return Plan(ops=[argv], outs=[out],
                    items=[self.shape**2 * self.realizations], expect={})

    def check(self, plan, op, text, first_text=None):
        expected = plan.items[op]
        if first_text is not None and text != first_text:
            return expected  # output must be byte-identical across repetitions
        _, rows = parse_csv(text)

        def row_ok(i, row):
            t1, t2, value = float(row[0]), float(row[1]), float(row[3])
            if t1 == 0.0 and t2 == 0.0 and value != 0.0:
                return False  # realizations are pinned at the origin
            return len(row) == 4 and math.isfinite(value)

        extra = max(0, len(rows) - expected)
        return min(expected, _count_failed(rows, expected, row_ok) + extra)


@dataclass(frozen=True)
class Spacetime3D:
    """One-lag canonical_c((1, 2, 2), 4) variogram calls on [0.05, 1]^3.

    Why: the only workload whose quadrature tensor is far larger than
    cache, and the only one where ops fail: about half of these lags are
    refused by the tensor-node cap.  One call per lag, so a refusal fails
    only itself and shows in fail_frac; peak RSS moves here too.  The lag
    box is part of the definition and must not be narrowed.
    """

    name: str = "spacetime-3d"
    n_lags: int = 28

    def generate(self, workdir, seed):
        rng = _rng(self.name, seed)
        lags = latin_hypercube(rng, self.n_lags, 0.05, 1.0, 3)
        model = workdir / "model.json"
        _write_json(model, CANONICAL_3D)
        ops, outs = [], []
        for i, lag in enumerate(lags):
            path = workdir / f"lag_{i}.csv"
            _write_rows(path, ["h_1", "h_2", "h_3"], [lag])
            out = workdir / f"variogram_{i}.csv"
            ops.append(["variogram", "--model", str(model), "--lags", str(path),
                        "--out", str(out)])
            outs.append(out)
        return Plan(ops=ops, outs=outs, items=[1] * len(lags),
                    expect={"lags": lags})

    def check(self, plan, op, text, first_text=None):
        lag = plan.expect["lags"][op]
        provenance, rows = parse_csv(text)
        rel_tol = provenance.get("quadrature", {}).get("rel_tol", 0.05)

        def row_ok(i, row):
            value, err = float(row[3]), float(row[4])
            return (len(row) == 5 and _lag_matches(row, lag)
                    and value > 0 and 0 <= err <= rel_tol * value)

        return _count_failed(rows, 1, row_ok)


WORKLOADS = {w.name: w for w in (Variogram2D(), Krige2D(), Simulate2D(),
                                 Spacetime3D())}

