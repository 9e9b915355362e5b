"""Built-in verification battery behind ``anisofield verify``.

Eight numbered suites, one per advertised numerical guarantee of the
package.  Each suite returns a CriterionResult carrying a verdict, the
measured numbers, and its runtime, so the CLI can print a pass/fail
table and callers can assert on the outcome.  All randomness is seeded;
reruns produce identical verdicts.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ModelError
from .fractal import (EMPTY, UNDETERMINED, dimension_report,
                      gneiting_dimensions)
from .kriging import Observations, krige, scaling_exponent_check
from .models import canonical_c, fbm, laplace_form, smoothness_exponents, stein
from .quadrature import QuadratureSpec, _unit_rule
from .simulate import FieldSample, Grid, empirical_variogram, sample_field
from .smoothness import (cross_cov_matrix, derivative_covariance,
                         ms_derivative_report)
from .variogram import GneitingModel, modulus_envelope, variogram_numeric

TIGHT_QUAD = QuadratureSpec(rel_tol=0.01)


@dataclass(frozen=True)
class CriterionResult:
    """Verdict of one verification suite."""

    name: str
    passed: bool
    details: tuple
    seconds: float


def _finish(name, passed, details, t0):
    return CriterionResult(name=name, passed=bool(passed),
                           details=tuple(details),
                           seconds=time.monotonic() - t0)


def suite_fbm():
    """Variogram round trip: the normalized fbm density gives |h|^{2H}."""
    t0 = time.monotonic()
    details = []
    worst_all = 0.0
    for dims in (1, 2):
        for hurst in (0.3, 0.5, 0.7):
            model = fbm(hurst, dims)
            worst = 0.0
            for r in np.linspace(0.1, 2.0, 20):
                lag = np.full(dims, r / math.sqrt(dims))
                value, _ = variogram_numeric(model, lag)
                worst = max(worst, abs(value - r ** (2 * hurst)) / r ** (2 * hurst))
            details.append(f"H={hurst} N={dims}: worst rel {worst:.2e}")
            worst_all = max(worst_all, worst)
    elapsed = time.monotonic() - t0
    passed = worst_all <= 0.01 and elapsed < 60.0
    details.append(f"gate: rel <= 1e-2 and runtime < 60s (took {elapsed:.1f}s)")
    return _finish("fbm", passed, details, t0)


def _partial_density_integral(beta, gamma, radius):
    # positive-quadrant tensor rule on [0, radius]^2, graded 40 octaves
    # down so the near-origin mass is resolved, folded x4
    x, w = (radius * a for a in _unit_rule(40, math.inf, 8, True)[:2])
    dens = laplace_form(canonical_c(beta, gamma)).density((x[:, None], x[None, :]))
    return 4.0 * float(w @ dens @ w)


def suite_exponents():
    """Exponent identity over random draws plus boundary divergence."""
    t0 = time.monotonic()
    details = []
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        dims = int(rng.integers(1, 5))
        beta = tuple(10.0 ** rng.uniform(-0.7, 0.7, dims))
        s = sum(1.0 / b for b in beta)
        gamma = s * (1.0 + 10.0 ** rng.uniform(-2.0, 0.5))
        exps = smoothness_exponents(canonical_c(beta, gamma))
        lhs = 0.5 * (gamma - s) * (2.0 + exps.q)
        worst = max(worst, abs(lhs - gamma) / gamma)
    identity_ok = worst <= 1e-12
    details.append(f"identity over 1000 draws: worst rel {worst:.2e}")

    # partial integrals of the density over growing cubes: the mass must
    # keep growing (non-decaying increments) at and below the legitimacy
    # boundary, and taper above it
    beta = (1.0, 2.0)
    radii = (10.0, 100.0, 1000.0)
    div_ok = True
    for gamma in (1.5, 1.4):
        vals = [_partial_density_integral(beta, gamma, r) for r in radii]
        d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
        grows = vals[0] < vals[1] < vals[2] and d2 >= 0.9 * d1
        div_ok &= grows
        details.append(f"gamma={gamma}: increments {d1:.3f}, {d2:.3f} "
                       f"({'diverging' if grows else 'NOT diverging'})")
    vals = [_partial_density_integral(beta, 1.6, r) for r in radii]
    tapers = (vals[2] - vals[1]) < 0.9 * (vals[1] - vals[0])
    div_ok &= tapers
    details.append(f"gamma=1.6 (legitimate): increments taper = {tapers}")
    return _finish("exponents", identity_ok and div_ok, details, t0)


def _simulation_case(model, grid, axis, lattice, n_seeds, ref_quad):
    stack = [sample_field(model, grid, lattice=lattice, seed=s).values
             for s in range(n_seeds)]
    merged = FieldSample(grid=grid, values=np.concatenate(stack, axis=-1),
                         seed=0, metadata={})
    table = empirical_variogram(merged, axis, (grid.shape[axis] - 1) // 4)
    worst = 0.0
    for lag, emp in zip(table.lags, table.values):
        ref = variogram_numeric(model, lag, ref_quad)[0]
        worst = max(worst, abs(emp - ref) / ref)
    return worst


def suite_simulation():
    """Empirical variograms of seeded realizations track quadrature."""
    t0 = time.monotonic()
    details = []
    worst_all = 0.0
    grid1 = Grid(origin=(0.0,), spacing=(1.0 / 64,), shape=(65,))
    for hurst in (0.3, 0.5, 0.7):
        model = fbm(hurst, 1)
        worst = _simulation_case(model, grid1, 0, 4096, 500, TIGHT_QUAD)
        worst_all = max(worst_all, worst)
        details.append(f"fbm H={hurst}: worst rel {worst:.3f}")
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    grid2 = Grid(origin=(0.0, 0.0), spacing=(1.0 / 64, 1.0), shape=(65, 1))
    worst = _simulation_case(model, grid2, 0, 512, 500, None)
    worst_all = max(worst_all, worst)
    details.append(f"canonical line: worst rel {worst:.3f}")
    elapsed = time.monotonic() - t0
    passed = worst_all <= 0.10 and elapsed < 300.0
    details.append(f"gate: rel <= 0.10 at lags <= domain/4, 500 seeds each, "
                   f"runtime < 300s (took {elapsed:.1f}s)")
    return _finish("simulation", passed, details, t0)


def suite_kriging():
    """Brownian conditional variances, interpolation, error scaling."""
    t0 = time.monotonic()
    details = []
    ok = True

    bm = fbm(0.5, 1)
    obs = Observations(sites=[[1.0]], values=[0.7], model=bm)
    for target, expected in ((2.0, 1.0), (0.5, 0.25)):
        variance = krige(obs, [target], TIGHT_QUAD).variance
        err = abs(variance - expected)
        ok &= err <= 1e-6
        details.append(f"Var(X({target})|X(1)) = {variance:.9f} "
                       f"(expected {expected}, err {err:.1e})")

    rng = np.random.default_rng(11)
    worst_resid = 0.0
    for _ in range(50):
        dims = int(rng.integers(1, 3))
        beta = tuple(rng.uniform(0.5, 3.0, dims))
        gamma = sum(1.0 / b for b in beta) + rng.uniform(0.5, 2.0)
        model = canonical_c(beta, gamma)
        n = int(rng.integers(2, 6))
        sites = rng.uniform(-1.5, 1.5, (n, dims))
        values = rng.standard_normal(n)
        config = Observations(sites=sites, values=values, model=model)
        pick = int(rng.integers(0, len(config)))
        result = krige(config, config.sites[pick])
        worst_resid = max(worst_resid,
                          abs(result.prediction - config.values[pick]))
    ok &= worst_resid <= 1e-8
    details.append(f"interpolation residual over 50 configs: {worst_resid:.2e}")

    for model, target, quad in ((fbm(0.5, 1), 1.0, TIGHT_QUAD),
                                (fbm(0.75, 1), 1.5, TIGHT_QUAD),
                                (canonical_c((2.0, 2.0), 1.5), 1.0, None),
                                (canonical_c((2.0, 2.0), 1.75), 1.5, None)):
        slope = scaling_exponent_check(model, 0, quad=quad)
        err = abs(slope - target)
        ok &= err <= 0.15
        details.append(f"{model.kind} slope {slope:.3f} vs 2H = {target} "
                       f"(err {err:.3f})")
    return _finish("kriging", ok, details, t0)


def suite_dims():
    """Piecewise dimension tables against brute-force minimization."""
    t0 = time.monotonic()
    details = []
    ok = True
    rng = np.random.default_rng(5)
    orders = {"alpha<=gamma": 0, "gamma<=alpha": 0}
    failures = 0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.05, 0.999))
        gamma = float(rng.uniform(0.05, 0.999))
        p = int(rng.integers(1, 5))
        orders["alpha<=gamma" if alpha <= gamma else "gamma<=alpha"] += 1
        try:
            report = gneiting_dimensions(GneitingModel(d=d, alpha=alpha,
                                                       gamma=gamma), p)
            if report.method != "piecewise":
                failures += 1
        except ConsistencyError:
            failures += 1
    ok &= failures == 0
    details.append(f"1000-tuple scan: {failures} disagreements "
                   f"(orderings {orders['alpha<=gamma']}/{orders['gamma<=alpha']})")

    worst = 0.0
    markers = 0
    for hurst in (0.3, 0.5, 0.7, 1.0):
        for dims in (1, 2, 3):
            for p in (1, 2):
                report = dimension_report((hurst,) * dims, p)
                worst = max(worst, abs(report.range_dim - min(p, dims / hurst)))
                worst = max(worst, abs(report.graph_dim
                                       - min(dims + (1 - hurst) * p, dims / hurst)))
                if p == 1:
                    worst = max(worst, abs(report.graph_dim - (dims + 1 - hurst)))
                if dims / hurst > p:
                    worst = max(worst, abs(report.level_dim - (dims - hurst * p)))
                else:
                    markers += 1
                    expected = UNDETERMINED if dims / hurst == p else EMPTY
                    if report.level_dim is not expected:
                        ok = False
    ok &= worst == 0.0
    details.append(f"fbm reductions: worst abs {worst:.1e} "
                   f"({markers} marker-valued level cases)")
    return _finish("dims", ok, details, t0)


def suite_smoothness():
    """Differentiability classification and threshold strictness."""
    t0 = time.monotonic()
    details = []
    ok = True
    rng = np.random.default_rng(7)
    checked = rejected = 0
    for _ in range(200):
        dims = int(rng.integers(1, 4))
        alpha = tuple(rng.uniform(0.3, 3.0, dims))
        s = sum(1.0 / a for a in alpha)
        smooth_cut = 0.5 * s + 1.0 / min(alpha)
        nu = float(rng.uniform(0.15 * s, 1.5 * smooth_cut))
        model = stein(c=(1.0,) * dims, a=tuple(rng.uniform(0.5, 2.0, dims)),
                      alpha=alpha, nu=nu)
        if nu <= 0.5 * s:
            try:
                ms_derivative_report(model, variances=False)
                ok = False
                details.append(f"illegitimate stein accepted: nu={nu:.3f}")
            except ModelError:
                rejected += 1
            continue
        report = ms_derivative_report(model, variances=False)
        expect_all = nu > smooth_cut
        if report.ms_differentiable != expect_all:
            ok = False
            details.append(f"classification mismatch at nu={nu:.4f}")
        h = smoothness_exponents(model).h
        if any((hj > 1.0) != flag for hj, flag in zip(h, report.exists)):
            ok = False
            details.append(f"per-axis mismatch at nu={nu:.4f}")
        checked += 1
    details.append(f"stein scan: {checked} classified, {rejected} rejected "
                   "as illegitimate")

    verdicts = []
    for gamma in (2.0 - 1e-6, 2.0, 2.0 + 1e-6):
        report = ms_derivative_report(canonical_c((2.0, 2.0), gamma),
                                      variances=False)
        verdicts.append(report.ms_differentiable)
    strict = verdicts == [False, False, True]
    ok &= strict
    details.append(f"threshold flip across H=1: {verdicts} "
                   f"({'strict' if strict else 'NOT strict'})")
    return _finish("smoothness", ok, details, t0)


def suite_derivative():
    """Spectral derivative moments against difference quotients of v."""
    t0 = time.monotonic()
    details = []
    ok = True
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    exps = smoothness_exponents(model)
    step = 1e-2
    for axis in range(2):
        spectral = derivative_covariance(model, axis, np.zeros(2), TIGHT_QUAD)
        unit = np.zeros(2)
        unit[axis] = 1.0
        quot = [2.0 * variogram_numeric(model, h * unit, TIGHT_QUAD)[0] / h**2
                for h in (step, step / 2)]
        # eliminate the known h^(2H-2) correction of the quotient; the
        # plain h^2 branch applies once the fourth spectral moment exists
        expo = min(2.0 * exps.h[axis] - 2.0, 2.0)
        weight = 2.0 ** (-expo)
        fitted = 0.5 * (quot[1] - weight * quot[0]) / (1.0 - weight)
        rel = abs(fitted - spectral) / spectral
        ok &= rel <= 0.01
        details.append(f"axis {axis}: spectral {spectral:.8f} vs "
                       f"difference {fitted:.8f} (rel {rel:.1e})")

    rng = np.random.default_rng(13)
    sites = rng.uniform(-1.0, 1.0, (3, 2))
    stacked = np.zeros((6, 6))
    for a in range(3):
        for b in range(3):
            stacked[2 * a:2 * a + 2, 2 * b:2 * b + 2] = cross_cov_matrix(
                model, 1, sites[a], sites[b])
    floor = float(np.linalg.eigvalsh(0.5 * (stacked + stacked.T)).min())
    ok &= floor >= -1e-8
    details.append(f"stacked 3-site V matrix: eigenvalue floor {floor:.2e}")
    return _finish("derivative", ok, details, t0)


def suite_modulus():
    """Increment maxima stay bounded by the modulus envelope shape."""
    t0 = time.monotonic()
    details = []
    ok = True
    for hurst in (0.5, 0.3):
        model = fbm(hurst, 1)
        exps = smoothness_exponents(model)
        worst = {}
        for n in (64, 256):
            grid = Grid(origin=(0.0,), spacing=(1.0 / n,), shape=(n + 1,))
            envelope = modulus_envelope(exps, np.array([1.0 / n]))
            peak = 0.0
            for seed in range(30):
                sample = sample_field(model, grid, lattice=2048, seed=seed)
                peak = max(peak, float(np.max(np.abs(np.diff(
                    sample.values[:, 0])))) / envelope)
            worst[n] = peak
        growth = worst[256] / worst[64]
        ok &= growth < 2.0
        details.append(f"H={hurst}: peak ratio {worst[64]:.3f} -> "
                       f"{worst[256]:.3f}, growth {growth:.3f}")
    return _finish("modulus", ok, details, t0)


SUITES = {
    "fbm": suite_fbm,
    "exponents": suite_exponents,
    "simulation": suite_simulation,
    "kriging": suite_kriging,
    "dims": suite_dims,
    "smoothness": suite_smoothness,
    "derivative": suite_derivative,
    "modulus": suite_modulus,
}


def run_suites(names=("all",)):
    """Run the named suites ('all' expands to every one), in order."""
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ModelError(f"unknown verify suite {name!r}; choose from "
                             f"{', '.join([*SUITES, 'all'])}")
    seen = []
    for name in expanded:
        if name not in seen:
            seen.append(name)
    return [SUITES[name]() for name in seen]


def format_table(results):
    """Render results as a fixed-width pass/fail table."""
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {verdict}  ({r.seconds:.1f}s)")
        for detail in r.details:
            lines.append(f"{'':<{width}}    {detail}")
    lines.append("overall: " + ("PASS" if all(r.passed for r in results)
                                else "FAIL"))
    return "\n".join(lines)
