"""End-to-end acceptance battery.

Eight checks, one printed pass/fail line each.  Every oracle is
computed inside the test body (closed forms, brute-force enumeration,
graded reference quadratures); nothing is read back from the library's
own verify module.
"""

import math
import time

import numpy as np

from anisofield.errors import ConsistencyError, ModelError
from anisofield.fractal import (EMPTY, UNDETERMINED, dimension_report,
                                gneiting_dimensions)
from anisofield.kriging import Observations, krige
from anisofield.models import canonical_c, fbm, smoothness_exponents, stein
from anisofield.quadrature import QuadratureSpec
from anisofield.simulate import Grid, sample_field
from anisofield.smoothness import (cross_cov_matrix, derivative_covariance,
                                   ms_derivative_report)
from anisofield.variogram import (GneitingModel, modulus_envelope,
                                  variogram_numeric)

TIGHT = QuadratureSpec(rel_tol=0.01)


def _report(capfd, name, ok, detail):
    with capfd.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_acceptance_1_fbm_variogram_round_trip(capfd):
    t0 = time.monotonic()
    worst = 0.0
    for dims in (1, 2):
        # 2-D rules tensor the axis grids, so the tight 1-D settings
        # stay out of the 2-D cases
        quad = TIGHT if dims == 1 else None
        direction = np.ones(1) if dims == 1 else np.array([0.6, 0.8])
        for hurst in (0.3, 0.5, 0.7):
            model = fbm(hurst, dims)
            for r in np.linspace(0.1, 2.0, 20):
                value, _ = variogram_numeric(model, r * direction, quad)
                truth = r ** (2.0 * hurst)
                worst = max(worst, abs(value - truth) / truth)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.01 and elapsed < 60.0
    _report(capfd, "acceptance 1/8 fbm variogram round trip", ok,
            f"worst rel {worst:.2e} (gate 1e-2), {elapsed:.1f}s (gate 60s)")


def _partial_density_integral(gamma, radius):
    # graded panels down 40 octaves so the near-origin mass is resolved
    edges = np.concatenate([[0.0],
                            np.geomspace(radius * 2.0 ** -40, radius, 41)])
    x, w = np.polynomial.legendre.leggauss(8)
    nodes = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b)
                            for a, b in zip(edges[:-1], edges[1:])])
    weights = np.concatenate([0.5 * (b - a) * w
                              for a, b in zip(edges[:-1], edges[1:])])
    f = (1.0 + nodes[:, None] + nodes[None, :] ** 2) ** -gamma
    return 4.0 * float(weights @ f @ weights)


def test_acceptance_2_exponent_identity_and_divergence(capfd):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        dims = int(rng.integers(1, 4))
        beta = tuple(rng.uniform(0.5, 3.0, dims))
        inv_sum = sum(1.0 / b for b in beta)
        gamma = inv_sum + rng.uniform(0.1, 3.0)
        exps = smoothness_exponents(canonical_c(beta, gamma))
        recovered = (gamma - inv_sum) * (2.0 + exps.q) / 2.0
        worst = max(worst, abs(recovered - gamma) / gamma)
    identity_ok = worst <= 1e-12

    # beta (1, 2) puts the integrability threshold at gamma = 1.5: at or
    # below it the truncated integrals keep growing by non-shrinking
    # decade increments, above it the increments taper
    increments = {}
    monotone = True
    for gamma in (1.4, 1.5, 1.6):
        d = [_partial_density_integral(gamma, r) for r in (10.0, 100.0, 1e3)]
        monotone &= d[0] < d[1] < d[2]
        increments[gamma] = (d[1] - d[0], d[2] - d[1])
    divergence_ok = (monotone
                     and increments[1.4][1] >= increments[1.4][0]
                     and increments[1.5][1] >= increments[1.5][0]
                     and increments[1.6][1] <= 0.9 * increments[1.6][0])
    ok = identity_ok and divergence_ok
    ratios = {g: inc[1] / inc[0] for g, inc in increments.items()}
    _report(capfd, "acceptance 2/8 exponent identity + divergence", ok,
            f"identity worst rel {worst:.2e} (gate 1e-12), decade increment "
            f"ratios {ratios[1.4]:.3f}/{ratios[1.5]:.3f}/{ratios[1.6]:.3f} "
            f"for gamma 1.4/1.5/1.6")


def _empirical_worst_rel(model, grid, lattice, flatten, ref_quad):
    fields = np.stack([
        flatten(sample_field(model, grid, lattice=lattice, seed=seed).values)
        for seed in range(500)])
    worst = 0.0
    for k in range(1, 17):
        emp = float(np.mean((fields[:, k:] - fields[:, :-k]) ** 2))
        lag = np.zeros(model.dims)
        lag[0] = k / 64.0
        ref, _ = variogram_numeric(model, lag, ref_quad)
        worst = max(worst, abs(emp - ref) / ref)
    return worst


def test_acceptance_3_simulation_matches_quadrature(capfd):
    t0 = time.monotonic()
    results = []
    line_1d = Grid(origin=(0.0,), spacing=(1.0 / 64,), shape=(64,))
    for hurst in (0.3, 0.5, 0.7):
        model = fbm(hurst, 1)
        results.append((f"fbm {hurst}", _empirical_worst_rel(
            model, line_1d, 4096, lambda v: v[:, 0], TIGHT)))
    aniso = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    line_2d = Grid(origin=(0.0, 0.0), spacing=(1.0 / 64, 1.0), shape=(64, 1))
    results.append(("canonical", _empirical_worst_rel(
        aniso, line_2d, 512, lambda v: v.reshape(64), None)))
    elapsed = time.monotonic() - t0
    worst = max(rel for _, rel in results)
    ok = worst <= 0.10 and elapsed < 300.0
    listing = ", ".join(f"{name} {rel:.3f}" for name, rel in results)
    _report(capfd, "acceptance 3/8 simulation vs quadrature (500 seeds)", ok,
            f"worst rel {worst:.3f} (gate 0.10) [{listing}], "
            f"{elapsed:.0f}s (gate 300s)")


def test_acceptance_4_kriging_oracles_and_scaling(capfd):
    bm = fbm(0.5, 1)
    obs = Observations(sites=[[1.0]], values=[0.7], model=bm)
    extrapolation = krige(obs, [2.0], TIGHT)
    bridge = krige(obs, [0.5], TIGHT)
    oracle_err = max(abs(extrapolation.variance - 1.0),
                     abs(bridge.variance - 0.25),
                     abs(bridge.prediction - 0.35))
    oracle_ok = oracle_err <= 1e-6

    rng = np.random.default_rng(17)
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
        pick = int(rng.integers(0, n))
        result = krige(config, sites[pick])
        worst_resid = max(worst_resid, abs(result.prediction - values[pick]))
    interp_ok = worst_resid <= 1e-8

    # variance given only the pinned origin is the variogram, so the
    # log-log slope over small radii estimates 2H on each axis
    radii = np.geomspace(0.02, 0.2, 6)

    def fitted_slope(model, axis, quad):
        prior = Observations(sites=np.zeros((1, model.dims)),
                             values=np.zeros(1), model=model)
        logs = []
        for r in radii:
            site = np.zeros(model.dims)
            site[axis] = r
            logs.append(math.log(krige(prior, site, quad).variance))
        return float(np.polyfit(np.log(radii), logs, 1)[0])

    cases = ((fbm(0.5, 1), 0, TIGHT, 1.0),
             (fbm(0.75, 1), 0, TIGHT, 1.5),
             (canonical_c(beta=(2.0, 2.0), gamma=1.5), 0, None, 1.0),
             (canonical_c(beta=(2.0, 2.0), gamma=1.75), 1, None, 1.5))
    worst_slope = max(abs(fitted_slope(m, axis, q) - target)
                      for m, axis, q, target in cases)
    slope_ok = worst_slope <= 0.15
    ok = oracle_ok and interp_ok and slope_ok
    _report(capfd, "acceptance 4/8 kriging oracles + scaling", ok,
            f"oracle err {oracle_err:.1e} (gate 1e-6), interpolation resid "
            f"{worst_resid:.1e} (gate 1e-8), slope err {worst_slope:.3f} "
            f"(gate 0.15)")


def _enumerated_dims(h, p):
    # candidate enumeration straight from the closed formulas
    h = sorted(min(1.0, v) for v in h)
    n = len(h)
    total = sum(1.0 / v for v in h)
    range_dim = min(float(p), total)
    graph_cands = [total]
    for k in range(1, n + 1):
        hk = h[k - 1]
        graph_cands.append(sum(hk / h[j] for j in range(k)) + n - k
                           + (1.0 - hk) * p)
    if total < p:
        level = EMPTY
    elif total == p:
        level = UNDETERMINED
    else:
        level = min(sum(h[k - 1] / h[j] for j in range(k)) + n - k
                    - h[k - 1] * p for k in range(1, n + 1))
    return range_dim, min(graph_cands), level


def _close(got, want):
    if isinstance(want, float):
        return (isinstance(got, float)
                and abs(got - want) <= 1e-12 * max(1.0, abs(want)))
    return got is want


def test_acceptance_5_dimension_formula_equivalence(capfd):
    rng = np.random.default_rng(202)
    failures = 0
    piecewise = 0
    for i in range(1000):
        d = int(rng.integers(1, 5))
        a, b = rng.uniform(0.05, 0.95, 2)
        # alternate the orderings so both branches of the tables run
        alpha, gamma = (min(a, b), max(a, b)) if i % 2 else (max(a, b),
                                                             min(a, b))
        p = int(rng.integers(1, 5))
        try:
            report = gneiting_dimensions(GneitingModel(d=d, alpha=alpha,
                                                       gamma=gamma), p)
        except ConsistencyError:
            failures += 1
            continue
        piecewise += report.method == "piecewise"
        want = _enumerated_dims([alpha] + [gamma] * d, p)
        got = (report.range_dim, report.graph_dim, report.level_dim)
        failures += not all(_close(g, w) for g, w in zip(got, want))
    scan_ok = failures == 0 and piecewise == 1000

    reductions_ok = True
    for hurst in (0.3, 0.5, 0.7):
        for n in (1, 2, 3):
            for p in (1, 2):
                report = dimension_report(fbm(hurst, n), p)
                reductions_ok &= report.range_dim == min(float(p), n / hurst)
                if p == 1:
                    reductions_ok &= _close(report.graph_dim, n + 1 - hurst)
                if n / hurst > p:
                    reductions_ok &= _close(report.level_dim, n - hurst * p)
                elif n / hurst < p:
                    reductions_ok &= report.level_dim is EMPTY
                else:
                    reductions_ok &= report.level_dim is UNDETERMINED
    ok = scan_ok and reductions_ok
    _report(capfd, "acceptance 5/8 dimension formula equivalence", ok,
            f"1000-tuple scan: {failures} disagreements, {piecewise} "
            f"piecewise; isotropic reductions "
            f"{'exact' if reductions_ok else 'BROKEN'}")


def test_acceptance_6_smoothness_classification(capfd):
    rng = np.random.default_rng(303)
    checked = mismatches = illegitimate = raised_when_legit = 0
    for i in range(200):
        dims = int(rng.integers(1, 4))
        alpha = tuple(rng.uniform(0.3, 3.0, dims))
        shift = sum(1.0 / (2.0 * a) for a in alpha)
        mode = i % 4
        if mode == 0:
            nu = shift * rng.uniform(0.5, 0.95)  # below the legitimacy bound
        elif mode == 1:
            nu = shift * rng.uniform(1.05, 1.5)
        else:
            # straddle the differentiability bound on one chosen axis
            j = int(rng.integers(0, dims))
            delta = rng.uniform(0.01, 0.5)
            sign = 1.0 if mode == 2 else -1.0
            nu = shift + (1.0 + sign * delta) / alpha[j]
        model = stein(c=(1.0,) * dims, a=(1.0,) * dims, alpha=alpha, nu=nu)
        try:
            report = ms_derivative_report(model, variances=False)
        except ModelError:
            illegitimate += 1
            raised_when_legit += nu > shift
            continue
        hs = [a * (nu - shift) for a in alpha]
        for j in range(dims):
            checked += 1
            mismatches += report.exists[j] != (hs[j] > 1.0)
    scan_ok = (mismatches == 0 and raised_when_legit == 0
               and illegitimate == 50)

    # strictness: the verdict flips only strictly above the threshold
    flips = []
    for gamma in (1.5 - 1e-6, 1.5, 1.5 + 1e-6):
        report = ms_derivative_report(canonical_c(beta=(2.0,), gamma=gamma),
                                      variances=False)
        flips.append(report.exists[0])
    strict_ok = flips == [False, False, True]
    ok = scan_ok and strict_ok
    _report(capfd, "acceptance 6/8 smoothness classification", ok,
            f"{checked} axis verdicts, {mismatches} mismatches, "
            f"{illegitimate}/50 illegitimate draws rejected; strictness "
            f"flip {flips}")


def test_acceptance_7_derivative_consistency(capfd):
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    # closed-form second spectral moments: 2 pi / 3 and pi / 12
    oracles = (2.0943951023931953, 0.2617993877991494)
    exps = smoothness_exponents(model)
    worst_fd = worst_oracle = 0.0
    for axis in (0, 1):
        spectral = derivative_covariance(model, axis, np.zeros(2))
        worst_oracle = max(worst_oracle,
                           abs(spectral - oracles[axis]) / oracles[axis])

        def quotient(step):
            lag = np.zeros(2)
            lag[axis] = step
            value, _ = variogram_numeric(model, lag)
            return value / step ** 2

        # the quotient converges like step^(2H-2) on the rougher axis,
        # so extrapolate with that exponent instead of the usual square
        rate = min(2.0 * exps.h[axis] - 2.0, 2.0)
        weight = 2.0 ** -rate
        step = 1e-2
        fitted = ((quotient(step / 2) - weight * quotient(step))
                  / (1.0 - weight))
        worst_fd = max(worst_fd, abs(fitted - spectral) / spectral)
    moment_ok = worst_fd <= 0.01 and worst_oracle <= 0.01

    rng = np.random.default_rng(21)
    sites = rng.uniform(-1.0, 1.0, (3, 2))
    stacked = np.empty((6, 6))
    for i in range(3):
        for k in range(3):
            stacked[2 * i:2 * i + 2, 2 * k:2 * k + 2] = cross_cov_matrix(
                model, 0, sites[i], sites[k])
    floor = float(np.linalg.eigvalsh(0.5 * (stacked + stacked.T)).min())
    psd_ok = floor >= -1e-8
    ok = moment_ok and psd_ok
    _report(capfd, "acceptance 7/8 derivative consistency", ok,
            f"fd rel {worst_fd:.1e}, oracle rel {worst_oracle:.1e} "
            f"(gates 1e-2), 3-site eigenvalue floor {floor:.1e} "
            f"(gate -1e-8)")


def test_acceptance_8_modulus_growth_bound(capfd):
    growths = {}
    ok = True
    for hurst in (0.5, 0.3):
        model = fbm(hurst, 1)
        exps = smoothness_exponents(model)
        ratios = {}
        for n in (64, 256):
            grid = Grid(origin=(0.0,), spacing=(1.0 / n,), shape=(n + 1,))
            peak = 0.0
            for seed in range(30):
                values = sample_field(model, grid, lattice=2048,
                                      seed=seed).values[:, 0]
                peak = max(peak, float(np.abs(np.diff(values)).max()))
            ratios[n] = peak / modulus_envelope(exps, (1.0 / n,))
        growths[hurst] = ratios[256] / ratios[64]
        ok &= 0.0 < growths[hurst] < 2.0
    _report(capfd, "acceptance 8/8 modulus growth bound", ok,
            f"peak/envelope growth 64->256 points: "
            f"H=0.5 {growths[0.5]:.3f}, H=0.3 {growths[0.3]:.3f} (gate 2.0)")
