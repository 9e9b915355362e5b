"""Every public spectral result is certified or a typed error, on random
inputs, and certified values agree with closed forms that share no code
with the engine."""

import math
import warnings

import numpy as np
from scipy.special import kv

from anisofield.errors import AnisoFieldError
from anisofield.models import canonical_c, fbm, laplace_form, stein
from anisofield.quadrature import certify, spectral_integral
from anisofield.smoothness import derivative_covariance, variogram_gradient
from anisofield.variogram import variogram_table

REL_TOL = 0.05  # the default QuadratureSpec's


def _margin(rng):
    """An integrability margin from 0.01 to 1e5, log-uniform."""
    return 10.0 ** rng.uniform(-2.0, 5.0)


def _model(rng):
    """canonical_c (beta from {1, 2} or U(0.05, 4), Laplace powers up to
    about 1e5), stein (c and a from 1e-3 to 1e3, alpha 1 or U(0.05, 1.5))
    or fbm, on 1 to 3 axes."""
    dims = int(rng.integers(1, 4))
    kind = rng.choice(["canonical", "stein", "fbm"], p=[0.6, 0.25, 0.15])
    if kind == "canonical":
        beta = [float(rng.choice([1.0, 2.0])) if rng.random() < 0.5
                else rng.uniform(0.05, 4.0) for _ in range(dims)]
        return canonical_c(beta, sum(1.0 / b for b in beta) + _margin(rng))
    if kind == "stein":
        c, a = (10.0 ** rng.uniform(-3.0, 3.0, dims) for _ in range(2))
        alpha = [1.0 if rng.random() < 0.3 else rng.uniform(0.05, 1.5) for _ in range(dims)]
        return stein(c, a, alpha, 0.5 * (sum(1.0 / x for x in alpha) + _margin(rng)))
    return fbm(rng.uniform(0.05, 0.95), dims)


def _lag(rng, dims):
    """Components from 1e-14 to 1e14 in size, log-uniform, with random signs
    and zeros."""
    size = 10.0 ** rng.uniform(-14.0, 14.0, dims) * rng.choice([-1.0, 1.0], dims)
    return np.where(rng.random(dims) < 0.2, 0.0, size)


def _calls(model, lag, axis):
    """(name, call) of each public function at ``lag``; a call returns
    whether its result is finite and, for a variogram, within rel_tol."""
    def table():
        t = variogram_table(model, [lag])
        return np.isfinite(t.errs[0]) and t.errs[0] <= REL_TOL * t.values[0]

    return (("variogram_table", table),
            ("variogram_gradient", lambda: math.isfinite(variogram_gradient(model, axis, lag))),
            ("derivative_covariance",
             lambda: math.isfinite(derivative_covariance(model, axis, lag))))


def test_random_models_and_lags_certify_or_raise_a_typed_error():
    rng = np.random.default_rng(20261020)
    outcomes = {"certified": 0, "refused": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(32):
            model = _model(rng)
            for _ in range(2):
                lag = _lag(rng, model.dims)
                axis = int(rng.integers(model.dims))
                for name, call in _calls(model, lag, axis):
                    try:
                        ok = call()
                    except AnisoFieldError:
                        outcomes["refused"] += 1
                        continue
                    assert ok, (name, model, lag.tolist(), axis)
                    outcomes["certified"] += 1
    # the generator reaches both outcomes
    assert min(outcomes.values()) > 20, outcomes


# Relative error charged to the Matern oracle per unit of its terms:
# scipy's kv at order -0.796 was 7.5e-14 relative off a 40-digit value.
ORACLE_REL = 2e-13


def _matern_integrals(dims, nu, g):
    """(order 0, order 1 along axis 0, order 2 at g = 0) of the spectral
    integrals of (1 + |lambda|^2)^-(nu + N/2) on R^N, and the size of each
    one's terms: with C(r) = A r^nu K_nu(r), A = pi^(N/2) 2^(1 - nu) /
    Gamma(gamma), the increment integral is C0 - C(r), its first partial
    A r^nu K_(nu-1)(r) g_0 / r and the second moment
    pi^(N/2) Gamma(nu - 1) / (2 Gamma(gamma)) (nu > 1 only)."""
    gamma = nu + 0.5 * dims
    amp = math.pi ** (0.5 * dims) * 2.0 ** (1.0 - nu) / math.gamma(gamma)
    c0 = math.pi ** (0.5 * dims) * math.gamma(nu) / math.gamma(gamma)
    r = np.linalg.norm(g, axis=1)
    cov = amp * r**nu * kv(nu, r)
    first = amp * r**nu * kv(nu - 1.0, r) * g[:, 0] / r
    second = math.pi ** (0.5 * dims) * math.gamma(nu - 1.0) / (2.0 * math.gamma(gamma)) \
        if nu > 1.0 else None
    return (c0 - cov, c0 + cov), (first, np.abs(first)), second


def _matern_cases(rng):
    """(model, nu, scale, stretch) on 1 to 3 axes: canonical_c((2,) * N,
    nu + N/2), and stein with every alpha = 1, which is the same density
    after lambda_j -> lambda_j sqrt(c_j / S0), S0 = sum_j c_j a_j.  Its
    integrals are ``scale`` times the Matern ones at lag g_j = h_j
    stretch_j, the partials on axis 0 with one more stretch_0 per order."""
    for dims in (1, 2, 3):
        for nu in 10.0 ** rng.uniform(-1.3, 1.0, 5):
            gamma = nu + 0.5 * dims
            yield canonical_c((2.0,) * dims, gamma), nu, 1.0, np.ones(dims)
            c, a = (10.0 ** rng.uniform(-1.0, 1.0, dims) for _ in range(2))
            s0 = float(np.sum(c * a))
            stretch = np.sqrt(s0 / c)
            yield (stein(c, a, (1.0,) * dims, gamma), nu,
                   s0**-gamma * float(np.prod(stretch)), stretch)


def test_certified_values_match_the_matern_closed_forms():
    rng = np.random.default_rng(20261021)
    checks = 0
    for model, nu, scale, stretch in _matern_cases(rng):
        form, dims = laplace_form(model), model.dims
        lags = 10.0 ** rng.uniform(-3.0, 1.3, (16, dims)) * rng.choice([-1.0, 1.0], (16, dims))
        (ref0, terms0), (ref1, terms1), second = _matern_integrals(dims, nu, lags * stretch)
        value0, err0 = spectral_integral(form, lags)
        value1, err1 = spectral_integral(form, lags, partial=(0, 1))
        # the public gates: a variogram against itself, a gradient against
        # v(h) / |h_0|
        certify(value0, err0, value0, None, lags, "variogram")
        certify(value1, err1, value0 / np.abs(lags[:, 0]), None, lags, "gradient")
        rows = [(value0, err0, scale * ref0, scale * terms0),
                (value1, err1, scale * stretch[0] * ref1, scale * stretch[0] * terms1)]
        if second is not None:
            origin = np.zeros((1, dims))
            value2, err2 = spectral_integral(form, origin, partial=(0, 2))
            certify(value2, err2, value2, None, origin, "derivative variance")
            ref2 = scale * stretch[0] ** 2 * second
            rows.append((value2, err2, ref2, abs(ref2)))
        for value, err, ref, terms in rows:
            bound = err + ORACLE_REL * terms
            assert np.all(np.abs(value - ref) <= bound), (model, nu, lags, value, ref, err)
            checks += np.size(value)
    assert checks > 900, checks
