"""Every public spectral result is certified or a typed error, on random inputs."""

import math
import warnings

import numpy as np

from anisofield.errors import AnisoFieldError
from anisofield.models import canonical_c, fbm, stein
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
