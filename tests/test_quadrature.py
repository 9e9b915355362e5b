"""The Laplace-domain engine behind the increment kernel in N >= 2."""

import numpy as np
import pytest

from anisofield import quadrature
from anisofield.errors import ModelError, QuadratureError
from anisofield.models import canonical_c, density_parts, fbm, stein
from anisofield.quadrature import QuadratureSpec, spectral_integral
from anisofield.variogram import variogram_numeric

TIGHT = QuadratureSpec(truncation=4096.0, panels=4096, rel_tol=0.01)


def _engine(model, lag):
    return spectral_integral(density_parts(model), model.dims, np.asarray(lag, float))


def _tensor(model, lag, quad):
    """The tensor-product rule that integrated order 0 before the engine."""
    return quadrature._tensor_integral(density_parts(model),
                                       np.asarray(lag, float), quad, 0, 0)


def test_error_estimate_bounds_fbm_closed_form():
    lags = {2: [(0.6, 0.8), (1.0, 0.0), (0.0184, 0.959), (2e-4, 3e-4), (40.0, 7.0)],
            3: [(0.3, 0.5, 0.9), (1.0, 0.001, 0.0), (0.05, 0.06, 1.0)]}
    for hurst, dims in ((0.35, 2), (0.7, 2), (0.05, 2), (0.4, 3), (0.95, 3)):
        model = fbm(hurst, dims)
        for lag in lags[dims]:
            value, err = variogram_numeric(model, np.array(lag))
            exact = np.linalg.norm(lag) ** (2.0 * hurst)
            assert abs(value - exact) <= err <= 1e-6 * exact


@pytest.mark.parametrize("model", [
    canonical_c((1.0, 2.0), 4.0),                             # closed-form axes
    canonical_c((2.5, 1.0), 2.4),                             # one numeric axis
    stein((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 1.5),           # closed-form axes
    stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0),           # numeric axes
], ids=["canonical-closed", "canonical-numeric", "stein-closed", "stein-numeric"])
def test_error_estimate_bounds_tight_tensor(model):
    for lag in ((0.5, 0.25), (0.02, 0.9), (1.0, 0.0)):
        value, err = _engine(model, lag)
        ref, ref_err = _tensor(model, lag, TIGHT)
        assert abs(value - ref) <= err + ref_err
        assert err <= 1e-6 * value


def test_spacetime_lags_all_evaluate_and_match_tensor():
    # The tensor rule refuses many of these at its node cap.
    model = canonical_c((1.0, 2.0, 2.0), 4.0)
    lags = np.random.default_rng(0).uniform(0.05, 1.0, (12, 3))
    compared = 0
    for lag in lags:
        value, err = variogram_numeric(model, lag)
        assert 0 < err <= 1e-6 * value
        try:
            ref, ref_err = _tensor(model, lag, QuadratureSpec())
        except QuadratureError:
            continue
        compared += 1
        assert abs(0.5 * value - ref) <= 0.5 * err + ref_err
    assert compared < len(lags)


def test_order_zero_has_no_dimension_limit():
    model = fbm(0.6, 4)
    for lag in ((0.3, 0.2, 0.5, 0.1), (1.0, 0.0, 0.0, 0.01)):
        value, err = variogram_numeric(model, np.array(lag))
        assert value == pytest.approx(np.linalg.norm(lag) ** 1.2, rel=1e-6)
        assert err <= 1e-6 * value
    parts = density_parts(model)
    for partial in ((0, 1), (2, 2)):
        with pytest.raises(ModelError):
            spectral_integral(parts, 4, np.full(4, 0.3), partial=partial)


def test_engine_rejects_a_non_integrable_density():
    parts = density_parts(canonical_c((1.0, 1.0), 2.0))
    with pytest.raises(ModelError):
        spectral_integral(parts, 2, np.array([0.5, 0.5]))
    assert spectral_integral(parts, 2, np.zeros(2)) == (0.0, 0.0)
