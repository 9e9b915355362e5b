import math

import numpy as np
import pytest

from anisofield import quadrature, smoothness, variogram
from anisofield.errors import ModelError, QuadratureError
from anisofield.models import canonical_c, fbm, laplace_form, stein
from anisofield.simulate import Grid, multi_copy_field
from anisofield.smoothness import (cross_cov_matrix, cross_covariance,
                                   derivative_covariance, derivative_variance,
                                   ms_derivative_report, variogram_gradient)
from anisofield.variogram import covariance_increment, variogram_numeric

SMOOTH = canonical_c(beta=(1.0, 2.0), gamma=4.0)  # H = (1.25, 2.5)

# Finite-difference oracle for the spectral second moment: a
# Richardson-extrapolated second difference of the variogram.
_STEP_SECOND = 1e-2


def _lag_scale(*vectors):
    top = max((float(np.max(np.abs(v))) for v in vectors if np.size(v)), default=0.0)
    return max(1.0, top)


def _vario(model, h, quad):
    return variogram_numeric(model, h, quad)[0]


def variogram_second(model, axis, delta, quad=None):
    """d2v/dh_axis^2 at lag delta, Richardson-extrapolated."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (model.dims,):
        raise ModelError(f"lag must have shape ({model.dims},)")
    step = _STEP_SECOND * _lag_scale(delta)
    e = np.zeros(model.dims)
    e[axis] = 1.0
    v0 = _vario(model, delta, quad)

    def second(h):
        return (_vario(model, delta + h * e, quad) - 2 * v0
                + _vario(model, delta - h * e, quad)) / h**2

    return (4.0 * second(step / 2) - second(step)) / 3.0


def test_report_smooth_model():
    report = ms_derivative_report(SMOOTH)
    assert report.exists == (True, True)
    assert report.ms_differentiable and report.sample_path_differentiable
    assert report.margins == (0.25, 1.5)
    assert all(v > 0 for v in report.derivative_variance)


def test_report_verdicts_only():
    report = ms_derivative_report(SMOOTH, variances=False)
    assert report.derivative_variance == (None, None)
    assert report.ms_differentiable


def test_report_rough_models():
    report = ms_derivative_report(fbm(0.5, 2))
    assert report.exists == (False, False)
    assert report.derivative_variance == (None, None)
    assert not report.ms_differentiable

    fractal = stein(c=(1.0, 1.0), a=(1.0, 1.0), alpha=(1.0, 1.0), nu=1.5)
    assert not ms_derivative_report(fractal, variances=False).ms_differentiable


def test_threshold_is_strict():
    # H_j crosses 1 exactly at gamma = 2 for beta = (2, 2)
    verdicts = []
    for gamma in (2.0 - 1e-6, 2.0, 2.0 + 1e-6):
        report = ms_derivative_report(canonical_c(beta=(2.0, 2.0), gamma=gamma),
                                      variances=False)
        verdicts.append(report.ms_differentiable)
    assert verdicts == [False, False, True]


def test_derivative_covariance_at_zero_is_the_variance():
    for axis in (0, 1):
        value = derivative_covariance(SMOOTH, axis, np.zeros(2))
        assert value == derivative_variance(SMOOTH, axis)


def test_derivative_covariance_even_and_bounded():
    rng = np.random.default_rng(30)
    dvar = derivative_variance(SMOOTH, 1)
    for _ in range(10):
        delta = rng.uniform(-1.0, 1.0, 2)
        value = derivative_covariance(SMOOTH, 1, delta)
        mirrored = derivative_covariance(SMOOTH, 1, -delta)
        assert mirrored == pytest.approx(value, rel=1e-12)
        assert abs(value) <= dvar * (1.0 + 1e-9)


def test_rough_axis_has_no_derivative():
    rough = fbm(0.5, 1)
    with pytest.raises(ModelError):
        derivative_variance(rough, 0)
    with pytest.raises(ModelError):
        derivative_covariance(rough, 0, np.zeros(1))
    with pytest.raises(ModelError):
        cross_covariance(rough, 0, np.zeros(1), np.ones(1))


def test_spectral_matches_finite_difference():
    dvar = derivative_variance(SMOOTH, 1)
    rng = np.random.default_rng(31)
    for _ in range(20):
        delta = rng.uniform(-1.0, 1.0, 2)
        spectral = derivative_covariance(SMOOTH, 1, delta)
        fd = 0.5 * variogram_second(SMOOTH, 1, delta)
        assert abs(spectral - fd) <= 0.01 * dvar


def test_one_dimensional_closed_forms():
    # f = 1 / (1 + l^2)^2 on R: v = pi (1 - (1 + h) e^-h), so
    # v' = pi h e^-h and (1/2) v'' = (pi / 2) (1 - h) e^-h.
    model = canonical_c(beta=(2.0,), gamma=2.0)
    for h in (0.1, 0.5, 2.0):
        value, _ = variogram_numeric(model, [h])
        assert value == pytest.approx(math.pi * (1.0 - (1.0 + h) * math.exp(-h)),
                                      rel=1e-6)
        assert variogram_gradient(model, 0, [h]) == pytest.approx(
            math.pi * h * math.exp(-h), abs=1e-5)
        assert derivative_covariance(model, 0, [h]) == pytest.approx(
            0.5 * math.pi * (1.0 - h) * math.exp(-h), abs=1e-5)


@pytest.mark.parametrize("hurst", [0.35, 0.55, 0.7])
def test_rough_axis_gradient_matches_fbm_power_law(hurst):
    # v(h) = |h|^(2H), so dv/dh_0 = 2H |h|^(2H - 2) h_0 on every axis,
    # including rough ones where no derivative process exists.
    model = fbm(hurst, 2)
    for lag in ([0.6, 0.3], [-0.2, 0.5]):
        exact = 2.0 * hurst * math.hypot(*lag) ** (2.0 * hurst - 2.0) * lag[0]
        assert variogram_gradient(model, 0, lag) == pytest.approx(exact, rel=1e-3)


def test_spacetime_gradient_matches_central_difference():
    model = canonical_c(beta=(1.0, 2.0, 2.0), gamma=4.0)
    lag = np.array([0.1, 0.2, 0.3])
    step = 1e-4
    for axis in range(3):
        unit = np.zeros(3)
        unit[axis] = step
        central = (variogram_numeric(model, lag + unit)[0]
                   - variogram_numeric(model, lag - unit)[0]) / (2.0 * step)
        assert variogram_gradient(model, axis, lag) == pytest.approx(central, rel=1e-6)


def test_spacetime_derivative_variances():
    # canonical_c on its Laplace form: int l_j^2 f = 2^N / Gamma(gamma)
    # Gamma(margin - 2/b_j) Gamma(3/b_j) / b_j prod_{i != j} Gamma(1 + 1/b_i)
    beta, gamma = (2.0, 4.0, 4.0), 3.0
    margin = gamma - sum(1.0 / b for b in beta)
    report = ms_derivative_report(canonical_c(beta, gamma))
    for axis, b in enumerate(beta):
        exact = (8.0 / math.gamma(gamma) * math.gamma(margin - 2.0 / b)
                 * math.gamma(3.0 / b) / b
                 * math.prod(math.gamma(1.0 + 1.0 / c)
                             for i, c in enumerate(beta) if i != axis))
        assert report.derivative_variance[axis] == pytest.approx(exact, rel=1e-9)


def test_derivative_paths_reject_bad_axis_and_lag():
    lag = np.array([0.3, 0.2])
    for axis in (-1, 2):
        with pytest.raises(ModelError):
            variogram_gradient(SMOOTH, axis, lag)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelError):
            derivative_covariance(SMOOTH, 1, [bad, 0.2])
        with pytest.raises(ModelError):
            variogram_gradient(SMOOTH, 1, [0.3, bad])
    with pytest.raises(ModelError):
        variogram_gradient(SMOOTH, 0, [0.3])
    with pytest.raises(ModelError):
        quadrature.spectral_integral(laplace_form(SMOOTH), lag, partial=(0, 3))


def test_cross_cov_matrix_runs_three_integrals(monkeypatch):
    # one batch per order: (s - t, 0) for the second partial, then
    # (s, t, s - t) for the variograms and for the gradients
    s, t = np.array([0.4, -0.2]), np.array([-0.3, 0.5])
    expected = cross_cov_matrix(SMOOTH, 1, s, t)
    calls = []

    def counting(form, lags, partial=(0, 0)):
        calls.append((partial, np.asarray(lags).tolist()))
        return quadrature.spectral_integral(form, lags, partial=partial)

    monkeypatch.setattr(smoothness, "spectral_integral", counting)
    monkeypatch.setattr(variogram, "spectral_integral", counting)
    matrix = cross_cov_matrix(SMOOTH, 1, s, t)
    lags = [s.tolist(), t.tolist(), (s - t).tolist()]
    assert calls == [((1, 2), [(s - t).tolist(), [0.0, 0.0]]), ((0, 0), lags), ((1, 1), lags)]
    assert matrix.tobytes() == expected.tobytes()
    assert matrix[0, 0] == covariance_increment(SMOOTH, s, t)
    assert matrix[0, 1] == cross_covariance(SMOOTH, 1, s, t)
    assert matrix[1, 1] == derivative_covariance(SMOOTH, 1, s - t)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_partial_errs_are_held_to_their_scales(monkeypatch, factor):
    # a gradient's err is held to rel_tol v(h) / |h_axis| and a derivative
    # covariance's to rel_tol times the derivative variance
    lag = np.array([0.3, -0.4])
    limits = {1: 0.05 * variogram_numeric(SMOOTH, lag)[0] / 0.4 / 2.0,
              2: 0.05 * derivative_variance(SMOOTH, 1)}

    def inflated(form, lags, partial=(0, 0)):
        values, errs = quadrature.spectral_integral(form, lags, partial=partial)
        return values, np.full_like(errs, factor * limits[partial[1]])

    monkeypatch.setattr(smoothness, "spectral_integral", inflated)
    for call, what in ((variogram_gradient, "gradient"),
                       (derivative_covariance, "derivative covariance")):
        if factor < 1:
            assert math.isfinite(call(SMOOTH, 1, lag))
        else:
            with pytest.raises(QuadratureError, match=f"{what} along axis 1 at lag"):
                call(SMOOTH, 1, lag)


def test_gradient_is_odd():
    rng = np.random.default_rng(32)
    for _ in range(5):
        lag = rng.uniform(-1.0, 1.0, 2)
        forward = variogram_gradient(SMOOTH, 1, lag)
        backward = variogram_gradient(SMOOTH, 1, -lag)
        assert forward == pytest.approx(-backward, abs=1e-10)


def test_cross_covariance_identities():
    assert cross_covariance(SMOOTH, 1, np.zeros(2), np.zeros(2)) == 0.0

    t = np.array([0.5, 0.5])
    at_equal = cross_covariance(SMOOTH, 1, t, t)
    assert at_equal == pytest.approx(0.5 * variogram_gradient(SMOOTH, 1, t),
                                     abs=1e-12)
    assert abs(at_equal) > 1e-3  # the nonstationary signature

    rng = np.random.default_rng(33)
    for _ in range(5):
        s = rng.uniform(-1.0, 1.0, 2)
        t = rng.uniform(-1.0, 1.0, 2)
        total = cross_covariance(SMOOTH, 1, s, t) + cross_covariance(SMOOTH, 1, t, s)
        expected = 0.5 * (variogram_gradient(SMOOTH, 1, s)
                          + variogram_gradient(SMOOTH, 1, t))
        assert total == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("call", [
    lambda s, t: cross_covariance(SMOOTH, 1, s, t),
    lambda s, t: cross_cov_matrix(SMOOTH, 1, s, t),
    lambda s, t: covariance_increment(SMOOTH, s, t),
], ids=["cross_covariance", "cross_cov_matrix", "covariance_increment"])
def test_points_of_the_wrong_length_raise_model_error(call):
    # s - t would broadcast a length-1 point against a 2-D one
    for s, t in (([0.1], [0.2, 0.3]), ([0.2, 0.3], [0.1]), ([0.1, 0.2, 0.3], [0.2, 0.3])):
        with pytest.raises(ModelError, match=r"shape \(2,\)"):
            call(s, t)


def test_cross_cov_matrix_at_origin():
    matrix = cross_cov_matrix(SMOOTH, 1, np.zeros(2), np.zeros(2))
    assert matrix[0, 0] == 0.0
    assert matrix[0, 1] == 0.0
    assert matrix[1, 0] == 0.0
    assert matrix[1, 1] == pytest.approx(derivative_variance(SMOOTH, 1),
                                         rel=0.01)


def test_cross_cov_matrix_variances_nonnegative():
    rng = np.random.default_rng(34)
    for _ in range(5):
        s = rng.uniform(-1.0, 1.0, 2)
        matrix = cross_cov_matrix(SMOOTH, 1, s, s)
        assert matrix[0, 0] >= 0
        assert matrix[1, 1] >= 0


def test_stacked_cross_cov_is_psd():
    rng = np.random.default_rng(13)
    sites = rng.uniform(-1.0, 1.0, (3, 2))
    stacked = np.empty((6, 6))
    for i in range(3):
        for k in range(3):
            stacked[2 * i:2 * i + 2, 2 * k:2 * k + 2] = cross_cov_matrix(
                SMOOTH, 1, sites[i], sites[k])
    floor = float(np.linalg.eigvalsh(0.5 * (stacked + stacked.T)).min())
    assert floor >= -1e-8


def test_quotient_variance_scaling_on_simulated_fields():
    # H = (1.25, 0.5): difference quotients converge along the smooth
    # axis and blow up like 1/h along the rough one.
    model = canonical_c(beta=(2.5, 1.0), gamma=2.4)
    steps = [2.0**-k for k in (4, 5, 6, 7)]
    variances = {0: [], 1: []}
    for axis in (0, 1):
        for h in steps:
            spacing = [1.0, 1.0]
            shape = [1, 1]
            spacing[axis] = h
            shape[axis] = 33
            grid = Grid(origin=(0.0, 0.0), spacing=tuple(spacing),
                        shape=tuple(shape))
            fs = multi_copy_field(model, grid, lattice=512, channels=64,
                                  seed=5)
            quot = np.diff(fs.values, axis=axis) / h
            variances[axis].append(float(np.mean(quot**2)))
    smooth = variances[0]
    for a, b in zip(smooth, smooth[1:]):
        assert 0.5 < b / a < 2.0
    slope = np.polyfit(np.log(steps), np.log(variances[1]), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.2)
