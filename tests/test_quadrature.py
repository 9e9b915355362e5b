"""The Laplace-domain engine behind every spectral integral."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import kv
from tensor_rule import tensor_integral

from anisofield import quadrature
from anisofield.errors import ModelError, QuadratureError
from anisofield.models import (canonical_c, fbm, laplace_form, legitimacy_check,
                               smoothness_exponents, stein)
from anisofield.quadrature import (_GAUSS_LEGENDRE, QuadratureSpec, _dyadic_panels, _gauss,
                                   _outer_axis, _unit_rule, certify, spectral_integral)
from anisofield.smoothness import (derivative_covariance, derivative_variance,
                                   variogram_gradient)
from anisofield.variogram import variogram_numeric, variogram_table
from anisofield.verify import run_suites

# the tensor rule with a tight truncation and panel budget
TIGHT = {"truncation": 4096.0, "panels": 4096}


def _engine(model, lag, partial=(0, 0)):
    return spectral_integral(laplace_form(model), np.asarray(lag, float),
                             partial=partial)


def _tensor(model, lag, rule, partial=(0, 0)):
    """The tensor-product rule that integrated every order before the engine."""
    return tensor_integral(laplace_form(model), np.asarray(lag, float), *partial, **rule)


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
            ref, ref_err = _tensor(model, lag, {})
        except QuadratureError:
            continue
        compared += 1
        assert abs(0.5 * value - ref) <= 0.5 * err + ref_err
    assert compared < len(lags)


def _matern(dims, gamma, lag):
    """Exact v(h) and gradient of canonical_c((2,) * dims, gamma): its
    covariance is C(r) = (2 pi)^(N/2) 2^(1 - gamma) / Gamma(gamma) r^nu K_nu(r),
    nu = gamma - N/2, with d/dr (r^nu K_nu) = -r^nu K_(nu - 1)."""
    nu, r = gamma - 0.5 * dims, np.linalg.norm(lag)
    const = (2.0 * math.pi) ** (0.5 * dims) * 2.0 ** (1.0 - gamma) / math.gamma(gamma)
    c0 = const * math.gamma(nu) * 2.0 ** (nu - 1.0)  # r^nu K_nu -> Gamma(nu) 2^(nu-1)
    value = 2.0 * (c0 - const * r**nu * kv(nu, r))
    return value, 2.0 * const * r ** (nu - 1.0) * kv(nu - 1.0, r) * np.asarray(lag)


@pytest.mark.parametrize("dims, gamma", [(1, 1.0), (2, 2.0), (3, 2.5), (4, 3.5), (6, 4.0)])
def test_engine_matches_the_matern_closed_form(dims, gamma):
    # canonical_c with Gaussian axes is the Matern family: the engine's
    # exact oracle in every dimension, for values and gradients
    model = canonical_c((2.0,) * dims, gamma)
    rng = np.random.default_rng(dims)
    for lag in rng.uniform(-1.0, 1.0, (4, dims)) * np.array([[0.05], [0.5], [1.0], [3.0]]):
        exact, grad = _matern(dims, gamma, lag)
        value, err = variogram_numeric(model, lag)
        assert abs(value - exact) <= err <= 1e-6 * value
        for axis in range(dims):
            value, err = _engine(model, lag, (axis, 1))
            assert abs(2.0 * value - grad[axis]) <= 2.0 * err <= 1e-6 * abs(grad[axis])


def test_order_zero_has_no_dimension_limit():
    model = canonical_c((2.0,) * 4, 3.5)
    for lag in ((0.3, 0.2, 0.5, 0.1), (1.0, 0.0, 0.0, 0.01)):
        value, err = variogram_numeric(model, np.array(lag))
        assert value == pytest.approx(_matern(4, 3.5, lag)[0], rel=1e-6)
        assert err <= 1e-6 * value
    lag = np.array((0.3, 0.2, 0.5, 0.1))
    exact = _matern(4, 3.5, lag)[1]
    for axis in range(4):
        assert variogram_gradient(model, axis, lag) == pytest.approx(exact[axis], rel=1e-9)


def test_engine_rejects_a_non_integrable_density():
    form = laplace_form(canonical_c((1.0, 1.0), 2.0))
    with pytest.raises(ModelError):
        spectral_integral(form, np.array([0.5, 0.5]))
    assert spectral_integral(form, np.zeros(2)) == (0.0, 0.0)


FBM_PARTIAL_LAGS = {2: [(0.6, 0.3), (-0.2, 0.5), (0.001, 1.0), (40.0, 7.0), (2e-4, 3e-4)],
                    3: [(0.3, 0.5, 0.9), (1.0, 0.001, 0.0), (0.05, -0.06, 1.0)],
                    4: [(0.3, 0.2, 0.5, 0.1), (1.0, 0.0, 0.0, 0.01)]}


@pytest.mark.parametrize("dims", [2, 3, 4])
@pytest.mark.parametrize("hurst", [0.05, 0.35, 0.7])
def test_partial_error_bounds_fbm_closed_form(hurst, dims):
    # v = |h|^(2H): the first partial integral is v'_j / 2 = H |h|^(2H-2) h_j
    model = fbm(hurst, dims)
    for lag in FBM_PARTIAL_LAGS[dims]:
        norm = np.linalg.norm(lag)
        for axis in np.flatnonzero(lag):
            value, err = _engine(model, lag, (axis, 1))
            exact = hurst * norm ** (2.0 * hurst - 2.0) * lag[axis]
            assert abs(value - exact) <= err <= 1e-6 * abs(value)


def test_second_partial_matches_fbm_closed_form():
    # (1/2) d^2 |h|^(2H) / dh_j^2, away from h_j = 0 where it diverges
    for hurst, lag in ((0.35, (0.6, 0.3)), (0.7, (0.3, 0.5, 0.9))):
        model = fbm(hurst, len(lag))
        norm = np.linalg.norm(lag)
        for axis in range(len(lag)):
            value, err = _engine(model, lag, (axis, 2))
            exact = hurst * norm ** (2.0 * hurst - 4.0) * (
                norm**2 + (2.0 * hurst - 2.0) * lag[axis] ** 2)
            assert abs(value - exact) <= err <= 1e-6 * abs(value)
        with pytest.raises(ModelError):
            _engine(model, np.zeros(len(lag)), (0, 2))


@pytest.mark.parametrize("model", [
    canonical_c((1.0, 2.0), 4.0),                             # closed-form axes
    canonical_c((2.5, 1.0), 2.4),                             # one numeric axis
    stein((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 1.5),           # closed-form axes
    stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0),           # numeric axes
], ids=["canonical-closed", "canonical-numeric", "stein-closed", "stein-numeric"])
def test_partials_match_tight_tensor(model):
    # the second moment on an axis with H_j <= 1 diverges at h_j = 0
    rough = [hj <= 1 for hj in smoothness_exponents(model).h]
    for lag in ((0.5, 0.25), (0.02, 0.9), (1.0, 0.0)):
        for axis in range(2):
            for order in (1, 2):
                if lag[axis] == 0 and (order == 1 or rough[axis]):
                    continue
                value, err = _engine(model, lag, (axis, order))
                ref, ref_err = _tensor(model, lag, TIGHT, (axis, order))
                assert abs(value - ref) <= err + ref_err


def test_derivative_variance_closed_form():
    # int l_j^2 (1 + |l|^2)^-4 dl over R^2 = pi / 12 on either axis
    model = canonical_c((2.0, 2.0), 4.0)
    for axis in range(2):
        assert derivative_variance(model, axis) == pytest.approx(math.pi / 12, abs=1e-10)


def test_spacetime_partials_all_evaluate():
    # the tensor rule refused most of these at its node cap
    model = canonical_c((1.0, 2.0, 2.0), 4.0)
    lags = np.random.default_rng(0).uniform(0.05, 1.0, (12, 3))
    for lag in lags:
        for axis in range(3):
            for order in (1, 2):
                value, err = _engine(model, lag, (axis, order))
                assert 0 < err <= 1e-6 * abs(value)


def test_partial_batch_rows_equal_one_row_calls():
    form = laplace_form(stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0))
    lags = np.array([[0.5, 0.25], [0.0, 0.3], [1.0, 0.0], [0.0, 0.0], [-0.3, 2.0]])
    for partial in ((1, 1), (1, 2)):
        values, errs = spectral_integral(form, lags, partial=partial)
        for lag, value, err in zip(lags, values, errs):
            assert (value, err) == spectral_integral(form, lag, partial=partial)


@pytest.mark.parametrize("model", [
    canonical_c((1.0, 2.0), 4.0),                             # closed-form axes
    canonical_c((1.0, 2.0, 2.0), 4.0),                        # closed-form axes
    stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0),           # numeric axes
], ids=["canonical-2d", "canonical-3d", "stein-numeric"])
def test_shared_t_grid_rows_equal_one_row_calls(model):
    # rows of one t0 level share a t grid, in blocks of bounded size: lags
    # from 1e-6 to 10 in size put the rows on 19 to 30 levels, and the
    # weight's rate puts every lag above about 0.1 on one level of more
    # rows than a block holds
    form = laplace_form(model)
    rng = np.random.default_rng(12)
    sizes = np.logspace(-6.0, 1.0, 150)
    lags = sizes[:, None] * rng.uniform(0.2, 1.0, (150, model.dims)) \
        * rng.choice([-1.0, 1.0], (150, model.dims))
    for partial in [(0, 0)] + [(axis, order) for axis in (0, model.dims - 1)
                               for order in (1, 2)]:
        values, errs = spectral_integral(form, lags, partial=partial)
        for lag, value, err in zip(lags, values, errs):
            assert (value, err) == spectral_integral(form, lag, partial=partial)
        one = spectral_integral(form, lags[:1], partial=partial)
        assert (one[0][0], one[1][0]) == (values[0], errs[0])


@pytest.mark.parametrize("model, twin", [
    (canonical_c((1.5, 2.0), 3.0), canonical_c((2.0, 1.5), 3.0)),
    (canonical_c((0.8, 1.0, 2.0), 4.0), canonical_c((2.0, 1.0, 0.8), 4.0)),
    (stein((1.0, 2.0), (1.0, 2.0), (0.8, 1.0), 2.0),
     stein((2.0, 1.0), (2.0, 1.0), (1.0, 0.8), 2.0)),
], ids=["canonical-2d", "canonical-3d", "stein"])
def test_axis_order_changes_only_rounding(model, twin):
    # the twin lists the same axes in reverse, so at the reversed lag its
    # partial along the mirrored axis is the same integral, whichever of a
    # numeric and a closed axis comes first
    form, twin_form = laplace_form(model), laplace_form(twin)
    n = model.dims
    lags = 10.0 ** np.random.default_rng(30).uniform(-2.0, 0.5, (8, n))
    for axis in range(n):
        for order in (0, 1, 2):
            values, errs = spectral_integral(form, lags, partial=(axis, order))
            twins, twin_errs = spectral_integral(twin_form, lags[:, ::-1],
                                                 partial=(n - 1 - axis, order))
            assert np.all(np.abs(values - twins) <= errs + twin_errs)


@pytest.mark.parametrize("levels, cap", [(1, math.inf), (7, 10.0 / 64.0), (40, math.inf),
                                         (300, 10.0 / 256.0), (3, 1e-3)])
def test_unit_rule_with_bottom_panel_tiles_zero_to_one(levels, cap):
    mid, half, level = _dyadic_panels(levels, cap, True)
    assert np.all(2.0 * half <= cap)
    # levels run from 1 down to the bottom panel [0, 2^-levels], and the
    # panels cover [0, 1] end to end
    assert level[-1] == levels + 1 and np.all(np.diff(level) >= 0)
    lo, hi = np.sort(mid - half), np.sort(mid + half)
    assert lo[0] == 0.0 and hi[-1] == pytest.approx(1.0, rel=4e-16, abs=0.0)
    assert np.allclose(lo[1:], hi[:-1], rtol=4e-16, atol=0.0)
    for order in _GAUSS_LEGENDRE:
        x, w, _ = _unit_rule(levels, cap, order, True)
        assert abs(w.sum() - 1.0) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("depth", [1, 5, 60])
def test_outer_axis_integrates_inverse_square_over_its_span(depth):
    for L in (0.3, 64.0, 1e100):
        for order in _GAUSS_LEGENDRE:
            lam, w = _outer_axis(L, *_unit_rule(depth, math.inf, order)[:2])
            assert L < lam.min() and lam.max() < 2.0**depth * L
            assert np.sum(w / lam**2) == pytest.approx((1.0 - 2.0**-depth) / L, rel=1e-14)


def test_numeric_axis_work_arrays_stay_bounded():
    # a lag this small spans hundreds of dyadic levels in t and in lambda;
    # the t nodes go through e^{-t a(lambda)} a block at a time
    tracemalloc.start()
    try:
        variogram_numeric(stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0), [1e-100, 1e-100])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_exponents_suite_passes():
    # its divergence check integrates on the shared unit rule
    (result,) = run_suites(["exponents"])
    assert result.passed, result.details


def test_tabulated_gauss_rules_equal_leggauss():
    assert sorted(_GAUSS_LEGENDRE) == [3, 7, 8, 12]
    for order in _GAUSS_LEGENDRE:
        x, w = _gauss(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
        assert not x.flags.writeable and not w.flags.writeable


def test_lags_out_of_float_range_raise_quadrature_error():
    # time scales |h_j|^beta / coef that under- or overflow: an empty t rule
    # (stein), a t span T / t0 or a numeric axis's lam_hi beyond the floats
    # (canonical_c (1.5, 1.5), whose 1e-8 |h|^1.5 nears the smallest float),
    # a tail whose (0.02 L)^2 overflows (canonical_c (1.5, 0.8)) and squares
    # that vanish into 0/0 (canonical_c (1, 2))
    for model, lag in ((canonical_c((1.0, 2.0), 4.0), (1e-200, 1e-200)),
                       (stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0), (1e-200, 1e-200)),
                       (canonical_c((1.5, 1.5), 4.0), (4e-200, 4e-200)),
                       (canonical_c((1.5, 1.5), 4.0), (9.65e-200, 0.0)),
                       (canonical_c((1.5, 0.8), 4.0), (1e-190, 1e-190)),
                       (canonical_c((1.0, 2.0), 4.0), (1e300, 1e300))):
        with pytest.raises(QuadratureError, match=re.escape(str(list(lag)))):
            variogram_numeric(model, lag)
    # a numeric axis's lam_hi (beta = 0.05) or lam_lo (a 1e40 shift, which
    # shortens stein's t range) beyond the floats, for the variogram and
    # its gradient
    for model, lag in ((canonical_c((0.05, 3.0), 21.3), [0.0, 1e-8]),
                       (stein((1.0, 1.0), (1e40, 1.0), (1.0, 0.05), 11.0), [0.5, 0.5])):
        with pytest.raises(QuadratureError, match=re.escape(str(lag))):
            variogram_table(model, [lag])
        with pytest.raises(QuadratureError, match=re.escape(str(lag))):
            variogram_gradient(model, 1, lag)
    # a beta = 0.1 axis still certifies
    table = variogram_table(canonical_c((0.1, 3.0), 21.3), [[0.3, 0.5], [0.0, 0.5]])
    assert np.all(table.errs <= 1e-4 * np.asarray(table.values))
    # fbm's closed form needs no time scale: |(s, s)|^0.8 = 2^0.4 s^0.8 at both ends
    for s in (1e-200, 1e160):
        value, err = variogram_numeric(fbm(0.4, 2), (s, s))
        assert abs(value - 2.0**0.4 * s**0.8) <= err <= 1e-6 * value
    # a partial's t0 follows its largest lagged component, so a tiny one is
    # certified: v'_0 = 0.8 |h|^-1.2 h_0 for fbm(0.4), and the (0, 1) value
    value, err = _engine(fbm(0.4, 2), (1e-150, 1.0), (0, 1))
    assert variogram_gradient(fbm(0.4, 2), 0, (1e-150, 1.0)) == 2.0 * value
    assert abs(2.0 * value - 0.8e-150) <= 2.0 * err <= 1e-6 * 0.8e-150
    model = canonical_c((1.0, 2.0), 4.0)
    assert variogram_gradient(model, 1, (1e-200, 1.0)) == variogram_gradient(model, 1, (0.0, 1.0))
    # a tiny component next to an ordinary one still integrates
    value, err = variogram_numeric(canonical_c((1.0, 2.0), 4.0), (1.0, 1e-200))
    assert np.isfinite(value) and 0 < err < 1e-6 * value


def test_a_laplace_power_too_large_for_the_t_rule_is_refused():
    # the t rule's panel cap is 4 / (40 + 2 power): a power of 1e17 once
    # asked numpy for 355 PiB of panels; the node count is now checked first
    model = canonical_c((0.05, 3.0), 1e17)
    with pytest.raises(QuadratureError, match=re.escape("[0.3, 0.5]: its t rule")):
        variogram_table(model, [[0.3, 0.5]])
    with pytest.raises(QuadratureError, match=re.escape("[0.3, 0.5]: its t rule")):
        variogram_gradient(model, 1, [0.3, 0.5])


def test_tiny_numeric_axis_component_is_certified():
    # h^3 and h^2 of the integration-by-parts tail underflow below about
    # 1e-108 and 1e-162, where the density at the truncation has vanished
    model = stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0)
    ref, _ = variogram_numeric(model, (0.0, 1.0))
    for tiny in (1e-100, 1e-120, 1e-160, 1e-300, 5e-324):
        value, err = variogram_numeric(model, (tiny, 1.0))
        assert abs(value - ref) <= err
        assert err <= 1e-6 * value


def test_tiny_numeric_axis_component_warns_nothing():
    # the panel cap and the truncation divide by the tiny component; the
    # quotient overflows to inf, which the rule handles, so no warning
    model = stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tiny in (1e-300, 5e-324):
            value, err = variogram_numeric(model, (tiny, 1.0))
            assert np.isfinite(value) and err <= 1e-6 * value


def test_lags_out_of_float_range_warn_nothing():
    # the refused lags overflow and divide 0 by 0 on their way to the
    # refusal, and the gradients' scales v / |h_axis| divide by a tiny
    # component; all of that stays quiet, and each refusal still happens
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        test_lags_out_of_float_range_raise_quadrature_error()


def test_batch_refuses_the_out_of_range_lag_not_its_neighbours():
    # an out-of-range lag's deep t0 level does not reach the grid of the
    # certifiable lags batched with it, so the refusal names it
    form = laplace_form(canonical_c((1.0, 2.0), 4.0))
    good = [0.014835368361121176, 0.029759183626968787]
    for bad in ([1e-200, 1e-200], [1e-170, 0.0]):
        with pytest.raises(QuadratureError, match=re.escape(str(bad))):
            spectral_integral(form, [good, bad], partial=(1, 2))
    assert spectral_integral(form, [good], partial=(1, 2))[0][0] > 0


def _public(model, lag, axis, order):
    """The public result of ``order`` at ``lag`` and its err, from the engine."""
    if order == 0:
        table = variogram_table(model, [lag])
        return table.values[0], table.errs[0]
    _, err = _engine(model, lag, (axis, order))
    if order == 1:
        return variogram_gradient(model, axis, lag), 2.0 * err
    return derivative_covariance(model, axis, lag), err


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("model", [
    fbm(0.4, 2),
    canonical_c((1.0, 2.0), 4.0),                             # closed-form axes
    canonical_c((1.5, 0.8), 4.0),                             # numeric, beta < 1
    canonical_c((0.7, 1.3), 5.0),                             # numeric, beta < 1
    stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0),           # numeric axes
], ids=["fbm", "canonical-closed", "canonical-1.5-0.8", "canonical-0.7-1.3", "stein"])
def test_tiny_components_are_certified_or_refused(model, order):
    # a tiny component on the axis other than the partial's: each result
    # lies within its err of the h_j = 0 value, with err within the default
    # rel_tol of it, or is refused naming its lag
    hurst = smoothness_exponents(model).h
    for axis in (0, 1):
        if order == 2 and not hurst[axis] > 1:
            continue  # no derivative process along this axis
        ref_lag = np.eye(2)[axis] * 0.6
        ref, ref_err = _public(model, ref_lag, axis, order)
        assert ref_err <= 1e-4 * abs(ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for tiny in (1e-20, 1e-60, 1e-100, 1e-150, 1e-200, 1e-300):
                lag = ref_lag + np.eye(2)[1 - axis] * tiny
                try:
                    value, err = _public(model, lag, axis, order)
                except QuadratureError as exc:
                    assert str(lag.tolist()) in str(exc)
                    continue
                assert abs(value - ref) <= err <= 0.05 * abs(ref)


def test_beta_below_one_numeric_axis_next_to_a_tiny_component_is_certified():
    # the beta < 1 axis's truncation once stopped at a cap of 1e12 while its
    # weight had not vanished, and the integration-by-parts tail blew up
    # (the variogram came out 0.0 with err 5.8e125); it now stops where the
    # weight has vanished, and every order lies within err of h_j = 0
    for model, lag, axis in ((canonical_c((1.5, 0.8), 4.0), [0.6, 1e-60], 0),
                             (canonical_c((0.7, 1.3), 5.0), [1e-30, 0.6], 1)):
        ref_lag = np.where(np.arange(2) == axis, lag, 0.0)
        table = variogram_table(model, [lag, ref_lag])
        assert abs(table.values[0] - table.values[1]) <= table.errs[0]
        for order in (1, 2):
            value, err = _public(model, lag, axis, order)
            assert abs(value - _public(model, ref_lag, axis, order)[0]) <= err


@pytest.mark.parametrize("model, axis", [
    (canonical_c((1.5, 0.8), 4.0), 1),
    (canonical_c((1.5, 0.6), 4.0), 1),
    (canonical_c((1.5, 0.95), 4.0), 1),
    (stein((1.0, 1.0), (1.0, 2.0), (1.4, 0.6), 2.0), 1),      # growth 1.2
    (stein((1.0, 1.0), (1.0, 2.0), (1.4, 0.45), 2.0), 1),
    (stein((1.0, 1.0), (1.0, 2.0), (0.6, 1.4), 2.0), 0),
], ids=["canonical-0.8", "canonical-0.6", "canonical-0.95", "stein-0.6", "stein-0.45",
        "stein-0.6-axis-0"])
def test_tiny_component_on_a_low_growth_numeric_axis_is_certified(model, axis):
    # these were refused from a tiny component of 1e-15 ... 1e-45 down
    ref_lag = np.where(np.arange(2) == axis, 0.0, 0.6)
    lags = ref_lag + np.outer(10.0 ** -np.arange(6.0, 301.0, 3.0), np.eye(2)[axis])
    table = variogram_table(model, np.vstack([ref_lag, lags]))
    assert np.all(np.abs(table.values[1:] - table.values[0]) <= table.errs[1:])


def test_certify_holds_each_err_to_rel_tol_times_its_scale():
    lags = np.array([[0.1, 0.2], [0.3, 0.4]])
    values = np.array([1.0, 0.0])
    # at the bound, an exact zero, and an infinite scale all pass
    certify(values, np.array([0.05, 0.0]), np.array([1.0, 0.0]), None, lags, "x")
    certify(values, np.array([0.0, 1e300]), np.array([1.0, np.inf]), None, lags, "x")
    # a NaN, a negative scale and an err above rel_tol * scale fail
    for errs, scales in (([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, -1e-300]),
                         ([0.0, 0.011], [1.0, 1.0])):
        with pytest.raises(QuadratureError, match=re.escape("x at lag [0.3, 0.4]")) as info:
            certify(values, np.array(errs), np.array(scales), QuadratureSpec(0.01), lags, "x")
        assert info.value.value == 0.0
        assert info.value.err == errs[1] or math.isnan(errs[1])


@pytest.mark.parametrize("power", [39.0, 40.0, 60.0])
def test_a_large_laplace_power_is_certified(power):
    # from about power 39 the small-t power law underflows to 0 at t0, and
    # its deviation there once came out 0/0; the part below t0 is now
    # charged t0 |F(t0)| / p, and nothing warns on the way
    model = canonical_c((1.0, 2.0), power)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = variogram_table(model, [[0.3, 0.5], [1e-3, 2e-3]])
        gradient = variogram_gradient(model, 1, [0.3, 0.5])
    assert np.all(np.isfinite(table.errs)) and np.all(table.errs <= 1e-6 * table.values)
    assert gradient > 0
    if power == 40.0:
        ref, ref_err = _tensor(model, (0.3, 0.5), TIGHT)
        assert abs(0.5 * table.values[0] - ref) <= 0.5 * table.errs[0] + ref_err


@pytest.mark.parametrize("order", [7, 8, 12])
def test_a_t_rule_is_the_prefix_of_every_deeper_one(order):
    # each level's unit rule, at every Gauss order in use, is bit for bit
    # the body [2^-level, 1] of the rule of any deeper level
    levels = (1, 2, 3, 7, 36, 37, 200, 1074, 1099, 1100)
    for cap in (4.0 / 42.0, 4.0 / 48.0, 4.0 / 240.0, 1e-3, 0.5):
        rules = {level: _unit_rule(level, cap, order) for level in levels}
        for i, level in enumerate(levels):
            n = rules[level][0].size
            for deeper in levels[i + 1:]:
                assert np.all(rules[deeper][2][n:] > level)
                for a, b in zip(rules[level], rules[deeper]):
                    assert a.tobytes() == b[:n].tobytes()


def _clear_engine_caches():
    for cached in (quadrature._unit_rule, quadrature._t_grid, quadrature._small_t_law,
                   laplace_form, legitimacy_check):
        cached.cache_clear()


@pytest.mark.parametrize("model", [
    canonical_c((1.0, 2.0, 2.0), 4.0),                        # closed-form axes
    canonical_c((1.5, 0.8), 4.0),                             # numeric axes
    stein((1.0, 2.0), (1.0, 2.0), (0.8, 1.0), 2.0),           # numeric, then closed
], ids=["canonical-closed", "canonical-numeric", "stein-mixed"])
def test_results_do_not_depend_on_cache_state_or_call_order(model):
    # two lags on different t grids, cold (every engine cache cleared) and
    # warm, one grid first and then the other first, alone and batched
    lags = np.array([[0.5] * model.dims, [2e-3] * model.dims])
    partials = [(0, 0), (0, 1), (model.dims - 1, 2)]

    def run(rows):
        form = laplace_form(model)
        return {(i, p): spectral_integral(form, lags[i], partial=p)
                for i in rows for p in partials}

    _clear_engine_caches()
    cold = run([0, 1])
    # each lag has a grid of its own at each of the two steps in log t
    assert quadrature._t_grid.cache_info().currsize == 4
    assert run([0, 1]) == cold
    _clear_engine_caches()
    assert run([1, 0]) == cold
    form = laplace_form(model)
    for p in partials:
        values, errs = spectral_integral(form, lags, partial=p)
        assert [(values[i], errs[i]) for i in (0, 1)] == [cold[0, p], cold[1, p]]
    # every cached array is read-only
    for order in (0, 1):
        grid = quadrature._t_grid(form, 100, quadrature._small_t_law(form, 0, order)[2])
        arrays = [grid.t, grid.log_t, grid.log_f, grid.w, grid.w_lo]
        assert all(not a.flags.writeable for a in arrays)
    assert all(not a.flags.writeable for a in _unit_rule(36, 0.1, 8))


def test_a_t_grid_beyond_the_cache_bound_is_built_per_call():
    # a large power's t rule (here about 1e4 nodes, more than a block's
    # work array holds in one row) gives a grid that is built for its call
    # alone, so the cache holds only small ones
    quadrature._t_grid.cache_clear()
    model = canonical_c((1.0, 2.0), 3e4)
    first = variogram_table(model, [[0.3, 0.5]])
    assert quadrature._t_grid.cache_info().currsize == 0
    second = variogram_table(model, [[0.3, 0.5]])
    assert first.values.tobytes() == second.values.tobytes()
    assert first.errs.tobytes() == second.errs.tobytes()
    assert 0 < first.errs[0] <= 1e-6 * first.values[0]
    assert max(_t_node_counts(model, [[0.3, 0.5]])) > quadrature._BLOCK_BYTES // 8


def _t_node_counts(model, lags):
    """The t nodes of each block of rows that the engine integrates for
    the variogram of ``model`` at ``lags``."""
    counts = []
    block_pass = quadrature._block_pass

    def spy(lap, grid, *args):
        counts.append(grid.w.size)
        return block_pass(lap, grid, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_block_pass", spy)
        spectral_integral(laplace_form(model), np.asarray(lags, float))
    return counts


def test_t_rule_node_counts():
    # every lag of the kriging benchmark's box [0.05, 1]^2 on its model
    lags = np.random.default_rng(5).uniform(0.05, 1.0, (200, 2))
    assert max(_t_node_counts(canonical_c((1.0, 2.0), 4.0), lags)) <= 140
    # the step shrinks as 1 / sqrt(power), and so the count grows like
    # sqrt(power) (and the log of the t span), not like the power
    counts = [_t_node_counts(canonical_c((1.0, 2.0), power), [[0.3, 0.5]])[0]
              for power in (40.0, 400.0, 4000.0)]
    assert all(1.0 < b / a < 10.0 ** 0.6 for a, b in zip(counts, counts[1:])), counts
