import math

import numpy as np
import pytest
from tensor_rule import tensor_integral

from anisofield import quadrature, variogram
from anisofield.errors import ModelError, QuadratureError
from anisofield.models import (canonical_c, fbm, laplace_form,
                               smoothness_exponents, stein)
from anisofield.quadrature import QuadratureSpec
from anisofield.variogram import (GneitingModel, covariance_increment,
                                  gneiting_covariance, gneiting_from_dict,
                                  gneiting_from_json, gneiting_increment_variance,
                                  gneiting_to_dict, modulus_envelope,
                                  sigma_scale, variogram_envelope,
                                  variogram_numeric, variogram_table)

TIGHT = QuadratureSpec(rel_tol=0.01)


def test_zero_lag_is_exactly_zero():
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    assert variogram_numeric(model, np.zeros(2)) == (0.0, 0.0)


def test_lag_sign_symmetry():
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    h = np.array([0.3, -0.7])
    v_pos, _ = variogram_numeric(model, h)
    v_neg, _ = variogram_numeric(model, -h)
    assert v_pos == v_neg


def test_fbm_power_law_values():
    bm = fbm(0.5, 1)
    for lag, expected in [(1.0, 1.0), (2.0, 2.0), (0.25, 0.25)]:
        value, err = variogram_numeric(bm, [lag], TIGHT)
        assert value == pytest.approx(expected, rel=1e-4)
        assert err <= TIGHT.rel_tol * value


def test_fbm_anisotropic_lag_reduces_to_radius():
    # 2-D rules tensor the axis grids, so stick to the default spec here.
    model = fbm(0.7, 2)
    value, _ = variogram_numeric(model, [0.5, 0.0])
    assert value == pytest.approx(0.37892914162759955, rel=5e-3)


def test_variogram_rejects_bad_input():
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    with pytest.raises(ModelError):
        variogram_numeric(model, [1.0])
    for lag in ([np.nan, 0.5], [np.inf, 0.5], [0.0, -np.inf]):
        with pytest.raises(ModelError):
            variogram_numeric(model, lag)
    with pytest.raises(ModelError):
        variogram_numeric(canonical_c(beta=(1.0, 1.0), gamma=2.0),
                          [1.0, 1.0])


def test_quadrature_error_when_tolerance_unreachable():
    tight = QuadratureSpec(rel_tol=1e-12)
    with pytest.raises(QuadratureError) as info:
        variogram_numeric(canonical_c(beta=(2.0,), gamma=1.0), [1e-4], tight)
    assert info.value.err > 0
    # Brownian motion's closed form meets it: v = |h|
    value, err = variogram_numeric(fbm(0.5, 1), [1e-4], tight)
    assert abs(value - 1e-4) <= err


def test_covariance_pinned_conventions():
    model = fbm(0.5, 1)
    t = np.array([1.0])
    vt, _ = variogram_numeric(model, t, TIGHT)
    assert covariance_increment(model, t, t, TIGHT) == vt
    assert covariance_increment(model, np.zeros(1), t, TIGHT) == 0.0
    assert covariance_increment(model, t, np.zeros(1), TIGHT) == 0.0


def test_covariance_increment_runs_one_integral(monkeypatch):
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    s, t = np.array([0.4, -0.2]), np.array([-0.3, 0.5])
    expected = [variogram_numeric(model, lag)[0] for lag in (s, t, s - t)]
    calls = []

    def counting(form, lags, partial=(0, 0)):
        calls.append(np.asarray(lags).tolist())
        return quadrature.spectral_integral(form, lags, partial=partial)

    monkeypatch.setattr(variogram, "spectral_integral", counting)
    value = covariance_increment(model, s, t)
    assert calls == [[s.tolist(), t.tolist(), (s - t).tolist()]]
    assert value == 0.5 * (expected[0] + expected[1] - expected[2])


def test_covariance_brownian_is_min():
    # C(s, t) = min(s, t) for Brownian motion on the half line
    bm = fbm(0.5, 1)
    value = covariance_increment(bm, [2.0], [1.0], TIGHT)
    assert value == pytest.approx(1.0, rel=1e-4)


def test_sigma_scale_branches():
    assert sigma_scale(0.5, 0.25) == 0.25
    assert sigma_scale(1.0, 0.5) == pytest.approx(0.1732867951399863,
                                                  rel=1e-15)
    assert sigma_scale(2.0, 0.5) == 0.25
    for exponent in (0.5, 1.0, 1.5):
        assert sigma_scale(exponent, 0.0) == 0.0
    with pytest.raises(ModelError):
        sigma_scale(0.5, -1.0)
    with pytest.raises(ModelError):
        sigma_scale(0.0, 1.0)


def test_variogram_envelope_values():
    rough = smoothness_exponents(canonical_c(beta=(2.0, 2.0), gamma=1.5))
    lower, upper = variogram_envelope(rough, [1.0, 1.0])
    assert lower == upper == 2.0

    smooth = smoothness_exponents(canonical_c(beta=(1.0, 2.0), gamma=4.0))
    lower, upper = variogram_envelope(smooth, [0.1, 0.1])
    assert lower == pytest.approx(0.02, rel=1e-12)


def test_modulus_envelope_value_and_monotonicity():
    exps = smoothness_exponents(canonical_c(beta=(2.0,), gamma=1.0))
    assert exps.h == (0.5,)
    value = modulus_envelope(exps, [0.01])
    assert value == pytest.approx(math.sqrt(0.01 * math.log(101.0)),
                                  rel=1e-12)
    assert value == pytest.approx(0.21483, abs=1e-5)
    assert modulus_envelope(exps, [0.0]) == 0.0
    grid = np.geomspace(1e-6, 10.0, 60)
    values = [modulus_envelope(exps, [e]) for e in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


BATCH_MODELS = [
    (fbm(0.35, 2), 12),
    (fbm(0.6, 3), 12),
    (canonical_c(beta=(1.0, 2.0), gamma=4.0), 12),           # closed-form axes
    (canonical_c(beta=(1.0, 2.0, 2.0), gamma=4.0), 12),
    (canonical_c(beta=(2.5, 1.0), gamma=2.4), 4),            # a numeric axis
    (stein((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 1.5), 12),    # closed-form axes
    (stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0), 4),     # numeric axes
]


def test_variogram_table_matches_pointwise_calls():
    # Each row of a batch must be exactly the one-row call, whatever else
    # the batch holds: zero rows, sign flips, axis-aligned and random lags.
    rng = np.random.default_rng(11)
    for model, n_random in BATCH_MODELS:
        lags = np.vstack([rng.uniform(-1.0, 1.0, (n_random, model.dims)),
                          np.zeros((1, model.dims)), np.eye(model.dims) * 0.5])
        lags = np.vstack([lags, -lags[:2]])
        lags[1, 0] = 0.0
        table = variogram_table(model, lags)
        assert table.lags.shape == lags.shape
        for row, h in enumerate(lags):
            value, err = variogram_numeric(model, h)
            assert table.values[row] == value
            assert table.errs[row] == err
        assert table.values[n_random] == 0.0
        empty = variogram_table(model, np.zeros((0, model.dims)))
        assert empty.values.shape == empty.errs.shape == (0,)


def test_variogram_table_refuses_non_finite_row_before_integrating(monkeypatch):
    calls = []
    monkeypatch.setattr(quadrature, "_laplace_increment",
                        lambda *args: calls.append(args))
    for bad in (np.nan, np.inf):
        with pytest.raises(ModelError):
            variogram_table(fbm(0.35, 2), [[0.5, 0.5], [bad, 0.1], [0.2, 0.3]])
    assert calls == []


def test_variogram_table_names_the_uncertifiable_row():
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    lags = [[0.0, 0.0], [0.5, 0.5], [0.2, 0.9]]
    value, err = variogram_numeric(model, [0.5, 0.5])
    assert 0 < err < 1e-6 * value
    with pytest.raises(QuadratureError) as info:
        variogram_table(model, lags, QuadratureSpec(rel_tol=1e-12))
    assert (info.value.value, info.value.err) == (value, err)
    # fbm's closed form certifies every row at that tolerance: |h|^0.7
    table = variogram_table(fbm(0.35, 2), lags, QuadratureSpec(rel_tol=1e-12))
    exact = np.linalg.norm(lags, axis=1) ** 0.7
    assert np.all(np.abs(table.values - exact) <= table.errs)


def test_variogram_table_rejects_misaligned_arrays():
    from anisofield.variogram import VariogramTable
    with pytest.raises(ModelError):
        VariogramTable(model_id="x", lags=np.ones((3, 1)),
                       values=np.ones(2), errs=np.ones(3))


def test_numeric_axis_matches_closed_form():
    # beta = 4 has no closed-form axis transform, but its variogram is
    # sqrt(2) pi (1 - e^-a (cos a + sin a)) with a = h / sqrt(2)
    model = canonical_c(beta=(4.0,), gamma=1.0)
    for lag in (0.01, 0.1, 0.7, 3.0, 30.0):
        value, err = variogram_numeric(model, [lag])
        a = lag / math.sqrt(2.0)
        exact = math.sqrt(2.0) * math.pi * (1.0 - math.exp(-a) * (math.cos(a) + math.sin(a)))
        assert abs(value - exact) <= err
    # the default rule of a numeric axis against the tight tensor rule
    model = canonical_c(beta=(1.5,), gamma=2.0)
    ref, ref_err = tensor_integral(laplace_form(model), np.array([0.7]),
                                   truncation=4096.0, panels=4096)
    value, err = variogram_numeric(model, [0.7])
    assert 2.0 * ref_err < 1e-9
    assert abs(value - 2.0 * ref) <= err
    assert abs(value - 2.0 * ref) < 1e-4


def test_one_dimensional_large_lags():
    for hurst, lag in ((0.3, 100.0), (0.5, 1000.0)):
        value, err = variogram_numeric(fbm(hurst, 1), [lag])
        exact = lag ** (2.0 * hurst)
        assert abs(value - exact) <= err
        assert value == pytest.approx(exact, rel=1e-6)


def test_gneiting_covariance_values():
    gm = GneitingModel(d=1)
    assert gneiting_covariance(gm, [0.0], 0.0) == 1.0
    assert gneiting_covariance(gm, [1.0], 0.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15)
    assert gneiting_covariance(gm, [0.0], 1.0) == pytest.approx(
        2.0**-0.5, rel=1e-15)
    scaled = GneitingModel(d=2, sigma2=3.0)
    assert gneiting_covariance(scaled, [0.0, 0.0], 0.0) == 3.0


def test_gneiting_increment_variance():
    gm = GneitingModel(d=1)
    value = gneiting_increment_variance(gm, [1.0], 0.0, [0.0], 0.0)
    assert value == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-15)
    assert gneiting_increment_variance(gm, [0.3], 0.2, [0.3], 0.2) == 0.0


def test_gneiting_small_lag_band():
    gm = GneitingModel(d=1, alpha=0.75, gamma=0.5)
    ratios = []
    for r in np.geomspace(1e-3, 1e-1, 25):
        value = gneiting_increment_variance(gm, [r], r, [0.0], 0.0)
        shape = r ** (2.0 * gm.gamma) + r ** (2.0 * gm.alpha)
        ratios.append(value / shape)
    assert max(ratios) / min(ratios) < 4.0
    assert min(ratios) > 0


def test_gneiting_validation():
    with pytest.raises(ModelError):
        GneitingModel(d=0)
    for flag in (True, False):
        with pytest.raises(ModelError):
            GneitingModel(d=flag)
        with pytest.raises(ModelError):
            gneiting_from_dict({"kind": "gneiting", "d": flag})
    with pytest.raises(ModelError):
        GneitingModel(d=1, beta=1.5)
    with pytest.raises(ModelError):
        GneitingModel(d=1, sigma2=-1.0)


def test_gneiting_serialization_round_trip():
    gm = GneitingModel(d=2, sigma2=2.0, a=0.5, c=1.5, alpha=0.5, beta=0.75,
                       gamma=0.9)
    assert gneiting_from_dict(gneiting_to_dict(gm)) == gm
    with pytest.raises(ModelError):
        gneiting_from_dict({"kind": "gneiting", "d": 1, "zz": 2})
    with pytest.raises(ModelError):
        gneiting_from_json("{not json")
