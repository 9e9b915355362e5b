import json
import math
import sys

import numpy as np
import pytest

from anisofield.errors import ModelError, SingularDensityError
from anisofield.models import (KIND_FBM, SpectralModel, canonical_c,
                               evaluate_density, fbm, laplace_form,
                               legitimacy_check, model_from_dict,
                               model_from_json, model_to_dict, model_to_json,
                               normalize_fbm_constant, smoothness_exponents,
                               stein)
from anisofield.quadrature import spectral_integral
from anisofield.variogram import variogram_numeric

# closed form: 2 * integral (1 - cos l) / (2 pi l^2) dl = 1
BM_SPECTRAL_CONST = 0.15915494309189535


def test_canonical_legitimate():
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    verdict = legitimacy_check(model)
    assert verdict.ok and verdict.reason is None


def test_canonical_boundary_is_illegitimate():
    verdict = legitimacy_check(canonical_c(beta=(1.0, 1.0), gamma=2.0))
    assert not verdict.ok
    assert "2" in verdict.reason


def test_stein_legitimate():
    model = stein(c=(1.0, 1.0), a=(1.0, 1.0), alpha=(1.0, 1.0), nu=1.5)
    assert legitimacy_check(model).ok


def test_exponents_canonical():
    exps = smoothness_exponents(canonical_c(beta=(1.0, 2.0), gamma=4.0))
    assert exps.h == (1.25, 2.5)
    assert exps.q == pytest.approx(1.2, abs=1e-15)


def test_exponents_fbm_equivalent_parameterization():
    exps = smoothness_exponents(canonical_c(beta=(2.0, 2.0), gamma=1.5))
    assert exps.h == (0.5, 0.5)


def test_exponents_stein():
    exps = smoothness_exponents(stein(c=(1.0, 1.0), a=(1.0, 1.0),
                                      alpha=(1.0, 1.0), nu=1.5))
    assert exps.h == (0.5, 0.5)


def test_exponents_reject_illegitimate():
    with pytest.raises(ModelError):
        smoothness_exponents(canonical_c(beta=(1.0, 1.0), gamma=2.0))


def test_exponent_identity_random_draws():
    rng = np.random.default_rng(0)
    for _ in range(200):
        dims = int(rng.integers(1, 5))
        beta = tuple(rng.uniform(0.2, 5.0, dims))
        s = sum(1.0 / b for b in beta)
        gamma = s + rng.uniform(0.01, 3.0)
        exps = smoothness_exponents(canonical_c(beta, gamma))
        assert 0.5 * (gamma - s) * (2.0 + exps.q) == pytest.approx(
            gamma, rel=1e-12)


def test_density_at_origin():
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    assert evaluate_density(model, np.zeros(2)) == 1.0


def test_stein_density_value():
    model = stein(c=(1.0, 1.0), a=(1.0, 1.0), alpha=(1.0, 1.0), nu=1.5)
    assert evaluate_density(model, np.zeros(2)) == pytest.approx(
        0.35355339059327373, rel=1e-15)


def test_canonical_density_envelope_at_large_freq():
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = rng.uniform(5.0, 50.0, 2)
        s = abs(lam[0]) + lam[1] ** 2
        value = evaluate_density(model, lam)
        assert 0.5 * s**-4.0 <= value <= s**-4.0


def test_fbm_normalization_constant():
    const = normalize_fbm_constant(0.5, 1)
    assert const == pytest.approx(BM_SPECTRAL_CONST, rel=1e-15)


def _quadrature_fbm_constant(hurst, dims):
    """Reference: invert the default-spec increment integral at h = e_1."""
    unit = SpectralModel(kind=KIND_FBM, dims=dims, hurst=hurst, fbm_const=1.0)
    lag = np.zeros(dims)
    lag[0] = 1.0
    value, _ = spectral_integral(laplace_form(unit), lag)
    return 1.0 / (2.0 * value)


@pytest.mark.parametrize("dims, rel", [(1, 1e-6), (2, 1e-3)])
def test_fbm_constant_matches_quadrature(dims, rel):
    for hurst in (0.3, 0.5, 0.7):
        assert normalize_fbm_constant(hurst, dims) == pytest.approx(
            _quadrature_fbm_constant(hurst, dims), rel=rel)


def test_fbm_normalization_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fbm normalization ran a quadrature")

    for name, module in list(sys.modules.items()):
        if name.startswith("anisofield") and hasattr(module, "spectral_integral"):
            monkeypatch.setattr(module, "spectral_integral", refuse)
    model = fbm(0.4, 3)
    assert model.fbm_const == normalize_fbm_constant(0.4, 3) > 0


def test_fbm_constant_is_finite_or_typed_error():
    # math.gamma(H + N/2) overflows from about N = 341
    for dims in (1, 4, 40, 340):
        const = normalize_fbm_constant(0.3, dims)
        assert math.isfinite(const) and const > 0
    for dims in (343, 1000):
        with pytest.raises(ModelError):
            normalize_fbm_constant(0.3, dims)
    for bad in (0, -1, 2.0):
        with pytest.raises(ModelError):
            normalize_fbm_constant(0.3, bad)


def test_fbm_unit_lag_is_one():
    for hurst in (0.3, 0.5, 0.7):
        model = fbm(hurst, 1)
        value, _ = variogram_numeric(model, np.ones(1))
        assert value == pytest.approx(1.0, rel=1e-6)


def test_fbm_2d_variogram_is_power_law():
    model = fbm(0.35, 2)
    # the last four have a zero or small component
    for lag in ((0.6, 0.8), (0.3, 0.01), (0.05, 0.9), (1.0, 0.0),
                (1.0, 0.001), (0.0184, 0.959), (0.721, 0.015)):
        value, _ = variogram_numeric(model, np.array(lag))
        assert value == pytest.approx(math.hypot(*lag) ** 0.7, rel=1e-5)


def test_fbm_3d_variogram_is_power_law_at_mixed_scales():
    model = fbm(0.4, 3)
    for lag in ((0.05, 1.0, 0.3), (1.0, 0.001, 0.02), (0.0, 0.0, 0.7),
                (3.0, 0.01, 0.0), (0.002, 0.004, 0.001)):
        value, _ = variogram_numeric(model, np.array(lag))
        assert value == pytest.approx(np.linalg.norm(lag) ** 0.8, rel=1e-5)


def test_laplace_form_reproduces_density():
    # each family's formula, written out independently of the Laplace form
    cases = [
        (canonical_c(beta=(1.0, 2.5), gamma=2.4, scale=1.5),
         lambda x: 1.5 / (1.0 + np.abs(x[:, 0]) + np.abs(x[:, 1]) ** 2.5) ** 2.4),
        (fbm(0.35, 3),
         lambda x: normalize_fbm_constant(0.35, 3)
         * np.linalg.norm(x, axis=1) ** -(2 * 0.35 + 3)),
        (stein(c=(1.0, 2.0), a=(0.5, 1.5), alpha=(1.0, 1.7), nu=1.2),
         lambda x: (1.0 * (0.5 + x[:, 0] ** 2) ** 1.0
                    + 2.0 * (1.5 + x[:, 1] ** 2) ** 1.7) ** -1.2),
    ]
    lam = np.random.default_rng(8).uniform(-20.0, 20.0, (25, 3))
    for model, formula in cases:
        x = lam[:, :model.dims]
        value = evaluate_density(model, x)
        np.testing.assert_allclose(value, formula(x), rtol=1e-12, atol=0)
        assert evaluate_density(model, x[0]) == value[0]
        for j in range(model.dims):  # even in each coordinate
            mirrored = x.copy()
            mirrored[:, j] *= -1.0
            assert np.array_equal(evaluate_density(model, mirrored), value)
    with pytest.raises(SingularDensityError):
        evaluate_density(fbm(0.35, 3), np.zeros(3))
    with pytest.raises(SingularDensityError):
        evaluate_density(fbm(0.35, 3), [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ModelError):
        evaluate_density(fbm(0.35, 1), 1.0)
    # a stein axis with alpha = 1 is a Gaussian power axis
    kinds = [(ax.kind, ax.expo) for ax in laplace_form(cases[2][0]).axes]
    assert kinds == [("power", 2.0), ("shifted", 1.7)]


def test_axis_inverse_undoes_its_term():
    # power axes of several exponents and shifted ones with small and large
    # shifts, from levels far below the shift's scale to far above it
    axes = (laplace_form(canonical_c((0.3, 1.0, 2.5), 4.0)).axes
            + laplace_form(stein((0.2, 3.0), (1e-3, 50.0), (0.4, 1.3), 4.0)).axes)
    lam = 10.0 ** np.linspace(-6.0, 6.0, 49)
    for ax in axes:
        np.testing.assert_allclose(ax.inverse(ax.term(lam)), lam, rtol=1e-12, atol=0)
    assert laplace_form(stein((1.0,), (2.0,), (0.7,), 4.0)).axes[0].inverse(0.0) == 0.0


def test_boolean_is_not_a_dimension():
    for dims in (True, False):
        with pytest.raises(ModelError):
            fbm(0.5, dims)
        with pytest.raises(ModelError):
            model_from_dict({"kind": "fbm", "dims": dims, "hurst": 0.5})
    with pytest.raises(ModelError):
        model_from_dict({"kind": "canonical_c", "dims": True, "beta": [2.0],
                         "gamma": 1.0})


def test_fbm_rejects_bad_hurst():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ModelError):
            fbm(bad, 1)


def test_factories_reject_bad_parameters():
    with pytest.raises(ModelError):
        canonical_c(beta=(0.0, 1.0), gamma=2.0)
    with pytest.raises(ModelError):
        canonical_c(beta=(1.0,), gamma=-1.0)
    with pytest.raises(ModelError):
        stein(c=(1.0,), a=(1.0, 1.0), alpha=(1.0,), nu=1.0)
    with pytest.raises(ModelError):
        stein(c=(1.0,), a=(1.0,), alpha=(1.0,), nu=0.0)


def test_serialization_round_trip():
    models = [canonical_c(beta=(1.0, 2.0), gamma=4.0, scale=2.5),
              fbm(0.7, 2, fbm_const=0.123),
              stein(c=(1.0, 2.0), a=(0.5, 1.0), alpha=(1.0, 2.5), nu=2.0)]
    for model in models:
        assert model_from_dict(model_to_dict(model)) == model
        assert model_from_json(model_to_json(model)) == model


def test_serialization_rejects_unknown_keys():
    doc = model_to_dict(canonical_c(beta=(1.0,), gamma=2.0))
    doc["mystery"] = 1
    with pytest.raises(ModelError):
        model_from_dict(doc)


def test_serialization_rejects_wrong_kind():
    with pytest.raises(ModelError):
        model_from_json(json.dumps({"kind": "nope", "dims": 1}))


def test_fbm_const_reuse_skips_quadrature():
    const = normalize_fbm_constant(0.5, 1)
    model = fbm(0.5, 1, fbm_const=const)
    assert model.fbm_const == const
