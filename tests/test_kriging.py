import numpy as np
import pytest

from anisofield import kriging
from anisofield.errors import ModelError
from anisofield.kriging import (Observations, krige, krige_many,
                                prediction_error_envelope,
                                scaling_exponent_check)
from anisofield.models import canonical_c, fbm, smoothness_exponents, stein
from anisofield.quadrature import QuadratureSpec
from anisofield.variogram import covariance_increment, variogram_numeric

TIGHT = QuadratureSpec(rel_tol=0.01)


@pytest.fixture(scope="module")
def bm():
    return fbm(0.5, 1)


def test_interpolation_at_observation_sites(bm):
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        sites = np.cumsum(rng.uniform(0.3, 1.0, n))[:, None]
        values = rng.standard_normal(n)
        obs = Observations(sites=sites, values=values, model=bm)
        pick = int(rng.integers(0, n))
        result = krige(obs, sites[pick], quad=TIGHT)
        assert result.prediction == pytest.approx(values[pick], abs=1e-8)
        assert result.variance <= 1e-8


def test_brownian_extrapolation_oracle(bm):
    obs = Observations(sites=[[1.0]], values=[0.7], model=bm)
    result = krige(obs, [2.0], quad=TIGHT)
    # beyond the last site the increment is independent: X(2)|X(1)=Z is
    # N(Z, 2 - 1)
    assert result.prediction == pytest.approx(0.7, abs=1e-6)
    assert result.variance == pytest.approx(1.0, abs=1e-6)


def test_brownian_bridge_oracle(bm):
    obs = Observations(sites=[[1.0]], values=[0.7], model=bm)
    result = krige(obs, [0.5], quad=TIGHT)
    # bridge between the pinned origin and X(1): mean 0.5 Z, var 0.25
    assert result.prediction == pytest.approx(0.35, abs=1e-6)
    assert result.variance == pytest.approx(0.25, abs=1e-6)


def test_empty_observations_fall_back_to_prior(bm):
    obs = Observations(sites=np.zeros((0, 1)), values=[], model=bm)
    result = krige(obs, [0.7], quad=TIGHT)
    assert result.prediction == 0.0
    assert result.variance == pytest.approx(0.7, rel=1e-4)
    assert result.weights.shape == (0,)


PLANE = canonical_c(beta=(1.0, 2.0), gamma=4.0)
PLANE_SITES = np.array([[0.3, 0.6], [0.8, 0.2], [0.5, 0.9]])
# on a site, off the sites, and the mirror of a site (same lags up to sign)
PLANE_TARGETS = np.array([[0.8, 0.2], [0.4, 0.4], [-0.3, -0.6]])


def _canonical(lag):
    nonzero = lag[lag != 0]
    if nonzero.size == 0:
        return None
    return tuple(lag if nonzero[0] > 0 else -lag)


def _sigma_lags(sites):
    return [lag for i in range(len(sites)) for k in range(i, len(sites))
            for lag in (sites[i], sites[k], sites[i] - sites[k])]


def _target_lags(u, sites):
    return [u] + [lag for s in sites for lag in (u, s, u - s)]


def _distinct_nonzero_lags(sites, targets):
    lags = _sigma_lags(sites)
    for u in targets:
        lags += _target_lags(u, sites)
    return {_canonical(lag) for lag in lags} - {None}


def test_krige_many_factors_once_and_matches_krige(monkeypatch):
    obs = Observations(sites=PLANE_SITES, values=[0.4, -0.2, 0.1],
                       model=PLANE)
    empty = Observations(sites=np.zeros((0, 2)), values=[], model=PLANE)
    for config in (obs, empty):
        single = [krige(config, u) for u in PLANE_TARGETS]
        batch = krige_many(config, PLANE_TARGETS)
        assert len(batch) == len(single)
        for a, b in zip(single, batch):
            assert np.array_equal(a.site, b.site)
            assert a.prediction == b.prediction and a.variance == b.variance
            assert np.array_equal(a.weights, b.weights)
            assert a.jitter == b.jitter

    factor_calls, tables = [], []
    real_factor = kriging._factor_with_jitter
    real_table = kriging.variogram_table

    def counting_factor(matrix):
        factor_calls.append(matrix)
        return real_factor(matrix)

    def counting_table(model, lags, quad=None):
        tables.append([tuple(lag) for lag in lags])
        return real_table(model, lags, quad)

    monkeypatch.setattr(kriging, "_factor_with_jitter", counting_factor)
    monkeypatch.setattr(kriging, "variogram_table", counting_table)
    krige_many(obs, PLANE_TARGETS)
    assert len(factor_calls) == 1
    # one table holding each distinct lag once
    assert len(tables) == 1
    assert len(tables[0]) == len(set(tables[0]))
    assert set(tables[0]) == _distinct_nonzero_lags(PLANE_SITES, PLANE_TARGETS)


def test_krige_many_reports_variogram_diagnostics():
    obs = Observations(sites=PLANE_SITES, values=[0.4, -0.2, 0.1],
                       model=PLANE)
    distinct = _distinct_nonzero_lags(PLANE_SITES, PLANE_TARGETS)
    errs = {lag: variogram_numeric(PLANE, lag)[1] for lag in distinct}
    lookups = _sigma_lags(PLANE_SITES)
    for u in PLANE_TARGETS:
        lookups += _target_lags(u, PLANE_SITES)
    nonzero_lookups = sum(_canonical(lag) is not None for lag in lookups)
    results = krige_many(obs, PLANE_TARGETS)
    for u, result in zip(PLANE_TARGETS, results):
        behind = _sigma_lags(PLANE_SITES) + _target_lags(u, PLANE_SITES)
        worst = max(errs[_canonical(lag)] for lag in behind
                    if _canonical(lag) is not None)
        assert result.meta == {"variogram_evals": len(distinct),
                               "cache_hits": nonzero_lookups - len(distinct),
                               "max_variogram_err": worst}

    empty = Observations(sites=np.zeros((0, 2)), values=[], model=PLANE)
    prior = krige_many(empty, [[0.4, 0.4], [-0.4, -0.4], [0.0, 0.0]])
    assert [r.meta for r in prior] == [
        {"variogram_evals": 1, "cache_hits": 1,
         "max_variogram_err": errs[(0.4, 0.4)]}] * 2 + [
        {"variogram_evals": 1, "cache_hits": 1, "max_variogram_err": 0.0}]


SPACETIME = canonical_c(beta=(1.0, 2.0, 2.0), gamma=4.0)
# neighbours 0.05 apart on one axis and 1 apart on another
SPACETIME_SITES = np.array([[0.5, 0.5, 0.5], [0.55, 1.5, 0.5],
                            [0.5, 0.55, 1.5], [1.5, 0.5, 0.55]])


def test_krige_many_spacetime_mixed_scales():
    values = np.array([0.3, -0.1, 0.4, 0.2])
    obs = Observations(sites=SPACETIME_SITES, values=values, model=SPACETIME)
    targets = np.array([[0.55, 1.5, 0.5], [0.52, 1.0, 0.5], [1.0, 1.0, 1.0]])
    results = krige_many(obs, targets)
    assert results[0].prediction == pytest.approx(values[1], abs=1e-8)
    assert results[0].variance <= 1e-8
    # against Sigma and c(u) assembled lag by lag from the pinned covariance
    sigma = np.array([[covariance_increment(SPACETIME, s, t) for t in SPACETIME_SITES]
                      for s in SPACETIME_SITES])
    for u, result in zip(targets, results):
        cvec = np.array([covariance_increment(SPACETIME, s, u) for s in SPACETIME_SITES])
        weights = np.linalg.solve(sigma, cvec)
        prior = variogram_numeric(SPACETIME, u)[0]
        assert result.prediction == pytest.approx(weights @ values, abs=1e-9)
        assert result.variance == pytest.approx(prior - weights @ cvec, abs=1e-9)
        assert 0 <= result.variance <= prior
        assert result.meta["max_variogram_err"] <= 1e-6


def test_targets_must_be_finite_rows(bm):
    obs = Observations(sites=[[1.0]], values=[0.7], model=bm)
    for bad in ([[np.nan]], [[0.5], [np.inf]], [0.5], [[0.5, 0.5]]):
        with pytest.raises(ModelError):
            krige_many(obs, bad)
    for bad in ([np.nan], [-np.inf]):
        with pytest.raises(ModelError):
            krige(obs, bad)


def test_added_observation_never_hurts(bm):
    rng = np.random.default_rng(22)
    for _ in range(30):
        sites = np.sort(rng.uniform(0.2, 2.0, 3))[:, None]
        values = rng.standard_normal(3)
        target = np.array([rng.uniform(0.05, 2.5)])
        if np.min(np.abs(sites - target)) < 0.05:
            continue
        small = Observations(sites=sites[:2], values=values[:2], model=bm)
        large = Observations(sites=sites, values=values, model=bm)
        var_small = krige(small, target, quad=TIGHT).variance
        var_large = krige(large, target, quad=TIGHT).variance
        assert var_large <= var_small + 1e-9


def test_permutation_invariance(bm):
    rng = np.random.default_rng(23)
    sites = rng.uniform(0.2, 2.0, (4, 1))
    values = rng.standard_normal(4)
    target = np.array([1.3])
    base = krige(Observations(sites=sites, values=values, model=bm), target,
                 quad=TIGHT)
    perm = rng.permutation(4)
    shuffled = krige(Observations(sites=sites[perm], values=values[perm],
                                  model=bm), target, quad=TIGHT)
    assert shuffled.prediction == pytest.approx(base.prediction, abs=1e-12)
    assert shuffled.variance == pytest.approx(base.variance, abs=1e-12)


def test_origin_observations_are_dropped(bm):
    obs = Observations(sites=[[0.0], [1.0]], values=[0.0, 0.5], model=bm)
    assert len(obs) == 1
    assert obs.sites.tolist() == [[1.0]]
    with pytest.raises(ModelError):
        Observations(sites=[[0.0]], values=[0.3], model=bm)


def test_duplicate_sites(bm):
    obs = Observations(sites=[[1.0], [1.0 + 1e-13]], values=[0.5, 0.5],
                       model=bm)
    assert len(obs) == 1
    with pytest.raises(ModelError):
        Observations(sites=[[1.0], [1.0]], values=[0.5, 0.6], model=bm)
    # a site is compared only with the sites kept before it: the middle one
    # of a chain of 0.6e-12 steps is dropped, so the third is kept
    chain = [[1.0], [1.0 + 0.6e-12], [1.0 + 1.2e-12]]
    obs = Observations(sites=chain, values=[0.5, 0.5, 0.5], model=bm)
    assert obs.sites.tolist() == [chain[0], chain[2]]
    assert obs.values.tolist() == [0.5, 0.5]
    # the first conflict in site order is reported, with both values
    with pytest.raises(ModelError) as info:
        Observations(sites=[[2.0], [1.0], [1.0 + 1e-13], [2.0]],
                     values=[0.1, 0.5, 0.6, 0.2], model=bm)
    assert str(info.value) == ("duplicate site [1.0000000000001] with "
                               "conflicting values 0.5 and 0.6")
    # an inconsistent origin observation before the conflict is reported first
    with pytest.raises(ModelError, match="origin observation with value 0.3 "):
        Observations(sites=[[1.0], [1e-13], [1.0]], values=[0.5, 0.3, 0.6], model=bm)


def _distinct_lags_by_unique(lags):
    """_distinct_lags as np.unique(axis=0) finds it: the reference."""
    nonzero = lags != 0
    live = nonzero.any(axis=1)
    first = lags[np.arange(len(lags)), nonzero.argmax(axis=1)]
    canonical = np.where(first[:, None] < 0, -lags, lags) + 0.0
    distinct, inverse = np.unique(canonical[live], axis=0, return_inverse=True)
    index = np.full(len(lags), -1)
    index[live] = inverse.reshape(-1)
    return distinct, index


def test_distinct_lags_match_the_unique_rows():
    rng = np.random.default_rng(19)
    batches = [np.zeros((0, 2)), np.zeros((4, 3)), -np.zeros((3, 2))]
    for dims in (1, 2, 3):
        for n in (1, 2, 7, 60, 300):
            base = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], (n, dims)) \
                * rng.choice([1.0, 2.0, 3.0], (n, dims))
            picks = base[rng.integers(0, n, 2 * n)]  # repeated rows
            batches.append(picks * rng.choice([-1.0, 1.0], (2 * n, 1)))  # sign flips
            batches.append(rng.uniform(-1.0, 1.0, (n, dims)))
    # no live rows: no sites and a target at the origin
    obs = Observations(sites=np.zeros((0, 2)), values=[], model=fbm(0.4, 2))
    batches.append(np.zeros((1, 2)))
    assert len(krige_many(obs, np.zeros((1, 2)))) == 1
    for lags in batches:
        distinct, index = kriging._distinct_lags(lags)
        ref_distinct, ref_index = _distinct_lags_by_unique(lags)
        assert distinct.tobytes() == ref_distinct.tobytes()
        assert distinct.shape == ref_distinct.shape
        assert index.tolist() == ref_index.tolist()


def test_observation_validation(bm):
    with pytest.raises(ModelError):
        Observations(sites=[[1.0, 2.0]], values=[0.5], model=bm)
    with pytest.raises(ModelError):
        Observations(sites=[[1.0]], values=[0.5, 0.6], model=bm)
    with pytest.raises(ModelError):
        Observations(sites=[[np.inf]], values=[0.5], model=bm)


def test_envelope_vanishes_at_observation_sites():
    exps = smoothness_exponents(canonical_c(beta=(2.0, 2.0), gamma=1.5))
    sites = [[0.5, 0.5]]
    assert prediction_error_envelope(exps, sites, [0.5, 0.5]) == (0.0, 0.0)
    assert prediction_error_envelope(exps, sites, [0.0, 0.0]) == (0.0, 0.0)


def test_envelope_rejects_sites_of_the_wrong_dimension():
    exps = smoothness_exponents(canonical_c(beta=(2.0, 2.0), gamma=1.5))
    with pytest.raises(ModelError, match="coordinate per exponent"):
        prediction_error_envelope(exps, [[1.0]], [0.1, 0.2])


def test_envelope_origin_only_values():
    rough = smoothness_exponents(canonical_c(beta=(2.0, 2.0), gamma=1.5))
    lower, upper = prediction_error_envelope(rough, np.zeros((0, 2)),
                                             [1.0, 1.0])
    assert lower == upper == 2.0

    mixed = smoothness_exponents(canonical_c(beta=(2.5, 1.0), gamma=2.4))
    assert mixed.h == pytest.approx((1.25, 0.5), rel=1e-12)
    lower, upper = prediction_error_envelope(mixed, np.zeros((0, 2)),
                                             [0.1, 0.1])
    assert lower == pytest.approx(0.10316227766016839, rel=1e-12)
    assert upper == pytest.approx(0.11, rel=1e-12)


def test_variance_tracks_envelope(bm):
    # H = 0.5 puts both envelope shapes on the same curve; the realized
    # kriging variance must stay within one constant band of it.
    exps = smoothness_exponents(bm)
    rng = np.random.default_rng(24)
    ratios = []
    for _ in range(100):
        n = int(rng.integers(1, 4))
        sites = rng.uniform(0.3, 2.0, (n, 1))
        target = np.array([rng.uniform(0.05, 2.5)])
        if np.min(np.abs(sites - target)) < 0.05:
            continue
        if n > 1 and np.min(np.diff(np.sort(sites[:, 0]))) < 0.05:
            continue
        obs = Observations(sites=sites, values=rng.standard_normal(n),
                           model=bm)
        variance = krige(obs, target, quad=TIGHT).variance
        shape, _ = prediction_error_envelope(exps, sites, target)
        ratios.append(variance / shape)
    assert len(ratios) > 60
    assert min(ratios) > 0
    assert max(ratios) / min(ratios) < 50.0


def test_scaling_slope_brownian(bm):
    slope = scaling_exponent_check(bm, 0, quad=TIGHT)
    assert slope == pytest.approx(1.0, abs=0.05)


def test_scaling_slope_anisotropic():
    model = canonical_c(beta=(2.0, 3.0), gamma=4.0 / 3.0)
    assert smoothness_exponents(model).h == pytest.approx((0.5, 0.75))
    slope = scaling_exponent_check(model, 1)
    assert slope == pytest.approx(1.5, abs=0.15)


def test_scaling_rejects_smooth_axis():
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    with pytest.raises(ModelError):
        scaling_exponent_check(model, 0)
    with pytest.raises(ModelError):
        scaling_exponent_check(model, 5)


def test_site_rounding_next_to_a_low_growth_numeric_axis_is_predicted():
    # 0.1 + 0.2 leaves a -5.55e-17 lag component on the alpha = 0.45 axis,
    # once refused there; the prediction is that of the exact site 0.3
    model = stein((1.0, 1.0), (1.0, 2.0), (1.4, 0.45), 2.0)
    predictions = [krige_many(Observations(sites=[[0.5, y], [0.9, 0.3]], values=[1.0, 0.7],
                                           model=model), [[0.7, 0.3]])[0].prediction
                   for y in (0.1 + 0.2, 0.3)]
    assert predictions[0] == pytest.approx(predictions[1], rel=1e-9)
