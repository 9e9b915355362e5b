import numpy as np
import pytest

from anisofield.errors import ConsistencyError, ModelError
from anisofield.fractal import (EMPTY, UNDETERMINED, clamp_exponents,
                                dimension_report, estimate_hurst,
                                gneiting_dimensions, graph_dimension,
                                level_set_dimension, range_dimension)
from anisofield.models import canonical_c, fbm, smoothness_exponents
from anisofield.simulate import FieldSample, Grid, multi_copy_field
from anisofield.variogram import GneitingModel


def test_clamp_sorts_and_caps():
    exps = smoothness_exponents(canonical_c(beta=(1.0, 2.0), gamma=4.0))
    assert clamp_exponents(exps) == (1.0, 1.0)
    assert clamp_exponents((0.9, 0.3, 1.7)) == (0.3, 0.9, 1.0)
    with pytest.raises(ModelError):
        clamp_exponents(())
    with pytest.raises(ModelError):
        clamp_exponents((0.5, -1.0))


def test_range_dimension_values():
    assert range_dimension((0.5, 0.5), 3) == 3.0
    assert range_dimension((0.5, 0.5), 5) == 4.0
    for n in (1, 2, 4):
        assert range_dimension((1.0,) * n, n + 2) == float(n)


def test_graph_dimension_values():
    value, argmin = graph_dimension((0.5, 0.5), 1)
    assert value == 2.5 and argmin == 1
    value, argmin = graph_dimension((0.5, 1.0), 1)
    assert value == 2.5 and argmin == 1
    value, _ = graph_dimension((0.5, 0.75, 0.75), 1)
    assert value == 3.5


def test_level_set_dimension_values():
    assert level_set_dimension((0.5, 0.75, 0.75), 1) == 2.5
    assert level_set_dimension((0.5, 0.5), 5) is EMPTY
    assert level_set_dimension((0.5, 0.5), 4) is UNDETERMINED
    assert level_set_dimension((1.0, 1.0), 1) == 1.0


def test_fbm_dimension_reductions():
    # isotropic H: range min(p, N/H); graph at p=1 is N + 1 - H;
    # level is N - H p whenever N/H > p
    for hurst in (0.3, 0.5, 0.7):
        for n in (1, 2, 3):
            for p in (1, 2):
                report = dimension_report(fbm(hurst, n), p)
                assert report.range_dim == min(float(p), n / hurst)
                if p == 1:
                    assert report.graph_dim == pytest.approx(n + 1 - hurst,
                                                             rel=1e-12)
                if n / hurst > p:
                    assert report.level_dim == pytest.approx(n - hurst * p,
                                                             rel=1e-12)
                elif n / hurst < p:
                    assert report.level_dim is EMPTY


def test_report_accepts_models_exponents_and_vectors():
    model = canonical_c(beta=(2.0, 2.0), gamma=1.5)
    by_model = dimension_report(model, 1)
    by_exps = dimension_report(smoothness_exponents(model), 1)
    by_vector = dimension_report((0.5, 0.5), 1)
    assert by_model == by_exps == by_vector
    assert by_model.graph_dim == 2.5
    with pytest.raises(ModelError):
        dimension_report(model, 0)


def _brute_force_dims(h, p):
    # candidate enumeration straight from the closed formulas
    h = sorted(min(1.0, v) for v in h)
    n = len(h)
    total = sum(1.0 / v for v in h)
    rng = min(float(p), total)
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
    return rng, min(graph_cands), level


def test_generic_path_matches_brute_force_scan():
    rng = np.random.default_rng(40)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        h = tuple(rng.uniform(0.05, 1.6, n))
        p = int(rng.integers(1, 5))
        report = dimension_report(h, p)
        want_range, want_graph, want_level = _brute_force_dims(h, p)
        assert report.range_dim == pytest.approx(want_range, rel=1e-12)
        assert report.graph_dim == pytest.approx(want_graph, rel=1e-12)
        if isinstance(want_level, float):
            assert report.level_dim == pytest.approx(want_level, rel=1e-12)
        else:
            assert report.level_dim is want_level


def test_gneiting_piecewise_example():
    gm = GneitingModel(d=2, alpha=0.5, gamma=0.75)
    report = gneiting_dimensions(gm, 1)
    assert report.method == "piecewise"
    assert report.h_bar_sorted == (0.5, 0.75, 0.75)
    assert report.range_dim == 1.0
    assert report.graph_dim == 3.5
    assert report.level_dim == 2.5


def test_gneiting_boundary_uses_generic_path():
    report = gneiting_dimensions(GneitingModel(d=1, alpha=1.0, gamma=0.5), 1)
    assert report.method == "generic"


def test_gneiting_scan_never_disagrees():
    rng = np.random.default_rng(41)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        gm = GneitingModel(d=d, alpha=float(rng.uniform(0.05, 0.999)),
                           gamma=float(rng.uniform(0.05, 0.999)))
        p = int(rng.integers(1, 5))
        try:
            report = gneiting_dimensions(gm, p)
        except ConsistencyError as exc:  # pragma: no cover - must not happen
            pytest.fail(f"piecewise/generic disagreement: {exc}")
        assert report.method == "piecewise"
        assert report.range_dim <= p + 1e-12


def test_hurst_estimate_brownian():
    grid = Grid(origin=(0.0,), spacing=(1.0 / 128,), shape=(129,))
    fs = multi_copy_field(fbm(0.5, 1), grid, lattice=1024, channels=200,
                          seed=8)
    result = estimate_hurst(fs, 0)
    assert result.estimate == pytest.approx(0.5, abs=0.1)
    assert not result.saturated


def test_hurst_estimate_anisotropic_axis():
    model = canonical_c(beta=(2.0, 3.0), gamma=4.0 / 3.0)  # H = (0.5, 0.75)
    grid = Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0 / 128), shape=(1, 129))
    fs = multi_copy_field(model, grid, lattice=512, channels=200, seed=9)
    result = estimate_hurst(fs, 1)
    assert result.estimate == pytest.approx(0.75, abs=0.1)
    assert not result.saturated


def test_hurst_estimate_saturates_on_smooth_axis():
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)  # H = (1.25, 2.5)
    grid = Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0 / 128), shape=(1, 129))
    fs = multi_copy_field(model, grid, lattice=512, channels=100, seed=10)
    result = estimate_hurst(fs, 1)
    assert result.estimate >= 0.9
    assert result.saturated


def test_hurst_estimate_rejects_degenerate_field():
    grid = Grid(origin=(0.0,), spacing=(1.0 / 64,), shape=(65,))
    fs = FieldSample(grid=grid, values=np.zeros((65, 1)), seed=0)
    with pytest.raises(ModelError, match="degenerate"):
        estimate_hurst(fs, 0)


def test_hurst_estimate_rejects_an_axis_outside_the_grid():
    grid = Grid(origin=(0.0,), spacing=(1.0 / 64,), shape=(65,))
    fs = FieldSample(grid=grid, values=np.zeros((65, 1)), seed=0)
    with pytest.raises(ModelError, match="axis"):
        estimate_hurst(fs, 5)
