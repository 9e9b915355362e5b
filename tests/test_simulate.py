import contextlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from numpy.random import Generator, Philox

from anisofield import simulate
from anisofield.errors import ModelError
from anisofield.kriging import _factor_with_jitter
from anisofield.models import canonical_c, fbm, laplace_form, stein
from anisofield.simulate import (FieldSample, Grid, empirical_variogram,
                                 multi_copy_field, sample_field,
                                 sample_stationary_exact)
from anisofield.variogram import GneitingModel, gneiting_covariance

BM = fbm(0.5, 1)
GRID65 = Grid(origin=(0.0,), spacing=(1.0 / 64,), shape=(65,))


@pytest.fixture(scope="module")
def bm_500_seeds():
    vals = np.concatenate([sample_field(BM, GRID65, lattice=2048, seed=s).values
                           for s in range(500)], axis=-1)
    return FieldSample(grid=GRID65, values=vals, seed=0)


def test_grid_properties():
    grid = Grid(origin=(0.0, -1.0), spacing=(0.5, 0.25), shape=(3, 2))
    assert grid.ndim == 2
    assert grid.npoints == 6
    assert grid.axis_coords(1).tolist() == [-1.0, -0.75]
    points = grid.points()
    assert points.shape == (6, 2)
    assert points[0].tolist() == [0.0, -1.0]
    assert points[-1].tolist() == [1.0, -0.75]


def test_grid_validation():
    with pytest.raises(ModelError):
        Grid(origin=(0.0,), spacing=(1.0, 1.0), shape=(4,))
    with pytest.raises(ModelError):
        Grid(origin=(0.0,), spacing=(0.0,), shape=(4,))
    with pytest.raises(ModelError):
        Grid(origin=(0.0,), spacing=(1.0,), shape=(0,))
    with pytest.raises(ModelError):
        Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), shape=(1025, 1025))


def test_field_sample_validation():
    grid = Grid(origin=(0.0,), spacing=(1.0,), shape=(4,))
    with pytest.raises(ModelError):
        FieldSample(grid=grid, values=np.zeros((5, 1)), seed=0)
    with pytest.raises(ModelError):
        FieldSample(grid=grid, values=np.full((4, 1), np.nan), seed=0)
    with pytest.raises(ModelError):
        FieldSample(grid=grid, values=np.zeros((4, 0)), seed=0)
    fs = FieldSample(grid=grid, values=np.zeros((4, 1)), seed=0)
    with pytest.raises(ValueError):
        fs.values[0] = 1.0


def test_simulate_input_validation():
    with pytest.raises(ModelError):
        sample_field(BM, GRID65, lattice=8)
    with pytest.raises(ModelError):
        multi_copy_field(BM, GRID65, channels=0)
    with pytest.raises(ModelError):
        sample_field(fbm(0.5, 2), GRID65)
    with pytest.raises(ModelError):
        sample_field(BM, GRID65, seed=-1)
    with pytest.raises(ModelError):
        sample_field(BM, GRID65, seed=2**63)
    with pytest.raises(ModelError):
        sample_field(canonical_c(beta=(1.0, 1.0), gamma=2.0),
                     Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), shape=(2, 2)))


@pytest.mark.parametrize("model, grid, lattice, cap", [
    (BM, GRID65, 10**12, "quadrature nodes"),
    (BM, GRID65, 4_500_000, "cells"),
    (canonical_c(beta=(1.0, 2.0), gamma=4.0),
     Grid(origin=(0.0, 0.0), spacing=(0.1, 0.1), shape=(4, 4)), 10**12,
     "quadrature nodes")])
def test_oversized_lattice_is_refused_before_it_is_built(model, grid, lattice,
                                                         cap):
    # 10**12 cells per axis would need terabytes; the caps are checked
    # from the cell counts alone
    with pytest.raises(ModelError, match=f"{cap}, above the .* memory cap"):
        multi_copy_field(model, grid, lattice=lattice)


@pytest.mark.parametrize("grid, channels", [
    (GRID65, 100_000_000_000),
    (Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), shape=(1024, 1024)), 65)])
def test_oversized_output_is_refused_before_it_is_built(grid, channels):
    # the output array alone would need 512 MB or more
    with pytest.raises(ModelError, match="values .* above the .* memory cap"):
        multi_copy_field(fbm(0.5, grid.ndim), grid, channels=channels)


def test_origin_is_pinned_exactly():
    grid = Grid(origin=(-0.5,), spacing=(0.25,), shape=(5,))
    fs = multi_copy_field(BM, grid, lattice=256, channels=3, seed=7)
    assert np.all(fs.values[2] == 0.0)
    assert np.any(fs.values[0] != 0.0)

    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    grid2 = Grid(origin=(-0.5, -0.5), spacing=(0.5, 0.5), shape=(3, 3))
    fs2 = sample_field(model, grid2, lattice=128, seed=7)
    assert np.all(fs2.values[1, 1] == 0.0)

    # the origin past the first block of the angle-addition tables
    grid3 = Grid(origin=(-1.0,), spacing=(1.0 / 16,), shape=(40,))
    fs3 = multi_copy_field(BM, grid3, lattice=256, channels=2, seed=7)
    assert np.all(fs3.values[16] == 0.0)
    assert np.all(fs3.values[np.arange(40) != 16] != 0.0)
    grid4 = Grid(origin=(-0.75, -1.0), spacing=(1.0 / 16, 1.0 / 8),
                 shape=(20, 17))
    fs4 = multi_copy_field(model, grid4, lattice=64, channels=2, seed=7)
    assert np.all(fs4.values[12, 8] == 0.0)
    assert np.count_nonzero(fs4.values == 0.0) == 2


def _direct_sum(model, grid, lattice, channels, seed):
    """Reference synthesis: the trig sum over every (point, cell) pair."""
    cutoffs, extensions, _, _ = simulate._lattice_plan(model, grid, lattice)
    axes, masses = simulate._lattice(model, cutoffs, extensions, lattice, seed)
    active = [j for j in range(grid.ndim)
              if grid.shape[j] > 1 or grid.origin[j] != 0.0]
    masses = masses.sum(axis=tuple(j for j in range(grid.ndim)
                                   if j not in active))
    amp = np.sqrt(2.0 * masses).ravel()
    mesh = np.meshgrid(*[axes[j] for j in active], indexing="ij")
    lambdas = np.stack([m.ravel() for m in mesh], axis=-1)
    phases = grid.points()[:, active] @ lambdas.T
    out = np.empty((grid.npoints, channels))
    for c in range(channels):
        rng = np.random.Generator(np.random.Philox(key=(seed, c)))
        draws = rng.standard_normal(masses.shape + (2,)).reshape(-1, 2)
        out[:, c] = ((np.cos(phases) - 1.0) @ (amp * draws[:, 0])
                     + np.sin(phases) @ (amp * draws[:, 1]))
    return out.reshape(grid.shape + (channels,))


def test_axis_cutoffs_equalize_the_increment_level():
    # stein terms c_j (a_j + l^2)^alpha_j differ at l = 0 by c_j a_j^alpha_j;
    # the cutoffs equalize the increments a_j(l) of the Laplace form
    model = stein((3.0, 0.2), (4.0, 0.1), (1.0, 1.0), 1.5)
    base = [64.0 * np.pi / 0.05] * 2
    cutoffs, extensions = simulate._axis_cutoffs(model, base)
    axes = laplace_form(model).axes
    top = max(float(ax.term(b)) for ax, b in zip(axes, base))
    assert extensions[0] == 0 and extensions[1] > 0
    for ax, cutoff, ext in zip(axes, cutoffs, extensions):
        if ext:
            assert float(ax.term(cutoff)) == pytest.approx(top, rel=1e-12)


@pytest.mark.parametrize("model, grid, channels, origins", [
    # 2-D, origin off the grid
    (canonical_c(beta=(1.0, 2.0), gamma=4.0),
     Grid(origin=(0.3, -0.7), spacing=(0.2, 0.15), shape=(6, 5)), 2, 0),
    # 2-D with an inactive second axis
    (canonical_c(beta=(1.0, 2.0), gamma=4.0),
     Grid(origin=(-0.4, 0.0), spacing=(0.1, 0.5), shape=(7, 1)), 2, 1),
    # 3-D through the origin
    (canonical_c(beta=(1.0, 2.0, 2.0), gamma=4.0),
     Grid(origin=(-0.2, 0.0, -0.5), spacing=(0.1, 0.2, 0.25), shape=(4, 3, 3)),
     3, 1),
    # 2-D with an inactive first axis
    (canonical_c(beta=(1.0, 2.0), gamma=4.0),
     Grid(origin=(0.0, -0.5), spacing=(0.5, 0.1), shape=(1, 12)), 2, 1),
    # 3-D with an inactive middle axis
    (canonical_c(beta=(1.0, 2.0, 2.0), gamma=4.0),
     Grid(origin=(-0.2, 0.0, -0.5), spacing=(0.1, 0.2, 0.25), shape=(4, 1, 5)),
     2, 1),
    # 3-D with an inactive first axis
    (canonical_c(beta=(1.0, 2.0, 2.0), gamma=4.0),
     Grid(origin=(0.0, -0.3, -0.5), spacing=(1.0, 0.15, 0.25), shape=(1, 7, 5)),
     2, 1),
    # 2-D with both axes active, each crossing 0 at the same point
    (canonical_c(beta=(1.0, 2.0), gamma=4.0),
     Grid(origin=(-0.5, -0.75), spacing=(0.25, 0.25), shape=(5, 7)), 2, 1),
    # 1-D: 65 points end in a partial angle block of one row
    (BM, GRID65, 2, 1),
    # 2-D stein, origin off the grid
    (stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0),
     Grid(origin=(0.35, -0.6), spacing=(0.1, 0.15), shape=(6, 7)), 2, 0),
])
def test_separable_evaluation_matches_direct_sum(model, grid, channels,
                                                 origins):
    fs = multi_copy_field(model, grid, lattice=16, channels=channels, seed=4)
    np.testing.assert_allclose(fs.values,
                               _direct_sum(model, grid, 16, channels, 4),
                               rtol=0.0, atol=1e-12)
    at_origin = np.all(grid.points() == 0.0, axis=1).reshape(grid.shape)
    assert np.count_nonzero(at_origin) == origins
    assert np.all(fs.values[at_origin] == 0.0)


@pytest.mark.parametrize("model, grid, many", [
    (BM, GRID65, 300),
    (canonical_c(beta=(1.0, 2.0), gamma=4.0),
     Grid(origin=(0.0, 0.0), spacing=(1.0 / 24, 1.0 / 24), shape=(24, 24)), 40),
])
def test_channel_prefix_is_bitwise_for_any_channel_count(model, grid, many):
    joint = multi_copy_field(model, grid, lattice=64, channels=many, seed=1)
    for channels in (1, 2, 3):
        part = multi_copy_field(model, grid, lattice=64, channels=channels,
                                seed=1)
        assert np.array_equal(part.values, joint.values[..., :channels])


def test_repeat_call_is_deterministic():
    a = sample_field(BM, GRID65, lattice=512, seed=3)
    b = sample_field(BM, GRID65, lattice=512, seed=3)
    assert np.array_equal(a.values, b.values)
    c = sample_field(BM, GRID65, lattice=512, seed=4)
    assert not np.array_equal(a.values, c.values)
    # the lattice masses are computed once and shared read-only
    hits = simulate._masses.cache_info().hits
    sample_field(BM, GRID65, lattice=512, seed=5)
    assert simulate._masses.cache_info().hits == hits + 1
    cutoffs = tuple(a.metadata["freq_cutoffs"])
    assert not simulate._masses(BM, cutoffs, (0,), 512).flags.writeable


def test_single_copy_matches_multi_copy_prefix():
    joint = multi_copy_field(BM, GRID65, lattice=512, channels=3, seed=5)
    pair = multi_copy_field(BM, GRID65, lattice=512, channels=2, seed=5)
    assert np.array_equal(joint.values[..., :2], pair.values)
    single = sample_field(BM, GRID65, lattice=512, seed=5)
    assert np.array_equal(single.values, joint.values[..., :1])
    assert single.metadata["model"]["kind"] == "fbm"
    assert single.metadata["jitter"] is True
    assert single.metadata["oversample"] == 64.0


def _serial_field(model, grid, lattice, channels, seed):
    """Reference: the channel loop drawing each channel's normals in turn."""
    cutoffs, extensions, _, _ = simulate._lattice_plan(model, grid, lattice)
    axes, masses = simulate._lattice(model, cutoffs, extensions, lattice, seed)
    active = simulate._active_axes(grid)
    inactive = tuple(j for j in range(grid.ndim) if j not in active)
    if inactive:
        masses = masses.sum(axis=inactive)
    amp = np.sqrt(2.0 * masses)
    tables = [simulate._trig_table(grid, j, axes[j]) for j in active]
    out = np.empty(tuple(grid.shape[j] for j in active) + (channels,))
    for c in range(channels):
        draws = Generator(Philox(key=(seed, c))).standard_normal(masses.shape + (2,))
        coef = amp * (draws[..., 0] + 1j * draws[..., 1])
        out[..., c] = simulate._evaluate(tables, coef)
    return out.reshape(grid.shape + (channels,))


@pytest.mark.parametrize("model, grid, lattice", [
    (BM, GRID65, 256),
    # inactive first axis: the draws cover the second axis alone
    (canonical_c(beta=(1.0, 2.0), gamma=4.0),
     Grid(origin=(0.0, -0.5), spacing=(0.5, 0.1), shape=(1, 12)), 64),
    (canonical_c(beta=(1.0, 2.0, 2.0), gamma=4.0),
     Grid(origin=(-0.2, 0.0, -0.5), spacing=(0.1, 0.2, 0.25), shape=(4, 3, 3)), 16),
    (stein((1.0, 1.0), (1.0, 2.0), (0.8, 1.4), 2.0),
     Grid(origin=(0.0, 0.0), spacing=(0.05, 0.05), shape=(10, 9)), 64)],
    ids=["1d", "2d-inactive-first", "3d", "stein"])
@pytest.mark.parametrize("channels", [1, 3, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_drawing_ahead_matches_the_serial_loop(model, grid, lattice, channels, seed):
    simulate._masses.cache_clear()
    cold = multi_copy_field(model, grid, lattice, channels, seed).values
    warm = multi_copy_field(model, grid, lattice, channels, seed).values
    reference = _serial_field(model, grid, lattice, channels, seed)
    assert np.array_equal(cold, reference)
    assert np.array_equal(warm, reference)


def test_concurrent_calls_under_fast_switching_match_the_serial_loop():
    # more callers than cores, each with its own helper, switching threads
    # every few microseconds: a slot refilled before it was read shows
    model = canonical_c(beta=(1.0, 2.0), gamma=4.0)
    grid = Grid(origin=(0.0, 0.0), spacing=(0.1, 0.1), shape=(6, 5))
    results = {}

    def run(seed):
        results[seed] = multi_copy_field(model, grid, 64, channels=12, seed=seed).values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for seed in range(4):
        assert np.array_equal(results[seed], _serial_field(model, grid, 64, 12, seed))


def test_a_grid_of_the_origin_alone_reads_zero():
    # every axis inactive: the masses sum to one cell
    grid = Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), shape=(1, 1))
    fs = multi_copy_field(canonical_c(beta=(1.0, 2.0), gamma=4.0), grid,
                          lattice=64, channels=2)
    assert fs.values.tolist() == [[[0.0, 0.0]]]


class _Boom(Exception):
    pass


@pytest.mark.parametrize("lattice, target, exc", [
    (64, None, None),
    (10**12, None, ModelError),  # refused before any thread starts
    (64, "_cell_masses", MemoryError),
    (64, "_cell_masses", KeyboardInterrupt),
    (64, "Philox", _Boom),  # the helper fails on channel 2
    (64, "Philox", MemoryError)])
def test_the_draw_helper_never_outlives_the_call(monkeypatch, lattice, target, exc):
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def fail(*args, key=None):
        # _cell_masses fails at once, Philox on the stream of channel 2
        if key in (None, (3, 2)):
            raise exc
        return Philox(key=key)

    monkeypatch.setattr(threading, "Thread", Thread)
    if target:
        monkeypatch.setattr(simulate, target, fail)
    simulate._masses.cache_clear()
    before = threading.active_count()
    with pytest.raises(exc) if exc else contextlib.nullcontext():
        multi_copy_field(canonical_c(beta=(1.0, 2.0), gamma=4.0),
                         Grid(origin=(0.0, 0.0), spacing=(0.1, 0.1), shape=(6, 5)),
                         lattice, channels=4, seed=3)
    assert threading.active_count() == before
    assert len(started) == (lattice == 64)
    assert not any(t.is_alive() for t in started)


def test_unit_lag_variance(bm_500_seeds):
    site = bm_500_seeds.values[-1]
    assert float(np.mean(site**2)) == pytest.approx(1.0, abs=0.1)


def test_fixed_site_is_gaussian(bm_500_seeds):
    _, p = scipy.stats.normaltest(bm_500_seeds.values[-1])
    assert p > 0.01


def test_two_seeds_decorrelate():
    a = sample_field(BM, GRID65, lattice=2048, seed=0).values[1:, 0]
    b = sample_field(BM, GRID65, lattice=2048, seed=1).values[1:, 0]
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 0.2


def test_cross_channel_independence():
    grid = Grid(origin=(0.0,), spacing=(0.25,), shape=(5,))
    site = np.array([multi_copy_field(BM, grid, lattice=256, channels=2,
                                      seed=s).values[-1, :]
                     for s in range(500)])
    corr = float(np.corrcoef(site[:, 0], site[:, 1])[0, 1])
    assert abs(corr) < 0.15


def test_empirical_variogram_zero_field():
    fs = FieldSample(grid=GRID65, values=np.zeros(GRID65.shape + (1,)), seed=0)
    table = empirical_variogram(fs, 0, 10)
    assert np.all(np.asarray(table.values) == 0.0)
    assert np.all(np.asarray(table.errs) == 0.0)


def test_empirical_variogram_matches_closed_form(bm_500_seeds):
    table = empirical_variogram(bm_500_seeds, 0, 16)
    lags = np.asarray(table.lags)[:, 0]
    ratio = np.asarray(table.values) / lags
    assert np.all(np.abs(ratio - 1.0) < 0.1)
    slope = np.polyfit(np.log(lags), np.log(table.values), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_empirical_variogram_flags_sparse_pairs():
    grid = Grid(origin=(0.0,), spacing=(0.1,), shape=(10,))
    fs = sample_field(BM, grid, lattice=256, seed=1)
    table = empirical_variogram(fs, 0, 5)
    assert table.meta["sparse_pairs"] is True


def test_empirical_variogram_validation(bm_500_seeds):
    with pytest.raises(ModelError):
        empirical_variogram(bm_500_seeds, 1, 4)
    with pytest.raises(ModelError):
        empirical_variogram(bm_500_seeds, 0, 0)
    with pytest.raises(ModelError):
        empirical_variogram(bm_500_seeds, 0, 65)


def test_exact_sampler_single_point_variance():
    gm = GneitingModel(d=1, sigma2=2.0)
    grid = Grid(origin=(0.3, 0.7), spacing=(1.0, 1.0), shape=(1, 1))
    draws = np.array([sample_stationary_exact(gm, grid, seed=s).values.item()
                      for s in range(500)])
    assert float(np.var(draws)) == pytest.approx(2.0, rel=0.15)


def test_exact_sampler_site_variances():
    gm = GneitingModel(d=1)
    grid = Grid(origin=(-0.5, -0.5), spacing=(0.5, 0.5), shape=(3, 3))
    vals = np.stack([sample_stationary_exact(gm, grid, seed=s).values[..., 0]
                     for s in range(500)])
    site_var = vals.var(axis=0)
    assert np.all(np.abs(site_var - 1.0) < 0.15)


def test_exact_sampler_pinning_and_determinism():
    gm = GneitingModel(d=1)
    grid = Grid(origin=(0.0, 0.0), spacing=(0.5, 0.5), shape=(3, 3))
    pinned = sample_stationary_exact(gm, grid, seed=2, pin_origin=True)
    assert pinned.values[0, 0] == 0.0
    again = sample_stationary_exact(gm, grid, seed=2, pin_origin=True)
    assert np.array_equal(pinned.values, again.values)
    # pinning works even when the origin is off the grid
    off = Grid(origin=(1.0, 1.0), spacing=(0.5, 0.5), shape=(2, 2))
    shifted = sample_stationary_exact(gm, off, seed=2, pin_origin=True)
    assert shifted.values.shape == (2, 2, 1)


def test_exact_sampler_draws_from_the_dense_covariance():
    # the covariance, built a block of rows at a time, is the one of all
    # (n, n) lags at once, so the seeded draw is too
    gm = GneitingModel(d=2, a=0.7, c=1.3, alpha=0.6, beta=0.5, gamma=0.8)
    grid = Grid(origin=(-0.3, 0.1, -0.2), spacing=(0.15, 0.1, 0.25), shape=(6, 5, 4))
    points = grid.points()
    cov = gneiting_covariance(gm, points[:, None, :2] - points[None, :, :2],
                              points[:, None, 2] - points[None, :, 2])
    chol, jitter = _factor_with_jitter(cov)
    draw = chol @ Generator(Philox(key=(5, 0))).standard_normal(len(points))
    sample = sample_stationary_exact(gm, grid, seed=5)
    assert sample.values.tobytes() == draw.reshape(grid.shape + (1,)).tobytes()
    assert sample.metadata["jitter"] == jitter


def test_exact_sampler_memory_stays_near_the_covariance_and_its_factor():
    # 2048 points: the covariance and its factor take 33.6 MB each; the
    # (n, n, 2) lags and their squares alone would take 134 MB
    grid = Grid(origin=(0.0, 0.0, 0.0), spacing=(0.1, 0.1, 0.1), shape=(16, 16, 8))
    tracemalloc.start()
    try:
        sample_stationary_exact(GneitingModel(d=2), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128e6


def test_exact_sampler_validation():
    gm = GneitingModel(d=1)
    with pytest.raises(ModelError):
        sample_stationary_exact(gm, Grid(origin=(0.0,), spacing=(1.0,),
                                         shape=(4,)))
    big = Grid(origin=(0.0, 0.0), spacing=(1.0, 1.0), shape=(65, 65))
    with pytest.raises(ModelError):
        sample_stationary_exact(gm, big)
