"""Integer arguments and space-time lags: every bad value is a ModelError."""

import math

import numpy as np
import pytest

from anisofield.errors import ModelError
from anisofield.fractal import (dimension_report, estimate_hurst,
                                gneiting_dimensions, graph_dimension,
                                level_set_dimension, range_dimension)
from anisofield.kriging import scaling_exponent_check
from anisofield.models import canonical_c, fbm
from anisofield.simulate import (FieldSample, Grid, empirical_variogram,
                                 multi_copy_field, sample_stationary_exact)
from anisofield.smoothness import cross_cov_matrix, derivative_covariance
from anisofield.variogram import (GneitingModel, gneiting_covariance,
                                  gneiting_increment_variance)

SMOOTH = canonical_c(beta=(1.0, 2.0), gamma=4.0)  # H = (1.25, 2.5)
FIELD = FieldSample(grid=Grid(origin=(0.0, 0.0), spacing=(0.1, 0.1), shape=(9, 9)),
                    values=np.zeros((9, 9, 1)), seed=0)
LINE = Grid(origin=(0.0,), spacing=(1.0 / 16,), shape=(17,))

AXIS_CALLS = {
    "derivative_covariance": lambda a: derivative_covariance(SMOOTH, a, [0.1, 0.2]),
    "cross_cov_matrix": lambda a: cross_cov_matrix(SMOOTH, a, [0.1, 0.2], [0.3, 0.1]),
    "scaling_exponent_check": lambda a: scaling_exponent_check(SMOOTH, a),
    "empirical_variogram": lambda a: empirical_variogram(FIELD, a, 2),
    "estimate_hurst": lambda a: estimate_hurst(FIELD, a),
}
P_CALLS = {
    "range_dimension": lambda p: range_dimension((0.5, 0.75), p),
    "graph_dimension": lambda p: graph_dimension((0.5, 0.75), p),
    "level_set_dimension": lambda p: level_set_dimension((0.5, 0.75), p),
    "dimension_report": lambda p: dimension_report((0.5, 0.75), p),
    "gneiting_dimensions": lambda p: gneiting_dimensions(
        GneitingModel(d=2, alpha=0.5, gamma=0.75), p),
}
COUNT_CALLS = {
    "seed": lambda v: multi_copy_field(fbm(0.5, 1), LINE, lattice=64, seed=v),
    "dense seed": lambda v: sample_stationary_exact(
        GneitingModel(d=1), Grid((0.0, 0.0), (0.5, 0.5), (2, 2)), seed=v),
    "grid shape": lambda v: Grid(origin=(0.0,), spacing=(1.0,), shape=(v,)),
    "lattice": lambda v: multi_copy_field(fbm(0.5, 1), LINE, lattice=v),
    "channels": lambda v: multi_copy_field(fbm(0.5, 1), LINE, lattice=64, channels=v),
    "empirical max_lag": lambda v: empirical_variogram(FIELD, 0, v),
    "hurst max_lag": lambda v: estimate_hurst(FIELD, 0, max_lag=v),
}


@pytest.mark.parametrize("call, value", [
    *[pytest.param(AXIS_CALLS[name], v, id=f"axis {v!r} {name}")
      for name in AXIS_CALLS for v in (0.5, True)],
    *[pytest.param(P_CALLS[name], v, id=f"p {v!r} {name}")
      for name in P_CALLS for v in (2.7, True, 0)],
    *[pytest.param(COUNT_CALLS[name], v, id=f"{name} {v!r}")
      for name in COUNT_CALLS for v in (2.5, True)],
    pytest.param(COUNT_CALLS["seed"], 1.9, id="seed 1.9"),
    pytest.param(COUNT_CALLS["seed"], 2**63, id="seed 2**63"),
    pytest.param(COUNT_CALLS["dense seed"], -1, id="dense seed -1"),
    pytest.param(COUNT_CALLS["grid shape"], 0, id="grid shape 0"),
    pytest.param(COUNT_CALLS["lattice"], 100.5, id="lattice 100.5"),
    pytest.param(COUNT_CALLS["lattice"], 15, id="lattice 15"),
    pytest.param(COUNT_CALLS["channels"], 0, id="channels 0"),
    pytest.param(COUNT_CALLS["empirical max_lag"], 9, id="empirical max_lag 9"),
    pytest.param(COUNT_CALLS["hurst max_lag"], 0, id="hurst max_lag 0"),
])
def test_a_non_integer_or_out_of_range_argument_is_a_model_error(call, value):
    with pytest.raises(ModelError, match="must be an integer"):
        call(value)


def test_numpy_integers_pass_as_integers():
    plain = multi_copy_field(fbm(0.5, 1), LINE, lattice=64, channels=2, seed=3)
    typed = multi_copy_field(fbm(0.5, 1), Grid((0.0,), (1.0 / 16,), (np.int64(17),)),
                             lattice=np.int32(64), channels=np.int64(2),
                             seed=np.uint8(3))
    assert np.array_equal(plain.values, typed.values)
    assert typed.seed == 3 and type(typed.seed) is int
    table = empirical_variogram(FIELD, np.int64(1), np.int16(3))
    assert table.lags.shape == (3, 2) and table.meta["axis"] == 1
    assert dimension_report((0.5, 0.75), np.int64(2)) == dimension_report((0.5, 0.75), 2)


def test_gneiting_lags_of_the_wrong_shape_are_rejected():
    gm = GneitingModel(d=2)
    with pytest.raises(ModelError, match=r"shape \(2,\)"):
        gneiting_increment_variance(gm, [0.1, 0.2], 0.0, [0.3], 0.0)
    with pytest.raises(ModelError, match=r"shape \(2,\)"):
        gneiting_increment_variance(gm, [[0.1, 0.2]], 0.0, [0.3, 0.4], 0.0)
    value = gneiting_increment_variance(gm, [0.1, 0.2], 0.5, [0.3, 0.4], 0.25)
    lag = np.subtract([0.1, 0.2], [0.3, 0.4])
    assert value == 2.0 - 2.0 * gneiting_covariance(gm, lag, 0.25)


@pytest.mark.parametrize("x, t", [([0.1, math.nan], 0.0), ([0.1, 0.2], math.nan),
                                  ([math.inf, 0.2], 0.0), ([0.1, 0.2], -math.inf)])
def test_gneiting_lags_that_are_not_finite_are_rejected(x, t):
    gm = GneitingModel(d=2)
    with pytest.raises(ModelError, match="finite"):
        gneiting_covariance(gm, x, t)
    with pytest.raises(ModelError, match="finite"):
        gneiting_increment_variance(gm, x, t, [0.0, 0.0], 0.0)
