"""Hausdorff dimensions of the range, graph, and level sets.

All formulas operate on the clamped, ascending-sorted exponent vector
H-bar with entries min(1, H_j).  For a p-channel field over N axes:

    range:  min(p, sum_j 1/Hbar_j)
    graph:  min over k of  sum_{j<=k} Hbar_k/Hbar_j + N - k + (1 - Hbar_k) p,
            also compared against sum_j 1/Hbar_j (reported as branch k=0)
    level:  EMPTY when sum_j 1/Hbar_j < p, UNDETERMINED at equality, else
            min over k of  sum_{j<=k} Hbar_k/Hbar_j + N - k - Hbar_k p.

The Gneiting space-time model has per-axis exponents (alpha for time,
gamma for each spatial axis), and its dimensions admit piecewise closed
forms in (d, alpha, gamma, p); gneiting_dimensions evaluates both the
piecewise tables and the generic minimization and insists they agree.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, ModelError
from .models import SmoothnessExponents, check_integer, smoothness_exponents


class _Marker:
    """Singleton stand-in for a level-set verdict that is not a number."""

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


EMPTY = _Marker("EMPTY")
UNDETERMINED = _Marker("UNDETERMINED")


@dataclass(frozen=True)
class DimensionReport:
    """Range/graph/level-set dimensions for a p-channel field."""

    h_bar_sorted: tuple
    p: int
    range_dim: float
    graph_dim: float
    graph_argmin: int
    level_dim: object
    level_argmin: object
    method: str = "generic"


def clamp_exponents(exponents):
    """H-bar vector: min(1, H_j) per axis, sorted ascending."""
    if isinstance(exponents, SmoothnessExponents):
        h = exponents.h
    else:
        h = tuple(float(v) for v in exponents)
    if not h:
        raise ModelError("exponent vector is empty")
    if any(not np.isfinite(v) or v <= 0 for v in h):
        raise ModelError("exponents must be finite and positive")
    return tuple(sorted(min(1.0, v) for v in h))


def _check_inputs(h_bar, p):
    return clamp_exponents(h_bar), check_integer(p, "channel count p", 1)


def _dimensions(h, p):
    """(range, (graph, branch), (level or marker, branch)) of the sorted H-bar
    vector ``h``, in one pass over the branches; ties go to the smallest k.

    Branch k >= 1 indexes the sorted exponents.  The graph's branch k=0 is
    the sum-of-reciprocals candidate; a level marker has branch None.
    """
    n, total = len(h), sum(1.0 / v for v in h)
    graph, level = (total, 0), (math.inf, None)
    for k, hk in enumerate(h, 1):
        base = sum(hk / v for v in h[:k]) + n - k
        graph = min(graph, (base + (1.0 - hk) * p, k))
        level = min(level, (base - hk * p, k))
    if total <= p:
        level = (EMPTY if total < p else UNDETERMINED, None)
    return min(float(p), total), graph, level


def range_dimension(h_bar, p):
    """Hausdorff dimension of the range, min(p, sum 1/Hbar_j)."""
    return _dimensions(*_check_inputs(h_bar, p))[0]


def graph_dimension(h_bar, p):
    """Hausdorff dimension of the graph, with the minimizing branch index.

    Branch k=0 is the sum-of-reciprocals candidate; k >= 1 indexes the
    sorted exponents.  Ties go to the smallest k.
    """
    return _dimensions(*_check_inputs(h_bar, p))[1]


def level_set_dimension(h_bar, p):
    """Hausdorff dimension of a level set, or EMPTY / UNDETERMINED.

    Level sets are almost surely empty when sum 1/Hbar_j < p; the
    equality case is not settled either way, hence its own marker.
    """
    return _dimensions(*_check_inputs(h_bar, p))[2][0]


def dimension_report(model_or_exponents, p=1):
    """All three dimensions for a model, exponent set, or H-bar vector."""
    src = model_or_exponents
    if hasattr(src, "kind"):
        src = smoothness_exponents(src)
    h, p = _check_inputs(src, p)
    rng, (graph, graph_k), (level, level_k) = _dimensions(h, p)
    return DimensionReport(h_bar_sorted=h, p=p, range_dim=rng,
                           graph_dim=graph, graph_argmin=graph_k,
                           level_dim=level, level_argmin=level_k)


def _gneiting_piecewise(d, alpha, gamma, p, total):
    """Closed-form (d, alpha, gamma, p) tables; requires alpha, gamma < 1.

    `total` is sum 1/Hbar_j computed exactly as the generic path computes
    it, so the EMPTY / UNDETERMINED comparisons cannot disagree on ties.
    """
    rng = min(float(p), total)
    if alpha <= gamma:
        if p < 1.0 / alpha:
            graph = d + 1 + (1.0 - alpha) * p
        elif p < total:
            graph = gamma / alpha + d + (1.0 - gamma) * p
        else:
            graph = total
    else:
        if p < d / gamma:
            graph = d + 1 + (1.0 - gamma) * p
        elif p < total:
            graph = d * alpha / gamma + 1 + (1.0 - alpha) * p
        else:
            graph = total
    if total < p:
        level = EMPTY
    elif total == p:
        level = UNDETERMINED
    elif alpha <= gamma:
        level = d + 1 - alpha * p if p < 1.0 / alpha else gamma / alpha + d - gamma * p
    else:
        level = d + 1 - gamma * p if p < d / gamma else d * alpha / gamma + 1 - alpha * p
    return rng, graph, level


def gneiting_dimensions(gm, p=1):
    """Dimensions of the space-time Gneiting field as a field on R^(d+1).

    The per-axis exponents are gamma on each of the d spatial axes and
    alpha on the time axis.  Away from alpha = 1 and gamma = 1 the
    piecewise tables are evaluated alongside the generic minimization
    and must agree to 1e-12; at the boundary only the generic path is
    defined, and the report's method field says which one was used.
    """
    h_bar = tuple(sorted([gm.alpha] + [gm.gamma] * gm.d))
    report = dimension_report(h_bar, p)
    if gm.alpha >= 1.0 or gm.gamma >= 1.0:
        return report
    total = sum(1.0 / v for v in report.h_bar_sorted)
    rng, graph, level = _gneiting_piecewise(gm.d, gm.alpha, gm.gamma, report.p, total)
    checks = [("range", rng, report.range_dim), ("graph", graph, report.graph_dim)]
    if isinstance(level, _Marker) or isinstance(report.level_dim, _Marker):
        if level is not report.level_dim:
            raise ConsistencyError(
                f"level-set markers disagree: piecewise {level!r}, "
                f"generic {report.level_dim!r}")
    else:
        checks.append(("level", level, report.level_dim))
    for name, a, b in checks:
        if abs(a - b) > 1e-12:
            raise ConsistencyError(
                f"piecewise {name} dimension {a!r} disagrees with the "
                f"generic value {b!r}")
    return replace(report, method="piecewise")


class HurstEstimate(NamedTuple):
    estimate: float
    stderr: float
    saturated: bool


def estimate_hurst(fs, axis, max_lag=None):
    """Directional Hurst index from a simulated field.

    Regresses the log empirical variogram on log lag over lags between
    one grid step and an eighth of the domain extent; the slope is 2H.
    Smooth directions (H_j > 1) saturate near slope 2 because increment
    variance scales as r^2 there, so estimates at or above 0.9 carry a
    saturated flag rather than being read as the true exponent.
    """
    from .simulate import empirical_variogram

    axis = check_integer(axis, "axis", 0, fs.grid.ndim)
    spacing = fs.grid.spacing[axis]
    extent = (fs.grid.shape[axis] - 1) * spacing
    cap = max(1, int(np.floor(extent / 8.0 / spacing)))
    if max_lag is not None:
        cap = min(cap, check_integer(max_lag, "max_lag", 1))
    table = empirical_variogram(fs, axis, cap)
    lags = np.asarray(table.lags)[:, axis]
    vals = np.asarray(table.values)
    keep = vals > 0
    if np.count_nonzero(keep) < 2:
        raise ModelError("fewer than two usable lags: the field is degenerate "
                         "along this axis")
    x = np.log(lags[keep])
    y = np.log(vals[keep])
    design = np.column_stack([x, np.ones_like(x)])
    coef, rss, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope = coef[0]
    dof = len(x) - 2
    if dof > 0 and np.size(rss):
        s2 = float(rss[0]) / dof
        xvar = float(np.sum((x - x.mean()) ** 2))
        stderr = float(np.sqrt(s2 / xvar)) / 2.0
    else:
        stderr = 0.0
    estimate = max(slope / 2.0, 1e-12)
    return HurstEstimate(estimate=float(estimate), stderr=stderr,
                         saturated=bool(estimate >= 0.9))
