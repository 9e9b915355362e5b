"""Mean-square differentiability and derivative covariances.

The field has a mean-square partial derivative along axis j exactly when
H_j > 1 strictly; the same criterion governs sample-path partials, so the
two verdicts in the report always agree.  When the derivative exists its
variance is the spectral moment int lambda_j^2 f(lambda) dlambda, and the
derivative process is stationary with covariance

    Cov(X'_j(s), X'_j(t)) = (1/2) v''_j(s - t)
                          = int lambda_j^2 cos<s - t, lambda> f(lambda) dlambda.

Mixed covariances between the pinned field and its derivative follow from
differentiating C(s, t) = (v(s) + v(t) - v(s - t)) / 2:

    Cov(X(s), X'_j(t)) = (1/2) (v'_j(t) + v'_j(s - t))
    Cov(X'_j(s), X(t)) = (1/2) (v'_j(s) - v'_j(s - t)).

The variogram gradient is the exact first spectral moment

    v'_j(h) = 2 int lambda_j sin<h, lambda> f(lambda) dlambda,

and (1/2) v''_j is the derivative covariance above.  Both come from the
same engine as the variogram, with the kernel's h_j-partial in place of
the kernel, in one batched call per partial order.  Each err is held to
rel_tol times a scale by :func:`~anisofield.quadrature.certify`:

- order 0, v(h): the value itself;
- order 1, v'_j(h): v(h) / |h_j|, from the variogram at the same lags
  (infinite at h_j = 0, where v'_j is exactly 0).  v'_j passes through
  0, so its own value is no scale; an err within rel_tol of v(h) / |h_j|
  moves v along the axis from h - h_j e_j to h by at most rel_tol v(h),
  the variogram's own tolerance;
- order 2: the derivative variance, which bounds |v''_j| / 2,
  integrated as one more h = 0 row of the same batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .models import check_integer, laplace_form, smoothness_exponents
from .quadrature import certify, spectral_integral
from .variogram import _point_pair, variogram_table


@dataclass(frozen=True)
class SmoothnessReport:
    """Differentiability verdicts with derivative variances and margins."""

    exponents: object
    exists: tuple
    margins: tuple
    derivative_variance: tuple
    ms_differentiable: bool
    sample_path_differentiable: bool


def _gradients(model, axis, lags, v, quad):
    """Certified v'_axis at the rows of ``lags``, whose variograms are ``v``."""
    values, errs = spectral_integral(laplace_form(model), lags, partial=(axis, 1))
    h = np.abs(lags[:, axis])
    with np.errstate(over="ignore"):  # v / |h| beyond the float range is inf
        scales = np.divide(v, h, out=np.full(len(h), np.inf), where=h > 0)
    certify(2.0 * values, 2.0 * errs, scales, quad, lags, f"gradient along axis {axis}")
    return (2.0 * values).tolist()


def variogram_gradient(model, axis, t, quad=None):
    """dv/dh_axis at lag t = 2 int lambda_axis sin<t, lambda> f(lambda) dlambda."""
    lags = np.atleast_1d(np.asarray(t, dtype=float))[None]
    return _gradients(model, axis, lags, variogram_table(model, lags, quad).values, quad)[0]


def _require_axis_derivative(model, axis):
    exps = smoothness_exponents(model)
    axis = check_integer(axis, "axis", 0, model.dims)
    if not exps.h[axis] > 1:
        raise ModelError(
            f"H_{axis} = {exps.h[axis]:g} <= 1: the mean-square partial "
            "derivative along this axis does not exist")


def derivative_covariance(model, axis, delta, quad=None):
    """Cov(X'_axis(t + delta), X'_axis(t)) = int lambda_axis^2 cos<delta, lambda> f."""
    _require_axis_derivative(model, axis)
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    # the derivative variance at delta = 0 is the scale, certified against itself
    lags = np.array([delta, np.zeros_like(delta)]) if np.any(delta) else delta[None]
    values, errs = spectral_integral(laplace_form(model), lags, partial=(axis, 2))
    certify(values, errs, np.full(len(lags), values[-1]), quad, lags,
            f"derivative covariance along axis {axis}")
    return float(values[0])


def derivative_variance(model, axis, quad=None):
    """Var X'_axis = int lambda_axis^2 f(lambda) dlambda; needs H_axis > 1."""
    return derivative_covariance(model, axis, np.zeros(model.dims), quad)


def ms_derivative_report(model, quad=None, variances=True):
    """Differentiability report across all axes.

    Set ``variances=False`` to skip the spectral-moment quadratures and
    report verdicts only (useful in parameter scans).
    """
    exps = smoothness_exponents(model)
    exists = tuple(h > 1 for h in exps.h)
    margins = tuple(h - 1.0 for h in exps.h)
    dvar = tuple(derivative_variance(model, j, quad) if variances and exists[j] else None
                 for j in range(model.dims))
    all_exist = all(exists)
    return SmoothnessReport(exponents=exps, exists=exists, margins=margins,
                            derivative_variance=dvar,
                            ms_differentiable=all_exist,
                            sample_path_differentiable=all_exist)


def cross_covariance(model, axis, s, t, quad=None):
    """Cov(X(s), X'_axis(t)) = (v'_axis(t) + v'_axis(s - t)) / 2."""
    _require_axis_derivative(model, axis)
    s, t = _point_pair(model, s, t)
    lags = np.array([t, s - t])
    gt, gd = _gradients(model, axis, lags, variogram_table(model, lags, quad).values, quad)
    return 0.5 * (gt + gd)


def cross_cov_matrix(model, axis, s, t, quad=None):
    """Covariance of (X(s), X'_axis(s)) against (X(t), X'_axis(t)).

    Entry [0, 0] is the pinned-field covariance C(s, t); [0, 1] and
    [1, 0] are the mixed field-derivative covariances; [1, 1] is the
    stationary derivative covariance (1/2) v''_axis(s - t).  The variograms
    of s, t and s - t give C(s, t) and the scales of the gradients there.
    """
    s, t = _point_pair(model, s, t)
    lags = np.array([s, t, s - t])
    second = derivative_covariance(model, axis, lags[2], quad)
    v = variogram_table(model, lags, quad).values
    vs, vt, vst = v.tolist()
    gs, gt, gd = _gradients(model, axis, lags, v, quad)
    return np.array([
        [0.5 * (vs + vt - vst), 0.5 * (gt + gd)],
        [0.5 * (gs - gd), second],
    ])
