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

and (1/2) v''_j is the derivative covariance above; both come from the
same quadrature as the variogram, with the kernel's h_j-partial in place
of the kernel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, QuadratureError
from .models import laplace_form, smoothness_exponents
from .quadrature import QuadratureSpec, spectral_integral
from .variogram import variogram_numeric


@dataclass(frozen=True)
class SmoothnessReport:
    """Differentiability verdicts with derivative variances and margins."""

    exponents: object
    exists: tuple
    margins: tuple
    derivative_variance: tuple
    ms_differentiable: bool
    sample_path_differentiable: bool


def variogram_gradient(model, axis, t, quad=None):
    """dv/dh_axis at lag t = 2 int lambda_axis sin<t, lambda> f(lambda) dlambda."""
    smoothness_exponents(model)  # raises ModelError on an illegitimate model
    value, _ = spectral_integral(laplace_form(model), t, partial=(axis, 1))
    return 2.0 * value


def _require_axis_derivative(model, axis):
    exps = smoothness_exponents(model)
    if not 0 <= axis < model.dims:
        raise ModelError(f"axis must lie in [0, {model.dims})")
    if not exps.h[axis] > 1:
        raise ModelError(
            f"H_{axis} = {exps.h[axis]:g} <= 1: the mean-square partial "
            "derivative along this axis does not exist")
    return exps


def derivative_covariance(model, axis, delta, quad=None):
    """Cov(X'_axis(t + delta), X'_axis(t)) = int lambda_axis^2 cos<delta, lambda> f."""
    _require_axis_derivative(model, axis)
    value, _ = spectral_integral(laplace_form(model), delta, partial=(axis, 2))
    return value


def derivative_variance(model, axis, quad=None):
    """Var X'_axis = int lambda_axis^2 f(lambda) dlambda; needs H_axis > 1."""
    _require_axis_derivative(model, axis)
    quad = quad or QuadratureSpec()
    value, err = spectral_integral(laplace_form(model), np.zeros(model.dims),
                                   partial=(axis, 2))
    if err > quad.rel_tol * value:
        raise QuadratureError(
            f"derivative variance error estimate {err:g} exceeds tolerance",
            value=value, err=err)
    return value


def ms_derivative_report(model, quad=None, variances=True):
    """Differentiability report across all axes.

    Set ``variances=False`` to skip the spectral-moment quadratures and
    report verdicts only (useful in parameter scans).
    """
    exps = smoothness_exponents(model)
    exists = tuple(h > 1 for h in exps.h)
    margins = tuple(h - 1.0 for h in exps.h)
    if variances:
        dvar = tuple(
            derivative_variance(model, j, quad) if exists[j] else None
            for j in range(model.dims))
    else:
        dvar = (None,) * model.dims
    all_exist = all(exists)
    return SmoothnessReport(exponents=exps, exists=exists, margins=margins,
                            derivative_variance=dvar,
                            ms_differentiable=all_exist,
                            sample_path_differentiable=all_exist)


def cross_covariance(model, axis, s, t, quad=None):
    """Cov(X(s), X'_axis(t)) = (v'_axis(t) + v'_axis(s - t)) / 2."""
    _require_axis_derivative(model, axis)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return 0.5 * (variogram_gradient(model, axis, t, quad)
                  + variogram_gradient(model, axis, s - t, quad))


def cross_cov_matrix(model, axis, s, t, quad=None):
    """Covariance of (X(s), X'_axis(s)) against (X(t), X'_axis(t)).

    Entry [0, 0] is the pinned-field covariance C(s, t); [0, 1] and
    [1, 0] are the mixed field-derivative covariances; [1, 1] is the
    stationary derivative covariance (1/2) v''_axis(s - t).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    delta = s - t
    second = derivative_covariance(model, axis, delta, quad)
    vs, _ = variogram_numeric(model, s, quad)
    vt, _ = variogram_numeric(model, t, quad)
    vst, _ = variogram_numeric(model, delta, quad)
    gt = variogram_gradient(model, axis, t, quad)
    gs = variogram_gradient(model, axis, s, quad)
    gd = variogram_gradient(model, axis, delta, quad)
    return np.array([
        [0.5 * (vs + vt - vst), 0.5 * (gt + gd)],
        [0.5 * (gs - gd), second],
    ])
