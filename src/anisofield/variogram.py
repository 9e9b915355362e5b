"""Variograms, covariances and scale envelopes.

The variogram of a pinned stationary-increment field,

    v(h) = 2 int_{R^N} (1 - cos<h, lambda>) f(lambda) dlambda,

determines every second-order quantity in the package: the covariance of
the pinned field is C(s, t) = (v(s) + v(t) - v(s - t)) / 2, kriging
systems are assembled from it, and its small-lag behaviour along axis j
follows the scale function sigma_j.

This module also carries the separable space-time covariance family
(:class:`GneitingModel`), which is stationary rather than pinned and is
used for exact dense simulation and the space-time dimension tables.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError
from .models import check_fields, check_integer, check_legitimate, laplace_form
from .quadrature import certify, spectral_integral


def variogram_numeric(model, h, quad=None):
    """Variogram v(h) and its error estimate at one lag, shape (dims,), as
    a tuple of floats: the one-row :func:`variogram_table`."""
    table = variogram_table(model, [h], quad)
    return float(table.values[0]), float(table.errs[0])


def _point_pair(model, s, t):
    """s and t as float arrays; ModelError unless each has shape (dims,)."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if s.shape != (model.dims,) or t.shape != (model.dims,):
        raise ModelError(f"points s and t must each have shape ({model.dims},)")
    return s, t


def covariance_increment(model, s, t, quad=None):
    """Covariance C(s, t) = (v(s) + v(t) - v(s - t)) / 2 of the pinned field."""
    s, t = _point_pair(model, s, t)
    vs, vt, vst = variogram_table(model, [s, t, s - t], quad).values.tolist()
    return 0.5 * (vs + vt - vst)


def sigma_scale(h_exponent, r):
    """Scale function sigma_j(r) for one axis.

    Equals r^(2H_j) for H_j < 1, r^2 |log r| at H_j = 1 (natural log),
    and r^2 for H_j > 1; sigma_j(0) = 0 in all branches.
    """
    if not r >= 0:
        raise ModelError("sigma_scale takes a nonnegative separation")
    if not h_exponent > 0:
        raise ModelError("sigma_scale takes a positive exponent")
    if r == 0:
        return 0.0
    if h_exponent < 1:
        return r ** (2.0 * h_exponent)
    if h_exponent == 1:
        return r**2 * abs(math.log(r))
    return r**2


def _envelope_shape(exponents, x, name):
    """sum_j sigma_j(|x_j|); ModelError unless x has one entry per exponent."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(exponents.h),):
        raise ModelError(f"{name} length must match the exponent vector")
    return sum(sigma_scale(hj, abs(v)) for hj, v in zip(exponents.h, x))


def variogram_envelope(exponents, h):
    """Two-sided envelope shape sum_j sigma_j(|h_j|) for v near 0.

    Both bounds share the same shape (they differ only by constants), so
    the pair (shape, shape) is returned.
    """
    shape = _envelope_shape(exponents, h, "lag")
    return shape, shape


def modulus_envelope(exponents, eps):
    """Uniform modulus of continuity shape sqrt(phi * log(1 + 1/phi)).

    Here phi(eps) = sum_j sigma_j(|eps_j|); the envelope vanishes at 0.
    """
    phi = _envelope_shape(exponents, eps, "eps")
    if phi == 0:
        return 0.0
    return math.sqrt(phi * math.log1p(1.0 / phi))


@dataclass(frozen=True)
class VariogramTable:
    """Lags with variogram values and error estimates."""

    model_id: str
    lags: np.ndarray
    values: np.ndarray
    errs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lags, values, errs = self.lags, self.values, self.errs
        # variogram_table's own float arrays are kept as they are
        if not (type(lags) is type(values) is type(errs) is np.ndarray and lags.ndim == 2
                and lags.dtype == values.dtype == errs.dtype == float):
            object.__setattr__(self, "lags", np.atleast_2d(np.asarray(lags, float)))
            object.__setattr__(self, "values", np.asarray(values, float))
            object.__setattr__(self, "errs", np.asarray(errs, float))
        n = self.lags.shape[0]
        if self.values.shape != (n,) or self.errs.shape != (n,):
            raise ModelError("table lags, values and errs must align")


def variogram_table(model, lags, quad=None):
    """Variogram by spectral quadrature on rows of lag vectors, in one batch.

    Parameters
    ----------
    model : SpectralModel
    lags : array_like, shape (m, dims)
        One lag per row; v(0) = 0 and v(h) = v(-h).  Each row's value
        and error estimate do not depend on the other rows.
    quad : QuadratureSpec, optional

    Returns
    -------
    VariogramTable

    Raises
    ------
    QuadratureError
        If a row's error estimate exceeds ``quad.rel_tol`` times its value
        (so a negative value fails), naming that row, its value and err.
    ModelError
        Before any quadrature, if the model fails the legitimacy check,
        or a lag has the wrong shape or a non-finite entry.
    """
    check_legitimate(model)
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    values, errs = spectral_integral(laplace_form(model), lags)
    values, errs = 2.0 * values, 2.0 * errs
    certify(values, errs, values, quad, lags, "variogram")
    return VariogramTable(model_id=model.kind, lags=lags,
                          values=values, errs=errs)


# ---------------------------------------------------------------------------
# Separable space-time covariance family


@dataclass(frozen=True)
class GneitingModel:
    """Stationary space-time covariance on R^d x R.

    C(x, t) = sigma2 / psi^(beta d / 2) * exp(-c |x|^(2 gamma) / psi^(beta gamma)),
    with psi = 1 + a |t|^(2 alpha).  Time smoothness is alpha, space
    smoothness gamma, and beta in (0, 1] couples the two.
    """

    d: int
    sigma2: float = 1.0
    a: float = 1.0
    c: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        check_integer(self.d, "spatial dimension d", 1)
        for name in ("sigma2", "a", "c"):
            if not getattr(self, name) > 0:
                raise ModelError(f"{name} must be positive")
        for name in ("alpha", "beta", "gamma"):
            val = getattr(self, name)
            if not 0 < val <= 1:
                raise ModelError(f"{name} must lie in (0, 1]")


def gneiting_covariance(gm, x, t):
    """Covariance C(x, t) at spatial lag x and time lag t; x may stack lags
    along leading axes, which t broadcasts against."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != gm.d:
        raise ModelError(f"spatial lag must have {gm.d} coordinates")
    if not (np.isfinite(x).all() and np.isfinite(t).all()):
        raise ModelError("space and time lags must be finite")
    psi = 1.0 + gm.a * np.abs(t) ** (2.0 * gm.alpha)
    r2g = np.sum(np.abs(x) ** 2, axis=-1) ** gm.gamma
    value = gm.sigma2 * psi ** (-0.5 * gm.beta * gm.d) * np.exp(
        -gm.c * r2g / psi ** (gm.beta * gm.gamma))
    return float(value) if np.ndim(value) == 0 else value


def gneiting_increment_variance(gm, x, t, y, s):
    """E[(Y(x, t) - Y(y, s))^2] = 2 C(0, 0) - 2 C(x - y, t - s)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != (gm.d,) or y.shape != (gm.d,):
        raise ModelError(f"points x and y must each have shape ({gm.d},)")
    return 2.0 * gm.sigma2 - 2.0 * gneiting_covariance(gm, x - y, t - s)


_GNEITING_FIELDS = {"kind": None, "d": int, "sigma2": float, "a": float,
                    "c": float, "alpha": float, "beta": float, "gamma": float}


def gneiting_to_dict(gm):
    return {"kind": "gneiting", "d": gm.d, "sigma2": gm.sigma2, "a": gm.a,
            "c": gm.c, "alpha": gm.alpha, "beta": gm.beta, "gamma": gm.gamma}


def gneiting_from_dict(doc):
    if not isinstance(doc, dict) or doc.get("kind") != "gneiting":
        raise ModelError("expected an object with kind = 'gneiting'")
    check_fields(doc, "gneiting", _GNEITING_FIELDS)
    try:
        return GneitingModel(d=doc["d"], sigma2=doc.get("sigma2", 1.0),
                             a=doc.get("a", 1.0), c=doc.get("c", 1.0),
                             alpha=doc.get("alpha", 1.0), beta=doc.get("beta", 1.0),
                             gamma=doc.get("gamma", 1.0))
    except KeyError as exc:
        raise ModelError(f"missing gneiting field: {exc.args[0]}") from None


def gneiting_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid gneiting JSON: {exc}") from None
    return gneiting_from_dict(doc)
