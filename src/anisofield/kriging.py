"""Simple kriging for pinned stationary-increment fields.

The field is known to vanish at the origin, so the origin acts as an
implicit zero-valued observation: it enters every covariance through the
pinned form C(s, t) = (v(s) + v(t) - v(s - t)) / 2 and is included in the
site list of the prediction-error envelope.  Explicit observations at the
origin carry no additional information and are removed (they must report
the pinned value zero).

The prediction-variance envelope brackets the kriging variance between
min_k sum_j |u_j - t^k_j|^(2 H_j) and min_k sum_j sigma_j(|u_j - t^k_j|),
with k running over the observation sites and the origin.

The covariance matrix depends only on the observation sites, so
:func:`krige_many` assembles and factors it once for a whole batch of
targets and takes every variogram from one cache of distinct lags;
:func:`krige` is the batch of one.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import FactorizationError, ModelError, ConsistencyError
from .models import smoothness_exponents
from .variogram import sigma_scale, variogram_numeric

_DEDUP_TOL = 1e-12
_VARIANCE_FLOOR = -1e-10


@dataclass(frozen=True)
class Observations:
    """Observation sites and values for one model.

    Sites are deduplicated at tolerance 1e-12 per coordinate; duplicates
    must agree in value, and sites at the origin must carry the pinned
    value zero (they are dropped either way).
    """

    sites: np.ndarray
    values: np.ndarray
    model: object

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if sites.size == 0:
            sites = sites.reshape(0, self.model.dims)
        if sites.shape[1] != self.model.dims:
            raise ModelError(f"sites must have {self.model.dims} coordinates")
        if values.shape != (sites.shape[0],):
            raise ModelError("one value per site is required")
        if not (np.all(np.isfinite(sites)) and np.all(np.isfinite(values))):
            raise ModelError("sites and values must be finite")
        keep_sites, keep_values = [], []
        for site, value in zip(sites, values):
            if np.all(np.abs(site) <= _DEDUP_TOL):
                if abs(value) > 1e-9:
                    raise ModelError(
                        "the field is pinned to zero at the origin; an origin "
                        f"observation with value {value:g} is inconsistent")
                continue
            dup = False
            for prev_site, prev_value in zip(keep_sites, keep_values):
                if np.all(np.abs(site - prev_site) <= _DEDUP_TOL):
                    if abs(value - prev_value) > 1e-9:
                        raise ModelError(
                            f"duplicate site {site.tolist()} with conflicting "
                            f"values {prev_value:g} and {value:g}")
                    dup = True
                    break
            if not dup:
                keep_sites.append(site)
                keep_values.append(value)
        object.__setattr__(self, "sites", np.array(keep_sites).reshape(-1, self.model.dims))
        object.__setattr__(self, "values", np.array(keep_values))

    def __len__(self):
        return self.sites.shape[0]


@dataclass(frozen=True)
class KrigingResult:
    """Prediction at one site with its kriging variance and weights."""

    site: np.ndarray
    prediction: float
    variance: float
    weights: np.ndarray
    jitter: float = 0.0
    meta: dict = field(default_factory=dict)


def _variogram_lookup(model, quad):
    """(v, err) on sign-canonicalized lags, memoized for one kriging batch.

    Zero lags return (0, 0) without a quadrature.  ``cache_info()`` of the
    returned lookup counts the quadratures run (misses) and the nonzero
    lags served from the memo (hits).
    """

    @functools.lru_cache(maxsize=None)
    def canonical(key):
        return variogram_numeric(model, np.array(key), quad)

    def lookup(lag):
        lag = np.asarray(lag, dtype=float)
        nonzero = lag[lag != 0]
        if nonzero.size == 0:
            return 0.0, 0.0
        return canonical(tuple(lag if nonzero[0] > 0 else -lag))

    lookup.cache_info = canonical.cache_info
    return lookup


def _pinned_covariance(lookup, s, t):
    """C(s, t) and the worst variogram error estimate behind it."""
    (vs, es), (vt, et), (vd, ed) = lookup(s), lookup(t), lookup(s - t)
    return 0.5 * (vs + vt - vd), max(es, et, ed)


def _factor_with_jitter(matrix):
    """Cholesky with escalating diagonal jitter; three retries."""
    scale = max(np.max(np.diag(matrix)), 1e-30)
    jitter = 0.0
    for attempt in range(4):
        try:
            factor = scipy.linalg.cho_factor(
                matrix + jitter * np.eye(matrix.shape[0]), lower=True)
            return factor, jitter
        except np.linalg.LinAlgError:
            pass
        except scipy.linalg.LinAlgError:
            pass
        jitter = 1e-12 * scale * 10.0**attempt
    min_eig = float(np.linalg.eigvalsh(matrix).min())
    raise FactorizationError(
        f"covariance factorization failed; smallest eigenvalue {min_eig:g}",
        min_eigenvalue=min_eig)


def krige(obs, u, quad=None):
    """Simple-kriging prediction of the pinned field at site ``u``.

    Parameters
    ----------
    obs : Observations
    u : array_like, shape (dims,)
    quad : QuadratureSpec, optional
        Settings for the variogram quadrature behind the covariances.

    Returns
    -------
    KrigingResult
        As :func:`krige_many` returns for the one-row batch ``[u]``.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (obs.model.dims,):
        raise ModelError(f"target site must have {obs.model.dims} coordinates")
    return krige_many(obs, u[None, :], quad)[0]


def krige_many(obs, targets, quad=None):
    """Simple-kriging predictions at every row of ``targets``.

    The covariance matrix Sigma of the observations is assembled and
    factored once; every target then solves against that factor with its
    own covariance vector c(u).  All variograms come from one cache, so
    each distinct lag costs one quadrature per batch.

    Parameters
    ----------
    obs : Observations
    targets : array_like, shape (m, dims)
    quad : QuadratureSpec, optional
        Settings for the variogram quadrature behind the covariances.

    Returns
    -------
    list of KrigingResult
        One per target: prediction c(u)^T Sigma^{-1} Z, variance
        C(u,u) - c(u)^T Sigma^{-1} c(u) (clamped at zero; values below
        -1e-10 raise), the solved weights and the jitter that was needed.
        ``meta`` holds ``variogram_evals`` (distinct quadratures in the
        batch), ``cache_hits`` (variogram lookups the cache served) and
        ``max_variogram_err`` (worst error estimate behind this result).
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != obs.model.dims:
        raise ModelError(
            f"targets must be rows of {obs.model.dims} coordinates")
    if not np.all(np.isfinite(targets)):
        raise ModelError("target sites must be finite")
    lookup = _variogram_lookup(obs.model, quad)
    n = len(obs)
    sigma = np.empty((n, n))
    sigma_err = 0.0
    for i in range(n):
        for k in range(i, n):
            value, err = _pinned_covariance(lookup, obs.sites[i], obs.sites[k])
            sigma[i, k] = sigma[k, i] = value
            sigma_err = max(sigma_err, err)
    factor, jitter = None, 0.0
    if n:
        try:
            factor, jitter = _factor_with_jitter(sigma)
        except FactorizationError as exc:
            pair = _closest_pair(obs.sites)
            raise FactorizationError(
                f"{exc} (closest sites: {pair[0].tolist()} and "
                f"{pair[1].tolist()})", min_eigenvalue=exc.min_eigenvalue) from None
    solved = []
    for u in targets:
        prior, err = lookup(u)
        if n == 0:
            prediction, variance, weights = 0.0, prior, np.zeros(0)
        else:
            cov = [_pinned_covariance(lookup, u, site) for site in obs.sites]
            cvec = np.array([c for c, _ in cov])
            err = max(err, sigma_err, *(e for _, e in cov))
            weights = scipy.linalg.cho_solve(factor, cvec)
            prediction = float(weights @ obs.values)
            variance = float(prior - cvec @ weights)
        if variance < _VARIANCE_FLOOR:
            raise ConsistencyError(
                f"kriging variance {variance:g} fell below the "
                f"{_VARIANCE_FLOOR:g} floor")
        solved.append((u, prediction, variance, weights, float(err)))
    info = lookup.cache_info()
    return [KrigingResult(site=u, prediction=prediction,
                          variance=max(0.0, variance), weights=weights,
                          jitter=jitter,
                          meta={"variogram_evals": info.misses,
                                "cache_hits": info.hits,
                                "max_variogram_err": err})
            for u, prediction, variance, weights, err in solved]


def _closest_pair(sites):
    best = (np.inf, 0, 1)
    for i in range(len(sites)):
        for k in range(i + 1, len(sites)):
            d = float(np.max(np.abs(sites[i] - sites[k])))
            if d < best[0]:
                best = (d, i, k)
    return sites[best[1]], sites[best[2]]


def prediction_error_envelope(exponents, sites, u):
    """Theoretical bracket for the kriging variance at ``u``.

    Returns (lower_shape, upper_shape) where the minimum runs over the
    observation sites plus the origin:

        lower = min_k sum_j |u_j - t^k_j|^(2 H_j)
        upper = min_k sum_j sigma_j(|u_j - t^k_j|)
    """
    u = np.asarray(u, dtype=float)
    h = exponents.h
    if u.shape != (len(h),):
        raise ModelError("target length must match the exponent vector")
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if sites.size == 0:
        sites = sites.reshape(0, len(h))
    all_sites = np.vstack([np.zeros((1, len(h))), sites])
    lower = min(
        sum(abs(u[j] - site[j]) ** (2.0 * h[j]) for j in range(len(h)))
        for site in all_sites)
    upper = min(
        sum(sigma_scale(h[j], abs(u[j] - site[j])) for j in range(len(h)))
        for site in all_sites)
    return lower, upper


def scaling_exponent_check(model, axis, radii=None, quad=None):
    """Log-log slope of Var(X(r e_axis) | X(0)) against r.

    The conditional variance given the pinned origin is v(r e_axis), so
    the fitted slope estimates 2 H_axis.  Requires H_axis < 1 (the
    variance scales as r^2 or r^2 log r otherwise and the slope would
    saturate).
    """
    exps = smoothness_exponents(model)
    if not 0 <= axis < model.dims:
        raise ModelError(f"axis must lie in [0, {model.dims})")
    if exps.h[axis] >= 1:
        raise ModelError(
            f"H_{axis} = {exps.h[axis]:g} >= 1: the r^(2H) regime is not "
            "observable on this axis")
    if radii is None:
        radii = np.geomspace(0.02, 0.2, 6)
    radii = np.asarray(radii, dtype=float)
    if radii.size < 2 or np.any(radii <= 0):
        raise ModelError("need at least two positive radii")
    log_v = []
    for r in radii:
        lag = np.zeros(model.dims)
        lag[axis] = r
        value, _ = variogram_numeric(model, lag, quad)
        if value <= 0:
            raise ConsistencyError(f"variogram vanished at radius {r:g}")
        log_v.append(math.log(value))
    slope = np.polyfit(np.log(radii), log_v, 1)[0]
    return float(slope)
