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
targets.  It collects the distinct lags (up to sign) behind the matrix
and every target, integrates them in one variogram table and fills the
matrix and every covariance vector from it; :func:`krige` is the batch
of one.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FactorizationError, ModelError, ConsistencyError
from .models import check_integer, smoothness_exponents
from .variogram import _envelope_shape, variogram_table

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
        # close[i, k]: sites i and k agree within the tolerance in every
        # coordinate; a site is a duplicate of the first kept site close to it
        origin = np.all(np.abs(sites) <= _DEDUP_TOL, axis=1)
        close = np.ones((len(sites), len(sites)), bool)
        for coord in sites.T:
            close &= np.abs(coord[:, None] - coord) <= _DEDUP_TOL
        kept = []
        for i, (at_origin, near) in enumerate(zip(origin.tolist(), close.tolist())):
            value = values[i]
            if at_origin:
                if abs(value) > 1e-9:
                    raise ModelError(
                        "the field is pinned to zero at the origin; an origin "
                        f"observation with value {value:g} is inconsistent")
                continue
            prev = next((k for k in kept if near[k]), None)
            if prev is None:
                kept.append(i)
            elif abs(value - values[prev]) > 1e-9:
                raise ModelError(
                    f"duplicate site {sites[i].tolist()} with conflicting "
                    f"values {values[prev]:g} and {value:g}")
        object.__setattr__(self, "sites", sites[kept])
        object.__setattr__(self, "values", values[kept])

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


def _distinct_lags(lags):
    """The distinct nonzero rows of ``lags`` up to sign (v is even), in
    lexicographic order, and each row's index among them (-1 for a zero row)."""
    nonzero = lags != 0
    live = nonzero.any(axis=1)
    first = lags[np.arange(len(lags)), nonzero.argmax(axis=1)]
    canonical = (np.where(first[:, None] < 0, -lags, lags) + 0.0)[live]  # no -0.0
    order = np.lexsort(canonical.T[::-1])  # the first coordinate sorts first
    ranked = canonical[order]
    new = np.ones(len(ranked), bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    index = np.full(len(lags), -1)
    index[np.flatnonzero(live)[order]] = np.cumsum(new) - 1
    return ranked[new], index


def _factor_with_jitter(matrix):
    """Lower Cholesky factor with escalating diagonal jitter; three retries."""
    scale = max(np.max(np.diag(matrix), initial=0.0), 1e-30)
    jitter = 0.0
    for attempt in range(4):
        try:
            return np.linalg.cholesky(matrix + jitter * np.eye(matrix.shape[0])), jitter
        except np.linalg.LinAlgError:
            jitter = 1e-12 * scale * 10.0**attempt
    min_eig = float(np.linalg.eigvalsh(matrix).min())
    raise FactorizationError(
        f"covariance factorization failed; smallest eigenvalue {min_eig:g}",
        min_eigenvalue=min_eig)


def _solve_factor(lower, rhs):
    """Solve lower lower^T x = rhs for all columns of ``rhs`` in one substitution.

    Each column's arithmetic ignores the others (LAPACK's multi-column
    triangular solves change it with the column count).
    """
    x = np.array(rhs, dtype=float)
    for k in range(len(lower)):
        x[k] /= lower[k, k]
        x[k + 1:] -= lower[k + 1:, k, None] * x[k]
    for k in reversed(range(len(lower))):
        x[k] /= lower[k, k]
        x[:k] -= lower[k, :k, None] * x[k]
    return x


def _column_sums(a):
    """Sum the rows of ``a`` in order, so each column's sum ignores the others."""
    return sum(a, np.zeros(a.shape[1]))


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
    factored once, and every target solves against that factor with its
    own covariance vector c(u), all in one solve.  The distinct lags
    behind Sigma and every c(u) are integrated in one variogram table,
    so each costs one quadrature per batch.

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
        ``meta`` holds ``variogram_evals`` (distinct lags integrated in
        the batch), ``cache_hits`` (nonzero variogram lookups of the
        pinned covariances beyond those) and ``max_variogram_err`` (worst
        error estimate behind this result).
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != obs.model.dims:
        raise ModelError(
            f"targets must be rows of {obs.model.dims} coordinates")
    if not np.all(np.isfinite(targets)):
        raise ModelError("target sites must be finite")
    sites, n, m = obs.sites, len(obs), len(targets)
    # v(s), v(t) and v(s - t) of each C(s, t): Sigma's upper triangle,
    # then every target's prior v(u) and its C(u, site) for every site
    row, col = np.triu_indices(n)
    u, s = np.repeat(targets, n, axis=0), np.tile(sites, (m, 1))
    blocks = [sites[row], sites[col], sites[row] - sites[col],
              targets, u, s, u - s]
    distinct, index = _distinct_lags(np.concatenate(blocks))
    table = variogram_table(obs.model, distinct, quad)
    bounds = np.cumsum([len(b) for b in blocks])[:-1]
    # index -1 (a zero lag) picks the appended v = err = 0
    v_row, v_col, v_diff, prior, v_u, v_s, v_us = np.split(
        np.append(table.values, 0.0)[index], bounds)
    e_sigma, e_prior, e_cov = np.split(
        np.append(table.errs, 0.0)[index], [bounds[2], bounds[3]])
    sigma = np.empty((n, n))
    sigma[row, col] = sigma[col, row] = 0.5 * (v_row + v_col - v_diff)
    cov = 0.5 * (v_u + v_s - v_us).reshape(m, n)
    errs = np.maximum(e_prior, np.max(e_cov.reshape(3, m, n), axis=(0, 2), initial=0.0))
    errs = np.maximum(errs, np.max(e_sigma, initial=0.0))
    try:
        factor, jitter = _factor_with_jitter(sigma)
    except FactorizationError as exc:
        pair = _closest_pair(sites)
        raise FactorizationError(
            f"{exc} (closest sites: {pair[0].tolist()} and "
            f"{pair[1].tolist()})", min_eigenvalue=exc.min_eigenvalue) from None
    weights = _solve_factor(factor, cov.T)
    predictions = _column_sums(weights * obs.values[:, None])
    variances = prior - _column_sums(cov.T * weights)
    if np.any(variances < _VARIANCE_FLOOR):
        raise ConsistencyError(f"kriging variance {variances.min():g} fell below "
                               f"the {_VARIANCE_FLOOR:g} floor")
    meta = {"variogram_evals": len(distinct),
            "cache_hits": int(np.count_nonzero(index >= 0)) - len(distinct)}
    return [KrigingResult(site=target, prediction=float(prediction),
                          variance=max(0.0, float(variance)), weights=w,
                          jitter=jitter, meta={**meta, "max_variogram_err": float(err)})
            for target, prediction, variance, w, err
            in zip(targets, predictions, variances, weights.T.copy(), errs)]


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
    # the origin's upper term, which also checks u's length
    upper = _envelope_shape(exponents, u, "target")
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if sites.size == 0:
        sites = sites.reshape(0, len(h))
    if sites.shape[1:] != (len(h),):
        raise ModelError("each site must have one coordinate per exponent")
    all_sites = np.vstack([np.zeros((1, len(h))), sites])
    lower = min(
        sum(abs(u[j] - site[j]) ** (2.0 * h[j]) for j in range(len(h)))
        for site in all_sites)
    upper = min([upper] + [_envelope_shape(exponents, u - site, "target")
                           for site in sites])
    return lower, upper


def scaling_exponent_check(model, axis, radii=None, quad=None):
    """Log-log slope of Var(X(r e_axis) | X(0)) against r.

    The conditional variance given the pinned origin is v(r e_axis), so
    the fitted slope estimates 2 H_axis.  Requires H_axis < 1 (the
    variance scales as r^2 or r^2 log r otherwise and the slope would
    saturate).
    """
    exps = smoothness_exponents(model)
    axis = check_integer(axis, "axis", 0, model.dims)
    if exps.h[axis] >= 1:
        raise ModelError(
            f"H_{axis} = {exps.h[axis]:g} >= 1: the r^(2H) regime is not "
            "observable on this axis")
    if radii is None:
        radii = np.geomspace(0.02, 0.2, 6)
    radii = np.asarray(radii, dtype=float)
    if radii.size < 2 or np.any(radii <= 0):
        raise ModelError("need at least two positive radii")
    lags = np.zeros((radii.size, model.dims))
    lags[:, axis] = radii
    values = variogram_table(model, lags, quad).values
    if np.any(values <= 0):
        radius = radii[np.argmax(values <= 0)]
        raise ConsistencyError(f"variogram vanished at radius {radius:g}")
    slope = np.polyfit(np.log(radii), np.log(values), 1)[0]
    return float(slope)
