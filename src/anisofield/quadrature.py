"""Spectral integrals on R^N: a Laplace-domain engine and a tensor rule.

Evaluates integrals of the form

    int_{R^N} K(h, lambda) f(lambda) dlambda,

where f is even in each coordinate and K is the increment kernel
1 - cos<h, lambda> or its first or second partial in one lag coordinate
h_j.  Evenness reduces each of these to a sum of products of per-axis
factors (cosines, sines and 2 sin^2 half-angle terms), so the integral
folds onto the positive orthant with weight 2^N.

The increment kernel in N >= 2 dimensions goes through the Laplace
engine.  Every family's density is prefactor * int_0^inf m(t) e^{-t S} dt
with S = sum_j a_j(|lambda_j|) (see ``models.LaplaceForm``), and e^{-t S}
factors over the axes, so the N-dimensional integral becomes one
integral over t of products of 1-D transforms of e^{-t a_j}.  Axes with
a_j = c lambda or c lambda^2 have those transforms in closed form; any
other axis (a numeric axis) gets them from the 1-D rule below, for all
t nodes at once.  The cost is O(n_t N n_lambda) with no node cap.

The engine integrates a batch of lags, a block of rows at a time, on one
(lag x t node) matrix; each row keeps the t nodes it would have alone
and sums in node order, so its result does not depend on the batch.

The 1-D rule, which N = 1 and the partials (in 1 to 3 dimensions, as a
tensor product) use, splits each axis at a truncation point L.  The inner
interval [0, L] is covered by dyadically graded Gauss-Legendre panels
(the grading resolves the power-law behaviour of the density near the
origin), with panel widths additionally capped by the local oscillation
wavelength.  The outer interval (L, inf) is mapped to u in (0, 1] via
lambda = L/u and integrated on its own graded panels; this captures the
non-oscillatory tail mass essentially exactly.  Oscillatory factors that
the outer grids cannot resolve are replaced by their means (1 for the
sin^2 factor, 0 for cosines and sines) and the dropped part is charged
to the error estimate, except in one dimension (and on numeric axes)
where two integration-by-parts boundary terms are added instead.
``QuadratureSpec.truncation`` and ``panels`` govern only this rule;
closed-form axes use neither.

Each error estimate combines those tail charges with the difference
between two Gauss orders.  All node orderings are fixed, so results are
bit-stable for fixed inputs.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, QuadratureError

# Dyadic grading depth (octaves below the truncation point / below u = 1)
# and Gauss-Legendre orders per dimension count.  The low order feeds the
# discretization error estimate.
_DEPTH = {1: 54, 2: 46, 3: 32}
_ORDER_HI = {1: 12, 2: 12, 3: 6}
_ORDER_LO = {1: 7, 2: 7, 3: 4}

_MAX_TENSOR_NODES = 2**24

_gauss_cache = {}


def _gauss(order):
    if order not in _gauss_cache:
        _gauss_cache[order] = np.polynomial.legendre.leggauss(order)
    return _gauss_cache[order]


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for the spectral quadrature.

    ``truncation`` and ``panels`` govern the 1-D rule only: the tensor
    rule of N = 1 and of the partials, and the numeric axes of the
    Laplace engine.  Closed-form axes use neither.

    Parameters
    ----------
    truncation : float or None
        Half-width L of the resolved frequency cube.  None selects
        L = 64 * max(1, 1/min nonzero |h_j|), capped at 1e4; a numeric
        axis of the Laplace engine takes L = 64/|h_j| from its own lag
        component (64 when it is 0).
    panels : int
        Per-axis panel budget; oscillation-driven subdivision never
        produces more than about this many panels on one axis.
    rel_tol : float
        Relative error threshold; public operations raise
        QuadratureError when the estimate exceeds rel_tol * value.
    """

    truncation: float | None = None
    panels: int = 256
    rel_tol: float = 0.05

    def __post_init__(self):
        if self.truncation is not None and not self.truncation > 0:
            raise ModelError("quadrature truncation must be positive")
        if self.panels < 16:
            raise ModelError("quadrature needs a panel budget of at least 16")
        if not 0 < self.rel_tol < 0.1:
            raise ModelError("rel_tol must lie in (0, 0.1)")


def auto_truncation(freqs):
    """Default truncation: 64 wavelengths of the slowest oscillation."""
    nz = np.abs(freqs[freqs != 0])
    if nz.size == 0:
        return 64.0
    return min(1e4, 64.0 * max(1.0, 1.0 / nz.min()))


def _inner_panels(L, freq, panels_budget, depth):
    """Midpoints and half-widths of the graded panels on [0, L] for one axis."""
    cap = math.inf if freq == 0 else 10.0 / abs(freq)
    cap = max(cap, 4.0 * L / panels_budget)
    mids, halves = [], []
    hi = L
    for level in range(depth + 1):
        lo = 0.0 if level == depth else hi * 0.5
        width = hi - lo
        nsub = 1 if not math.isfinite(cap) or width <= cap else math.ceil(width / cap)
        edges = np.linspace(lo, hi, nsub + 1)
        mids.append(0.5 * (edges[1:] + edges[:-1]))
        halves.append(0.5 * np.diff(edges))
        hi = lo
    return np.concatenate(mids), np.concatenate(halves)


def _inner_axis(panels, order):
    """GL nodes and weights of one order on the panels of _inner_panels."""
    mid, half = panels
    x, w = _gauss(order)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _outer_axis(L, depth, order):
    """GL nodes and weights on (L, inf) via the map lambda = L/u."""
    x, w = _gauss(order)
    u_nodes, u_weights = [], []
    hi = 1.0
    for _ in range(depth):
        lo = hi * 0.5
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        u_nodes.append(mid + half * x)
        u_weights.append(half * w)
        hi = lo
    u = np.concatenate(u_nodes)
    wu = np.concatenate(u_weights)
    return L / u, wu * L / u**2


def _bshape(vec, axis, n):
    shape = [1] * n
    shape[axis] = vec.size
    return vec.reshape(shape)


def _contract(F, vecs):
    """Sum F weighted by the outer product of per-axis vectors."""
    acc = F
    for a in reversed(range(len(vecs))):
        acc = np.tensordot(acc, vecs[a], axes=([a], [0]))
    return float(acc)


def _tail_ibp(point_density, L, h, phase):
    """Two-term boundary estimate of int_L^inf g(l) cos(h*l - phase) dl.

    A phase of pi/2 turns the cosine into sin(h*l).  Returns
    (correction, err) where err bounds the first dropped term.  Uses
    centered differences of g at L for the derivative terms.
    """
    delta = 0.02 * L
    g_hi, g0, g_lo = point_density(L + delta), point_density(L), point_density(L - delta)
    gp = (g_hi - g_lo) / (2 * delta)
    gpp = (g_hi - 2 * g0 + g_lo) / delta**2
    corr = -g0 * math.sin(h * L - phase) / h - gp * math.cos(h * L - phase) / h**2
    return corr, 2 * abs(gpp / h**3)


# Per-axis factors of the kernel terms: c = cos(h_a l_a), s = sin(h_a l_a)
# and s2 = 2 sin^2(h_a l_a / 2) = 1 - cos(h_a l_a).  On an axis whose
# oscillation the outer grid cannot resolve, a factor is replaced by its
# mean: 1 for s2, 0 for c and s.
_FACTORS = {
    "c": np.cos,
    "s": np.sin,
    "s2": lambda x: 2.0 * np.sin(0.5 * x) ** 2,
}
_ZERO_MEAN = ("c", "s")


def spectral_integral(parts, n_dims, freqs, quad=None, partial=(0, 0)):
    """Integrate the increment kernel, or one of its h-partials, against a density.

    The kernel is K(h, lambda) = 1 - cos<h, lambda>.  Because the density
    is even in each coordinate, K folds onto the positive orthant as the
    telescoped sum

        sum_a 2 sin^2(h_a lambda_a / 2) prod_{b<a} cos(h_b lambda_b),

    which has no cancellation at small lags, and its partials in h_j fold
    to lambda_j sin(h_j lambda_j) prod_{b!=j} cos(h_b lambda_b) (first)
    and lambda_j^2 prod_b cos(h_b lambda_b) (second).  K itself goes
    through the Laplace engine in any N >= 2; N = 1 and the partials use
    the tensor rule.

    Parameters
    ----------
    parts : DensityParts
        Callables describing the density as
        f(lambda) = outer_map(sum_j axis_term(j, |lambda_j|)), and its
        Laplace form.
    n_dims : int
        Number of frequency coordinates N; partials support 1 to 3.
    freqs : array_like
        The lag vector h, shape (N,), finite; for order 0 also a batch
        of lags, shape (m, N), one per row.
    quad : QuadratureSpec, optional
    partial : (axis, order)
        Integrate d^order K / dh_axis^order, with axis in [0, N) and
        order 0, 1 or 2; the default (0, 0) is K itself.

    Returns
    -------
    (value, err) : tuple of floats
        The integral over R^N and a combined tail plus discretization
        error estimate; for a batch of lags, two arrays of shape (m,)
        whose rows equal the one-lag calls.

    Raises
    ------
    ModelError
        On a lag of the wrong shape or with non-finite entries, a
        partial outside the lag's axes or orders or in N > 3, or (in the
        Laplace engine) a density that is not integrable.
    QuadratureError
        If the tensor grid of a partial exceeds the supported node count.
    """
    quad = quad or QuadratureSpec()
    freqs = np.asarray(freqs, dtype=float)
    axis, order = partial
    if not (isinstance(axis, (int, np.integer)) and 0 <= axis < n_dims):
        raise ModelError(f"axis must be an integer in [0, {n_dims})")
    if order not in (0, 1, 2):
        raise ModelError("partial order must be 0, 1 or 2")
    batch = order == 0 and freqs.ndim == 2
    if freqs.shape[batch:] != (n_dims,):
        raise ModelError(f"lag must have shape ({n_dims},)")
    if not np.all(np.isfinite(freqs)):
        raise ModelError("lag must be finite")
    if order:
        if n_dims not in _DEPTH:
            raise ModelError("partials are supported in 1 to 3 dimensions")
        return _tensor_integral(parts, freqs, quad, axis, order)
    rows = np.atleast_2d(freqs)
    values, errs = np.zeros(len(rows)), np.zeros(len(rows))
    live = np.flatnonzero(np.any(rows != 0, axis=1))
    for start in range(0, live.size, _BLOCK_ROWS):
        idx = live[start:start + _BLOCK_ROWS]
        if n_dims >= 2:
            values[idx], errs[idx] = _laplace_increment(parts.laplace, rows[idx], quad)
        else:
            values[idx], errs[idx] = np.transpose(
                [_tensor_integral(parts, h, quad, 0, 0) for h in rows[idx]])
    return (values, errs) if batch else (float(values[0]), float(errs[0]))


def _tensor_integral(parts, freqs, quad, axis, order):
    """The tensor-product rule behind :func:`spectral_integral`, for N <= 3.

    Used for N = 1 and for the partials; order 0 in N >= 2 goes through
    the Laplace engine instead.
    """
    n_dims = freqs.size
    if order == 0:
        terms = [("c",) * a + ("s2",) + ("1",) * (n_dims - a - 1)
                 for a in range(n_dims) if freqs[a] != 0]
    else:
        own = "s" if order == 1 else "c"
        terms = [tuple(own if b == axis else "c" for b in range(n_dims))]

    L = quad.truncation if quad.truncation is not None else auto_truncation(freqs)
    depth = _DEPTH[n_dims]
    panels = [_inner_panels(L, freqs[a], quad.panels, depth) for a in range(n_dims)]

    def one_pass(gauss_order):
        axes_in = [_inner_axis(p, gauss_order) for p in panels]
        axis_out = _outer_axis(L, depth, gauss_order)
        n_nodes = math.prod(a[0].size for a in axes_in)
        if n_nodes > _MAX_TENSOR_NODES:
            raise QuadratureError(
                f"tensor grid of {n_nodes} nodes exceeds the supported size; "
                "reduce the panel budget or the truncation"
            )
        value = 0.0
        tail_err = 0.0
        for combo in itertools.product((0, 1), repeat=n_dims):
            lam = [axes_in[a][0] if c == 0 else axis_out[0] for a, c in enumerate(combo)]
            wgt = [axes_in[a][1] if c == 0 else axis_out[1] for a, c in enumerate(combo)]
            wgt[axis] = wgt[axis] * lam[axis] ** order
            unresolved = [c == 1 and freqs[a] != 0 for a, c in enumerate(combo)]
            S = _bshape(parts.axis_term(0, lam[0]), 0, n_dims)
            for a in range(1, n_dims):
                S = S + _bshape(parts.axis_term(a, lam[a]), a, n_dims)
            F = parts.outer_map(S)
            for term in terms:
                if any(unresolved[a] and f in _ZERO_MEAN for a, f in enumerate(term)):
                    continue
                value += _contract(F, [
                    wgt[a] if f == "1" or unresolved[a]
                    else wgt[a] * _FACTORS[f](freqs[a] * lam[a])
                    for a, f in enumerate(term)])
            if not any(unresolved):
                continue
            # The means dropped the oscillatory part of this block: in one
            # dimension add its integration-by-parts tail, otherwise charge
            # the block's envelope mass, scaled by the cancellation over
            # the unresolved axes, to the error estimate.
            if n_dims == 1:
                def g(x):
                    return parts.point(np.array([x])) * x**order
                phase = math.pi / 2 if order == 1 else 0.0
                corr, ibp_err = _tail_ibp(g, L, freqs[0], phase)
                value += corr if order else -corr
                tail_err += ibp_err
            else:
                supp = min(min(1.0, 2.0 / (abs(freqs[a]) * L))
                           for a in range(n_dims) if unresolved[a])
                tail_err += abs(_contract(F, wgt)) * supp
        return value, tail_err

    fold = 2.0**n_dims
    v_hi, tail = one_pass(_ORDER_HI[n_dims])
    v_lo, _ = one_pass(_ORDER_LO[n_dims])
    return fold * v_hi, fold * (abs(v_hi - v_lo) + tail)


# ---------------------------------------------------------------------------
# Laplace-domain engine for the increment kernel on R^N, N >= 2.

# Gauss orders (t rule, numeric-axis lambda rule); the second pair feeds
# the discretization error estimate.
_LAPLACE_ORDERS = ((8, 12), (5, 7))
# Relative size of what the small-t power law leaves out at the lower end.
_T_EPS = 1e-9
# e-folds of the weight's e^{-rate t} covered by the t rule.
_T_EFOLDS = 40.0
# Terms of the analytic power-law tail above the upper end (rate 0).
_TAIL_TERMS = 8
# Lags integrated together; bounds the (lags x t nodes) work arrays.
_BLOCK_ROWS = 128


@functools.lru_cache(maxsize=256)
def _t_rule(levels, cap, order):
    """GL nodes, weights and levels k on the panels [2^-k, 2^(1-k)] of [2^-levels,
    1], from 1 down, panels wider than ``cap`` split; read-only, as cached."""
    lo = 2.0 ** -np.arange(1.0, levels + 1.0)
    count = np.maximum(1, np.ceil(lo / cap)).astype(int)
    width = np.repeat(lo / count, count)
    start = np.repeat(lo, count) + width * (
        np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count))
    nodes, weights = _inner_axis((start + 0.5 * width, 0.5 * width), order)
    rule = nodes, weights, np.repeat(np.arange(1, levels + 1), count * order)
    for a in rule:
        a.setflags(write=False)
    return rule


def _closed_axis(axis, h, t, log_t):
    """log E, C/E and D/E of a power axis with exponent 1 or 2, in closed form.

    With u = coef * t: exponent 1 gives E = 1/u, C = u/(u^2+h^2) and
    D = h^2/(u(u^2+h^2)); exponent 2 gives E = sqrt(pi/u)/2,
    C = E e^{-h^2/4u} and D = -E expm1(-h^2/4u).  Either way C = E - D.
    Elementwise in h and t; ``log_t`` is log t.
    """
    if axis.expo == 1.0:
        d_r = h**2 / ((axis.coef * t)**2 + h**2)
        log_e = -math.log(axis.coef) - log_t
    else:
        d_r = -np.expm1(h**2 / (-4.0 * axis.coef) / t)
        log_e = 0.5 * (math.log(0.25 * math.pi / axis.coef) - log_t)
    return log_e, 1.0 - d_r, d_r


def _numeric_axis(axis, lags, t, used, quad, order, t_lo, t_hi):
    """log E, C/E, D/E and the tail error over E of one axis, by the 1-D rule.

    E, C and D are the integrals of 1, cos(h l) and 2 sin^2(h l / 2)
    against e^{-t a(l)} over l > 0, one matrix product for all t of a
    row's ``used`` columns (the others keep log E = 0, C/E = 1, D/E = 0
    and no tail error).  The graded panels reach down to where
    e^{-t_hi a} is flat and up to where e^{-t_lo a} has vanished; beyond
    the truncation L the cosine is replaced by its two
    integration-by-parts boundary terms.
    """
    out = [np.zeros_like(t), np.ones_like(t), np.zeros_like(t), np.zeros_like(t)]
    inv = 1.0 / axis.growth
    for i, (h, cols) in enumerate(zip(lags, used)):
        L = quad.truncation or (64.0 if h == 0 else min(1e12, 64.0 / abs(h)))
        lam_lo = 1e-4 * (axis.coef * t_hi[i]) ** -inv
        lam_hi = (60.0 / (axis.coef * t_lo[i]) + axis.shift**axis.expo) ** inv
        depth_in = max(1, math.ceil(math.log2(L / lam_lo)))
        depth_out = max(1, math.ceil(math.log2(lam_hi / L)))
        lam_in, w_in = _inner_axis(_inner_panels(L, h, quad.panels, depth_in), order)
        lam_out, w_out = _outer_axis(L, depth_out, order)
        row = t[i, cols]
        outer = np.exp(-row[:, None] * axis.term(lam_out)) @ w_out
        weights = [w_in]
        if h != 0:
            x = h * lam_in
            weights += [w_in * np.cos(x), w_in * _FACTORS["s2"](x)]
        sums = np.exp(-row[:, None] * axis.term(lam_in)) @ np.stack(weights, axis=1)
        E = sums[:, 0] + outer
        out[0][i, cols] = np.log(E)
        if h != 0:
            corr, err = _tail_ibp(lambda lam: np.exp(-row * axis.term(lam)), L, h, 0.0)
            out[1][i, cols] = (sums[:, 1] + corr) / E
            out[2][i, cols] = (sums[:, 2] + outer - corr) / E
            out[3][i, cols] = err / E
    return out


def _laplace_increment(lap, lags, quad):
    """int_{R^N} (1 - cos<h, lambda>) f(lambda) dlambda through the Laplace form.

    One value and error estimate per row h of ``lags`` (none zero).
    With f = prefactor * int_0^inf m(t) prod_j e^{-t a_j} dt, the
    telescoped kernel turns the integral into

        2^N prefactor int_0^inf m(t) sum_a D_a prod_{b<a} C_b prod_{b>a} E_b dt,

    where E_j, C_j and D_j are the per-axis transforms of 1, cos(h_j l)
    and 2 sin^2(h_j l / 2) against e^{-t a_j(l)}.  The t integral runs on
    dyadic panels over [t0, T].  Below t0 the integrand is its small-t
    power law A t^(margin - 1), integrated exactly; its deviation at t0
    bounds the error there.  Above T the weight's e^{-rate t} bounds the
    rest, or, at rate 0 (where every axis is Gaussian), the integrand
    is expanded in powers of 1/t and integrated term by term.

    Rows share one t rule as deep as the deepest row, scaled by each
    row's T; the levels below a row's own t0 get zero weight.

    The error estimate adds the difference of two Gauss orders, the
    axes' integration-by-parts error and both end charges.
    """
    axes = lap.axes
    n = len(axes)
    inv = [1.0 / ax.growth for ax in axes]
    margin = lap.power - sum(inv)
    if not margin > 0:
        raise ModelError("density is not integrable: its Laplace weight power "
                         f"{lap.power:g} must exceed sum(1/beta) = {sum(inv):g}")
    log_pref = math.log(lap.prefactor) + n * math.log(2.0) - math.lgamma(lap.power)
    log_lead = log_pref + sum(math.lgamma(1.0 + i) - i * math.log(ax.coef)
                              for i, ax in zip(inv, axes))
    # Lower end: every neglected relative term (rate t, C/E on the
    # longest-lag axis, the shift of a shifted axis) is below _T_EPS.
    t0 = 1e-8 * np.max([np.abs(lags[:, j]) ** ax.growth / ax.coef
                        for j, ax in enumerate(axes)], axis=0)
    if lap.rate > 0:
        t0 = np.minimum(t0, _T_EPS / lap.rate)
    for ax in axes:
        if ax.kind == "shifted":
            t0 = np.minimum(t0, (_T_EPS / (ax.expo * ax.shift)) ** ax.expo / ax.coef)
    if lap.rate > 0:
        T = np.full(len(lags), (_T_EFOLDS + 2.0 * lap.power) / lap.rate)
        cap = 4.0 / lap.rate
    else:
        if any(ax.kind != "power" or ax.expo != 2.0 for ax in axes) or margin >= 1:
            raise ModelError("a Laplace weight without decay needs Gaussian axes "
                             "and a margin below 1")
        lag_time = sum(lags[:, j]**2 / (4.0 * ax.coef) for j, ax in enumerate(axes))
        T = 100.0 * lag_time
        cap = math.inf
    levels = np.maximum(1, np.ceil(np.log2(T / t0))).astype(int)
    t0 = T * 2.0**-levels

    def one_pass(t_order, lam_order):
        # the rule on [t0, T] is T times the rule on [2^-levels, 1]
        t, w, level = _t_rule(int(levels.max()), cap / T[0], t_order)
        w = T[:, None] * w * (level <= levels[:, None])
        t = np.concatenate([T[:, None] * t, np.stack([t0, T], axis=1)], axis=1)
        used = np.append(level, [0, 0]) <= levels[:, None]  # t0 and T too
        log_t = np.log(t)
        log_f = log_pref + (lap.power - 1.0) * log_t - lap.rate * t
        ratio, carry, ibp = 0.0, 1.0, 0.0
        for h, ax in zip(lags.T, axes):
            if ax.kind == "power" and ax.expo in (1.0, 2.0):
                log_e, c_r, d_r = _closed_axis(ax, h[:, None], t, log_t)
            else:
                log_e, c_r, d_r, e_r = _numeric_axis(ax, h, t, used, quad, lam_order,
                                                     t0, T)
                ibp = ibp + e_r
            log_f = log_f + log_e
            ratio = ratio + carry * d_r
            carry = carry * c_r
        scale = np.exp(log_f)
        F = scale * ratio
        # sums run in node order, which the zero weights cannot change
        ibp_err = np.cumsum(w * (scale * ibp)[:, :-2], axis=1)[:, -1] if np.ndim(ibp) else 0
        return (np.cumsum(w * F[:, :-2], axis=1)[:, -1], ibp_err,
                F[:, -2], F[:, -1], log_f[:, -1])

    value, ibp_err, f_lo, f_hi, log_f_hi = one_pass(*_LAPLACE_ORDERS[0])
    value_lo = one_pass(*_LAPLACE_ORDERS[1])[0]
    # below t0: the power law, charged with its deviation at t0
    lead = np.exp(log_lead + (margin - 1.0) * np.log(t0))
    head = lead * t0 / margin
    err = np.abs(value - value_lo) + ibp_err + np.abs(f_lo / lead - 1.0) * head
    value += head
    if lap.rate > 0:
        # G decreases in t, and int_T^inf m <= 2 m(T) / rate because
        # rate T >= 2 (power - 1), so the rest is below 2 F(T) / rate
        err += 2.0 * f_hi / lap.rate
    else:
        # every axis is Gaussian, so m G = m(T) prod E(T) (t/T)^q (1 - e^{-a/t})
        # with a = lag_time; the series of 1 - e^{-a/t} integrates term by term
        q = lap.power - 1.0 - 0.5 * n
        scale = T * np.exp(log_f_hi)
        x = lag_time / T
        terms = [(-1.0) ** (k + 1) * x**k / (math.factorial(k) * (k - q - 1.0))
                 for k in range(1, _TAIL_TERMS + 2)]
        value += scale * sum(terms[:-1])
        err += scale * np.abs(terms[-1])
    return value, err
