"""Spectral integrals on R^N through the Laplace domain.

Evaluates integrals of the form

    int_{R^N} K(h, lambda) f(lambda) dlambda,

where f is even in each coordinate and K is the increment kernel
1 - cos<h, lambda> or its first or second partial in one lag coordinate
h_j.  Evenness reduces each of these to a sum of products of per-axis
factors (cosines, sines and 2 sin^2 half-angle terms), so the integral
folds onto the positive orthant with weight 2^N.

Every family's density is prefactor * int_0^inf m(t) e^{-t S} dt with
S = sum_j a_j(|lambda_j|) (see ``models.laplace_form``).  fbm, whose
weight m has no decay (rate 0), has every integral in closed form
(|h|^(2H) and its partials).  For the others e^{-t S} factors over the
axes, so the N-dimensional integral becomes one integral over t of
products of 1-D transforms of e^{-t a_j}: in closed form where
a_j = c lambda or c lambda^2, from the 1-D rule below on any other
(numeric) axis, for a block of t nodes at a time.  The cost is
O(n_t N n_lambda) in every dimension N >= 1, with no node cap.

The t integral is the trapezoid rule in s = log t, on the nodes
t_k = T e^{-k h}, k = 0 ... K, from the upper end T that the weight's
decay fixes down to t0.  In s the integrand is analytic in a strip and
decays at both ends, so the rule converges geometrically as h shrinks
(Trefethen and Weideman 2014, "The exponentially convergent trapezoidal
rule").  Below t0 the integrand is its small-t power law, whose
trapezoid sum the rule adds in closed form; that cancels its O(h^2)
error at t0.  The rows of a batch share a grid per K, and the engine
integrates them in blocks of rows on one grid, in one pass: a closed
axis evaluates the whole grid in one call per ufunc, a numeric axis
calls its 1-D rule on the nodes and again on every other node for the
error estimate.  The t-only work (the grid, its weights, log t, the
weight m(t) and the log E of the leading closed axes) is cached per
(form, K, h), read-only (``_t_grid``), as are the small-t power law,
the step h and its trapezoid factors per (form, axis, order).  A block
holds as many rows as keep each (rows x t nodes) work array within
_BLOCK_BYTES, so the arrays are recycled from the heap rather than
page-faulted in afresh.  The grid is the one a row would have alone, so
its result does not depend on the batch, nor on what the caches hold.

The 1-D rule of a numeric axis splits it at a truncation point L, set by
the axis's own lag component (64/|h_j|, 256/|h_j| for the partials) but
no further out than lam_hi, where the weight has vanished.  Both of its
rules are one cached Gauss-Legendre rule on dyadically graded panels of
[0, 1] (``_unit_rule``), so none is built per lag: [0, L] takes L times
the rule whose panels are no wider than 10/reach (the
oscillation wavelength 10/|h_j| where L = reach/|h_j|), and (L, inf)
the image of the rule under lambda = L/u.  There an oscillatory factor
is replaced by its two integration-by-parts boundary terms, or, at
L = lam_hi, charged its mass.  No setting shapes either rule:
``QuadratureSpec`` holds only the tolerance that :func:`certify` holds
each error estimate to.

Each error estimate combines the difference to the trapezoid rule of
step 2h (with a numeric axis's 1-D rule at a lower Gauss order), the
integration-by-parts terms, the charges at both ends of the t integral
and a rounding charge.  All node orderings are fixed, so results are
bit-stable for fixed inputs.
"""

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, QuadratureError
from .models import check_integer, normalize_fbm_constant

# The Gauss-Legendre rules of the orders in use, exactly as numpy's leggauss
# gives them: the nodes >= 0 in increasing order and their weights.  Each
# rule is symmetric about 0.
_GAUSS_LEGENDRE = {
    3: ((0.0, 0.7745966692414834), (0.8888888888888888, 0.5555555555555557)),
    7: ((0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427586),
        (0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
         0.12948496616886973)),
    8: ((0.18343464249564978, 0.525532409916329, 0.7966664774136267,
         0.9602898564975362),
        (0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
         0.10122853629037706)),
    12: ((0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
          0.7699026741943047, 0.9041172563704748, 0.9815606342467192),
         (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
          0.16007832854334642, 0.10693932599531907, 0.04717533638651141)),
}


@functools.cache
def _gauss(order):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1],
    bit-equal to numpy's leggauss; read-only, as cached."""
    x, w = (np.array(half) for half in _GAUSS_LEGENDRE[order])
    mirror = slice(None, order // 2)  # the negative nodes: all but a node at 0
    rule = np.concatenate([-x[::-1][mirror], x]), np.concatenate([w[::-1][mirror], w])
    for a in rule:
        a.setflags(write=False)
    return rule


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance of the spectral quadrature.

    The rule itself has no settings: closed-form axes are exact, and a
    numeric axis derives its 1-D rule from its lag component.

    Parameters
    ----------
    rel_tol : float
        Relative error threshold; public operations raise QuadratureError
        when an error estimate exceeds rel_tol times its scale (:func:`certify`).
    """

    rel_tol: float = 0.05

    def __post_init__(self):
        if not 0 < self.rel_tol < 0.1:
            raise ModelError("rel_tol must lie in (0, 0.1)")


_DEFAULT_SPEC = QuadratureSpec()


def certify(values, errs, scales, quad, lags, what):
    """The package's one tolerance check, run on every public spectral result:
    row i passes when errs[i] <= quad.rel_tol * scales[i] (a NaN fails; an
    infinite scale marks an exact row).  The first failing row raises
    QuadratureError naming ``what`` and its lag, with its value and err."""
    rel_tol = (quad or _DEFAULT_SPEC).rel_tol
    ok = errs <= rel_tol * scales
    if not ok.all():
        i = int(np.argmin(ok))
        raise QuadratureError(f"{what} at lag {lags[i].tolist()}: error estimate {errs[i]:g} "
                              f"exceeds rel_tol * scale = {rel_tol * scales[i]:g}",
                              value=float(values[i]), err=float(errs[i]))


def _dyadic_panels(levels, cap, bottom=False):
    """Midpoints, half-widths and levels k of the panels [2^-k, 2^(1-k)] of
    [2^-levels, 1], from 1 down, then with ``bottom`` [0, 2^-levels] at
    level levels + 1; each panel wider than ``cap`` is split into equal
    ones.  The package's one dyadic panel builder."""
    lo = 2.0 ** -np.arange(1.0, levels + 1.0)
    span = np.append(lo, [lo[-1]] * bottom)  # the bottom panel is as wide as the last
    count = np.maximum(1, np.ceil(span / cap)).astype(int)
    width = np.repeat(span / count, count)
    start = np.repeat(np.append(lo, [0.0] * bottom), count) + width * (
        np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count))
    return start + 0.5 * width, 0.5 * width, np.repeat(np.arange(1, levels + 1 + bottom), count)


def _inner_axis(panels, rule):
    """Nodes and weights of the rule (x, w) on [-1, 1] mapped to the panels
    (midpoints, half-widths, ...) of _dyadic_panels."""
    mid, half = panels[:2]
    x, w = rule
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _outer_axis(L, u, w):
    """The rule (u, w) on (0, 1] mapped to (L, inf) by lambda = L/u."""
    return L / u, w * L / u**2


def _tail_ibp(point_density, L, h, phase):
    """Two-term boundary estimate of int_L^inf g(l) cos(h*l - phase) dl.

    A phase of pi/2 turns the cosine into sin(h*l).  Returns
    (correction, err) where err bounds the first dropped term.  Uses
    centered differences of g at L for the derivative terms.  A term
    whose factor of g has vanished is 0, also where its power of a tiny
    h underflows to 0.
    """
    def term(factor, h_power):
        return np.divide(factor, h_power, out=np.zeros_like(factor), where=factor != 0)

    delta = 0.02 * L
    g_hi, g0, g_lo = point_density(L + delta), point_density(L), point_density(L - delta)
    gp = (g_hi - g_lo) / (2 * delta)
    gpp = (g_hi - 2 * g0 + g_lo) / delta**2
    corr = term(-g0 * math.sin(h * L - phase), h) - term(gp * math.cos(h * L - phase), h**2)
    return corr, 2 * np.abs(term(gpp, h**3))


def spectral_integral(form, freqs, partial=(0, 0)):
    """Integrate the increment kernel, or one of its h-partials, against a density.

    The kernel is K(h, lambda) = 1 - cos<h, lambda>.  Because the density
    is even in each coordinate, K folds onto the positive orthant as the
    telescoped sum

        sum_a 2 sin^2(h_a lambda_a / 2) prod_{b<a} cos(h_b lambda_b),

    which has no cancellation at small lags, and its partials in h_j fold
    to lambda_j sin(h_j lambda_j) prod_{b!=j} cos(h_b lambda_b) (first)
    and lambda_j^2 prod_b cos(h_b lambda_b) (second).  Every order goes
    through the Laplace engine in any dimension; fbm's are closed forms.

    Parameters
    ----------
    form : LaplaceForm
        The density, as ``models.laplace_form`` writes it; it has
        N = len(form.axes) >= 1 frequency coordinates.
    freqs : array_like
        The lag vector h, shape (N,), finite; or a batch of lags, shape
        (m, N), one per row.
    partial : (axis, order)
        Integrate d^order K / dh_axis^order, with axis in [0, N) and
        order 0, 1 or 2; the default (0, 0) is K itself.

    Returns
    -------
    (value, err) : tuple of floats
        The integral over R^N and its error estimate; for a batch of
        lags, two arrays of shape (m,) whose rows equal the one-lag calls.
        Raw: no tolerance is checked here; public callers hold ``err``
        to their ``QuadratureSpec`` through :func:`certify`.

    Raises
    ------
    ModelError
        On a lag of the wrong shape or with non-finite entries, a
        partial outside the lag's axes or orders, a density that is not
        integrable, or a second partial whose spectral moment diverges.
    """
    freqs = np.asarray(freqs, dtype=float)
    n_dims = len(form.axes)
    axis, order = partial
    axis = check_integer(axis, "axis", 0, n_dims)
    if order not in (0, 1, 2):
        raise ModelError("partial order must be 0, 1 or 2")
    batch = freqs.ndim == 2
    if freqs.shape[batch:] != (n_dims,):
        raise ModelError(f"lag must have shape ({n_dims},)")
    if not np.isfinite(freqs).all():
        raise ModelError("lag must be finite")
    rows = freqs.reshape(-1, n_dims)
    values, errs = np.zeros((2, len(rows)))
    # the increment vanishes at h = 0 and the first partial at h_axis = 0
    live = (rows[:, axis] != 0 if order == 1
            else rows.any(axis=1) | (order == 2)).nonzero()[0]
    # only fbm's weight has no decay (rate 0), and it has closed forms
    engine = _fbm_increment if form.rate == 0 else _laplace_increment
    # a lag whose time scales or transforms leave the float range is
    # refused by name (_refuse), so its overflows and 0/0 warn nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if live.size:
            values[live], errs[live] = engine(form, rows[live], axis, order)
        # a transform whose squares under- or overflow leaves a NaN or an inf
        # (a row left out above holds 0)
        _refuse(rows, np.isfinite(values) & np.isfinite(errs),
                "the value or its error estimate is not finite")
    return (values, errs) if batch else (float(values[0]), float(errs[0]))


# ---------------------------------------------------------------------------
# The Laplace-domain engine.

# Gauss orders of a numeric axis's lambda rule: the value's, and the
# error estimate's, at every other node of the t rule.
_LAMBDA_ORDERS = (12, 7)
# Steps in s = log t of the t rule, for order 0 and for the partials,
# whose integrands change sign in t; at most _T_WIDTH / sqrt(power),
# since the integrand's bump in s narrows like 1 / sqrt(power).
_T_STEPS = (0.25, 0.15)
_T_WIDTH = 0.5
# Relative size of what the small-t power law leaves out at the lower end.
_T_EPS = 1e-9
# e-folds of the weight's e^{-rate t} covered by the t rule.
_T_EFOLDS = 40.0
# Bytes of one work array per block of rows (of the engine's lags x t
# nodes, and of simulate's lattice mass nodes): half of glibc's 128 KB
# mmap threshold.  A t grid longer than one such row is built per call,
# not cached.
_BLOCK_BYTES = 65536
# t values per product on a numeric axis; bounds the (t x lambda nodes)
# work arrays.
_BLOCK_T = 256
# The smallest positive normal float; t0 must reach it.
_TINY = np.finfo(float).tiny
# The most nodes one lag's t rule may hold.  Its step shrinks as
# _T_WIDTH / sqrt(power), so its node count grows like sqrt(power); this
# allows powers up to about 1e7.
_MAX_T_NODES = 2**18
# Rounding charged to the error estimate, per unit of the integrand's
# absolute integral.
_ROUNDING = 64.0 * np.finfo(float).eps


@functools.lru_cache(maxsize=256)
def _unit_rule(levels, cap, order, bottom=False):
    """GL nodes, weights and levels of the ``order``-point rule on the
    panels of [0, 1] that _dyadic_panels(levels, cap, bottom) gives: the
    unit rule a numeric axis scales to its lambda span; read-only, as
    cached."""
    panels = _dyadic_panels(levels, cap, bottom)
    rule = *_inner_axis(panels, _gauss(order)), np.repeat(panels[2], order)
    for a in rule:
        a.setflags(write=False)
    return rule


def _decay_sums(t, axis, lam, weights):
    """e^{-t a(lam)} @ weights, formed _BLOCK_T values of t at a time."""
    a = axis.term(lam)
    return np.concatenate([np.exp(-t[i:i + _BLOCK_T, None] * a) @ weights
                           for i in range(0, len(t), _BLOCK_T)])


def _is_closed(axis):
    """True for a power axis with exponent 1 or 2, whose transforms are closed forms."""
    return axis.kind == "power" and axis.expo in (1.0, 2.0)


def _closed_log_e(axis, log_t):
    """log E of a closed axis (_is_closed): with u = coef * t, E = 1/u for
    exponent 1 and sqrt(pi/u)/2 for exponent 2; ``log_t`` is log t."""
    if axis.expo == 1.0:
        return -math.log(axis.coef) - log_t
    return 0.5 * (math.log(0.25 * math.pi / axis.coef) - log_t)


def _closed_axis(axis, h, t, log_t, moment=None, with_c=True):
    """Two ratios of a closed axis (_is_closed), in closed form.

    With u = coef * t: exponent 1 gives E = 1/u, C = u/(u^2+h^2) and
    D = h^2/(u(u^2+h^2)); exponent 2 gives E = sqrt(pi/u)/2,
    C = E e^{-h^2/4u} and D = -E expm1(-h^2/4u).  Either way C = E - D.
    Without a moment the ratios are C/E and D/E.  With moment k they are
    K_k/E and P_k/E, where K_0 = C, K_1 = -dC/dh and K_2 = -d^2C/dh^2 are
    the transforms of cos(h l), l sin(h l) and l^2 cos(h l), and P_k is
    that of l^k.  Elementwise in h and t; ``log_t`` is log t.  Without
    ``with_c`` a pass that never reads C/E gets None in its place.
    """
    if axis.expo == 1.0:
        if moment is None:
            h2 = h**2
            d_r = h2 / ((axis.coef * t)**2 + h2)
            return 1.0 - d_r if with_c else None, d_r
        u = axis.coef * t
        q = u**2 + h**2
        k_r = u**2 / q
        if moment:
            k_r = (2.0 * h / q if moment == 1 else 2.0 * (u**2 - 3.0 * h**2) / q**2) * k_r
        return k_r, math.factorial(moment) / u**moment
    if moment is None:
        d_r = -np.expm1(h**2 / (-4.0 * axis.coef) / t)
        return 1.0 - d_r if with_c else None, d_r
    u = axis.coef * t
    k_r = np.exp(h**2 / (-4.0 * u))
    if moment:
        k_r = (0.5 * h / u if moment == 1 else (2.0 * u - h**2) / (4.0 * u**2)) * k_r
    if moment == 1:
        return k_r, 0.5 / u * np.exp(-_closed_log_e(axis, log_t))
    return k_r, 0.5 / u if moment else 1.0


def _numeric_axis(axis, lags, t, order, t_lo, t_hi, moment=None):
    """log E, two ratios and the tail error over E of one axis, by the 1-D rule.

    E, C, D, K_k and P_k are the integrals of 1, cos(h l),
    2 sin^2(h l / 2), l^k cos(h l - k pi/2) (l^2 cos for k = 2) and l^k
    against e^{-t a(l)} over l > 0.  The ratios are C/E and D/E without
    a moment and K_k/E and P_k/E with moment k, as in _closed_axis.  One
    product per rule (_decay_sums) covers each row's grid ``t``.  The
    panels reach from where e^{-t_hi a} is flat to lam_hi, where
    e^{-t_lo a} has vanished; beyond L < lam_hi an oscillatory factor is
    replaced by its integration-by-parts terms, and at L = lam_hi by the
    outer mass, charged to err: nothing divides by h.
    """
    shape = (len(lags), len(t))
    out = [np.zeros(shape), np.ones(shape), *np.zeros((2, *shape))]
    inv = 1.0 / axis.growth
    k = moment or 0
    phase = 0.5 * math.pi if k == 1 else 0.0
    # a partial's l^k weight and product of ratios need the longer reach
    reach = 64.0 if moment is None else 256.0
    # numpy powers, so that a bound beyond the floats comes out 0 or inf
    lam_lo = 1e-4 * np.power(axis.coef * t_hi, -inv)
    lam_hi = np.power(60.0 / (axis.coef * t_lo) + axis.shift**axis.expo, inv)
    if not (0.0 < lam_lo and lam_hi < math.inf):
        # a weight flat below the smallest float or lasting beyond the
        # largest leaves every row out of range: refused (_refuse)
        out[0][:] = math.nan
        return out
    for i, h in enumerate(lags):
        L = 64.0 if h == 0 else min(reach / abs(float(h)), lam_hi)
        # a tail whose (0.02 L)^2 overflows leaves the row out of range
        if 1e150 < L < lam_hi:
            out[0][i] = math.nan
            continue
        depth_in = max(1, math.ceil(math.log2(L / lam_lo)))
        depth_out = max(1, math.ceil(math.log2(lam_hi / L)))
        # L times the unit rule, its panels no wider than 10 L / reach:
        # 10 / |h|, the wavelength bound, where L = reach / |h|
        lam_in, w_in = (L * a for a in _unit_rule(depth_in, 10.0 / reach, order, True)[:2])
        lam_out, w_out = _outer_axis(L, *_unit_rule(depth_out, math.inf, order)[:2])
        outer, outer_k = _decay_sums(t, axis, lam_out,
                                     np.stack([w_out, w_out * lam_out**k], axis=1)).T
        weights = [w_in] + ([w_in * lam_in**k] if k else [])
        if h != 0 and moment is None:
            x = h * lam_in
            weights += [w_in * np.cos(x), w_in * (2.0 * np.sin(0.5 * x) ** 2)]
        elif h != 0:
            weights.append(w_in * lam_in**k * np.cos(h * lam_in - phase))
        sums = _decay_sums(t, axis, lam_in, np.stack(weights, axis=1))
        E = sums[:, 0] + outer
        out[0][i] = np.log(E)
        if k:
            out[2][i] = (sums[:, 1] + outer_k) / E
            if h == 0:  # K_2 = P_2; no first partial has h = 0
                out[1][i] = out[2][i]
        if h != 0:
            # where the weight has vanished at L, the outer mass bounds the rest
            corr, err = (_tail_ibp(lambda lam: lam**k * np.exp(-t * axis.term(lam)),
                                   L, h, phase) if L < lam_hi else (0.0, outer_k))
            if moment is None:
                out[1][i] = (sums[:, 1] + corr) / E
                out[2][i] = (sums[:, 2] + outer - corr) / E
            else:
                out[1][i] = (sums[:, -1] + corr) / E
            out[3][i] = err / E
    return out


@functools.lru_cache(maxsize=64)
def _small_t_law(lap, axis, order):
    """(p, log A, h, heads): the small-t power law A t^(p - 1) of the
    kernel (of the second partial at h_axis = 0), the step h of its t rule
    in s = log t, and heads = (H(h), H(2h), 1 / p).  H(s) =
    s (1 / (1 - e^{-p s}) - 1/2) makes g0 H(s) the power law's trapezoid
    sum of step s below t0, where g0 = A t0^p.  ModelError unless the
    density is integrable.  Cached per (form, axis, order)."""
    margin = lap.margin
    if not margin > 0:
        raise ModelError("density is not integrable: its margin gamma - sum(1/beta) "
                         f"= {margin:g} must be positive")
    inv = [1.0 / ax.growth for ax in lap.axes]
    log_lead = _log_pref(lap) + sum(math.lgamma(1.0 + i) - i * math.log(ax.coef)
                                    for i, ax in zip(inv, lap.axes))
    if order == 2:
        # at h_axis = 0, l_axis^2 lowers the power by 2/beta_axis, and
        # P_2/E -> Gamma(3/beta)/Gamma(1/beta) (coef t)^(-2/beta) as t -> 0
        i, ax = inv[axis], lap.axes[axis]
        log_lead += math.lgamma(3.0 * i) - math.lgamma(i) - 2.0 * i * math.log(ax.coef)
        margin -= 2.0 * i
    step = min(_T_STEPS[order > 0], _T_WIDTH / math.sqrt(lap.power))
    # where the power law is not integrable, no row takes it (_check_moments)
    heads = ((*(-s / math.expm1(-margin * s) - 0.5 * s for s in (step, 2.0 * step)),
              1.0 / margin) if margin > 0 else (0.0, 0.0, 0.0))
    return margin, log_lead, step, heads


def _log_pref(lap):
    """log(2^N prefactor / Gamma(power)), the t-independent factor of the weight."""
    return math.log(lap.prefactor) + len(lap.axes) * math.log(2.0) - math.lgamma(lap.power)


def _check_moments(lap, lags, axis, order):
    """ModelError unless the density, and for order 2 with some h_axis = 0 its
    second moment, is integrable; returns _small_t_law(lap, axis, order)."""
    law = _small_t_law(lap, axis, order)
    if not law[0] > 0 and (lags[:, axis] == 0).any():
        raise ModelError(f"the second spectral moment along axis {axis} diverges: "
                         f"{lap.margin:g} must exceed 2/beta = {2.0 / lap.axes[axis].growth:g}")
    return law


def _fbm_increment(lap, lags, axis=0, order=0):
    """_laplace_increment for the rate-0 form (fbm), in closed form.

    With g_j = h_j / sqrt(coef_j), r = |g|, u = g_axis / r and
    H = power - N/2, the partial of order k is
    prefactor r^(2H - k) phi_k / (2 c(H, N) coef_axis^(k/2) prod_j sqrt(coef_j)),
    phi = (1, 2H u, 2H (1 + (2H - 2) u^2)), c from normalize_fbm_constant.
    r = max|g| |g / max|g|| is the only power of |g| formed, so nothing
    leaves the float range before the result.  err: half the result's
    spread over H +- 4 eps power (inside (0, 1)), H carrying the rounding
    of power, plus 16 eps of the result.
    """
    _check_moments(lap, lags, axis, order)
    hurst = lap.power - 0.5 * len(lap.axes)
    if any(ax.kind != "power" or ax.expo != 2.0 for ax in lap.axes) or not hurst < 1:
        raise ModelError("a Laplace weight without decay needs Gaussian axes "
                         "and a margin below 1")
    g = lags / np.sqrt([ax.coef for ax in lap.axes])
    top = np.max(np.abs(g), axis=1)
    r = top * np.linalg.norm(g / top[:, None], axis=1)
    u = g[:, axis] / r
    scale = lap.prefactor / (2.0 * math.prod(math.sqrt(ax.coef) for ax in lap.axes)
                             * lap.axes[axis].coef ** (0.5 * order))

    def result(H):
        phi = (1.0, 2.0 * H * u, 2.0 * H * (1.0 + (2.0 * H - 2.0) * u**2))[order]
        return scale / normalize_fbm_constant(H, len(lap.axes)) * r ** (2.0 * H - order) * phi

    eps = np.finfo(float).eps
    delta = 4.0 * eps * lap.power
    value = result(hurst)
    err = 0.5 * np.abs(result(min(hurst + delta, 0.5 + 0.5 * hurst))
                       - result(max(hurst - delta, 0.5 * hurst))) + 16.0 * eps * np.abs(value)
    return value, err


def _laplace_increment(lap, lags, axis=0, order=0):
    """int_{R^N} K f dlambda through the Laplace form, K the increment kernel
    or its ``order``-th partial in h_axis; the weight must decay (rate > 0).

    One value and error estimate per row h of ``lags`` (none zero for
    order 0, none with h_axis = 0 for order 1).  With
    f = prefactor * int_0^inf m(t) prod_j e^{-t a_j} dt, the telescoped
    kernel turns the integral into

        2^N prefactor int_0^inf m(t) sum_a D_a prod_{b<a} C_b prod_{b>a} E_b dt,

    and the partial of order k into

        2^N prefactor int_0^inf m(t) K_k,axis prod_{b!=axis} C_b dt,

    where E_j, C_j, D_j and K_k,j are the per-axis transforms of 1,
    cos(h_j l), 2 sin^2(h_j l / 2) and l^k sin(h_j l) (k = 1) or
    l^2 cos(h_j l) (k = 2) against e^{-t a_j(l)}.

    The t integral is the trapezoid rule in s = log t of the module
    docstring: nodes t_k = T e^{-k h}, k = 0 ... K, weights h t_k halved
    at both ends, T = (_T_EFOLDS + 2 power) / rate, h from _small_t_law.
    One rule sets t0 = T e^{-K h} for every order: K is the least even
    count that takes it to the dyadic fraction of T below 1e-8 times the
    largest lagged time scale max_j |h_j|^beta_j / coef_j (infinite at
    h = 0), lowered so that rate t0 and each axis shift stay below _T_EPS.

    Below t0 the increment kernel, and the second partial at h = 0, are
    their small-t power law A t^(p - 1), whose trapezoid sum below t0 the
    rule adds: g0 h (1 / (1 - e^{-p h}) - 1/2) with g0 = A t0^p.  The
    deviation |t0 F(t0) - g0| / p bounds the error there (t0 |F(t0)| / p
    where the power law underflows to 0 at t0).  The other partials are
    charged t0 |F(t0)| below t0, which bounds that part because F falls
    off like a positive power of t there: t0 is eight decades below the
    largest lagged time scale, where that axis's ratio (C/E, or K_k/E
    on the partial's own axis) decays like t^(1 + 1/beta) or faster
    (exponentially on a Gaussian axis), every other lagged C/E stays
    within [-1, 1], and the decay outweighs the growth
    t^(margin - 1 - k/beta_axis) of the rest (margin > k/beta_axis
    suffices).

    Above T the weight's e^{-rate t} bounds the rest against the
    decreasing envelope of the integrand (E_b, and P_k for the partial's
    own axis).  The error estimate adds the difference to the same rule
    at step 2h on every other node (where a numeric axis takes its lower
    lambda order), the axes' integration-by-parts error, both end charges
    and _ROUNDING times the step-2h sum of |F|.
    """
    axes = lap.axes
    law = _check_moments(lap, lags, axis, order)
    # Lower end: every neglected relative term (rate t, C/E on the
    # longest-lag axis, the shift of a shifted axis) is below _T_EPS.
    top = functools.reduce(np.maximum, [h ** ax.growth / ax.coef
                                        for h, ax in zip(np.abs(lags).T, axes)])
    t0 = np.minimum(1e-8 * top, _T_EPS / lap.rate)
    if order == 2:
        # only the second partial takes h = 0, whose time scale is infinite
        t0[~lags.any(axis=1)] = _T_EPS / lap.rate
    for ax in axes:
        if ax.kind == "shifted":
            t0 = np.minimum(t0, (_T_EPS / (ax.expo * ax.shift)) ** ax.expo / ax.coef)
    # a time scale |h_j|^beta / coef beyond the float range leaves no t rule
    span = _t_top(lap) / t0
    _refuse(lags, (t0 >= _TINY) & (span < math.inf),
            "a time scale |h_j|^beta / coef of the lag under- or overflows")
    # K from t0's dyadic level below T (span > 2^35, as rate t0 <= _T_EPS):
    # even, so that the rule at step 2h ends on t0 too, and counted for
    # every row before any rule is built
    nodes = 2.0 * np.ceil(np.ceil(np.log2(span)) * (0.5 * math.log(2.0) / law[2]))
    if not nodes.max() < _MAX_T_NODES:
        i = int(np.argmax(nodes >= _MAX_T_NODES))
        raise QuadratureError(f"spectral integral at lag {lags[i].tolist()}: its t rule "
                              f"would hold {nodes[i] + 1.0:.3g} nodes, more than {_MAX_T_NODES}")

    # blocks of rows on one grid, each (rows x t nodes) work array within
    # _BLOCK_BYTES
    value, err = np.empty((2, len(lags)))
    for count in map(int, sorted(set(nodes.tolist()))):
        # a grid longer than a block's row is built for this call alone
        grid = (_t_grid if count < _BLOCK_BYTES // 8 else _t_grid.__wrapped__)(
            lap, count, law[2])
        group = (nodes == count).nonzero()[0]
        step = max(1, _BLOCK_BYTES // (8 * grid.t.size))
        for start in range(0, group.size, step):
            idx = group[start:start + step]
            value[idx], err[idx] = _block_pass(lap, grid, lags[idx], axis, order, law)
    return value, err


def _t_top(lap):
    """The upper end T of the t rule, (_T_EFOLDS + 2 power) / rate."""
    return (_T_EFOLDS + 2.0 * lap.power) / lap.rate


# One t grid.  ``t`` is the rule's nodes T e^{-k h}, k = 0 ... K, then,
# where a numeric axis evaluates them again, every other one; ``lo`` is
# the slice of ``t`` that the rule at step 2h reads, ``w`` and ``w_lo``
# are the weights of the two rules, and ``ends`` is (t0, T).
_TGrid = collections.namedtuple("_TGrid", "t log_t log_f scale folded ends lo w w_lo")


@functools.lru_cache(maxsize=32)
def _t_grid(lap, count, step):
    """The t grid of ``count`` steps of ``step`` in log t down from T, shared
    by every block of rows on it.

    ``log_f`` is the weight's log m(t) + log(2^N prefactor), plus, in axis
    order, log E of each closed axis (_is_closed) up to the first numeric
    one (``folded`` axes); ``scale`` is exp(log_f) when every axis is
    closed, else None.  Read-only, as cached per (form, K, h).
    """
    n = count + 1
    log_t = math.log(_t_top(lap)) - step * np.arange(float(n))
    closed = all(_is_closed(ax) for ax in lap.axes)
    lo = slice(0, n, 2) if closed else slice(n, n + count // 2 + 1)
    log_t = (log_t if closed else np.concatenate([log_t, log_t[::2]]))[None]
    t = np.exp(log_t)
    log_f = _log_pref(lap) + (lap.power - 1.0) * log_t - lap.rate * t
    folded = 0
    for ax in lap.axes:
        if not _is_closed(ax):
            break
        log_f = log_f + _closed_log_e(ax, log_t)
        folded += 1
    scale = np.exp(log_f) if closed else None
    w, w_lo = step * t[0, :n], 2.0 * step * t[0, lo]
    for a in (w, w_lo):
        a[[0, -1]] *= 0.5
    for a in (t, log_t, log_f, scale, w, w_lo):
        if a is not None:
            a.setflags(write=False)
    return _TGrid(t, log_t, log_f, scale, folded, (t[0, count], t[0, 0]), lo, w, w_lo)


def _block_pass(lap, grid, h_rows, axis, order, law):
    """Value and error estimate of each row of ``h_rows`` on one t grid, with
    ``law`` the _small_t_law (_laplace_increment)."""
    axes = lap.axes
    n = len(axes)
    t, log_t, log_f = grid.t, grid.log_t, grid.log_f
    n_t = grid.w.size
    for j, (h, ax) in enumerate(zip(h_rows.T, axes)):
        # a partial's own axis takes its moment, every other axis C (moment 0)
        moment = (order if j == axis else 0) if order else None
        if _is_closed(ax):
            # order 0 reads no carry of its last axis
            c_r, d_r = _closed_axis(ax, h[:, None], t, log_t, moment,
                                    with_c=bool(order) or j < n - 1)
            e_r = 0.0
            if j >= grid.folded:
                log_f = log_f + _closed_log_e(ax, log_t)
        else:
            # the rule's nodes at the value's lambda order, then those of
            # the rule at step 2h at the estimate's
            log_e, c_r, d_r, e_r = (np.concatenate(parts, axis=1) for parts in zip(*(
                _numeric_axis(ax, h, t[0, seg], lam_order, *grid.ends, moment)
                for seg, lam_order in zip((slice(0, n_t), grid.lo), _LAMBDA_ORDERS))))
            log_f = log_f + log_e
        if j == 0:
            ratio, carry, ibp = d_r, c_r, e_r
        elif order == 0:
            ibp = ibp + e_r
            ratio = ratio + carry * d_r
            if j < n - 1:
                carry = carry * c_r
        else:
            if np.ndim(ibp) or np.ndim(e_r):
                # first-order error of the product prod_j (K/E)_j; it
                # stays 0 until the first numeric axis
                ibp = ibp * np.abs(c_r) + np.abs(carry) * e_r
            carry = carry * c_r
        if order and j == axis:
            envelope = d_r
    scale = np.exp(log_f) if grid.scale is None else grid.scale
    F = scale * (carry if order else ratio)
    terms, terms_lo = grid.w * F[:, :n_t], grid.w_lo * F[:, grid.lo]
    value, value_lo = terms.cumsum(axis=1)[:, -1], terms_lo.cumsum(axis=1)[:, -1]
    mass = np.abs(terms_lo).cumsum(axis=1)[:, -1]
    ibp_err = (grid.w * (scale * ibp)[:, :n_t]).cumsum(axis=1)[:, -1] if np.ndim(ibp) else 0.0
    f_hi = F[:, 0] if order == 0 else scale[:, 0] * envelope[:, 0]
    # below t0: the power law's trapezoid sums at both steps, charged with
    # its deviation at t0; a lagged partial takes none, charged t0 |F(t0)|
    lead_power, log_lead, _, (head, head_lo, inv_p) = law
    t0 = grid.ends[0]
    g0 = np.exp(log_lead + lead_power * log_t[0, n_t - 1])
    if order:
        power_law = ~h_rows.any(axis=1)
        g0, inv_p = np.where(power_law, g0, 0.0), np.where(power_law, inv_p, 1.0)
    value = value + g0 * head
    # above T: the envelope G decreases in t, and int_T^inf m <= 2 m(T) / rate
    # because rate T >= 2 (power - 1), so the rest is below 2 G(T) / rate
    err = (np.abs(value - value_lo - g0 * head_lo) + ibp_err
           + np.abs(F[:, n_t - 1] * t0 - g0) * inv_p + (2.0 / lap.rate) * f_hi + _ROUNDING * mass)
    return value, err


def _refuse(lags, ok, reason):
    """QuadratureError naming the first row of ``lags`` not flagged in ``ok``."""
    if not ok.all():
        lag = lags[int(np.argmin(ok))].tolist()
        raise QuadratureError(f"spectral integral at lag {lag} is out of "
                              f"floating-point range: {reason}")
