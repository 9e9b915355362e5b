"""Tensor-product quadrature for spectral integrals on R^N.

Evaluates integrals of the form

    int_{R^N} K(h, lambda) f(lambda) dlambda,

where f is even in each coordinate and K is the increment kernel
1 - cos<h, lambda> or its first or second partial in one lag coordinate
h_j.  Evenness reduces each of these to a sum of products of per-axis
factors (cosines, sines and 2 sin^2 half-angle terms), so the integral
folds onto the positive orthant with weight 2^N and every term is one
multilinear contraction of the density tensor.

Each axis is split at a truncation point L.  The inner interval [0, L]
is covered by dyadically graded Gauss-Legendre panels (the grading
resolves the power-law behaviour of the density near the origin), with
panel widths additionally capped by the local oscillation wavelength.
The outer interval (L, inf) is mapped to u in (0, 1] via lambda = L/u and
integrated on its own graded panels; this captures the non-oscillatory
tail mass essentially exactly.  Oscillatory factors that the outer
grids cannot resolve are replaced by their means (1 for the sin^2 factor,
0 for cosines and sines) and the dropped part is charged to the error
estimate, except in one dimension where two integration-by-parts
boundary terms are added instead.

The error estimate combines that tail charge with the difference between
two Gauss orders on identical panels.  All node orderings are fixed, so
results are bit-stable for fixed inputs.
"""

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

    Parameters
    ----------
    truncation : float or None
        Half-width L of the resolved frequency cube.  None selects
        L = 64 * max(1, 1/min nonzero |h_j|), capped at 1e4.
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
    and lambda_j^2 prod_b cos(h_b lambda_b) (second).

    Parameters
    ----------
    parts : DensityParts
        Callables describing the density as
        f(lambda) = outer_map(sum_j axis_term(j, |lambda_j|)).
    n_dims : int
        Number of frequency coordinates N (1 to 3 supported).
    freqs : array_like
        The lag vector h, shape (N,), finite.
    quad : QuadratureSpec, optional
    partial : (axis, order)
        Integrate d^order K / dh_axis^order, with axis in [0, N) and
        order 0, 1 or 2; the default (0, 0) is K itself.

    Returns
    -------
    (value, err) : tuple of floats
        The integral over R^N and a combined tail plus discretization
        error estimate.

    Raises
    ------
    ModelError
        On a lag of the wrong shape or with non-finite entries, or a
        partial outside the lag's axes or orders.
    QuadratureError
        If the inner tensor grid exceeds the supported node count.
    """
    quad = quad or QuadratureSpec()
    freqs = np.asarray(freqs, dtype=float)
    if n_dims not in _DEPTH:
        raise ModelError("quadrature supports 1 to 3 dimensions")
    if freqs.shape != (n_dims,):
        raise ModelError(f"lag must have shape ({n_dims},)")
    if not np.all(np.isfinite(freqs)):
        raise ModelError("lag must be finite")
    axis, order = partial
    if not (isinstance(axis, (int, np.integer)) and 0 <= axis < n_dims):
        raise ModelError(f"axis must be an integer in [0, {n_dims})")
    if order not in (0, 1, 2):
        raise ModelError("partial order must be 0, 1 or 2")
    if order == 0:
        terms = [("c",) * a + ("s2",) + ("1",) * (n_dims - a - 1)
                 for a in range(n_dims) if freqs[a] != 0]
    else:
        own = "s" if order == 1 else "c"
        terms = [tuple(own if b == axis else "c" for b in range(n_dims))]
    if not terms:
        return 0.0, 0.0

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
