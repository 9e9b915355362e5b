"""The tensor-product rule that integrated 1-D models and the partials
before every spectral integral moved to the Laplace engine; kept as an
independent oracle for the engine.

Each axis splits at a truncation point L.  The inner interval [0, L] is
covered by dyadically graded Gauss-Legendre panels with widths capped by
the local oscillation wavelength; the outer interval (L, inf) is mapped
to u in (0, 1] via lambda = L/u.  Oscillatory factors that the outer
grids cannot resolve are replaced by their means (1 for the sin^2
factor, 0 for cosines and sines) and the dropped part is charged to the
error estimate, except in one dimension where two integration-by-parts
boundary terms are added instead.  Limited to N <= 3 and to 2^24 nodes.

The truncation L and the per-axis panel budget are this rule's own
arguments; the engine derives its numeric-axis rule from the lag.
"""

import itertools
import math

import numpy as np

from anisofield.errors import QuadratureError
from anisofield.quadrature import _dyadic_panels, _inner_axis, _outer_axis, _tail_ibp

# Dyadic grading depth (octaves below the truncation point / below u = 1)
# and Gauss-Legendre orders per dimension count.  The low order feeds the
# discretization error estimate.
_DEPTH = {1: 54, 2: 46, 3: 32}
_ORDER_HI = {1: 12, 2: 12, 3: 6}
_ORDER_LO = {1: 7, 2: 7, 3: 4}

_MAX_TENSOR_NODES = 2**24


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


def tensor_integral(form, freqs, axis=0, order=0, truncation=None, panels=256):
    """``spectral_integral(form, freqs, partial=(axis, order))`` by the
    tensor rule, for one lag in N <= 3; (value, err).  ``truncation``
    None selects ``auto_truncation(freqs)``; ``panels`` is the per-axis
    panel budget."""
    n_dims = freqs.size
    if order == 0:
        terms = [("c",) * a + ("s2",) + ("1",) * (n_dims - a - 1)
                 for a in range(n_dims) if freqs[a] != 0]
    else:
        own = "s" if order == 1 else "c"
        terms = [tuple(own if b == axis else "c" for b in range(n_dims))]

    L = truncation if truncation is not None else auto_truncation(freqs)
    depth = _DEPTH[n_dims]
    grids = [_inner_panels(L, freqs[a], panels, depth) for a in range(n_dims)]

    def one_pass(gauss_order):
        rule = np.polynomial.legendre.leggauss(gauss_order)
        axes_in = [_inner_axis(p, rule) for p in grids]
        axis_out = _outer_axis(L, *_inner_axis(_dyadic_panels(depth, math.inf), rule))
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
            F = form.density([_bshape(lam[a], a, n_dims) for a in range(n_dims)])
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
                    return form.density([x]) * x**order
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
