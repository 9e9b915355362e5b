"""Seeded spectral synthesis of fields with stationary increments.

A realization is assembled from a frequency lattice as

    X(t) = sum_k sqrt(2 F_k) [ (cos<t, lambda_k> - 1) xi_k + sin<t, lambda_k> eta_k ]

with xi_k, eta_k independent standard normals, F_k the spectral mass of
cell k, and lambda_k a representative frequency inside the cell.  Every
term vanishes at t = 0, so realizations are pinned exactly, and the sum
telescopes to stationary increments with

    E X(t)^2 = 4 sum_k F_k (1 - cos<t, lambda_k>),

a Riemann approximation of the variogram.  The lattice per axis covers
(0, Lambda] by dyadic octaves each split into equal cells, so cell width
scales with frequency.  Lambda starts from an oversampled grid Nyquist
and is then raised per axis to where every axis reaches the same level
a_j(Lambda_j) of its axis term in the density's Laplace form, solved in
closed form by the axis's inverse; without that, anisotropic models lose
the part of the high-frequency marginal that spreads along the flatter
axes and small-lag increment variance comes out biased low.  The cell
width matters: spectral mass follows a power law, and a cell of width w at
frequency l contributes jitter noise proportional to f(l) * w^2, which
is constant per cell only when w is proportional to l.  A uniform
partition would need the finest width everywhere and two orders of
magnitude more cells for the same fidelity at domain-scale lags.  Cell
masses come from small Gauss-Legendre rules; representatives are
jittered uniformly inside their cell (one draw per axis cell, shared
across channels) so that no grid lag can align with cell spacing.  Only
the half-space lambda_0 > 0 is enumerated; the mirror cells are folded
into the masses.

Both the lattice and the grid are tensor products, so the sum factors
axis by axis.  With C_k = sqrt(2 F_k) (xi_k + i eta_k) and per-axis
phases theta_a = t_a lambda_a, the telescoped identity

    e^{-i sum_a theta_a} - 1 = sum_a (e^{-i theta_a} - 1) prod_{b<a} e^{-i theta_b}

turns X(t) = Re sum_k C_k (e^{-i<t, lambda_k>} - 1) into one term per
axis, each a chain of complex contractions of C with per-axis tables of
e^{-i theta} - 1.  Every term carries the factor e^{-i theta_a} - 1,
which the tables hold exactly 0 at t_a = 0, so the origin stays pinned.

The work is arranged to touch little fresh memory.  Cell masses are
integrated over blocks of first-axis cells whose work arrays stay on
the heap, with the same values as one pass over the whole node grid.
The tables come from angle addition: with k = B q + r (B = 8),
e^{-i k s lambda} = e^{-i B q s lambda} e^{-i r s lambda}, so an axis of
n points needs complex exponentials of about n/B + B rows rather than n.

Randomness is counter-based: channel c of seed s draws its coefficients
from an independent stream keyed (s, c), and the jitter stream has its
own key, so any channel can be regenerated alone.

Since a channel's draws depend on its key alone, one helper thread makes
them while the caller integrates the lattice masses, builds the trig
tables and evaluates the channel before (numpy draws without holding
the GIL).  It fills a ring of two preallocated buffers in channel order
and refills a buffer once the amplitudes have been applied to its
draws.  Evaluation stays in channel order on the calling thread, so the
values do not depend on the helper, the core count or the scheduling.
The helper is stopped and joined before the call returns or raises.
"""

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import ModelError
from .kriging import _factor_with_jitter
from .models import check_integer, laplace_form, model_to_dict, smoothness_exponents
from .quadrature import _BLOCK_BYTES, _gauss
from .variogram import VariogramTable, gneiting_covariance, gneiting_to_dict

_MAX_GRID_POINTS = 2**20
# Grid points times channels of one output: 512 MB of float64.
_MAX_FIELD_VALUES = 2**26
_MAX_CELLS = 2**22
_MAX_MASS_NODES = 2**24
_JITTER_KEY = 0x6A177E12
_DENSE_LIMIT = 4096
# Lattice cutoff over the grid Nyquist, for rough fields (some H_j < 1)
# and for smooth ones.
_OVERSAMPLE_ROUGH, _OVERSAMPLE_SMOOTH = 64.0, 8.0
# Dyadic depth of the lattice below the cutoff; the per-axis cell budget
# is divided evenly across the octaves.
_OCTAVES = 24
# Gauss-Legendre order per axis and cell of the lattice masses.
_MASS_NODES = 3
# Rows per block of the angle-addition trig tables of the synthesis.
_ANGLE_BLOCK = 8


@dataclass(frozen=True)
class Grid:
    """Rectangular evaluation grid: origin + spacing * index per axis."""

    origin: tuple
    spacing: tuple
    shape: tuple

    def __post_init__(self):
        origin = tuple(float(v) for v in self.origin)
        spacing = tuple(float(v) for v in self.spacing)
        shape = tuple(check_integer(v, "grid shape entry", 1) for v in self.shape)
        if not len(origin) == len(spacing) == len(shape):
            raise ModelError("origin, spacing, and shape must have equal length")
        if not origin:
            raise ModelError("grid needs at least one axis")
        if any(not np.isfinite(v) for v in origin):
            raise ModelError("grid origin must be finite")
        if any(v <= 0 or not np.isfinite(v) for v in spacing):
            raise ModelError("grid spacing must be positive and finite")
        n = math.prod(shape)
        if n > _MAX_GRID_POINTS:
            raise ModelError(f"grid has {n} points, above the {_MAX_GRID_POINTS} cap")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "shape", shape)

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def npoints(self):
        return math.prod(self.shape)

    def axis_coords(self, axis):
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])

    def points(self):
        """All grid points as an (npoints, ndim) array in row-major order."""
        axes = [self.axis_coords(j) for j in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class FieldSample:
    """Realized field values over a grid, one channel per copy."""

    grid: Grid
    values: np.ndarray
    seed: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[:-1] != self.grid.shape:
            raise ModelError("values must have shape grid.shape + (channels,)")
        if vals.shape[-1] < 1:
            raise ModelError("a field needs at least one channel")
        if not np.all(np.isfinite(vals)):
            raise ModelError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def nchannels(self):
        return self.values.shape[-1]


def _axis_partition(cutoff, per, octaves):
    """Cell edges on (0, cutoff]: `octaves` dyadic shells of `per` cells each."""
    edges = [cutoff * 2.0 ** (-octaves)]
    for o in range(octaves, 0, -1):
        bot = cutoff * 2.0 ** (-o)
        edges.extend(np.linspace(bot, 2.0 * bot, per + 1)[1:])
    edges = np.asarray(edges)
    edges.setflags(write=False)  # cached by _partitions
    return edges[:-1], edges[1:]


def _gauss_nodes(lo, hi, order):
    """Per-cell Gauss-Legendre nodes and weights, shape (cells, order)."""
    x, w = _gauss(order)
    half = 0.5 * (hi - lo)
    nodes = lo[:, None] + half[:, None] * (x[None, :] + 1.0)
    weights = half[:, None] * w[None, :]
    return nodes, weights


def _cell_masses(form, partitions):
    """Spectral mass of every positive-orthant cell, via tensor quadrature.

    Runs over blocks of first-axis cells whose work arrays stay at half of
    glibc's 128 KB mmap threshold or less, so they are recycled from the
    heap rather than page-faulted in afresh; every value is computed
    exactly as over the whole node grid at once.
    """
    nodes, weights = zip(*(_gauss_nodes(lo, hi, _MASS_NODES) for lo, hi in partitions))
    n = len(nodes)

    def spread(vec, j):
        return vec.reshape((1,) * j + (vec.size,) + (1,) * (n - j - 1))

    cells = [lo.size for lo, _ in partitions]
    row = _MASS_NODES * math.prod(c * _MASS_NODES for c in cells[1:])
    step = max(1, _BLOCK_BYTES // (8 * row))
    # fold the quadrature axis of each (cells, order) block
    block_shape = [-1, _MASS_NODES]
    for c in cells[1:]:
        block_shape.extend([c, _MASS_NODES])
    fold = tuple(range(1, 2 * n, 2))
    masses = np.empty(cells)
    for start in range(0, cells[0], step):
        block = slice(start, start + step)
        wgt = spread(weights[0][block].ravel(), 0)
        for j in range(1, n):
            wgt = wgt * spread(weights[j].ravel(), j)
        lam = [spread(v[block].ravel() if j == 0 else v.ravel(), j)
               for j, v in enumerate(nodes)]
        masses[block] = (form.density(lam) * wgt).reshape(block_shape).sum(axis=fold)
    return masses


def _per_octave(lattice):
    """Cells per octave of a `lattice`-cell budget over _OCTAVES octaves."""
    return max(1, -(-lattice // _OCTAVES))


@functools.lru_cache(maxsize=8)
def _partitions(cutoffs, extensions, lattice):
    """Per-axis cell edges: `lattice` cells over _OCTAVES octaves below the
    cutoff, and as many per octave on the axis's extra octaves; read-only,
    as cached."""
    per = _per_octave(lattice)
    return tuple(_axis_partition(c, per, _OCTAVES + ext) for c, ext in zip(cutoffs, extensions))


@functools.lru_cache(maxsize=8)
def _masses(model, cutoffs, extensions, lattice):
    """Cell masses of the lattice; read-only, as cached."""
    masses = _cell_masses(laplace_form(model), _partitions(cutoffs, extensions, lattice))
    masses.setflags(write=False)
    return masses


def _representatives(partitions, seed):
    """One uniform draw inside every axis cell, from the jitter stream."""
    rng = Generator(Philox(key=(seed, _JITTER_KEY)))
    return [lo + rng.random(lo.size) * (hi - lo) for lo, hi in partitions]


def _signed_axes(reps, masses):
    """Mirror every axis but the first; mass is even per axis."""
    axes = [reps[0]]
    masses = np.asarray(masses)
    for j in range(1, len(reps)):
        axes.append(np.concatenate([reps[j], -reps[j]]))
        masses = np.concatenate([masses, masses], axis=j)
    return axes, masses


_MAX_EXTENSION_OCTAVES = 40


def _axis_cutoffs(model, base):
    """Equalize the density level the truncation reaches on every axis.

    Anisotropic densities spread the mass near one axis's cutoff across
    the other axes up to the same level set of the axis-term sum;
    cutting those axes at their own grid Nyquist loses most of that
    marginal and biases small-lag increment variance low.  The level of
    axis j at a cutoff is its increment a_j of the Laplace form, so each
    axis below the top level s_max is cut where a_j = s_max, solved in
    closed form (``LaplaceAxis.inverse``) and capped at
    2^_MAX_EXTENSION_OCTAVES times its base.  Returns per-axis cutoffs
    >= base together with the number of extra dyadic octaves each axis
    needs so low-frequency coverage stays put.
    """
    axes = laplace_form(model).axes
    levels = [float(ax.term(b)) for ax, b in zip(axes, base)]
    s_max = max(levels)
    cap = 2.0**_MAX_EXTENSION_OCTAVES
    # an inverse beyond the floats comes out inf, and the cap takes over
    with np.errstate(over="ignore", divide="ignore"):
        cutoffs = tuple(b if level == s_max else min(float(ax.inverse(s_max)), cap * b)
                        for ax, b, level in zip(axes, base, levels))
    return cutoffs, tuple(math.ceil(math.log2(c / b)) for c, b in zip(cutoffs, base))


def _lattice_plan(model, grid, lattice):
    """Cutoffs, extra octaves and cell counts per axis, and the metadata.

    Refuses an oversized lattice before anything is built: each axis has
    as many cells as _partitions gives it, and every axis but the first
    is mirrored.
    """
    rough = min(smoothness_exponents(model).h) < 1.0
    oversample = _OVERSAMPLE_ROUGH if rough else _OVERSAMPLE_SMOOTH
    base = [oversample * np.pi / s for s in grid.spacing]
    cutoffs, extensions = _axis_cutoffs(model, base)
    cells = [_per_octave(lattice) * (_OCTAVES + ext) for ext in extensions]
    total = math.prod(c * _MASS_NODES for c in cells)
    if total > _MAX_MASS_NODES:
        raise ModelError(
            f"frequency lattice needs {total} quadrature nodes, above the "
            f"{_MAX_MASS_NODES} memory cap; lower the lattice size")
    n_cells = math.prod(cells) * 2 ** (len(cells) - 1)
    if n_cells > _MAX_CELLS:
        raise ModelError(
            f"frequency lattice has {n_cells} cells, above the {_MAX_CELLS} "
            "memory cap; lower the lattice size or the dimension")
    return cutoffs, extensions, cells, {"oversample": oversample, "freq_cutoffs": cutoffs}


def _lattice(model, cutoffs, extensions, lattice, seed):
    """Signed axis representatives and cell masses of a planned lattice."""
    masses = _masses(model, cutoffs, extensions, lattice)
    reps = _representatives(_partitions(cutoffs, extensions, lattice), seed)
    return _signed_axes(reps, masses)


class _DrawRing:
    """Each channel's normals, drawn ahead on one helper thread.

    The helper fills a ring of two buffers in channel order, channel c
    into slot c % 2, and waits for a slot to come back before reusing
    it.  Leaving the context stops and joins the helper whatever raised;
    an exception in the helper reaches the caller at scale().
    """

    def __init__(self, seed, shape, channels):
        self._slots = np.empty((2,) + shape)
        self._free, self._ready = threading.Semaphore(2), threading.Semaphore(0)
        self._stop, self._error = False, None
        self._thread = threading.Thread(target=self._draw, args=(seed, channels),
                                        daemon=True)

    def _draw(self, seed, channels):
        try:
            for c in range(channels):
                self._free.acquire()
                if self._stop:
                    return
                Generator(Philox(key=(seed, c))).standard_normal(out=self._slots[c % 2])
                self._ready.release()
        except BaseException as exc:  # handed to the caller at scale()
            self._error = exc
            self._ready.release()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop = True
        self._free.release()
        self._thread.join()

    def scale(self, c, amp, coef):
        """amp (xi + i eta) from channel c's draws, into coef; frees the slot."""
        self._ready.acquire()
        if self._error is not None:
            raise self._error
        # a slot's trailing (xi, eta) float64 pair is laid out as one complex128
        np.multiply(amp, self._slots[c % 2].view(complex)[..., 0], out=coef)
        self._free.release()


def _active_axes(grid):
    return [j for j in range(grid.ndim)
            if grid.shape[j] > 1 or grid.origin[j] != 0.0]


def _contract(table, x, axis):
    """Apply an (n, K) table along `axis` of x by GEMMs; the axes
    before and after `axis` merge into one stride each, so BLAS reads x in
    place."""
    lead, rest = math.prod(x.shape[:axis]), math.prod(x.shape[axis + 1:])
    if rest == 1:
        out = x.reshape(lead, -1) @ table.T
    else:
        out = table @ x.reshape(lead, -1, rest)
    return out.reshape(x.shape[:axis] + table.shape[:1] + x.shape[axis + 1:])


def _trig_table(grid, axis, lam):
    """e^{-i t lam} - 1 for the coordinates t of a grid axis, shape (points, cells).

    Angle addition: with origin o, spacing s and k = B q + r, the phase of
    point k is B q s lam + (o + r s) lam, so about n/B + B rows of complex
    exponentials give the whole table by one broadcast product.  Rows at a
    coordinate of exactly 0 are set to 0 so the origin stays pinned.
    """
    n, s, o = grid.shape[axis], grid.spacing[axis], grid.origin[axis]
    coarse = np.exp(-1j * np.multiply.outer(s * np.arange(0, n, _ANGLE_BLOCK), lam))
    fine = np.exp(-1j * np.multiply.outer(o + s * np.arange(min(n, _ANGLE_BLOCK)), lam))
    table = (coarse[:, None] * fine).reshape(-1, lam.size)[:n] - 1.0
    table[grid.axis_coords(axis) == 0.0] = 0.0
    return table


def _evaluate(tables, coef):
    """Re sum_k coef_k (e^{-i<t, lambda_k>} - 1) over the grid.

    tables holds one e^{-i theta} - 1 table per axis, each of shape
    (points, cells) over the axis's signed cells; coef is complex with one
    axis per table.  Term a of the telescoped sum sums the axes above a,
    contracts axis a with e^{-i theta} - 1 and the axes below it with
    e^{-i theta}, that is with e^{-i theta} - 1 plus the sum over the
    cells, and keeps the real part.
    """
    ndim = len(tables)
    out = np.zeros(())
    for a in reversed(range(ndim)):
        if a < ndim - 1:
            coef = coef.sum(axis=a + 1)
        c = coef
        for b in reversed(range(a + 1)):
            c_b = c
            c = _contract(tables[b], c_b, b)
            if b < a:
                c += c_b.sum(axis=b, keepdims=True)
        term = c.real.reshape(c.shape + (1,) * (ndim - 1 - a))
        out = term if a == ndim - 1 else out + term
    return out


def multi_copy_field(model, grid, lattice=4096, channels=1, seed=0):
    """Synthesize `channels` independent copies of the field over a grid.

    Parameters
    ----------
    model : SpectralModel
        Legitimate spectral model; its dimension must match the grid.
    grid : Grid
        Evaluation grid.
    lattice : int
        Frequency cells per axis, divided across the 24 dyadic octaves
        below the cutoff; at least 16.
    channels : int
        Number of independent copies, each from its own random stream.
    seed : int
        Base seed; (seed, channel) keys the coefficient stream.

    Returns
    -------
    FieldSample
        Values of shape grid.shape + (channels,), exactly zero wherever
        the grid point is the origin.
    """
    seed = check_integer(seed, "seed", 0, 2**63)
    if model.dims != grid.ndim:
        raise ModelError(f"model has {model.dims} axes, grid has {grid.ndim}")
    lattice = check_integer(lattice, "lattice size", 16)
    channels = check_integer(channels, "channel count", 1)
    values = grid.npoints * channels
    if values > _MAX_FIELD_VALUES:
        raise ModelError(
            f"field has {values} values ({grid.npoints} points x {channels} "
            f"channels), above the {_MAX_FIELD_VALUES} memory cap")
    cutoffs, extensions, cells, info = _lattice_plan(model, grid, lattice)
    active = _active_axes(grid)
    # one normal pair per signed cell of the active axes
    shape = tuple(cells[j] * (2 if j else 1) for j in active) + (2,)
    with _DrawRing(seed, shape, channels) as ring:
        axes, masses = _lattice(model, cutoffs, extensions, lattice, seed)
        n_cells = int(masses.size)
        inactive = tuple(j for j in range(len(axes)) if j not in active)
        if inactive:
            # axes the grid never leaves contribute a constant (zero) phase,
            # so their cells fold into one normal draw of the summed mass
            masses = np.asarray(masses.sum(axis=inactive))  # 0-d if every axis is
        # signed or summed masses are a fresh array: form amp in place
        amp = np.multiply(masses, 2.0, out=masses if masses.flags.writeable else None)
        np.sqrt(amp, out=amp)
        tables = [_trig_table(grid, j, axes[j]) for j in active]
        # one channel at a time: BLAS rounding depends on the GEMM shape, so
        # channels as GEMM columns would let the channel count move the bits
        out = np.empty(tuple(grid.shape[j] for j in active) + (channels,))
        coef = np.empty(amp.shape, complex)
        for c in range(channels):
            ring.scale(c, amp, coef)
            out[..., c] = _evaluate(tables, coef)

    meta = {"method": "spectral-lattice", "lattice": lattice,
            "n_cells": n_cells, "jitter": True,
            "model": model_to_dict(model), **info}
    return FieldSample(grid=grid, values=out.reshape(grid.shape + (channels,)),
                       seed=seed, metadata=meta)


def sample_field(model, grid, lattice=4096, seed=0):
    """Single-copy convenience wrapper around multi_copy_field."""
    return multi_copy_field(model, grid, lattice, 1, seed)


def sample_stationary_exact(gm, grid, seed=0, pin_origin=False):
    """Exact dense-Cholesky draw from a Gneiting space-time covariance.

    Grid axes are the d spatial coordinates followed by time.  With
    pin_origin the draw is shifted by its value at the origin, giving a
    field with X(0) = 0.  The covariance is factored as kriging factors
    it, unjittered first; the jitter applied is in the metadata.

    On fine grids the covariance is numerically singular, and the
    trailing columns of its factor are set by rounding: such a draw
    depends on the last decades of the jitter (1e-10 against 1e-12 of
    the diagonal moved a ``GneitingModel(d=1)`` draw on a 30x30 grid of
    step 0.05 by 22 % of its largest magnitude) and on the LAPACK build.
    Seeded draws repeat on one installation only.
    """
    seed = check_integer(seed, "seed", 0, 2**63)
    if grid.ndim != gm.d + 1:
        raise ModelError(f"grid must have {gm.d + 1} axes (space then time)")
    if grid.npoints > _DENSE_LIMIT:
        raise ModelError(f"dense sampling is capped at {_DENSE_LIMIT} points")
    points = grid.points()
    origin_row = None
    if pin_origin:
        at_zero = np.flatnonzero(np.all(points == 0.0, axis=1))
        if at_zero.size:
            origin_row = int(at_zero[0])
        else:
            points = np.vstack([points, np.zeros(grid.ndim)])
            origin_row = points.shape[0] - 1
    # a block of rows at a time, so no (n, n, d) lag array is formed
    n = len(points)
    cov = np.empty((n, n))
    step = max(1, _BLOCK_BYTES // (8 * n * gm.d))
    for start in range(0, n, step):
        rows = points[start:start + step, None]
        cov[start:start + step] = gneiting_covariance(
            gm, rows[..., :gm.d] - points[:, :gm.d], rows[..., gm.d] - points[:, gm.d])
    chol, applied = _factor_with_jitter(cov)
    rng = Generator(Philox(key=(seed, 0)))
    draw = chol @ rng.standard_normal(cov.shape[0])
    if pin_origin:
        draw = draw - draw[origin_row]
        draw = draw[: grid.npoints]
    meta = {"method": "dense-cholesky", "jitter": applied,
            "pinned": bool(pin_origin), "model": gneiting_to_dict(gm)}
    return FieldSample(grid=grid, values=draw.reshape(grid.shape + (1,)),
                       seed=seed, metadata=meta)


def empirical_variogram(fs, axis, max_lag):
    """Average squared increments along a grid axis, per integer lag.

    Averages run over every valid start point and every channel.  The
    table flags lags built from fewer than 30 pairs when the sample has
    a single channel, since those averages are noisy.
    """
    axis = check_integer(axis, "axis", 0, fs.grid.ndim)
    max_lag = check_integer(max_lag, "max_lag", 1, fs.grid.shape[axis])
    vals = np.moveaxis(fs.values, axis, 0)
    lags = np.zeros((max_lag, fs.grid.ndim))
    means = []
    errs = []
    sparse = False
    for ell in range(1, max_lag + 1):
        sq = (vals[ell:] - vals[:-ell]) ** 2
        sq = sq.ravel()
        if fs.nchannels == 1 and sq.size < 30:
            sparse = True
        lags[ell - 1, axis] = ell * fs.grid.spacing[axis]
        means.append(float(sq.mean()))
        errs.append(float(sq.std(ddof=1) / np.sqrt(sq.size)) if sq.size > 1 else 0.0)
    meta = {"axis": axis, "channels": fs.nchannels, "seed": fs.seed,
            "sparse_pairs": sparse}
    return VariogramTable(model_id="empirical", lags=lags,
                          values=tuple(means), errs=tuple(errs), meta=meta)
