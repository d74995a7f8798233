"""One-dimensional multiresolution projection and detail operators.

The level-k projector maps a grid function f to

    sum_nu  c_nu phi(2^k . - nu),     c_nu = 2^k integral f(x) phi*(2^k x - nu) dx,

with the shift window computed exactly from support arithmetic, never by
scanning coefficients.  Coefficients follow the 2^k scaling of the analysis
integral (not the L2-normalized 2^(k/2) convention).

Everything is quadrature on the function's own grid: integrals use the cell
rule with generator values at cell midpoints, exact for piecewise-constant
generators.  The row kernels at the bottom operate on stacks of 1-D slices
so the d-dimensional module can reuse them wholesale.

A weighted sum of projections moves between levels in coefficient space
(the fast wavelet transform, :func:`level_sums`).
"""

from __future__ import annotations

import itertools
import os

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import refinable
from .errors import FrameTooLarge, LevelOverflow, ResolutionExhausted
from .gridfn import GridFunction

LEVEL_HEADROOM = 4
# bound on one temporary of the synthesis loop
SCATTER_TILE_BYTES = 1 << 18
# elements in one of the buffers through which einsum casts its operands
EINSUM_BUFFER = 8192
# one synthesised frame may take 1/FRAME_MEMORY_PARTS of physical memory:
# a sweep holds several frames the size of its largest at once
FRAME_MEMORY_PARTS = 6


def _check_level(level, depth):
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > depth - LEVEL_HEADROOM:
        raise LevelOverflow(
            f"level {level} above cap {depth - LEVEL_HEADROOM} at depth {depth}")


def _table(bank, which, gap):
    return refinable.DEFAULT_CACHE.get(bank, which, gap + 1)


def _shift_window(origin_units, size, gap, dual_support):
    """Integer shift window with measure-positive overlap, exact arithmetic."""
    m = 1 << gap
    lo, hi = origin_units, origin_units + size
    a, b = dual_support
    nu_min = (lo - b * m) // m + 1
    nu_max = (hi - a * m - 1) // m
    return nu_min, nu_max


def _gather(rows, first, count, stride, taps):
    """out[:, j] = sum_t rows[:, first + j * stride + t] * taps[t], j < count.

    Entries outside the rows count as zero.  ``np.einsum`` contracts (numpy's
    own loop in a fixed order); ``@`` would hand non-overlapping windows,
    e.g. Haar's, to BLAS, whose last bits depend on the BLAS kernel.  The
    loop is complex even for real rows: it adds the taps in sequence,
    numpy's float64 loop does not.  A row shorter than the window is
    contracted whole against a (count, n) matrix of the taps, zero outside
    each window; otherwise the windows are a strided view of the rows, zero
    padded where they overhang.  Either way each output adds its taps in
    sequence, so both give the same bits -- for complex rows, and for real
    rows whose window fits einsum's cast buffer (EINSUM_BUFFER elements).
    Real rows with a longer window keep the window path: there einsum adds
    the window in buffer-sized parts.
    """
    n = rows.shape[1]
    if n < taps.size and (np.iscomplexobj(rows) or taps.size <= EINSUM_BUFFER):
        k = np.arange(n) - first - stride * np.arange(count)[:, None]
        inside = (k >= 0) & (k < taps.size)
        tap_matrix = np.where(inside, taps.astype(np.complex128)[k * inside], 0)
        out = np.einsum("ix,jx->ij", rows, tap_matrix)
    else:
        pad_l = max(0, -first)
        pad_r = max(0, first + (count - 1) * stride + taps.size - n)
        if pad_l or pad_r:
            rows = np.pad(rows, ((0, 0), (pad_l, pad_r)))
        s0, s1 = rows.strides
        view = as_strided(rows[:, first + pad_l:],
                          shape=(len(rows), count, taps.size),
                          strides=(s0, stride * s1, s1))
        out = np.einsum("ijk,k->ij", view, taps.astype(np.complex128))
    return out if np.iscomplexobj(rows) else np.ascontiguousarray(out.real)


def _scatter(coeffs, taps, stride):
    """out[:, j * stride + t] = sum over j of coeffs[:, j] * taps[t].

    Each cell receives its terms in ascending j.  The loop runs over the
    shorter of j and t: over j it adds a run of all taps per coefficient,
    over t, in descending order, one tap times a run of all coefficients.
    Row tiles keep temporaries under SCATTER_TILE_BYTES where a row fits.
    An output over the frame budget raises FrameTooLarge unallocated.
    """
    rows, count = coeffs.shape
    shape = (rows, (count - 1) * stride + taps.size)
    dtype = np.result_type(coeffs, taps)
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if rows * shape[1] * dtype.itemsize * FRAME_MEMORY_PARTS > phys:
        raise FrameTooLarge(f"a {rows} x {shape[1]} {dtype} frame is over "
                            f"1/{FRAME_MEMORY_PARTS} of physical memory "
                            f"({phys >> 20} MiB)")
    out = np.zeros(shape, dtype=dtype)
    by_shift = count <= taps.size
    tile = max(1, SCATTER_TILE_BYTES // (out.itemsize * max(count, taps.size)))
    for r0 in range(0, rows, tile):
        c, o = coeffs[r0:r0 + tile], out[r0:r0 + tile]
        if by_shift:
            for j in range(count):
                o[:, j * stride:j * stride + taps.size] += c[:, j:j + 1] * taps
        else:
            for t in range(taps.size - 1, -1, -1):
                o[:, t:t + (count - 1) * stride + 1:stride] += c * taps[t]
    return out


def analyze_rows(rows, origin, depth, level, bank):
    """Coefficient rows for a stack of 1-D slices sharing one box.

    rows has shape (nslices, n); returns (coeff rows, first shift).  Each
    coefficient is the cell-rule sum of a window of a row against the dual
    midpoint samples.
    """
    gap = depth - level
    dual = bank.dual
    t = _table(bank, "dual", gap).midpoint_samples(gap)
    m = 1 << gap
    nu_min, nu_max = _shift_window(origin, rows.shape[1], gap, dual.support)
    coeffs = _gather(rows, (nu_min + dual.n_first) * m - origin,
                     nu_max - nu_min + 1, m, t)
    coeffs /= m
    return coeffs, nu_min


def synthesize_rows(coeffs, shift_first, level, bank, depth):
    """Pointwise sums sum_nu c_nu phi(2^level x - nu) on a depth-J grid.

    Returns (rows, origin in grid units); the box is the union of the
    shifted, scaled supports.
    """
    gap = depth - level
    if gap < LEVEL_HEADROOM:
        raise ResolutionExhausted(
            f"depth {depth} leaves gap {gap} < {LEVEL_HEADROOM} at level {level}")
    primal = bank.primal
    u = _table(bank, "primal", gap).midpoint_samples(gap)
    m = 1 << gap
    return (_scatter(coeffs, u, m),
            (shift_first + primal.n_first) * m)


def level_sums(rows, origin, depth, weight_vectors, bank):
    """sum_k w[k] E_k of one stack of rows, for each weight vector w in turn.

    One analysis at the highest weighted level, then down-steps
    c_nu = 2^(-1/2) sum_n h*_n c'_(2 nu + n) with the dual mask h*, each
    kept to the shift window of a direct analysis at its level.  Each sum
    is built by Horner's scheme in coefficient space, with up-steps
    d_mu = 2^(1/2) sum_nu c_nu h_(mu - 2 nu) of the primal mask h, and
    synthesised once at the top level.  Yields (rows, origin) per vector.
    """
    levels = [k for w in weight_vectors for k, x in enumerate(w) if x]
    bottom, top = min(levels), max(levels)
    _check_level(top, depth)
    dual, primal = bank.dual, bank.primal
    pyramid = [analyze_rows(rows, origin, depth, top, bank)]
    n = rows.shape[1]
    del rows  # read only by the top analysis; the caller may free them
    for level in range(top - 1, bottom - 1, -1):
        coeffs, first = pyramid[0]
        nu_min, nu_max = _shift_window(origin, n, depth - level,
                                       dual.support)
        pyramid.insert(0, (_gather(coeffs, 2 * nu_min + dual.n_first - first,
                                   nu_max - nu_min + 1, 2,
                                   dual.array() / refinable.SQRT2), nu_min))
    for weights in weight_vectors:
        acc = None
        for (coeffs, first), w in itertools.zip_longest(
                pyramid, weights[bottom:top + 1], fillvalue=0.0):
            if acc is None:
                if w:
                    acc = (coeffs if w == 1.0 else w * coeffs, first)
                continue
            acc = (_scatter(acc[0], refinable.SQRT2 * primal.array(), 2),
                   2 * acc[1] + primal.n_first)
            if w:
                # the refined window holds this level's (supports overlap)
                lo = first - acc[1]
                acc[0][:, lo:lo + coeffs.shape[1]] += w * coeffs
        yield synthesize_rows(*acc, top, bank, depth)


def _require_1d(f):
    if f.dim != 1:
        raise ValueError(f"expected a 1-D grid function, got dimension {f.dim}")


def project(f, level, bank):
    """Projection onto the span of the level-k shifts (analysis + synthesis)."""
    _require_1d(f)
    _check_level(level, f.depth)
    refinable.ensure_accepted(bank)
    coeffs, nu_min = analyze_rows(f.data[None, :], f.origin[0], f.depth,
                                  level, bank)
    rows, origin = synthesize_rows(coeffs, nu_min, level, bank, f.depth)
    return GridFunction(rows[0], f.depth, (origin,))


def detail(f, level, bank):
    """Difference of consecutive projections; level 0 is the projection itself."""
    if level == 0:
        return project(f, 0, bank)
    return project(f, level, bank) - project(f, level - 1, bank)
