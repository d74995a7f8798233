"""One-dimensional multiresolution row kernels: analysis, synthesis and
weighted level sums.

The level-k projector maps a grid function f to

    sum_nu  c_nu phi(2^k . - nu),     c_nu = 2^k integral f(x) phi*(2^k x - nu) dx,

with the shift window computed exactly from support arithmetic, never by
scanning coefficients.  Coefficients follow the 2^k scaling of the analysis
integral (not the L2-normalized 2^(k/2) convention).

Everything is quadrature on the function's own grid: integrals use the cell
rule with generator values at cell midpoints, exact for piecewise-constant
generators.  The kernels operate on stacks of 1-D slices; the projectors
and details themselves, in one dimension too, are :mod:`mrand`'s tensor
operators (``project_nd``, ``mixed_detail`` at d = 1).

A weighted sum of projections moves between levels in coefficient space
(the fast wavelet transform, :func:`level_sum`).
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import refinable
from .errors import LevelOverflow, ResolutionExhausted
from .gridfn import check_frame, kernel_buffer

LEVEL_HEADROOM = 4
# bound on one temporary of the synthesis loops, and on the output
# block of phase rows that one broadcast product adds into
SCATTER_TILE_BYTES = 1 << 18


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


def _edge_windows(rows, start, count, stride, taps):
    """out[:, j] = sum_t rows[:, start + j * stride + t] * taps[t], j < count,
    for windows that leave the rows but reach them, as every shift window
    does: the columns c0..c1-1 they reach, a view, against a
    (count, c1 - c0) tap matrix, zero outside each window and built with
    one slice per window."""
    c0 = max(0, start)
    c1 = min(rows.shape[1], start + (count - 1) * stride + taps.size)
    tap_matrix = np.zeros((count, c1 - c0), taps.dtype)
    for j, row in enumerate(tap_matrix):
        s = start + j * stride
        a, b = max(s, c0), min(s + taps.size, c1)
        row[a - c0:b - c0] = taps[a - s:b - s]
    return np.einsum("ix,jx->ij", rows[:, c0:c1], tap_matrix)


def _gather(rows, first, count, stride, taps):
    """out[:, j] = sum_t rows[:, first + j * stride + t] * taps[t], j < count.

    Entries outside the rows count as zero.  ``np.einsum`` contracts (numpy's
    own loop in a fixed order); ``@`` would hand non-overlapping windows,
    e.g. Haar's, to BLAS, whose last bits depend on the BLAS kernel.  The
    windows inside the rows are a strided view of them.  The run of
    windows before them overhangs on the left, the run after on the right
    (a window can do both, and every window of a row shorter than the
    window leaves it); each run is contracted against a tap matrix over
    only the columns it reaches (:func:`_edge_windows`).  Real rows are
    cast once to complex128, so einsum needs no cast buffer and each
    output adds its taps in sequence at any window length, on every part
    alike: numpy's float64 loop does not add in sequence.  The cast is a
    complex copy of the rows given: in 2-D and 3-D at most one tile of the
    function along its last axis, and along the other axes and in the
    down-steps of :func:`level_sum` a stack of coefficients, about 2^gap
    times smaller than the function; in 1-D the whole row.
    """
    n = rows.shape[1]
    real = not np.iscomplexobj(rows)
    rows = rows.astype(np.complex128, copy=False)
    taps = taps.astype(np.complex128)
    # windows lo..hi-1 lie inside the rows
    lo = min(count, max(0, -(first // stride)))
    hi = max(lo, min(count, (n - taps.size - first) // stride + 1))
    out = np.empty((len(rows), count), np.complex128)
    if lo < hi:
        s0, s1 = rows.strides
        view = as_strided(rows[:, first + lo * stride:],
                          shape=(len(rows), hi - lo, taps.size),
                          strides=(s0, stride * s1, s1))
        np.einsum("ijk,k->ij", view, taps, out=out[:, lo:hi])
    for j0, j1 in ((0, lo), (hi, count)):
        if j0 < j1:
            out[:, j0:j1] = _edge_windows(rows, first + j0 * stride, j1 - j0,
                                          stride, taps)
    return np.ascontiguousarray(out.real) if real else out


def _scatter(coeffs, taps, stride, cols=None):
    """out[:, j * stride + t] = sum over j of coeffs[:, j] * taps[t].

    cols = (a, b) makes the output columns a..b-1 only, for a tile of a
    one-row frame; None makes every column.  Each cell receives its terms
    in ascending j, so a window has the bits of the same columns of the
    whole output.  Whole outputs of stacks of several rows whose runs of
    taps overlap, with no more coefficients than taps, go by shift; the
    rest go by phase: column windows, one-row stacks, runs that tile the
    row and coefficients that outnumber the taps.  The taps are cast once
    to the output dtype, the cast numpy would make for every product, and
    the loops run under the kernel's ufunc buffer
    (:func:`gridfn.kernel_buffer`), which keeps the short broadcast and
    strided rows off numpy's buffered copies.  An output over the frame
    budget raises FrameTooLarge unallocated (:func:`gridfn.check_frame`).
    """
    rows, count = coeffs.shape
    taps = taps.astype(np.result_type(coeffs, taps), copy=False)
    if cols is None and rows > 1 and stride < taps.size and count <= taps.size:
        return _scatter_by_shift(coeffs, taps, stride)
    a, b = cols or (0, (count - 1) * stride + taps.size)
    # the coefficients j0..j1-1 reach the window
    j0 = max(0, (a - taps.size) // stride + 1)
    j1 = min(count, (b - 1) // stride + 1)
    return _scatter_by_phase(coeffs, taps, stride, a, b, j1 - j0 > taps.size)


def _scatter_by_shift(coeffs, taps, stride):
    """The whole output of :func:`_scatter`: each coefficient adds its run
    of taps, in row tiles whose temporaries stay under SCATTER_TILE_BYTES
    where a row fits."""
    rows, count = coeffs.shape
    width = (count - 1) * stride + taps.size
    check_frame((rows, width), taps.dtype)
    out = np.zeros((rows, width), dtype=taps.dtype)
    tile = max(1, SCATTER_TILE_BYTES // (out.itemsize * taps.size))
    with kernel_buffer():
        for r0 in range(0, rows, tile):
            c, o = coeffs[r0:r0 + tile], out[r0:r0 + tile]
            for j in range(count):
                o[:, j * stride:j * stride + taps.size] += c[:, j:j + 1] * taps
    return out


def _scatter_by_phase(coeffs, taps, stride, a, b, by_column):
    """Columns a..b-1 of :func:`_scatter`, made in the whole phase rows q
    that hold them, viewed as (rows, q, stride) and checked against the
    frame budget whole (up to two strides wider than the window).  Where
    taps.size == stride, each cell has one term, and the product of the
    coefficients and the taps is the output.  Otherwise tap run l,
    taps[l * stride:(l + 1) * stride], reaches phase row q from
    coefficient q - l.  In blocks of rows and of q whose temporaries stay
    under SCATTER_TILE_BYTES, l runs down from the last run to 0, as one
    broadcast product per run or, by_column, one per phase column.  A
    stack of several rows whose window drops columns of its phase rows is
    returned as a contiguous copy."""
    rows, count = coeffs.shape
    # the phase rows q_a..q_b-1 hold the window
    q_a, q_b = a // stride, -(-b // stride)
    check_frame((rows, (q_b - q_a) * stride), taps.dtype)
    if taps.size == stride:
        # phase row q is coefficient q times the taps (b <= count * stride,
        # so q_b <= count); += 0.0 turns -0.0 into +0.0, as 0 + x does
        with kernel_buffer():
            out = coeffs[:, q_a:q_b, None] * taps
            out += 0.0
    else:
        out = np.zeros((rows, q_b - q_a, stride), taps.dtype)
        # cells of a block's temporary: of its phase rows, or of one column
        cells = SCATTER_TILE_BYTES // (out.itemsize
                                       * (1 if by_column else stride))
        block_q = max(1, min(q_b - q_a, cells))
        block_rows = max(1, cells // block_q)
        with kernel_buffer():
            for r0, q0 in itertools.product(range(0, rows, block_rows),
                                            range(q_a, q_b, block_q)):
                q1 = min(q_b, q0 + block_q)
                for l in range(-(-taps.size // stride) - 1, -1, -1):
                    lo, hi = max(q0, l), min(q1, count + l)
                    if lo >= hi:
                        continue
                    run = taps[l * stride:(l + 1) * stride]
                    c = coeffs[r0:r0 + block_rows, lo - l:hi - l]
                    o = out[r0:r0 + block_rows, lo - q_a:hi - q_a, :run.size]
                    terms = ([(o[:, :, p], c, run[p]) for p in range(run.size)]
                             if by_column else [(o, c[:, :, None], run)])
                    for dst, src, tap in terms:
                        dst += src * tap
    out = out.reshape(rows, (q_b - q_a) * stride)
    return np.ascontiguousarray(out[:, a - q_a * stride:b - q_a * stride])


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


def _synthesis_taps(level, bank, depth):
    gap = depth - level
    if gap < LEVEL_HEADROOM:
        raise ResolutionExhausted(
            f"depth {depth} leaves gap {gap} < {LEVEL_HEADROOM} at level {level}")
    return _table(bank, "primal", gap).midpoint_samples(gap), 1 << gap


def synthesis_box(count, shift_first, level, bank, depth):
    """(origin, width) in grid units of the rows :func:`synthesize_rows`
    makes from count coefficients."""
    u, m = _synthesis_taps(level, bank, depth)
    return (shift_first + bank.primal.n_first) * m, (count - 1) * m + u.size


def synthesize_rows(coeffs, shift_first, level, bank, depth, cols=None):
    """Pointwise sums sum_nu c_nu phi(2^level x - nu) on a depth-J grid.

    Returns (rows, origin in grid units); the box is the union of the
    shifted, scaled supports.  cols = (a, b) makes only the columns a..b-1
    of the box (:func:`_scatter`); the origin is still the box's.
    """
    u, m = _synthesis_taps(level, bank, depth)
    return (_scatter(coeffs, u, m, cols),
            (shift_first + bank.primal.n_first) * m)


def top_level(weight_vectors, depth):
    """The highest weighted level of the vectors, checked against depth.

    A vector with no nonzero weight, which no level sum can start from, is
    refused, as is an empty list of vectors.
    """
    if not weight_vectors:
        raise ValueError("no weight vector")
    for w in weight_vectors:
        if not any(w):
            raise ValueError(
                f"the weights are all zero: {tuple(float(x) for x in w)}")
    top = max(k for w in weight_vectors for k, x in enumerate(w) if x)
    if top > depth - LEVEL_HEADROOM:
        raise LevelOverflow(
            f"level {top} above cap {depth - LEVEL_HEADROOM} at depth {depth}")
    return top


def level_sum(coeffs, first, top, n, origin, depth, weights, bank):
    """sum_k w[k] E_k in coefficient space, at the top level and back.

    coeffs, from shift first, is the level-top analysis of rows of n cells
    from origin.  Down-steps c_nu = 2^(-1/2) sum_n h*_n c'_(2 nu + n) with
    the dual mask h* run to the lowest weighted level, each kept to the
    shift window of a direct analysis at its level.  The sum is built by
    Horner's scheme, with up-steps d_mu = 2^(1/2) sum_nu c_nu h_(mu - 2 nu)
    of the primal mask h.  Returns (coeffs, first) at the top level.
    """
    bottom = min(k for k, x in enumerate(weights) if x)
    dual, primal = bank.dual, bank.primal
    pyramid = [(coeffs, first)]
    for level in range(top - 1, bottom - 1, -1):
        coeffs, first = pyramid[0]
        nu_min, nu_max = _shift_window(origin, n, depth - level,
                                       dual.support)
        pyramid.insert(0, (_gather(coeffs, 2 * nu_min + dual.n_first - first,
                                   nu_max - nu_min + 1, 2,
                                   dual.array() / refinable.SQRT2), nu_min))
    acc = None
    for (coeffs, first), w in itertools.zip_longest(
            pyramid, weights[bottom:top + 1], fillvalue=0.0):
        if acc is None:
            acc = (coeffs if w == 1.0 else w * coeffs, first)
            continue
        acc = (_scatter(acc[0], refinable.SQRT2 * primal.array(), 2),
               2 * acc[1] + primal.n_first)
        if w:
            # the refined window holds this level's (supports overlap)
            lo = first - acc[1]
            acc[0][:, lo:lo + coeffs.shape[1]] += w * coeffs
    return acc
