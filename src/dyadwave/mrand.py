"""Axis lifting of 1-D grid transforms and tensor-product projectors.

A 1-D operator T acts along axis j of a d-dimensional grid function by
transforming every 1-D slice in that direction.  Per-axis level sums
commute and are linear, so a tensor operator is the separable fast wavelet
transform (:func:`tensor_sums`): one analysis per axis, the sums on the
coefficient tensor, one synthesis per product (:func:`synthesize_nd`).  At
a level vector k the mixed difference factorizes into per-axis details --
equivalently it is the alternating sum of tensor projectors over the binary
patterns supported where k is positive.  Both forms are implemented; their
agreement is a primary test, not an assumption.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import mra1d, refinable
from .errors import AxisOutOfRange
from .gridfn import GridFunction, TiledFunction, _as_tuple, box_range, combine

# side of the square tiles of a transposing row copy, in elements
LAYOUT_TILE = 64


def banks_for(banks, dim):
    """Normalize a bank argument to a tuple of accepted banks, one per axis."""
    if isinstance(banks, refinable.FilterBank):
        banks = (banks,) * dim
    banks = tuple(banks)
    if len(banks) != dim:
        raise ValueError(f"{len(banks)} banks for dimension {dim}")
    for bank in banks:
        refinable.ensure_accepted(bank)
    return banks


class LevelSum:
    """sum_k w[k] E_k along one axis, for per-level weights w[0..K].

    One analysis and one synthesis, with the levels between them in
    coefficient space (:func:`mra1d.level_sum`).  A projection is a
    one-hot weight vector, a detail is (..., -1, +1).
    """

    def __init__(self, bank, weights):
        self.bank = bank
        self.weights = tuple(float(w) for w in weights)

    def apply_rows(self, rows, origin, depth):
        top = mra1d.top_level([self.weights], depth)
        analysis = mra1d.analyze_rows(rows, origin, depth, top, self.bank)
        return mra1d.synthesize_rows(
            *mra1d.level_sum(*analysis, top, rows.shape[1], origin, depth,
                             self.weights, self.bank), top, self.bank, depth)


class LevelProjection(LevelSum):
    """E_level along one axis: the one-hot weight vector."""

    def __init__(self, bank, level):
        super().__init__(bank, (0.0,) * level + (1.0,))


def detail_weights(level):
    """Weights of E_level - E_(level-1); at level 0, of E_0."""
    return (0.0,) * (level - 1) + (-1.0, 1.0) if level else (1.0,)


def axis_layout(data, origin, axis):
    """Contiguous rows of the 1-D slices of `data` along `axis`, and back.

    Rows already contiguous (the last axis, 1-D data) are a view.  Any
    other axis is copied in LAYOUT_TILE-square tiles of the last two axes
    (a cache-aware transpose): at power-of-two row strides, and at any
    multiple of 2 KiB, a plain transposing copy maps the lines it reads
    and writes onto a few cache sets, which evict each other.
    back(rows, first) gives output rows from cell `first` as (view, origin).
    """
    if not 0 <= axis < data.ndim:
        raise AxisOutOfRange(f"axis {axis} for dimension {data.ndim}")
    moved = np.moveaxis(data, axis, -1)
    lead = moved.shape[:-1]

    def back(rows, first):
        return (np.moveaxis(rows.reshape(lead + (rows.shape[1],)), -1, axis),
                origin[:axis] + (first,) + origin[axis + 1:])

    if moved.flags.c_contiguous:
        return moved.reshape(-1, moved.shape[-1]), back
    rows = np.empty(moved.shape, moved.dtype)
    src, dst = np.atleast_2d(moved, rows)
    for r in range(0, src.shape[-2], LAYOUT_TILE):
        for c in range(0, src.shape[-1], LAYOUT_TILE):
            tile = (..., slice(r, r + LAYOUT_TILE), slice(c, c + LAYOUT_TILE))
            dst[tile] = src[tile]
    return rows.reshape(-1, rows.shape[-1]), back


def apply_axis(base, f, axis):
    """Lift a 1-D transform to act along one axis of f.

    ``base.apply_rows(rows, origin, depth)`` transforms the whole stack of
    slices in that direction at once, as an array of rows sharing one
    origin, and returns the output rows with their common new origin.
    """
    rows, back = axis_layout(f.data, f.origin, axis)
    data, origin = back(*base.apply_rows(rows, f.origin[axis], f.depth))
    return GridFunction(data, f.depth, origin)


def _levels_tuple(levels, dim):
    levels = _as_tuple(levels, dim)
    if any(k < 0 for k in levels):
        raise ValueError(f"levels must be nonnegative, got {levels}")
    return levels


def synthesize_nd(coeffs, shift_firsts, levels, banks, depth):
    """Tensor synthesis of a dense coefficient array at a level vector.

    Every axis but the last is synthesised here, axis 0 first; between
    axes a plain array holds coefficients, from their first shifts, along
    the axes still to do.  What is kept is the stack of last-axis
    coefficient rows, (W0, c) in 2-D.  The contiguous last axis is
    synthesised when cells are read, one tile at a time
    (:class:`gridfn.TiledFunction`): a block of whole rows (planes in 3-D)
    from the same rows of the stack, or in 1-D a run of columns.
    """
    data, origin = np.asarray(coeffs), tuple(shift_firsts)
    banks = banks_for(banks, data.ndim)
    last = data.ndim - 1
    for axis in range(last):
        rows, back = axis_layout(data, origin, axis)
        data, origin = back(*mra1d.synthesize_rows(
            rows, origin[axis], levels[axis], banks[axis], depth))
    rows, _ = axis_layout(data, origin, last)
    lead = data.shape[:-1]
    first, width = mra1d.synthesis_box(rows.shape[1], origin[last],
                                       levels[last], banks[last], depth)
    per_index = math.prod(lead[1:])  # stack rows per index along axis 0

    def make(a, b):
        if not lead:
            return mra1d.synthesize_rows(rows, origin[0], levels[0], banks[0],
                                         depth, cols=(a, b))[0][0]
        out, _ = mra1d.synthesize_rows(rows[a * per_index:b * per_index],
                                       origin[last], levels[last],
                                       banks[last], depth)
        return out.reshape((b - a,) + lead[1:] + (width,))

    return TiledFunction(make, lead + (width,),
                         np.result_type(rows.dtype, np.float64), depth,
                         origin[:last] + (first,))


def tensor_sums(f, weight_lists, banks):
    """Products over axes a of sum_k w[k] E_k, one per w in weight_lists[a].

    f is analysed once per axis, at that axis's highest weighted level, the
    last axis first.  Its rows are independent, so in 2-D and 3-D they are
    analysed tile by tile from ``f.tiles()``: an unfilled
    :class:`gridfn.TiledFunction` is never filled, and of an array only
    views are read.  A 1-D row is read whole from ``f.data``, because its
    tiles are column runs that windows cross.  Each product, axis 0 outermost
    and depth first, runs :func:`mra1d.level_sum` axis by axis on the
    coefficient tensor and yields its :func:`synthesize_nd` GridFunction,
    which keeps the product synthesised along every axis but the last and
    makes its cells tile by tile.
    """
    banks = banks_for(banks, f.dim)
    tops = [mra1d.top_level(w, f.depth) for w in weight_lists]
    last = f.dim - 1
    parts = [mra1d.analyze_rows(cells.reshape(-1, f.shape[last]),
                                f.origin[last], f.depth, tops[last],
                                banks[last])
             for cells in (f.tiles() if last else [f.data])]
    coeffs = np.concatenate([c for c, _ in parts]).reshape(
        f.shape[:last] + (-1,))
    firsts = f.origin[:last] + (parts[0][1],)
    for axis in reversed(range(last)):
        rows, back = axis_layout(coeffs, firsts, axis)
        coeffs, firsts = back(*mra1d.analyze_rows(
            rows, f.origin[axis], f.depth, tops[axis], banks[axis]))
    for product in itertools.product(*weight_lists):
        data, first = coeffs, firsts
        for axis, weights in enumerate(product):
            rows, back = axis_layout(data, first, axis)
            data, first = back(*mra1d.level_sum(
                rows, first[axis], tops[axis], f.shape[axis], f.origin[axis],
                f.depth, weights, banks[axis]))
        yield synthesize_nd(data, first, tops, banks, f.depth)


def tensor_level_sum(f, weights, banks):
    """Product over axes a of the 1-D sums sum_k weights[a][k] E_k."""
    return next(tensor_sums(f, [[w] for w in weights], banks))


def project_nd(f, levels, banks):
    """Tensor projector: per-axis level projections composed over axes."""
    weights = [(0.0,) * k + (1.0,) for k in _levels_tuple(levels, f.dim)]
    return tensor_level_sum(f, weights, banks)


def mixed_detail(f, levels, banks, form="factorized"):
    """Mixed difference of tensor projectors at a level vector.

    form="factorized": product over axes of the 1-D detail operators.
    form="alternating": inclusion-exclusion sum of tensor projectors over
    binary patterns supported inside the positive coordinates of `levels`,
    one :func:`gridfn.combine` with weights +-1 that makes no term's frame.
    """
    levels = _levels_tuple(levels, f.dim)
    if form == "factorized":
        return tensor_level_sum(f, [detail_weights(k) for k in levels], banks)
    if form == "alternating":
        return combine(
            ((-1) ** sum(eps),
             project_nd(f, tuple(k - e for k, e in zip(levels, eps)), banks))
            for eps in itertools.product((0, 1), repeat=f.dim)
            if all(e <= k for e, k in zip(eps, levels)))
    raise ValueError(f"unknown form {form!r}")


def partial_sum(f, bound, banks):
    """Sum of mixed details over the level box cut at `bound`.

    One :func:`gridfn.combine` of one factorized mixed detail per level
    vector, so the sum telescopes to the tensor projector at `bound` up to
    the rounding of the separate terms: the residual is a check of the
    mixed details, not of one fused pass.
    """
    return combine((1, mixed_detail(f, levels, banks))
                   for levels in box_range(_levels_tuple(bound, f.dim)))
