"""Axis lifting of 1-D grid transforms and tensor-product projectors.

A 1-D operator T acts along axis j of a d-dimensional grid function by
transforming every 1-D slice in that direction.  Lifted operators along
different axes commute, so a tensor operator is one pass per axis, j =
0..d-1 in turn for determinism, with plain arrays between axes
(:func:`tensor_sums`).  At a level vector k the mixed difference factorizes
into per-axis details -- equivalently it is the alternating sum of tensor
projectors over the binary patterns supported where k is positive.  Both
forms are implemented; their agreement is a primary test, not an
assumption.  Each 1-D operator is a weighted sum of level projections.
"""

from __future__ import annotations

import numpy as np

from . import mra1d, refinable
from .errors import AxisOutOfRange
from .gridfn import (GridFunction, _as_tuple, box_range, pattern_parity,
                     pattern_within, sign_patterns)

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
    coefficient space (:func:`mra1d.level_sums`).  A projection is a
    one-hot weight vector, a detail is (..., -1, +1).
    """

    def __init__(self, bank, weights, cache=None):
        self.bank = bank
        self.weights = tuple(float(w) for w in weights)
        self.cache = cache

    def apply_rows(self, rows, origin, depth):
        return next(mra1d.level_sums(rows, origin, depth, [self.weights],
                                     self.bank, self.cache))


class LevelProjection(LevelSum):
    """E_level along one axis: the one-hot weight vector."""

    def __init__(self, bank, level, cache=None):
        super().__init__(bank, (0.0,) * level + (1.0,), cache)


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


def _axis_sums(f, data, origin, axis, weights, banks, cache):
    if axis == f.dim:
        yield GridFunction(data, f.depth, origin)
        return
    rows, back = axis_layout(data, origin, axis)
    sums = mra1d.level_sums(rows, origin[axis], f.depth, weights[axis],
                            banks[axis], cache)
    del data, rows
    for left in range(len(weights[axis]), 0, -1):
        out = next(sums)
        if left == 1:
            sums.close()  # frees the pyramid before the descent
        nested = _axis_sums(f, *back(*out), axis + 1, weights, banks, cache)
        del out  # nested lays out its rows, then drops this output
        yield from nested


def tensor_sums(f, weight_lists, banks, cache=None):
    """Products over axes a of sum_k w[k] E_k, one per w in weight_lists[a],
    depth first, one pyramid per axis and frame (:func:`mra1d.level_sums`);
    frames between axes are plain arrays, each product one GridFunction.
    """
    return _axis_sums(f, f.data, f.origin, 0, weight_lists,
                      banks_for(banks, f.dim), cache)


def tensor_level_sum(f, weights, banks, cache=None):
    """Product over axes a of the 1-D sums sum_k weights[a][k] E_k."""
    return next(tensor_sums(f, [[w] for w in weights], banks, cache))


def project_nd(f, levels, banks, cache=None):
    """Tensor projector: per-axis level projections composed over axes."""
    weights = [(0.0,) * k + (1.0,) for k in _levels_tuple(levels, f.dim)]
    return tensor_level_sum(f, weights, banks, cache)


def mixed_detail(f, levels, banks, form="factorized", cache=None):
    """Mixed difference of tensor projectors at a level vector.

    form="factorized": product over axes of the 1-D detail operators.
    form="alternating": inclusion-exclusion sum of tensor projectors over
    binary patterns supported inside the positive coordinates of `levels`.
    """
    levels = _levels_tuple(levels, f.dim)
    if form == "factorized":
        return tensor_level_sum(f, [detail_weights(k) for k in levels],
                                banks, cache)
    if form == "alternating":
        total = None
        for eps in sign_patterns(f.dim):
            if not pattern_within(eps, levels):
                continue
            shifted = tuple(k - e for k, e in zip(levels, eps))
            term = project_nd(f, shifted, banks, cache)
            if pattern_parity(eps) < 0:
                term = -term
            total = term if total is None else total + term
        return total
    raise ValueError(f"unknown form {form!r}")


def partial_sum(f, bound, banks, cache=None):
    """Sum of mixed details over the level box cut at `bound`."""
    bound = _levels_tuple(bound, f.dim)
    total = None
    for levels in box_range(bound):
        term = mixed_detail(f, levels, banks, cache=cache)
        total = term if total is None else total + term
    return total
