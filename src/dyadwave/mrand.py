"""Axis lifting of 1-D grid transforms and tensor-product projectors.

A 1-D operator T acts along axis j of a d-dimensional grid function by
transforming every 1-D slice in that direction.  Lifted operators along
different axes commute, so the tensor projector at a level vector k is the
ordered product of the per-axis liftings (applied j = 0..d-1 for
determinism), and the mixed difference factorizes into per-axis details --
equivalently it is the alternating sum of tensor projectors over the binary
patterns supported where k is positive.  Both forms are implemented; their
agreement is a primary test, not an assumption.  Each 1-D operator is a
weighted sum of level projections, :class:`LevelSum`.
"""

from __future__ import annotations

import numpy as np

from . import mra1d, refinable
from .errors import AxisOutOfRange
from .gridfn import (GridFunction, box_range, pattern_parity, pattern_within,
                     sign_patterns)


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


def axis_rows(f, axis):
    """The 1-D slices of f along `axis` as one stack of rows, and their origin."""
    if not 0 <= axis < f.dim:
        raise AxisOutOfRange(f"axis {axis} for dimension {f.dim}")
    moved = np.moveaxis(f.data, axis, -1)
    return (np.ascontiguousarray(moved.reshape(-1, moved.shape[-1])),
            f.origin[axis])


def from_axis_rows(rows, origin, f, axis):
    """f with its slices along `axis` replaced by rows that start at origin."""
    lead = f.shape[:axis] + f.shape[axis + 1:]
    data = np.moveaxis(rows.reshape(lead + (rows.shape[1],)), -1, axis)
    origins = f.origin[:axis] + (origin,) + f.origin[axis + 1:]
    return GridFunction(data, f.depth, origins, f.meta)


def apply_axis(base, f, axis):
    """Lift a 1-D transform to act along one axis of f.

    ``base.apply_rows(rows, origin, depth)`` transforms the whole stack of
    slices in that direction at once, as an array of rows sharing one
    origin, and returns the output rows with their common new origin.
    """
    rows, origin = axis_rows(f, axis)
    return from_axis_rows(*base.apply_rows(rows, origin, f.depth), f, axis)


def _levels_tuple(levels, dim):
    if np.isscalar(levels):
        levels = (int(levels),) * dim
    levels = tuple(int(k) for k in levels)
    if len(levels) != dim:
        raise ValueError(f"{len(levels)} levels for dimension {dim}")
    if any(k < 0 for k in levels):
        raise ValueError(f"levels must be nonnegative, got {levels}")
    return levels


def tensor_level_sum(f, weights, banks, cache=None):
    """Product over axes a of the 1-D sums sum_k weights[a][k] E_k."""
    out = f
    for axis, bank in enumerate(banks_for(banks, f.dim)):
        out = apply_axis(LevelSum(bank, weights[axis], cache), out, axis)
    return out


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
    assignment = banks_for(banks, f.dim)
    if form == "factorized":
        return tensor_level_sum(f, [detail_weights(k) for k in levels],
                                assignment, cache)
    if form == "alternating":
        total = None
        for eps in sign_patterns(f.dim):
            if not pattern_within(eps, levels):
                continue
            shifted = tuple(k - e for k, e in zip(levels, eps))
            term = project_nd(f, shifted, assignment, cache)
            if pattern_parity(eps) < 0:
                term = -term
            total = term if total is None else total + term
        return total
    raise ValueError(f"unknown form {form!r}")


def detail_blocks(f, bound, assignment, cache=None):
    """Depth-first mixed-detail blocks over the level box cut at `bound`.

    Along each axis all blocks come from one coefficient pyramid of the
    input (:func:`mra1d.level_sums`), so only the bound's tables are read.
    """

    def rec(g, axis, levels):
        if axis == f.dim:
            yield levels, g
            return
        weights = [detail_weights(k) for k in range(bound[axis] + 1)]
        blocks = mra1d.level_sums(*axis_rows(g, axis), g.depth, weights,
                                  assignment[axis], cache)
        for k, (rows, origin) in enumerate(blocks):
            yield from rec(from_axis_rows(rows, origin, g, axis), axis + 1,
                           levels + (k,))

    yield from rec(f, 0, ())


def partial_sum(f, bound, banks, cache=None):
    """Sum of mixed details over the level box cut at `bound`."""
    bound = _levels_tuple(bound, f.dim)
    assignment = banks_for(banks, f.dim)
    total = None
    for levels in box_range(bound):
        term = mixed_detail(f, levels, assignment, cache=cache)
        total = term if total is None else total + term
    return total
