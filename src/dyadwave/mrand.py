"""Axis lifting of 1-D grid transforms and tensor-product projectors.

A 1-D operator T acts along axis j of a d-dimensional grid function by
transforming every 1-D slice in that direction.  Lifted operators along
different axes commute, so the tensor projector at a level vector k is the
ordered product of the per-axis liftings (applied j = 0..d-1 for
determinism), and the mixed difference factorizes into per-axis details --
equivalently it is the alternating sum of tensor projectors over the binary
patterns supported where k is positive.  Both forms are implemented; their
agreement is a primary test, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mra1d, refinable
from .errors import AxisOutOfRange
from .gridfn import (GridFunction, box_range, pattern_parity, pattern_within,
                     sign_patterns)


@dataclass(frozen=True)
class TensorBankAssignment:
    """One accepted filter bank per axis."""

    banks: tuple

    def __post_init__(self):
        object.__setattr__(self, "banks", tuple(self.banks))
        for bank in self.banks:
            refinable.ensure_accepted(bank)

    def __len__(self):
        return len(self.banks)

    def __getitem__(self, j):
        return self.banks[j]

    @property
    def ids(self):
        return tuple(b.bank_id for b in self.banks)


def banks_for(banks, dim):
    """Normalize a bank argument to a per-axis assignment of length dim."""
    if isinstance(banks, TensorBankAssignment):
        assignment = banks
    elif isinstance(banks, refinable.FilterBank):
        assignment = TensorBankAssignment((banks,) * dim)
    else:
        assignment = TensorBankAssignment(tuple(banks))
    if len(assignment) != dim:
        raise ValueError(f"{len(assignment)} banks for dimension {dim}")
    return assignment


class LevelProjection:
    """Level-k 1-D projection as an axis-liftable transform."""

    def __init__(self, bank, level, cache=None):
        self.bank = bank
        self.level = level
        self.cache = cache

    def apply_rows(self, rows, origin, depth):
        mra1d._check_level(self.level, depth)
        return mra1d.project_rows(rows, origin, depth, self.level, self.bank,
                                  self.cache)


class LevelDetail:
    """Difference of consecutive level projections, liftable per axis."""

    def __init__(self, bank, level, cache=None):
        self.bank = bank
        self.level = level
        self.cache = cache

    def apply_rows(self, rows, origin, depth):
        hi, org_hi = mra1d.project_rows(rows, origin, depth, self.level,
                                        self.bank, self.cache)
        if self.level == 0:
            return hi, org_hi
        lo, org_lo = mra1d.project_rows(rows, origin, depth, self.level - 1,
                                        self.bank, self.cache)
        start = min(org_hi, org_lo)
        stop = max(org_hi + hi.shape[1], org_lo + lo.shape[1])
        out = np.zeros((rows.shape[0], stop - start), dtype=np.complex128)
        out[:, org_hi - start:org_hi - start + hi.shape[1]] = hi
        out[:, org_lo - start:org_lo - start + lo.shape[1]] -= lo
        return out, start


class WeightedProjectionSum:
    """sum_k w[k] E_k along one axis, evaluated with one pass per level."""

    def __init__(self, bank, weights, cache=None):
        self.bank = bank
        self.weights = tuple(float(w) for w in weights)
        self.cache = cache

    def apply_rows(self, rows, origin, depth):
        pieces = []
        for level, w in enumerate(self.weights):
            if w == 0.0:
                continue
            arr, org = mra1d.project_rows(rows, origin, depth, level,
                                          self.bank, self.cache)
            pieces.append((w, arr, org))
        start = min(org for _, _, org in pieces)
        stop = max(org + arr.shape[1] for _, arr, org in pieces)
        out = np.zeros((rows.shape[0], stop - start), dtype=np.complex128)
        for w, arr, org in pieces:
            out[:, org - start:org - start + arr.shape[1]] += w * arr
        return out, start


def apply_axis(base, f, axis):
    """Lift a 1-D transform to act along one axis of f.

    ``base.apply_rows(rows, origin, depth)`` transforms the whole stack of
    slices in that direction at once, as an array of rows sharing one
    origin, and returns the output rows with their common new origin.
    """
    if not 0 <= axis < f.dim:
        raise AxisOutOfRange(f"axis {axis} for dimension {f.dim}")
    moved = np.moveaxis(f.data, axis, -1)
    lead = moved.shape[:-1]
    rows = np.ascontiguousarray(moved.reshape(-1, moved.shape[-1]))
    out_rows, new_org = base.apply_rows(rows, f.origin[axis], f.depth)
    data = np.moveaxis(out_rows.reshape(lead + (out_rows.shape[1],)), -1, axis)
    origin = list(f.origin)
    origin[axis] = new_org
    return GridFunction(data, f.depth, tuple(origin), f.meta)


def _levels_tuple(levels, dim):
    if np.isscalar(levels):
        levels = (int(levels),) * dim
    levels = tuple(int(k) for k in levels)
    if len(levels) != dim:
        raise ValueError(f"{len(levels)} levels for dimension {dim}")
    if any(k < 0 for k in levels):
        raise ValueError(f"levels must be nonnegative, got {levels}")
    return levels


def project_nd(f, levels, banks, cache=None):
    """Tensor projector: per-axis level projections composed over axes."""
    levels = _levels_tuple(levels, f.dim)
    assignment = banks_for(banks, f.dim)
    out = f
    for axis in range(f.dim):
        out = apply_axis(LevelProjection(assignment[axis], levels[axis], cache),
                         out, axis)
    return out


def mixed_detail(f, levels, banks, form="factorized", cache=None):
    """Mixed difference of tensor projectors at a level vector.

    form="factorized": product over axes of the 1-D detail operators.
    form="alternating": inclusion-exclusion sum of tensor projectors over
    binary patterns supported inside the positive coordinates of `levels`.
    """
    levels = _levels_tuple(levels, f.dim)
    assignment = banks_for(banks, f.dim)
    if form == "factorized":
        out = f
        for axis in range(f.dim):
            out = apply_axis(LevelDetail(assignment[axis], levels[axis], cache),
                             out, axis)
        return out
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


def partial_sum(f, bound, banks, cache=None):
    """Sum of mixed details over the level box cut at `bound`."""
    bound = _levels_tuple(bound, f.dim)
    assignment = banks_for(banks, f.dim)
    total = None
    for levels in box_range(bound):
        term = mixed_detail(f, levels, assignment, cache=cache)
        total = term if total is None else total + term
    return total
