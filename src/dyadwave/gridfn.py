"""Sampled functions on uniform dyadic grids, with quadrature and norms.

A :class:`GridFunction` of depth J stores one complex value per half-open
cell ``[(o+i) 2^-J, (o+i+1) 2^-J)`` of its bounding box and is read as the
step function that is constant on each cell.  All quadrature is therefore
the plain cell sum, which is exact for the step function itself; continuous
integrands should be sampled at cell midpoints (:func:`sample`), making the
cell sum a midpoint rule.

The module also hosts the shared multi-index helpers: componentwise min and
max, the binary patterns of inclusion-exclusion, and box enumeration.
"""

from __future__ import annotations

import csv
import itertools
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (AxisOutOfRange, BadExponent, DepthMismatch,
                     ResolutionExhausted)

MAX_DIM = 3

GRID_MAGIC = b"HWGF1"


def _as_tuple(value, dim):
    if np.isscalar(value):
        return (int(value),) * dim
    out = tuple(int(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} components, got {len(out)}")
    return out


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a dyadic grid; immutable after construction.

    data    -- d-dimensional complex array of cell values
    depth   -- grid step is 2**-depth along every axis
    origin  -- integer corner of the bounding box, in grid units
    meta    -- free-form provenance string
    """

    data: np.ndarray
    depth: int
    origin: tuple
    meta: str = ""

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim < 1 or arr.ndim > MAX_DIM:
            raise ValueError(f"dimension {arr.ndim} outside 1..{MAX_DIM}")
        if arr.dtype != np.complex128:
            arr = arr.astype(np.complex128)
        arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("grid data contains NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "origin", _as_tuple(self.origin, arr.ndim))
        object.__setattr__(self, "depth", int(self.depth))

    @property
    def dim(self):
        return self.data.ndim

    @property
    def shape(self):
        return self.data.shape

    @property
    def step(self):
        return 2.0 ** (-self.depth)

    @property
    def cell_volume(self):
        return 2.0 ** (-self.depth * self.dim)

    def box(self):
        """Per-axis (lo, hi) of the bounding box in grid units, half open."""
        return tuple((o, o + n) for o, n in zip(self.origin, self.shape))

    def support(self):
        """Per-axis (lo, hi) of the bounding box in real coordinates."""
        return tuple((lo * self.step, hi * self.step) for lo, hi in self.box())

    def axis_midpoints(self, axis):
        o = self.origin[axis]
        return (o + np.arange(self.shape[axis]) + 0.5) * self.step

    def __add__(self, other):
        return combine(self, other, np.add)

    def __sub__(self, other):
        return combine(self, other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return GridFunction(self.data * scalar, self.depth, self.origin, self.meta)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def zeros_like_box(depth, box, meta=""):
    shape = tuple(hi - lo for lo, hi in box)
    origin = tuple(lo for lo, _ in box)
    return GridFunction(np.zeros(shape, dtype=np.complex128), depth, origin, meta)


def union_box(*boxes):
    dims = {len(b) for b in boxes}
    if len(dims) != 1:
        raise ValueError("boxes of mixed dimension")
    return tuple((min(b[a][0] for b in boxes), max(b[a][1] for b in boxes))
                 for a in range(dims.pop()))


def embed(f, box):
    """Zero-extend f onto a covering box; returns a plain array."""
    out = np.zeros(tuple(hi - lo for lo, hi in box), dtype=np.complex128)
    out[_slot(f, box)] = f.data
    return out


def _slot(f, box):
    """Index of f's cells within an array laid out on a covering box."""
    return tuple(slice(fo - lo, fo - lo + n)
                 for (lo, _), fo, n in zip(box, f.origin, f.shape))


def combine(f, g, op):
    """op(f, g) cellwise on the union box, both zero-extended.

    op is a binary ufunc with op(x, 0) == x (add, subtract): f is embedded
    once and op runs in place on g's slice, so only the output is
    allocated.
    """
    if not isinstance(g, GridFunction):
        return NotImplemented
    if f.depth != g.depth:
        raise DepthMismatch(f"depths {f.depth} != {g.depth}")
    if f.dim != g.dim:
        raise ValueError(f"dimensions {f.dim} != {g.dim}")
    box = union_box(f.box(), g.box())
    out = embed(f, box)
    sel = _slot(g, box)
    op(out[sel], g.data, out=out[sel])
    return GridFunction(out, f.depth, tuple(lo for lo, _ in box))


def sample(fn, depth, box, meta=""):
    """Sample ``fn`` at cell midpoints of the box (real-coordinate bounds).

    box is ((a1, b1), ..., (ad, bd)) with endpoints on the depth-J lattice;
    fn receives one d-dimensional point array per axis (meshgrid style) or a
    single array when d = 1.
    """
    scale = 2 ** depth
    grid_box = []
    for a, b in box:
        lo, hi = a * scale, b * scale
        if abs(lo - round(lo)) > 1e-9 or abs(hi - round(hi)) > 1e-9:
            raise ValueError(f"box endpoint ({a}, {b}) not on the depth-{depth} lattice")
        grid_box.append((int(round(lo)), int(round(hi))))
    axes = [(lo + np.arange(hi - lo) + 0.5) * 2.0 ** (-depth)
            for lo, hi in grid_box]
    if len(axes) == 1:
        values = fn(axes[0])
    else:
        values = fn(*np.meshgrid(*axes, indexing="ij"))
    values = np.broadcast_to(values, tuple(hi - lo for lo, hi in grid_box))
    return GridFunction(np.array(values, dtype=np.complex128), depth,
                        tuple(lo for lo, _ in grid_box), meta)


def indicator(depth, box, meta="indicator"):
    """Characteristic function of a dyadic box, exact cell values."""
    return sample(lambda *xs: np.ones_like(xs[0]), depth, box, meta)


# ---------------------------------------------------------------------------
# quadrature and norms


def inner_product(f, g):
    """Cell-rule value of integral f conj(g); conjugate-symmetric exactly."""
    if f.depth != g.depth:
        raise DepthMismatch(f"depths {f.depth} != {g.depth}")
    if f.dim != g.dim:
        raise ValueError(f"dimensions {f.dim} != {g.dim}")
    lo = [max(a[0], b[0]) for a, b in zip(f.box(), g.box())]
    hi = [min(a[1], b[1]) for a, b in zip(f.box(), g.box())]
    if any(l >= h for l, h in zip(lo, hi)):
        return 0j
    fs = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, f.origin))
    gs = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, g.origin))
    return complex(np.sum(f.data[fs] * np.conj(g.data[gs])) * f.cell_volume)


def abs_sq(data):
    """|z|^2 of a complex array as re*re + im*im.

    Built from correctly rounded operations only, so the bits do not depend
    on the SIMD loop numpy dispatches (``np.abs`` of a complex array does).
    """
    v = np.ascontiguousarray(data).view(np.float64)
    sq = v * v
    return sq[..., 0::2] + sq[..., 1::2]


def _power(s, q):
    """s**q elementwise for s >= 0, reproducibly.

    An exponent that is a multiple of 1/8 and at most 8 is evaluated from
    correctly rounded ``*`` and ``sqrt`` along its binary expansion, so
    the bits do not depend on the SIMD target (numpy's ``power`` does).
    Any other exponent goes through libm ``pow`` via ``np.float_power``.
    """
    if q * 8 != int(q * 8) or q > 8:
        return np.float_power(s, q)
    whole, frac = divmod(int(q * 8), 8)
    out = None
    for _ in range(whole):
        out = s if out is None else out * s
    root = s
    for bit in (4, 2, 1):
        if not frac:
            break
        root = np.sqrt(root)
        if frac & bit:
            out = root if out is None else out * root
            frac -= bit
    return out


def lp_norms(f, ps):
    """[lp_norm(f, p) for p in ps], sharing one |f|^2 pass.

    Each norm is (sum |f|^p * cellvolume)^(1/p) with |f|^p = (|f|^2)^(p/2)
    from :func:`abs_sq` and :func:`_power`, and the sum is numpy's pairwise
    sum over the contiguous array.  None of these depends on the SIMD
    target, the BLAS, or the alignment of the data.  Moduli outside about
    1e-154..1e154 under- or overflow in |f|^2.
    """
    for p in ps:
        if not np.isreal(p) or not np.isfinite(p) or p <= 1:
            raise BadExponent(f"exponent must be finite and > 1, got {p!r}")
    ps = [float(p) for p in ps]
    s = abs_sq(f.data)
    return [float(np.sum(_power(s, p / 2)) * f.cell_volume) ** (1.0 / p)
            for p in ps]


def lp_norm(f, p):
    """(sum |f|^p * cellvolume)^(1/p) for finite p in (1, inf).

    Computed as in :func:`lp_norms`, so the value is reproducible to the
    bit across CPUs and BLAS builds that share numpy and libm.
    """
    return lp_norms(f, (p,))[0]


def l1_norm(f):
    return float(np.sum(np.abs(f.data)) * f.cell_volume)


def sup_norm(f):
    return float(np.abs(f.data).max()) if f.data.size else 0.0


# ---------------------------------------------------------------------------
# dilation and slicing


def dilate(f, k):
    """f(2^k .): pure re-indexing; cells shrink to width 2**-(depth+k).

    The data array is unchanged -- cell i of the result covers exactly the
    image of cell i of the input -- so the semigroup law composes bit
    exactly and norms scale by 2**(-k/p) up to rounding.
    """
    k = int(k)
    if abs(k) > f.depth - 2:
        raise ResolutionExhausted(f"|k|={abs(k)} exceeds headroom of depth {f.depth}")
    return GridFunction(f.data, f.depth + k, f.origin, f.meta)


def axis_slices(f, axis):
    """Yield (complementary_index, 1-D GridFunction) along an axis, C order."""
    if not 0 <= axis < f.dim:
        raise AxisOutOfRange(f"axis {axis} for dimension {f.dim}")
    if f.dim == 1:
        yield (), f
        return
    moved = np.moveaxis(f.data, axis, -1)
    rest = moved.shape[:-1]
    for idx in itertools.product(*(range(n) for n in rest)):
        yield idx, GridFunction(moved[idx], f.depth, (f.origin[axis],), f.meta)


def reassemble_slices(items, axis, depth, origin, shape, meta=""):
    """Inverse of :func:`axis_slices`: rebuild the full function bit-exactly.

    items iterates (complementary_index, 1-D GridFunction) with every slice
    sharing the 1-D box implied by origin/shape along `axis`.
    """
    dim = len(shape)
    if not 0 <= axis < dim:
        raise AxisOutOfRange(f"axis {axis} for dimension {dim}")
    moved_shape = tuple(shape[a] for a in range(dim) if a != axis) + (shape[axis],)
    out = np.empty(moved_shape, dtype=np.complex128)
    for idx, part in items:
        if part.shape[0] != shape[axis] or part.origin[0] != origin[axis]:
            raise ValueError("slice box does not match the declared frame")
        out[idx] = part.data
    data = np.moveaxis(out, -1, axis)
    return GridFunction(data, depth, origin, meta)


# ---------------------------------------------------------------------------
# file formats


def save_gridfn(f, path):
    header = GRID_MAGIC + struct.pack("<Bi", f.dim, f.depth)
    header += struct.pack(f"<{f.dim}q", *f.origin)
    header += struct.pack(f"<{f.dim}q", *f.shape)
    Path(path).write_bytes(header + np.ascontiguousarray(f.data).tobytes())


def load_gridfn(path):
    raw = Path(path).read_bytes()
    if not raw.startswith(GRID_MAGIC):
        raise ValueError(f"{path}: not a grid-function file")
    off = len(GRID_MAGIC)
    dim, depth = struct.unpack_from("<Bi", raw, off)
    off += struct.calcsize("<Bi")
    origin = struct.unpack_from(f"<{dim}q", raw, off)
    off += 8 * dim
    shape = struct.unpack_from(f"<{dim}q", raw, off)
    off += 8 * dim
    count = int(np.prod(shape))
    data = np.frombuffer(raw, dtype=np.complex128, count=count, offset=off)
    return GridFunction(data.reshape(shape).copy(), depth, origin)


def gridfn_to_csv(f, path):
    """CSV inspection dump for 1-D and 2-D functions."""
    if f.dim > 2:
        raise ValueError("CSV export supports d <= 2")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        if f.dim == 1:
            w.writerow(["x", "re", "im"])
            for x, v in zip(f.axis_midpoints(0), f.data):
                w.writerow([repr(float(x)), repr(float(v.real)),
                            repr(float(v.imag))])
        else:
            w.writerow(["x1", "x2", "re", "im"])
            xs = f.axis_midpoints(0)
            ys = f.axis_midpoints(1)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    v = f.data[i, j]
                    w.writerow([repr(float(x)), repr(float(y)),
                                repr(float(v.real)), repr(float(v.imag))])


# ---------------------------------------------------------------------------
# multi-index helpers


def min_component(v):
    return min(v)


def max_component(v):
    return max(v)


def ones(dim):
    return (1,) * dim


def leq_box(v, bound):
    """Componentwise v <= bound: membership of v in the box cut at bound."""
    return all(a <= b for a, b in zip(v, bound))


def box_range(bound):
    """Iterate the nonnegative multi-indices <= bound componentwise."""
    return itertools.product(*(range(b + 1) for b in bound))


def sign_patterns(dim):
    """All 0/1 patterns of length dim (the inclusion-exclusion index set)."""
    return list(itertools.product((0, 1), repeat=dim))


def pattern_support(eps):
    return frozenset(j for j, e in enumerate(eps) if e)


def pattern_parity(eps):
    """(-1)**(number of ones)."""
    return -1 if sum(eps) % 2 else 1


def pattern_within(eps, levels):
    """Whether the pattern only hits axes where the level is positive."""
    return all(e == 0 or k > 0 for e, k in zip(eps, levels))
