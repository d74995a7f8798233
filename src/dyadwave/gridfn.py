"""Sampled functions on uniform dyadic grids, with quadrature and norms.

A :class:`GridFunction` of depth J stores one real or complex value per
half-open cell ``[(o+i) 2^-J, (o+i+1) 2^-J)`` of its bounding box and is
read as the step function that is constant on each cell.  All quadrature
is therefore the plain cell sum, which is exact for the step function
itself; continuous integrands should be sampled at cell midpoints
(:func:`sample`), making the cell sum a midpoint rule.

The module also hosts the shared multi-index helpers: the binary patterns
of inclusion-exclusion and box enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, DepthMismatch

MAX_DIM = 3


def _as_tuple(value, dim):
    if np.isscalar(value):
        return (int(value),) * dim
    out = tuple(int(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} components, got {len(out)}")
    return out


@dataclass(frozen=True)
class GridFunction:
    """Real or complex samples on a dyadic grid; immutable after construction.

    data    -- d-dimensional cell values: complex128 if complex, else float64
    depth   -- grid step is 2**-depth along every axis
    origin  -- integer corner of the bounding box, in grid units
    """

    data: np.ndarray
    depth: int
    origin: tuple

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim < 1 or arr.ndim > MAX_DIM:
            raise ValueError(f"dimension {arr.ndim} outside 1..{MAX_DIM}")
        arr = np.ascontiguousarray(
            arr, np.complex128 if np.iscomplexobj(arr) else np.float64)
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
    def cell_volume(self):
        return 2.0 ** (-self.depth * self.dim)

    def box(self):
        """Per-axis (lo, hi) of the bounding box in grid units, half open."""
        return tuple((o, o + n) for o, n in zip(self.origin, self.shape))

    def __add__(self, other):
        return combine(self, other, np.add)

    def __sub__(self, other):
        return combine(self, other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return GridFunction(self.data * scalar, self.depth, self.origin)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def union_box(*boxes):
    dims = {len(b) for b in boxes}
    if len(dims) != 1:
        raise ValueError("boxes of mixed dimension")
    return tuple((min(b[a][0] for b in boxes), max(b[a][1] for b in boxes))
                 for a in range(dims.pop()))


def embed(f, box):
    """Zero-extend f onto a covering box; returns a plain array."""
    out = np.zeros(tuple(hi - lo for lo, hi in box), dtype=f.data.dtype)
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
    out = embed(f, box).astype(np.result_type(f.data, g.data), copy=False)
    sel = _slot(g, box)
    op(out[sel], g.data, out=out[sel])
    return GridFunction(out, f.depth, tuple(lo for lo, _ in box))


def sample(fn, depth, box):
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
    return GridFunction(np.array(values), depth,
                        tuple(lo for lo, _ in grid_box))


def indicator(depth, box):
    """Characteristic function of a dyadic box, exact cell values."""
    return sample(lambda *xs: np.ones_like(xs[0]), depth, box)


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
    """|z|^2 of a real or complex array: v*v, or re*re + im*im.

    Built from correctly rounded operations only, so the bits do not depend
    on the SIMD loop numpy dispatches (``np.abs`` of a complex array does).
    A real array gives the bits of the same values stored as complex.  A
    complex array holds two float64 arrays of its shape at the peak.
    """
    v = np.ascontiguousarray(data).view(np.float64)
    if not np.iscomplexobj(data):
        return v * v
    re, im = v[..., 0::2], v[..., 1::2]
    out = re * re
    out += im * im
    return out


# cells of one leaf of the norm sums; at least numpy's pairwise block, 128
SUM_LEAF = 1 << 15


def _pairwise(n, leaf, lo=0):
    """The sums leaf(lo, hi) returns, added over cells lo..lo+n-1 up the
    tree of numpy's pairwise sum (n halved at n//2 - (n//2) % 8, down to
    leaves of SUM_LEAF cells or fewer): each has one ``np.sum``'s bits."""
    if n <= SUM_LEAF:
        return leaf(lo, lo + n)
    half = n // 2 - n // 2 % 8
    return [a + b for a, b in zip(_pairwise(half, leaf, lo),
                                  _pairwise(n - half, leaf, lo + half))]


def _expansion(q):
    """(whole, [i, ...]) with q = whole + sum of 2**-i over the list, for q a
    multiple of 1/8 and at most 8; None for any other exponent."""
    if q * 8 != int(q * 8) or q > 8:
        return None
    whole, frac = divmod(int(q * 8), 8)
    return whole, [i for i in (1, 2, 3) if frac & 8 >> i]


def _power_sums(s, qs):
    """[np.sum(s**q) for q in qs] for s >= 0, reproducibly.

    An exponent that is a multiple of 1/8 and at most 8 is evaluated from
    correctly rounded ``*`` and ``sqrt`` along its binary expansion, so
    the bits do not depend on the SIMD target (numpy's ``power`` does):
    s**whole, then times s**(1/2), s**(1/4) and s**(1/8) in that order
    where the expansion has a bit.  Each root is taken once for all the
    exponents.  Any other exponent goes through libm ``pow`` via
    ``np.float_power``.
    """
    roots, sums = [s], []
    for q in qs:
        plan = _expansion(q)
        if plan is None:
            sums.append(np.sum(np.float_power(s, q)))
            continue
        factors = [0] * plan[0] + plan[1]
        while len(roots) <= max(factors):
            roots.append(np.sqrt(roots[-1]))
        out = roots[factors[0]]
        if len(factors) > 1:
            out = out * roots[factors[1]]
            for k in factors[2:]:
                out *= roots[k]
        sums.append(np.sum(out))
    return sums


def lp_norms(f, ps):
    """[lp_norm(f, p) for p in ps], f real or complex, sharing one |f|^2 pass
    and its square roots.

    Each norm is (sum |f|^p * cellvolume)^(1/p) with |f|^p = (|f|^2)^(p/2)
    from :func:`abs_sq` and :func:`_power_sums`, in leaves of at most
    SUM_LEAF cells split as numpy's pairwise sum splits (:func:`_pairwise`):
    each sum has the bits of ``np.sum`` over the frame, pinned by
    ``test_lp_norms_share_roots_bit_for_bit``, and no temporary outgrows a
    leaf.  None of it depends on the SIMD target, the BLAS, or alignment.
    Moduli outside about 1e-154..1e154 under- or overflow in |f|^2.
    """
    for p in ps:
        if not np.isreal(p) or not np.isfinite(p) or p <= 1:
            raise BadExponent(f"exponent must be finite and > 1, got {p!r}")
    ps = [float(p) for p in ps]
    qs, cells = [p / 2 for p in ps], f.data.reshape(-1)
    sums = _pairwise(cells.size, lambda lo, hi: _power_sums(
        abs_sq(cells[lo:hi]), qs))
    return [float(total * f.cell_volume) ** (1.0 / p)
            for total, p in zip(sums, ps)]


def lp_norm(f, p):
    """(sum |f|^p * cellvolume)^(1/p) for finite p in (1, inf).

    Computed as in :func:`lp_norms`, so the value is reproducible to the
    bit across CPUs and BLAS builds that share numpy and libm.
    """
    return lp_norms(f, (p,))[0]


def l1_norm(f):
    return float(np.sum(np.abs(f.data)) * f.cell_volume)


# ---------------------------------------------------------------------------
# multi-index helpers


def box_range(bound):
    """Iterate the nonnegative multi-indices <= bound componentwise."""
    return itertools.product(*(range(b + 1) for b in bound))


def sign_patterns(dim):
    """All 0/1 patterns of length dim (the inclusion-exclusion index set)."""
    return list(itertools.product((0, 1), repeat=dim))


def pattern_parity(eps):
    """(-1)**(number of ones)."""
    return -1 if sum(eps) % 2 else 1


def pattern_within(eps, levels):
    """Whether the pattern only hits axes where the level is positive."""
    return all(e == 0 or k > 0 for e, k in zip(eps, levels))
