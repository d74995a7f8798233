"""Sampled functions on uniform dyadic grids, with quadrature and norms.

A :class:`GridFunction` of depth J stores one real or complex value per
half-open cell ``[(o+i) 2^-J, (o+i+1) 2^-J)`` of its bounding box and is
read as the step function that is constant on each cell.  All quadrature
is therefore the plain cell sum, which is exact for the step function
itself; continuous integrands should be sampled at cell midpoints
(:func:`sample`), making the cell sum a midpoint rule.

The module also hosts :func:`box_range`, the enumeration of the
multi-indices in a box, and :func:`kernel_buffer`, the ufunc buffer of the
elementwise row and tile kernels.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from pathlib import Path

import numpy as np

from .errors import BadExponent, DepthMismatch, FrameTooLarge

MAX_DIM = 3
# cells in one tile of a frame read tile by tile: whole rows (planes in
# 3-D) of about this many cells, or in 1-D a run of this many columns
TILE_CELLS = 1 << 18
# one materialised frame may take 1/FRAME_MEMORY_PARTS of the memory budget
FRAME_MEMORY_PARTS = 6
# elements in numpy's ufunc buffer inside the elementwise kernels
KERNEL_BUFSIZE = 256


@contextlib.contextmanager
def kernel_buffer():
    """Run the body with numpy's ufunc buffer at KERNEL_BUFSIZE elements,
    then restore the caller's size, also on an exception.

    With numpy's default of 8192 elements, a ufunc whose 2-D operands have
    rows shorter than the buffer and are broadcast (``c[:, j:j + 1] * run``)
    or not contiguous with each other (``o[:, lo:hi] += tmp``) goes through
    buffered copies and runs several times slower than on contiguous rows.
    An elementwise op gives the same bits at every buffer size; a reduction
    need not (``np.sum`` of a strided view adds in buffer-sized parts), so
    only elementwise ops run in the body.  The size is thread-local.
    """
    old = np.setbufsize(KERNEL_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _as_tuple(value, dim):
    if np.isscalar(value):
        return (int(value),) * dim
    out = tuple(int(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} components, got {len(out)}")
    return out


class GridFunction:
    """Real or complex samples on a dyadic grid; immutable after construction.

    data    -- d-dimensional cell values: complex128 if complex, else float64
    depth   -- grid step is 2**-depth along every axis
    origin  -- integer corner of the bounding box, in grid units

    The frame is given, checked and kept read-only; a :class:`TiledFunction`
    makes it on demand instead.  ``shape``, ``dtype``, ``depth`` and
    ``origin`` are set once; ``repr``, ``==`` and ``hash`` are by identity
    and read no cell.
    """

    def __init__(self, data, depth, origin):
        arr = np.asarray(data)
        if arr.ndim < 1 or arr.ndim > MAX_DIM:
            raise ValueError(f"dimension {arr.ndim} outside 1..{MAX_DIM}")
        arr = np.ascontiguousarray(
            arr, np.complex128 if np.iscomplexobj(arr) else np.float64)
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("grid data contains NaN or Inf")
        arr.setflags(write=False)
        self._set(arr, None, arr.shape, arr.dtype, depth, origin)

    def _set(self, frame, make, shape, dtype, depth, origin):
        # vars(self) is written past __setattr__, which refuses every name
        vars(self).update(_frame=frame, _make=make, shape=tuple(shape),
                          dtype=np.dtype(dtype), depth=int(depth),
                          origin=_as_tuple(origin, len(shape)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def dim(self):
        return len(self.shape)

    @property
    def cell_volume(self):
        return 2.0 ** (-self.depth * self.dim)

    @property
    def data(self):
        """The whole frame.  A frame made on demand is filled once, through
        :meth:`tiles`, under the frame budget (:func:`check_frame`), and
        kept."""
        if self._frame is None:
            check_frame(self.shape, self.dtype)
            frame, a = np.empty(self.shape, self.dtype), 0
            for cells in self.tiles():
                frame[a:a + len(cells)] = cells
                a += len(cells)
            frame.setflags(write=False)
            vars(self)["_frame"] = frame
        return self._frame

    def box(self):
        """Per-axis (lo, hi) of the bounding box in grid units, half open."""
        return tuple((o, o + n) for o, n in zip(self.origin, self.shape))

    def tile(self, a, b):
        """The cells data[a:b] along axis 0, made on demand until the frame
        is filled."""
        if self._frame is None:
            return self._make(a, b)
        return self._frame[a:b]

    def tiles(self):
        """The cells in tiles along axis 0, in flat (row-major) order: whole
        rows, or planes in 3-D, of about TILE_CELLS cells; in 1-D runs of
        TILE_CELLS columns."""
        n = self.shape[0]
        step = max(1, TILE_CELLS // max(1, math.prod(self.shape[1:])))
        for a in range(0, n, step):
            yield self.tile(a, min(n, a + step))

    def __add__(self, other):
        return combine([(1, self), (1, other)])

    def __sub__(self, other):
        return combine([(1, self), (-1, other)])

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return combine([(scalar, self)])

    __rmul__ = __mul__

    def __neg__(self):
        return combine([(-1, self)])


class TiledFunction(GridFunction):
    """A GridFunction whose cells are made on demand, tile by tile.

    ``make(a, b)`` returns the cells data[a:b] along axis 0, unchecked for
    NaN or Inf.  :func:`lp_norms`, and :func:`mrand.tensor_sums` in 2-D and
    3-D, read the tiles and never hold the frame.  The constructor does not
    run GridFunction's, so a wrapper of that one (the benchmark's tracer,
    which reads ``data``) sees only given frames.
    """

    def __init__(self, make, shape, dtype, depth, origin):
        self._set(None, make, shape, dtype, depth, origin)


@functools.cache
def _cgroup_limit():
    """The lowest memory limit, in bytes, of the cgroups holding this
    process, or None.

    Reads (only reads) cgroup v2 ``memory.max`` and v1
    ``memory.limit_in_bytes`` of the process's own cgroup and of each
    ancestor; a value that is not a number ("max") sets no limit.  Read
    once per process.
    """
    try:
        lines = Path("/proc/self/cgroup").read_text().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if not controllers:  # v2, the unified hierarchy
            root, name = "/sys/fs/cgroup", "memory.max"
        elif "memory" in controllers.split(","):
            root, name = "/sys/fs/cgroup/memory", "memory.limit_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for i in range(len(parts) + 1):
            try:
                text = Path(root, *parts[:i], name).read_text().strip()
            except OSError:
                continue
            if text.isdigit():
                limits.append(int(text))
    return min(limits, default=None)


def memory_budget():
    """Bytes this process may use: physical memory, or the cgroup limit
    where that is lower."""
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    limit = _cgroup_limit()
    return phys if limit is None else min(phys, limit)


def check_frame(shape, dtype):
    """Raise FrameTooLarge, before any allocation, for a frame over
    1/FRAME_MEMORY_PARTS of the memory budget."""
    dtype = np.dtype(dtype)
    budget = memory_budget()
    if math.prod(shape) * dtype.itemsize * FRAME_MEMORY_PARTS > budget:
        raise FrameTooLarge(
            f"a {' x '.join(map(str, shape))} {dtype} frame is over "
            f"1/{FRAME_MEMORY_PARTS} of the memory budget ({budget >> 20} "
            "MiB, the lower of physical memory and the cgroup limit)")


def union_box(*boxes):
    dims = {len(b) for b in boxes}
    if len(dims) != 1:
        raise ValueError("boxes of mixed dimension")
    return tuple((min(b[a][0] for b in boxes), max(b[a][1] for b in boxes))
                 for a in range(dims.pop()))


def embed(f, box):
    """Zero-extend f onto a covering box; returns a plain array."""
    out = np.zeros(tuple(hi - lo for lo, hi in box), dtype=f.dtype)
    out[_slot(f, box)] = f.data
    return out


def _slot(f, box):
    """Index of f's cells within an array laid out on a covering box."""
    return tuple(slice(fo - lo, fo - lo + n)
                 for (lo, _), fo, n in zip(box, f.origin, f.shape))


def tile_part(f, box, a, b):
    """(index, cells): f's cells in the tile a..b along axis 0 of a frame
    on a covering box, and their index within the tile; None if f has no
    cell there."""
    off = f.origin[0] - box[0][0]
    lo, hi = max(a, off), min(b, off + f.shape[0])
    if lo >= hi:
        return None
    return ((slice(lo - a, hi - a),) + _slot(f, box)[1:],
            f.tile(lo - off, hi - off))


def combine(terms):
    """sum w * f over (weight, grid function) terms, cellwise on the union
    box, each f zero-extended.

    The result is made tile by tile on demand (:class:`TiledFunction`):
    zeros, then in term order ``+=`` the cells of a weight 1, ``-=`` those
    of a weight -1 (no temporary) and ``+= cells * w`` otherwise, so sums
    of ``+`` and ``-`` keep the bits of the pairwise ufuncs, and a scalar
    product those of ``data * w`` (numpy's complex loops round ``w * z``
    and ``z * w`` differently).  The terms' cells are fetched outside, and
    added under, the kernel's ufunc buffer (:func:`kernel_buffer`).  Like
    any combine result, a lazy scalar product is not checked for NaN or Inf.
    """
    terms = list(terms)
    if not all(isinstance(g, GridFunction) for _, g in terms):
        return NotImplemented
    depths = {g.depth for _, g in terms}
    if len(depths) > 1:
        raise DepthMismatch(f"depths {sorted(depths)} differ")
    box = union_box(*(g.box() for _, g in terms))  # refuses mixed dims
    shape = tuple(hi - lo for lo, hi in box)
    dtype = np.result_type(*(g.dtype for _, g in terms),
                           *(w for w, _ in terms))

    def make(a, b):
        out = np.zeros((b - a,) + shape[1:], dtype)
        for w, g in terms:
            part = tile_part(g, box, a, b)
            if part is None:
                continue
            index, cells = part
            with kernel_buffer():
                if w == 1:
                    out[index] += cells
                elif w == -1:
                    out[index] -= cells
                else:
                    out[index] += cells * w
        return out

    return TiledFunction(make, shape, dtype, depths.pop(),
                         tuple(lo for lo, _ in box))


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
    complex array holds two float64 arrays of its shape at the peak.  No
    :func:`kernel_buffer`: numpy buffers no strided row of a contiguous
    array, so the buffer size moves neither the time nor the bits.
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
    leaf.  The cells are read through ``f.tiles()`` (views of an array,
    tiles made on demand for a :class:`TiledFunction`), the leaves handed
    out in order across tile borders, so the frame is never held whole.
    None of it depends on the SIMD target, the BLAS, or alignment.
    Moduli outside about 1e-154..1e154 under- or overflow in |f|^2.
    """
    for p in ps:
        if not np.isreal(p) or not np.isfinite(p) or p <= 1:
            raise BadExponent(f"exponent must be finite and > 1, got {p!r}")
    ps = [float(p) for p in ps]
    qs = [p / 2 for p in ps]
    tiles = (cells.reshape(-1) for cells in f.tiles())
    rest = np.empty(0, f.dtype)

    def leaf(lo, hi):
        # leaves come in flat order: this one starts where the last ended
        nonlocal rest
        parts, need = [], hi - lo
        while need > rest.size:
            if rest.size:
                parts.append(rest)
                need -= rest.size
            rest = next(tiles)
        parts.append(rest[:need])
        rest = rest[need:]
        cells = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return _power_sums(abs_sq(cells), qs)

    sums = _pairwise(math.prod(f.shape), leaf)
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

