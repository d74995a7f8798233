"""Dyadic Calderon-Zygmund decomposition of 1-D grid functions.

The stopping-time construction starts from the smallest dyadic root
[-2^m, 2^m) that contains the support with average |f| at most alpha,
bisects, and selects the maximal dyadic intervals whose average exceeds
alpha.  Halving at most doubles an average, so every selected cube Q has

    alpha < (1/|Q|) integral_Q |f| <= 2 alpha,

the complement W of the closed set F satisfies |W| <= ||f||_1 / alpha, and
the good/bad split g = f on F, g = average on each Q, h_Q = (f - avg) chi_Q
has mean-zero bad parts.  The selected cubes are one (n, 2) integer array
of (scale, index) rows, row (s, i) standing for [i 2^-s, (i+1) 2^-s),
sorted by left end.  The bad parts are stored as one grid function
``bad`` = f - g on the good part's box: h_Q is ``bad`` on Q, and ``bad``
is exactly 0.0 on F.  All sums are exact cell sums on the grid, so the
inequalities hold with the dyadic constants, not just asymptotically.

The stopping time runs scale by scale, from the two halves of the root
down to single cells.  The live cubes at scale s are the children of the
cubes at scale s - 1 that carry mass and were not selected; their masses
are differences of one prefix-sum table, looked up for the whole scale at
once.  Only children of cubes that meet the support are ever live, so a
function of n cells gives O(n + m + depth) live cubes in all, and the
decomposition and its verification take time linear in cells and cubes.
Python loops run over scales, cube lengths and components, never cubes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlphaTooSmall, DegenerateF
from .gridfn import GridFunction, check_frame, combine, l1_norm, lp_norm

MAX_ROOT_EXPONENT = 40

# grid coordinates of magnitude below 2**62 leave int64 room for offsets
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class CZDecomposition:
    alpha: float
    cubes: np.ndarray      # (n, 2) rows (scale, index), sorted by left end;
                           # int64, or object where grid coordinates reach
                           # 2**62 (the stopping time's Python-int case)
    averages: np.ndarray   # float64 signed f-average over each cube
    good: GridFunction
    bad: GridFunction      # f - g on good's box; h_Q is bad on Q, 0.0 on F
    root_exponent: int

    @property
    def mes_w(self):
        # the cube widths 2^-scale, added in cube order by Python's sum
        widths = np.ldexp(1.0, -self.cubes[:, 0].astype(np.int64))
        return float(sum(widths.tolist()))


def _real_data(f):
    if f.dim != 1:
        raise ValueError(f"decomposition is one-dimensional, got d={f.dim}")
    if not np.iscomplexobj(f.data):
        return f.data
    if f.data.size and np.abs(f.data.imag).max() > 1e-12 * max(
            1.0, np.abs(f.data.real).max()):
        raise ValueError("decomposition requires a real-valued function")
    return f.data.real


class _PrefixSums:
    """Cell-rule integrals of one sampled function over grid ranges.

    The table holds the running cell sums times the cell width, so the
    integral over [lo, hi) is ``table[ib] - table[ia]`` with both ends
    clipped to the function's box; a clipped range that is empty has
    ib == ia and gives exactly 0.0.  lo and hi are integer arrays (object
    arrays for coordinates beyond int64) and are looked up all at once.
    """

    def __init__(self, values, origin, cell):
        self.table = np.concatenate([[0.0], np.cumsum(values)]) * cell
        self.origin = origin

    def __call__(self, lo, hi):
        size = self.table.size - 1
        out = self.table[_offsets(hi, self.origin, size)]
        out -= self.table[_offsets(lo, self.origin, size)]
        return out


def _offsets(x, base, count):
    """x - base clipped to 0..count, as array indices."""
    x = x - base
    np.clip(x, 0, count, out=x)
    return x.astype(np.intp, copy=False)


def _stopping_time(mass_of, integral_of, alpha, depth, m):
    """Maximal dyadic cubes in [-2^m, 2^m) whose |f| average exceeds alpha.

    Returns the (scale, index) rows sorted by left end, their signed
    averages and their grid ranges [lo, hi) as two integer arrays.  Only
    one scale's arrays are alive at a time.
    """
    # the two halves of the root are the dyadic intervals [-2^m, 0) and
    # [0, 2^m); their stopping-time parent is the root, average <= alpha.
    # Every grid coordinate below lies within the root, |x| <= 2^(depth+m)
    fits = (1 << (depth + m)) < _INT64_SAFE
    live = np.array([-1, 0], dtype=np.int64 if fits else object)
    picked = []     # per scale: lo, hi, scales, indices, signed averages
    for s in range(-m, depth + 1):
        span = 1 << (depth - s)
        width = 2.0 ** (-s)
        lo = live * span
        mass = mass_of(lo, lo + span)
        avg = mass / width
        chosen = avg > alpha
        if chosen.any():
            lo_q = lo[chosen]
            signed = integral_of(lo_q, lo_q + span) / width
            picked.append((lo_q, lo_q + span, np.full(lo_q.size, s),
                           live[chosen], signed))
        # a single cell with average <= alpha belongs to F
        parents = live[(mass != 0.0) & ~chosen]
        if s == depth or not parents.size:
            break
        live = np.repeat(2 * parents, 2)
        live[1::2] += 1
    if not picked:
        return np.empty((0, 2), live.dtype), np.empty(0), live[:0], live[:0]
    lefts, rights, scales, indices, avgs = (
        np.concatenate(column) for column in zip(*picked))
    # disjoint cubes have distinct left ends, so this order is unique
    order = np.argsort(lefts, kind="stable")
    return (np.stack([scales, indices], axis=1)[order], avgs[order],
            lefts[order], rights[order])


def cz_decompose(f, alpha):
    """Split f at level alpha into good and mean-zero bad parts."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    data = _real_data(f)
    depth = f.depth
    origin = f.origin[0]
    size = data.size
    cell = 2.0 ** (-depth)
    total_abs = float(np.abs(data).sum()) * cell
    if total_abs == 0.0:
        raise ValueError("decomposition needs nonzero L1 mass")

    # root [-2^m, 2^m): must cover the support and carry average <= alpha
    m = 0
    scale = 1 << depth
    while (-(1 << m)) * scale > origin or (origin + size) > (1 << m) * scale:
        m += 1
        if m > MAX_ROOT_EXPONENT:
            raise AlphaTooSmall("support too wide for any admissible root")
    while total_abs / (2.0 ** (m + 1)) > alpha:
        m += 1
        if m > MAX_ROOT_EXPONENT:
            raise AlphaTooSmall(
                f"root average stays above alpha={alpha} up to exponent "
                f"{MAX_ROOT_EXPONENT}")

    cubes, averages, lo, hi = _stopping_time(
        _PrefixSums(np.abs(data), origin, cell),
        _PrefixSums(data, origin, cell), alpha, depth, m)

    # good and bad parts live on the union of the f-box and every selected
    # cube, which at low alpha can be many times the f-box: checked against
    # the frame budget before either is made.  The cubes are disjoint and
    # sorted, so W's cells in order take their cube's average from one repeat
    g_lo = min(origin, int(lo[0])) if lo.size else origin
    g_hi = max(origin + size, int(hi[-1])) if lo.size else origin + size
    check_frame((g_hi - g_lo,), np.float64)
    g_data = np.zeros(g_hi - g_lo)
    g_data[origin - g_lo:origin - g_lo + size] = data
    w = _covered(lo, hi, g_lo, g_data.size)
    cell_avg = np.repeat(averages, (hi - lo).astype(np.intp))
    bad = np.zeros_like(g_data)
    bad[w] = g_data[w] - cell_avg
    g_data[w] = cell_avg
    return CZDecomposition(
        alpha=float(alpha), cubes=cubes, averages=averages,
        good=GridFunction(g_data, depth, (g_lo,)),
        bad=GridFunction(bad, depth, (g_lo,)), root_exponent=m)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    bound: float | None = None
    note: str = ""


def _cube_ranges(cubes, depth):
    """Grid ranges [lo, hi) of the (scale, index) rows as two integer
    arrays of the rows' dtype, sorted by lo."""
    scales, index = cubes[:, 0], cubes[:, 1]
    if (scales > depth).any():
        raise ValueError("cube finer than the grid")
    span = np.left_shift(1, depth - scales)
    lo = index * span
    order = np.argsort(lo, kind="stable")
    return lo[order], (lo + span)[order]


def _components(lo, hi):
    """Maximal runs of adjacent or overlapping ranges sorted by lo, as
    starts and ends in grid units."""
    if not lo.size:
        return lo, hi
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1]]))
    last = np.concatenate([first[1:] - 1, [lo.size - 1]]).astype(np.intp)
    return lo[first], reach[last]


def _covered(lo, hi, base, count):
    """Mask of the cells base .. base + count - 1 that lie in some [lo, hi)."""
    edges = (np.bincount(_offsets(lo, base, count), minlength=count + 1)
             - np.bincount(_offsets(hi, base, count), minlength=count + 1))
    return np.cumsum(edges[:-1]) > 0


def verify_cz(dec, f):
    """Recompute every structural property of a decomposition of f.

    Returns a list of named checks with measured constants; the distance
    comparability constants are reported, never asserted.  Everything is
    recomputed from f and the cubes; the stored averages are not read.
    """
    data = _real_data(f)
    depth = f.depth
    origin = f.origin[0]
    cell = 2.0 ** (-depth)
    alpha = dec.alpha
    norm1 = l1_norm(f)
    checks = []
    # dyadic constants hold exactly in real arithmetic; grid verification
    # allows last-bit rounding of the interval sums
    eps = 1e-12

    # reconstruction f = g + bad, cellwise on the union of the boxes
    # (DepthMismatch if the decomposition has another depth)
    recon = combine([(1, dec.good), (1, dec.bad), (-1, f)])
    worst_recon = float(np.abs(recon.data).max())
    del recon
    checks.append(Check("reconstruction", worst_recon <= 1e-12,
                        worst_recon, 1e-12))

    # |f| <= alpha on F (cells outside every cube)
    lo, hi = _cube_ranges(dec.cubes, depth)
    f_vals = np.abs(data[~_covered(lo, hi, origin, data.size)])
    worst_f = float(f_vals.max()) if f_vals.size else 0.0
    checks.append(Check("good_bound_on_f", worst_f <= alpha * (1 + eps),
                        worst_f, alpha))

    mes_w = dec.mes_w
    checks.append(Check("mes_w", mes_w <= norm1 / alpha * (1 + eps), mes_w,
                        norm1 / alpha))

    disjoint = bool(np.all(hi[:-1] <= lo[1:]))
    checks.append(Check("disjoint", disjoint, 0.0 if disjoint else 1.0, 0.0))

    mass_of = _PrefixSums(np.abs(data), origin, cell)
    span = hi - lo
    widths = (span * cell).astype(np.float64)
    avgs = mass_of(lo, hi) / widths
    p_lo = lo - lo % (2 * span)
    parent_avgs = mass_of(p_lo, p_lo + 2 * span) / (2 * widths)
    parent_ok = not bool(np.any(parent_avgs > alpha * (1 + eps)))
    if lo.size:
        avg_lo, avg_hi = float(avgs.min()), float(avgs.max())
        checks.append(Check("cube_avg_above", avg_lo > alpha * (1 - eps),
                            avg_lo, alpha, note="strict lower bound"))
        checks.append(Check("cube_avg_doubling",
                            avg_hi <= 2 * alpha * (1 + eps), avg_hi,
                            2 * alpha))
    checks.append(Check("parent_maximality", parent_ok,
                        0.0 if parent_ok else 1.0, 0.0))

    # |g| <= 2 alpha and the L2 bound on g
    sup_g = float(np.abs(dec.good.data).max()) if dec.good.data.size else 0.0
    checks.append(Check("good_sup", sup_g <= 2 * alpha * (1 + eps), sup_g,
                        2 * alpha))
    g2 = lp_norm(dec.good, 2) ** 2
    checks.append(Check("good_l2", g2 <= 2 * alpha * norm1 * (1 + eps), g2,
                        2 * alpha * norm1))

    # bad parts: support, zero mean, L1 bound; h_Q is bad on Q.  The cubes
    # of one clipped length are gathered as the rows of one C-contiguous
    # array; each row's sum has the bits of np.sum over the cube's slice
    b_data = dec.bad.data
    b_lo, b_n = dec.bad.origin[0], b_data.size
    off_w = np.abs(b_data[~_covered(lo, hi, b_lo, b_n)])
    worst_off = float(off_w.max()) if off_w.size else 0.0
    checks.append(Check("bad_support", worst_off <= 0.0, worst_off, 0.0))
    offsets = _offsets(lo, b_lo, b_n)
    lengths = _offsets(hi, b_lo, b_n) - offsets
    sums, masses = np.empty(lo.size), np.empty(lo.size)
    for length in np.unique(lengths).tolist():
        pick = lengths == length
        rows = sliding_window_view(b_data, length)[offsets[pick]]
        sums[pick] = rows.real.sum(axis=1)
        masses[pick] = np.abs(rows).sum(axis=1)
    mean_worst = float(np.max(np.abs(sums * cell), initial=0.0))
    masses *= cell
    l1_worst_ratio = float(np.max(masses / (alpha * widths), initial=0.0))
    l1_ok = bool(np.all(masses <= 4 * alpha * widths * (1 + eps)))
    checks.append(Check("bad_mean_zero", mean_worst <= 1e-12 * max(norm1, 1.0),
                        mean_worst, 1e-12 * max(norm1, 1.0)))
    checks.append(Check("bad_l1", l1_ok, l1_worst_ratio, 4.0,
                        note="ratio to alpha * |Q|"))

    # distance comparability: measured, report-only.  rho(., F) rises from
    # the left end of each component and falls toward its right end, so its
    # least value on a cube is at the cube's first or last cell
    if lo.size:
        starts, ends = _components(lo, hi)
        k = np.searchsorted(starts, lo, side="right") - 1
        c_lo, c_hi = starts[k], ends[k]
        rho_first = (lo + 0.5) * cell - c_lo * cell
        rho_last = c_hi * cell - ((hi - 1) + 0.5) * cell
        ratios = np.minimum(rho_first, rho_last).astype(np.float64) / widths
        checks.append(Check("distance_ratio_min", True, float(ratios.min()),
                            note="measured c3, not asserted"))
        checks.append(Check("distance_ratio_max", True, float(ratios.max()),
                            note="measured c4, not asserted"))
    return checks


def marcinkiewicz_integral(dec, f, radius):
    """Truncated integral over F of integral_W rho(u) |x-u|^-2 du.

    rho vanishes on F so the inner integral only sees W; both integrals are
    cell sums at the grid depth with |x - u| <= radius enforced.  The
    truncation window must dominate the support (radius >= 8 * diameter).
    The kernel is 1 / (d * d) and each block is summed by numpy's pairwise
    sum, so the value does not depend on the BLAS or the SIMD target.
    """
    depth = f.depth
    cell = 2.0 ** (-depth)
    scale = 1 << depth
    diam = f.shape[0] * cell
    if radius < 8 * diam:
        raise ValueError(
            f"radius {radius} below 8 * support diameter {diam}")
    lo, hi = _cube_ranges(dec.cubes, depth)
    if not lo.size:
        return 0.0, 0.0, 0.0
    # rho(., F) at the cell midpoints of W, component by component
    u_pos, u_rho = [], []
    for c_lo, c_hi in zip(*(a.tolist() for a in _components(lo, hi))):
        mids = (np.arange(c_lo, c_hi) + 0.5) * cell
        u_pos.append(mids)
        u_rho.append(np.minimum(mids - c_lo * cell, c_hi * cell - mids))
    u_pos, u_rho = np.concatenate(u_pos), np.concatenate(u_rho)

    x_lo = int(np.floor(-radius * scale))
    x_hi = int(np.ceil(radius * scale))
    in_w = _covered(lo, hi, x_lo, x_hi - x_lo)
    x_idx = x_lo + np.flatnonzero(~in_w)
    if x_idx.size == 0:
        raise DegenerateF("no F cells inside the truncation window")
    x_pos = (x_idx + 0.5) * cell

    total = 0.0
    block = max(1, (1 << 21) // max(1, u_pos.size))
    for start in range(0, x_pos.size, block):
        xs = x_pos[start:start + block]
        diff = np.abs(xs[:, None] - u_pos[None, :])
        kernel = np.where(diff <= radius, 1.0 / (diff * diff), 0.0)
        total += float(np.sum(kernel * u_rho)) * cell * cell
    mes_w = dec.mes_w
    return total, mes_w, (total / mes_w if mes_w else 0.0)


def weak_type_measure(transform, f, alphas):
    """Level-set statistics of |Tf| by grid cell counting.

    Rows are (alpha, mes, alpha*mes/||f||_1, alpha*sqrt(mes)/||f||_2),
    ordered by alpha; mes is nonincreasing in alpha by construction.
    """
    tf = transform(f)
    mag = np.abs(tf.data)
    vol = tf.cell_volume
    n1 = l1_norm(f)
    n2 = lp_norm(f, 2)
    rows = []
    for alpha in sorted(float(a) for a in alphas):
        mes = float((mag > alpha).sum()) * vol
        rows.append({
            "alpha": alpha,
            "mes": mes,
            "l1_stat": alpha * mes / n1 if n1 else 0.0,
            "l2_stat": float(alpha * np.sqrt(mes) / n2) if n2 else 0.0,
        })
    return rows


# ---------------------------------------------------------------------------
# reports


def write_cubes_csv(dec, path):
    """One joined write: ints and float reprs never need csv quoting."""
    rows = [f"{scale},{index},{avg!r}\r\n" for (scale, index), avg
            in zip(dec.cubes.tolist(), dec.averages.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("".join(["scale,index,average\r\n", *rows]))


def format_report(dec, checks):
    lines = [f"alpha = {dec.alpha}",
             f"cubes = {len(dec.cubes)}",
             f"mes_w = {dec.mes_w!r}",
             f"root_exponent = {dec.root_exponent}"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        bound = "-" if c.bound is None else repr(c.bound)
        note = f" ({c.note})" if c.note else ""
        lines.append(f"{c.name}: {status} measured={c.measured!r} "
                     f"bound={bound}{note}")
    return "\n".join(lines) + "\n"
