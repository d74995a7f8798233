"""Square function, sign operators, Rademacher moments, and L_p ratio sweeps.

The square function aggregates the mixed-detail blocks pointwise in l2 over
the level box cut at K; its L_p-norm ratio against the input is the
quantity whose two-sided boundedness the sweep experiments measure.  Sign
operators attach a +-1 factor of product form to every block; product form
is required, not assumed, and general tables are factor-checked.

Empirical constants are recorded, never asserted against theory: the sweep
reports the observed ratio window and its stability.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import mrand
from .errors import NonProductPattern, TooManyTerms
from .gridfn import (SUM_LEAF, GridFunction, TiledFunction, abs_sq,
                     kernel_buffer, lp_norms, sample, tile_part)


# ---------------------------------------------------------------------------
# sign patterns


@dataclass(frozen=True)
class SignPattern:
    """Per-axis +-1 sequences; the sign at a level vector is their product."""

    axis_signs: tuple  # tuple of tuples, each of length K+1

    def __post_init__(self):
        rows = tuple(tuple(int(s) for s in row) for row in self.axis_signs)
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("axis sign rows must be nonempty and equal length")
        if any(s not in (-1, 1) for row in rows for s in row):
            raise ValueError("signs must be +-1")
        object.__setattr__(self, "axis_signs", rows)

    @property
    def dim(self):
        return len(self.axis_signs)

    def value(self, levels):
        out = 1
        for row, k in zip(self.axis_signs, levels):
            out *= row[k]
        return out

    def table(self):
        grids = np.meshgrid(*[np.asarray(r) for r in self.axis_signs],
                            indexing="ij")
        return functools.reduce(np.multiply, grids)

    @classmethod
    def from_table(cls, table):
        """Factor a full sign table; reject anything not of product form."""
        arr = np.asarray(table, dtype=int)
        if arr.ndim == 0:
            raise ValueError("sign table must have at least one axis")
        if not np.isin(arr, (-1, 1)).all():
            raise ValueError("signs must be +-1")
        base = arr[(0,) * arr.ndim]
        rows = []
        for axis in range(arr.ndim):
            idx = [0] * arr.ndim
            row = []
            for k in range(arr.shape[axis]):
                idx[axis] = k
                row.append(int(arr[tuple(idx)]) * base)
            rows.append(row)
        rows[0] = [base * s for s in rows[0]]
        candidate = cls(tuple(tuple(r) for r in rows))
        if not np.array_equal(candidate.table(), arr):
            raise NonProductPattern("sign table does not factor over axes")
        return candidate

    @classmethod
    def random(cls, dim, max_level, rng):
        signs = rng.integers(0, 2, size=(dim, max_level + 1)) * 2 - 1
        return cls(tuple(tuple(int(s) for s in row) for row in signs))


# ---------------------------------------------------------------------------
# block iteration and the square function


def square_function(f, max_level, banks):
    """Pointwise l2 aggregation of the detail blocks with levels <= max_level.

    Returns a nonnegative real-valued grid function; monotone in max_level
    pointwise since blocks only accumulate.  The blocks come from
    :func:`mrand.tensor_sums`, each kept synthesised along every axis but
    the last.  The result is made tile by tile on demand
    (:class:`gridfn.TiledFunction`): per tile each block adds its |.|^2
    from :func:`gridfn.abs_sq` (v*v, or re*re + im*im) in the fixed
    depth-first block order, and the root is the correctly rounded
    ``np.sqrt``, so the result does not depend on the SIMD target or the
    BLAS, nor on the tiles.  Each block's cells are fetched outside, and
    added under, the kernel's ufunc buffer (:func:`gridfn.kernel_buffer`),
    which keeps the bits.
    """
    weights = [mrand.detail_weights(k) for k in range(max_level + 1)]
    blocks = list(mrand.tensor_sums(f, [weights] * f.dim, banks))
    # the first block, of level 0 on every axis, spans every later block;
    # 0 + |z|^2 has the bits of |z|^2
    box, shape = blocks[0].box(), blocks[0].shape

    def make(a, b):
        acc = np.zeros((b - a,) + shape[1:])
        for block in blocks:
            part = tile_part(block, box, a, b)
            if part:
                with kernel_buffer():
                    acc[part[0]] += abs_sq(part[1])
        return np.sqrt(acc, out=acc)

    return TiledFunction(make, shape, np.float64, f.depth, blocks[0].origin)


def sign_operator(f, pattern, banks):
    """Signed block sum  sum_k sigma_k (detail block)_k f, product signs only.

    Factorizes across axes: along each axis the signed detail sum telescopes
    into a weighted sum of projections with Abel weights sigma_k -
    sigma_{k+1}.
    """
    if not isinstance(pattern, SignPattern):
        pattern = SignPattern.from_table(pattern)
    if pattern.dim != f.dim:
        raise ValueError(f"pattern dimension {pattern.dim} != {f.dim}")
    weights = [np.subtract(row, row[1:] + (0,)) for row in pattern.axis_signs]
    return mrand.tensor_level_sum(f, weights, banks)


# ---------------------------------------------------------------------------
# Khintchine moments


def _axis_sign_matrix(k):
    """All 2^(k+1) joint sign rows of the first k+1 Rademacher functions.

    Row m gives the signs on the m-th dyadic cell of width 2^-(k+1); the
    rows enumerate every +-1 assignment exactly once.
    """
    m = np.arange(2 ** (k + 1))
    cols = [1 - 2 * ((m >> (k - kk)) & 1) for kk in range(k + 1)]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class KhintchineResult:
    p: float
    method: str
    norm_lp: float
    norm_l2: float
    ratio: float
    lower_ok: bool
    upper_ok: bool
    stderr: float | None = None
    trials: int = 0


def khintchine_check(a, p, mc_trials=200_000, seed=0):
    """L_p norm of sum a_k (Rademacher product)_k versus the l2 norm of a.

    Exact sign-cell enumeration for families of at most 16 terms (2^16
    sign cells), Monte Carlo with a reported standard error otherwise
    (TooManyTerms when the fallback is disabled).  The ok-flags compare the
    ratio against the classical window: for p >= 2 it lies in
    [1, sqrt(p-1)]; for p <= 2 in [3^-1/2, 1].
    """
    exact_limit = 16
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    p = float(p)
    if p <= 1 or not math.isfinite(p):
        raise ValueError(f"exponent must be finite and > 1, got {p}")
    norm_l2 = float(np.sqrt(np.sum(np.abs(arr) ** 2)))
    if arr.size <= exact_limit:
        method, trials = "exact", 0
        sums = arr
        for axis in range(arr.ndim - 1, -1, -1):
            s = _axis_sign_matrix(arr.shape[axis] - 1)
            sums = np.tensordot(sums, s.astype(np.float64), axes=([axis], [1]))
            sums = np.moveaxis(sums, -1, axis)
    else:
        if not mc_trials:
            raise TooManyTerms(
                f"{arr.size} terms exceed the exact limit {exact_limit}")
        method, trials = "monte_carlo", mc_trials
        rng = np.random.default_rng(seed)
        signs = [rng.integers(0, 2, size=(mc_trials, n)) * 2 - 1
                 for n in arr.shape]
        prod = np.ones((mc_trials,) + arr.shape)
        for axis, s in enumerate(signs):
            shape = [mc_trials] + [1] * arr.ndim
            shape[axis + 1] = arr.shape[axis]
            prod = prod * s.reshape(shape)
        sums = np.tensordot(prod, arr, axes=(list(range(1, arr.ndim + 1)),
                                             list(range(arr.ndim))))
    samples = np.abs(sums) ** p
    moment = float(samples.mean())
    norm_lp = moment ** (1.0 / p)
    stderr = None
    if trials:
        sd = float(samples.std(ddof=1)) / math.sqrt(trials)
        stderr = (norm_lp / (p * moment) * sd) if moment > 0 else 0.0
    if norm_l2 == 0.0:
        ratio = 0.0
        lower_ok = upper_ok = True
    else:
        ratio = norm_lp / norm_l2
        slack = 1e-9 if stderr is None else 3.0 * stderr / norm_l2
        if p >= 2:
            lower_ok = ratio >= 1.0 - slack
            upper_ok = ratio <= math.sqrt(p - 1.0) + slack
        else:
            lower_ok = ratio >= 3.0 ** -0.5 - slack
            upper_ok = ratio <= 1.0 + slack
    return KhintchineResult(p=p, method=method, norm_lp=norm_lp,
                            norm_l2=norm_l2, ratio=ratio, lower_ok=lower_ok,
                            upper_ok=upper_ok, stderr=stderr, trials=trials)


# ---------------------------------------------------------------------------
# standard corpus


def libm_map(fn, x):
    """fn from :mod:`math` (libm), elementwise over a 1-D float array.

    numpy's SIMD loops for exp, sin and the like round differently per CPU;
    libm gives the same bits on every CPU.  x is read in runs of SUM_LEAF
    values, so no list of Python floats as long as the frame is made.
    """
    runs = (x[i:i + SUM_LEAF].tolist() for i in range(0, x.size, SUM_LEAF))
    return np.fromiter(map(fn, itertools.chain.from_iterable(runs)),
                       np.float64, count=x.size)


def _separable(factors, depth):
    """prod_a factors[a](x_a) sampled at the cell midpoints of the unit box.

    Each factor is evaluated once on the 1-D midpoints; the product is taken
    in axis order, exactly as if it were evaluated at every cell.
    """
    dim = len(factors)
    x = (np.arange(2 ** depth) + 0.5) * 2.0 ** (-depth)
    val = 1.0
    for axis, fn in enumerate(factors):
        shape = [1] * dim
        shape[axis] = -1
        val = val * fn(x).reshape(shape)
    return GridFunction(np.broadcast_to(val, (2 ** depth,) * dim), depth,
                        (0,) * dim)


def standard_corpus(dim, depth, seed, banks=None, block_level=None):
    """Reproducible test functions supported in the unit box.

    Gaussian bumps, a mixed tensor bump, dyadic step functions, a quadratic
    chirp, and (when a bank assignment and level are given) random elements
    of the level-`block_level` tensor span.  The bumps are separable and
    take their exponentials from libm, one 1-D factor per axis.
    """
    rng = np.random.default_rng(seed)
    box = ((0.0, 1.0),) * dim
    out = []

    def gauss(c, w):
        return lambda x: libm_map(math.exp, -(((x - c) / w) ** 2))

    def cos_sq(x):
        return np.cos(np.pi * np.clip(x - 0.5, -0.5, 0.5)) ** 2

    for i in range(2):
        c = 0.35 + 0.3 * rng.random(dim)
        w = 0.08 + 0.12 * rng.random(dim)
        out.append((f"gauss-{i}", _separable(
            [gauss(ca, wa) for ca, wa in zip(c, w)], depth)))
    if dim >= 2:
        out.append(("tensor-bump", _separable(
            [gauss(0.5, 0.15)] + [cos_sq] * (dim - 1), depth)))
    for i in range(2):
        pieces = 5
        shape = (2 ** depth,) * dim
        data = np.zeros(shape)
        for _ in range(pieces):
            lo = [rng.integers(0, 2 ** depth - 1) for _ in range(dim)]
            hi = [int(rng.integers(l + 1, 2 ** depth + 1)) for l in lo]
            sel = tuple(slice(l, h) for l, h in zip(lo, hi))
            data[sel] += rng.standard_normal()
        out.append((f"step-{i}", GridFunction(data, depth, (0,) * dim)))

    def chirp(*xs):
        r2 = sum(np.asarray(x) ** 2 for x in xs)
        return np.sin(24.0 * r2)
    out.append(("chirp", sample(chirp, depth, box)))

    if banks is not None and block_level is not None:
        assignment = mrand.banks_for(banks, dim)
        n = 2 ** block_level
        for i in range(2):
            coeffs = (rng.standard_normal((n,) * dim)
                      + 1j * rng.standard_normal((n,) * dim))
            g = mrand.synthesize_nd(coeffs, (0,) * dim,
                                    (block_level,) * dim, assignment, depth)
            out.append((f"block-{i}", g))
    return out


# ---------------------------------------------------------------------------
# ratio records and the sweep


@dataclass
class RatioRecord:
    """One measured ratio row; runtime stays in memory, never in the CSV."""

    function_id: str
    filters: str
    dim: int
    p: float
    depth: int
    max_level: int
    norm_f: float
    norm_sf: float
    ratio: float
    sign_ratio_max: float
    tail_rel: float
    status: str = "ok"
    reason: str = ""
    runtime: float = 0.0


CSV_COLUMNS = [c.name for c in fields(RatioRecord) if c.name != "runtime"]


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_ratio_csv(records, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([_fmt(getattr(r, c)) for c in CSV_COLUMNS])


def _entry_records(args):
    (fid, f, p_list, assignment, max_level, trials, seed, index) = args
    t0 = time.perf_counter()
    record = functools.partial(
        RatioRecord, function_id=fid, dim=f.dim, depth=f.depth,
        filters="+".join(b.bank_id for b in assignment), max_level=max_level)
    # the L2 norm for the zero test rides on the same pass as the others
    nf2, *nf = lp_norms(f, [2.0, *p_list])
    if nf2 == 0.0:
        return [record(p=float(p), norm_f=0.0, norm_sf=0.0, ratio=0.0,
                       sign_ratio_max=0.0, tail_rel=0.0, status="skipped",
                       reason="zero norm") for p in p_list]
    # each operator output, the tail f - E_K f too, makes its cells tile by
    # tile as lp_norms reads them: no frame of any of them is held
    nsf = lp_norms(square_function(f, max_level, assignment), p_list)
    tail = lp_norms(
        f - mrand.project_nd(f, (max_level,) * f.dim, assignment), p_list)
    rng = np.random.default_rng([seed, index])
    nsigned = []
    for _ in range(trials):
        pat = SignPattern.random(f.dim, max_level, rng)
        nsigned.append(lp_norms(sign_operator(f, pat, assignment), p_list))
    records = []
    for i, p in enumerate(p_list):
        smax = max((ns[i] / nf[i] for ns in nsigned), default=0.0)
        records.append(record(
            p=float(p), norm_f=nf[i], norm_sf=nsf[i], ratio=nsf[i] / nf[i],
            sign_ratio_max=smax, tail_rel=tail[i] / nf[i],
            runtime=time.perf_counter() - t0))
    return records


def lp_sweep(corpus, p_list, banks, max_level, trials=0, seed=0, jobs=1):
    """Square-function and sign-operator ratios over a corpus.

    Returns (records, summary); individual degenerate entries are recorded
    as skipped, never raised.  Output order is by (corpus index, p).
    """
    if not corpus:
        raise ValueError("corpus is empty")
    dim = corpus[0][1].dim
    assignment = mrand.banks_for(banks, dim)
    tasks = [(fid, f, list(p_list), assignment, max_level, trials, seed, i)
             for i, (fid, f) in enumerate(corpus)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_entry_records, tasks))
    else:
        chunks = [_entry_records(t) for t in tasks]
    records = [r for chunk in chunks for r in chunk]
    summary = {"dim": dim, "filters": "+".join(b.bank_id for b in assignment),
               "max_level": max_level, "seed": seed, "trials": trials,
               "entries": len(corpus), "per_p": {}}
    for p in p_list:
        rows = [r for r in records if r.p == float(p) and r.status == "ok"]
        if rows:
            summary["per_p"][float(p)] = {
                "ratio_min": min(r.ratio for r in rows),
                "ratio_max": max(r.ratio for r in rows),
                "sign_ratio_max": max(r.sign_ratio_max for r in rows),
                "tail_rel_max": max(r.tail_rel for r in rows),
            }
    return records, summary


def write_summary(summary, path):
    lines = [f"dim = {summary['dim']}",
             f"filters = {summary['filters']}",
             f"max_level = {summary['max_level']}",
             f"seed = {summary['seed']}",
             f"trials = {summary['trials']}",
             f"entries = {summary['entries']}"]
    for p in sorted(summary["per_p"]):
        stats = summary["per_p"][p]
        lines.append(
            f"p = {p}: ratio window [{stats['ratio_min']:.9e}, "
            f"{stats['ratio_max']:.9e}], sign ratio max "
            f"{stats['sign_ratio_max']:.9e}, tail max {stats['tail_rel_max']:.9e}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_ratio_svg(records, path):
    """Standalone 640 x 420 SVG of ratio vs p, one polyline per function id."""
    width, height = 640, 420
    ok = [r for r in records if r.status == "ok"]
    if not ok:
        body = ['<text x="20" y="40">no data</text>']
    else:
        ps = sorted({r.p for r in ok})
        ids = sorted({r.function_id for r in ok})
        pmin, pmax = min(ps), max(ps)
        rmin = min(r.ratio for r in ok)
        rmax = max(r.ratio for r in ok)
        pad = 50
        if pmax == pmin:
            pmax = pmin + 1
        if rmax == rmin:
            rmax = rmin + 1

        def sx(p):
            return pad + (p - pmin) / (pmax - pmin) * (width - 2 * pad)

        def sy(r):
            return height - pad - (r - rmin) / (rmax - rmin) * (height - 2 * pad)

        body = [f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                f'y2="{height - pad}" stroke="black"/>',
                f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
                f'y2="{height - pad}" stroke="black"/>']
        for p in ps:
            body.append(f'<text x="{sx(p):.1f}" y="{height - pad + 16}" '
                        f'font-size="11" text-anchor="middle">{p:g}</text>')
        for r in (rmin, rmax):
            body.append(f'<text x="{pad - 6}" y="{sy(r):.1f}" font-size="11" '
                        f'text-anchor="end">{r:.3g}</text>')
        palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
                   "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#ff7f0e"]
        for i, fid in enumerate(ids):
            pts = sorted(((r.p, r.ratio) for r in ok if r.function_id == fid))
            path_d = " ".join(f"{sx(p):.2f},{sy(r):.2f}" for p, r in pts)
            body.append(f'<polyline fill="none" stroke='
                        f'"{palette[i % len(palette)]}" points="{path_d}"/>')
            body.append(f'<text x="{width - pad + 4}" '
                        f'y="{sy(pts[-1][1]):.1f}" font-size="10" '
                        f'fill="{palette[i % len(palette)]}">{fid}</text>')
    doc = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">\n'
           + "\n".join(body) + "\n</svg>\n")
    with open(path, "w") as fh:
        fh.write(doc)
