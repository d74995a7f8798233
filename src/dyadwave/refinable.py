"""Compactly supported refinable (scaling) functions given by filter masks.

A bank carries a primal mask and a dual mask, each normalized so the
coefficients sum to sqrt(2) and satisfying the two-scale relation

    phi(x) = sqrt(2) * sum_n h[n] phi(2x - n),   supp phi = [n0, n1].

Values on dyadic grids are obtained exactly (up to rounding) by solving the
integer-point eigenproblem of the refinement relation and subdividing; no
interpolation is involved.  Inner products between tabulated functions use
the cell rule on midpoint samples, which is exact for piecewise-constant
generators and second-order accurate otherwise.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BankRejected, DepthOverflow, NonSimpleEigenvalue, ParseError

SQRT2 = float(np.sqrt(2.0))

MASK_SUM_TOL = 1e-12
EIGEN_SIMPLE_TOL = 1e-10
ACCEPTANCE_RESIDUAL = 1e-6
# quadrature depth of the biorthogonality residual behind the gate
ACCEPTANCE_DEPTH = 12
MAX_TABLE_DEPTH = 24

SMOOTHNESS_CLASSES = ("pcw_const", "c0", "c1")


@dataclass(frozen=True)
class Mask:
    """Finite real refinement mask with integer support [n_first, n_last]."""

    coeffs: tuple
    n_first: int

    @property
    def n_last(self):
        return self.n_first + len(self.coeffs) - 1

    @property
    def support(self):
        return (self.n_first, self.n_last)

    @property
    def support_length(self):
        return len(self.coeffs) - 1

    def array(self):
        return np.asarray(self.coeffs, dtype=float)


@dataclass(frozen=True)
class FilterBank:
    """Primal/dual mask pair with a declared smoothness class for the dual."""

    bank_id: str
    primal: Mask
    dual: Mask
    smoothness: str

    def __post_init__(self):
        if not self.bank_id:
            raise ValueError("bank id must be nonempty")
        if self.smoothness not in SMOOTHNESS_CLASSES:
            raise ValueError(f"unknown smoothness class {self.smoothness!r}")
        for name, mask in (("primal", self.primal), ("dual", self.dual)):
            if len(mask.coeffs) == 0:
                raise ValueError(f"{name} mask of {self.bank_id} is empty")
            s = float(np.sum(mask.array()))
            if abs(s - SQRT2) > MASK_SUM_TOL:
                raise ValueError(
                    f"{name} mask of {self.bank_id} sums to {s!r}, not sqrt(2)")

    def mask(self, which):
        if which == "primal":
            return self.primal
        if which == "dual":
            return self.dual
        raise ValueError(f"which must be 'primal' or 'dual', got {which!r}")


@dataclass(frozen=True)
class DyadicTable:
    """Values of a refinable function on its support at step 2**-depth.

    ``values[i]`` is the function at ``n_first + i * 2**-depth``; the last
    entry sits at the right support endpoint.
    """

    filter_id: str
    which: str
    depth: int
    n_first: int
    values: np.ndarray

    # Not a field and always None: tables carry no derivative values, but
    # perfbench/spans.py still reads this attribute off every cascade result.
    derivative_values = None

    @property
    def checksum(self):
        """sha256 of the values, computed on each read."""
        return hashlib.sha256(np.ascontiguousarray(self.values)).hexdigest()

    def midpoint_samples(self, gap):
        """Values at n_first + (m + 1/2) * 2**-gap over the support.

        Requires depth >= gap + 1; the midpoints of the step-2**-gap cells
        are the odd dyadic points one level finer.
        """
        if gap + 1 > self.depth:
            raise ValueError(f"table depth {self.depth} too shallow for gap {gap}")
        stride = 2 ** (self.depth - gap)
        return self.values[stride // 2::stride]


def _refinement_matrix(mask):
    """M[k, l] = sqrt(2) * h[2k - l] over integer support points."""
    n = mask.support_length + 1
    h = mask.array()
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            idx = 2 * (i + mask.n_first) - (j + mask.n_first) - mask.n_first
            if 0 <= idx < n:
                m[i, j] = SQRT2 * h[idx]
    return m


def _eigenvector_at(matrix, target, what):
    w, v = np.linalg.eig(matrix)
    hits = np.nonzero(np.abs(w - target) <= EIGEN_SIMPLE_TOL)[0]
    if len(hits) != 1:
        raise NonSimpleEigenvalue(
            f"{what}: eigenvalue {target} has multiplicity {len(hits)} "
            f"within {EIGEN_SIMPLE_TOL}")
    vec = v[:, hits[0]]
    if np.max(np.abs(vec.imag)) > 1e-12 * np.max(np.abs(vec)):
        raise NonSimpleEigenvalue(f"{what}: eigenvector is not real")
    return vec.real


def _exact_seed(matrix, what):
    """Solution of (M - I) v = 0, sum(v) = 1, correctly rounded.

    Gauss-Jordan elimination in exact rationals on the float entries of M,
    so the result is fixed by the mask alone, not by a BLAS/LAPACK kernel.
    The columns of M sum to one (the sum rule), so the rows of M - I are
    dependent and one of them is replaced by the normalization: the middle
    one, which keeps the one-tap boundary equations exact.
    """
    from fractions import Fraction  # pulls in decimal; only tables need it

    n = len(matrix)
    rows = [[Fraction(float(x)) - (i == j) for j, x in enumerate(row)]
            + [Fraction(0)] for i, row in enumerate(matrix)]
    rows[n // 2] = [Fraction(1)] * (n + 1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise NonSimpleEigenvalue(f"{what}: normalized system is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return np.array([float(row[n]) for row in rows])


@functools.cache
def _integer_vector(bank, which):
    """Cascade seed: phi at the integer support points, summing to 1.

    LAPACK ``eig`` only certifies that eigenvalue 1 is simple with a real
    eigenvector of nonzero sum.  The values themselves come from the exact
    rational solve of :func:`_exact_seed`, so every table is independent of
    the BLAS/LAPACK build and CPU kernel.  Solved once per bank and mask;
    the result is read-only.
    """
    mask = bank.mask(which)
    n = mask.support_length + 1
    if n == 2 and abs(mask.coeffs[0] - mask.coeffs[1]) <= MASK_SUM_TOL:
        # unit-interval indicator: its integer eigenproblem is degenerate by
        # construction, resolved by the left-closed convention
        vec = np.zeros(n)
        vec[0] = 1.0
    else:
        what = f"{bank.bank_id}/{which}"
        m = _refinement_matrix(mask)
        vec = _eigenvector_at(m, 1.0, what)
        if abs(vec.sum()) < 1e-8 * np.abs(vec).max():
            raise NonSimpleEigenvalue(
                f"{what}: eigenvector sums to ~0; "
                "generator has no pointwise normalization")
        vec = _exact_seed(m, what)
    vec.setflags(write=False)
    return vec


def _subdivide(mask, start, levels):
    """Run the two-scale subdivision from integer values down `levels` times.

    Odd point j of the finer level takes tap n from v[j - n * 2**lev], so
    each tap adds one step-2 slice of v; taps are added in ascending n.
    """
    v = start
    for lev in range(levels):
        out = np.zeros(2 * v.size - 1)
        out[0::2] = v
        for n, hn in enumerate(mask.array()):
            s = n << lev
            out[s | 1:s + v.size:2] += SQRT2 * hn * v[(s | 1) - s::2]
        v = out
    return v


def cascade(bank, which, depth):
    """Tabulate the generator at depth L.

    Exact at dyadic rationals: each level halves the step using the
    refinement relation, seeded by the integer-point eigenvector.
    """
    if not 1 <= depth <= MAX_TABLE_DEPTH:
        raise DepthOverflow(f"depth {depth} outside [1, {MAX_TABLE_DEPTH}]")
    mask = bank.mask(which)
    values = _subdivide(mask, _integer_vector(bank, which), depth)
    values.setflags(write=False)
    return DyadicTable(
        filter_id=bank.bank_id, which=which, depth=depth, n_first=mask.n_first,
        values=values)


def refinement_residual(table, bank):
    """max_x |phi(x) - sqrt(2) sum_n h[n] phi(2x - n)| on the table's grid.

    2x lands on the coarser sub-lattice of the same table, so the check is
    self-contained.
    """
    mask = bank.mask(table.which)
    v = table.values
    size = v.size
    # x = n_first + i*2^-L; contributions phi(2x - n) with argument outside
    # the support vanish, so out-of-range source indices are simply skipped.
    i = np.arange(size)
    approx = np.zeros(size)
    base = mask.n_first * (1 << table.depth)
    for n in range(mask.support_length + 1):
        src = base + 2 * i - (n + mask.n_first) * (1 << table.depth)
        ok = (src >= 0) & (src < size)
        approx[ok] += SQRT2 * mask.array()[n] * v[src[ok]]
    return float(np.abs(v - approx).max())


def partition_of_unity_residual(table):
    """max_x |sum_nu phi(x - nu) - 1| over the table's grid points."""
    step = 1 << table.depth
    worst = 0.0
    for r in range(step):
        worst = max(worst, abs(float(table.values[r::step].sum()) - 1.0))
    return worst


def _pair_products(table_a, table_b, gap):
    """Cell-rule integrals b[m] = integral a(x) b(x - m) dx for all overlaps m.

    Midpoint rule at cell width 2**-gap, which needs tables one level
    finer; exact for piecewise-constant generators, second-order otherwise.
    """
    va = table_a.midpoint_samples(gap)
    vb = table_b.midpoint_samples(gap)
    m_grid = 1 << gap
    cell = 2.0 ** (-gap)
    la, lb = va.size, vb.size
    offset = table_a.n_first - table_b.n_first
    shifts = range(offset - lb // m_grid, offset + la // m_grid + 1)
    out = {}
    for m in shifts:
        rel = (table_a.n_first - table_b.n_first - m) * m_grid
        lo = max(0, -rel)
        hi = min(la, lb - rel)
        out[m] = float(np.dot(va[lo:hi], vb[lo + rel:hi + rel]) * cell) if hi > lo else 0.0
    return out


def shift_gram(bank, which, shifts=32, depth=12):
    """Gram matrix G[nu, mu] = integral phi(x - nu) phi(x - mu) dx.

    Banded symmetric window of the bi-infinite Gram; its eigenvalues
    estimate the Riesz bounds of the integer shift system.
    """
    table = cascade(bank, which, depth + 1)
    b = _pair_products(table, table, depth)
    g = np.zeros((shifts, shifts))
    for i in range(shifts):
        for j in range(shifts):
            g[i, j] = b.get(i - j, 0.0)
    return g


def biorthogonality_residual(bank, depth=12):
    """max_{nu,mu} |integral phi(x-nu) phi*(x-mu) dx - delta_{nu,mu}|."""
    ta = cascade(bank, "primal", depth + 1)
    tb = cascade(bank, "dual", depth + 1)
    b = _pair_products(ta, tb, depth)
    return max(abs(v - (1.0 if m == 0 else 0.0)) for m, v in b.items())


@functools.cache
def _acceptance_residual(bank):
    return biorthogonality_residual(bank, ACCEPTANCE_DEPTH)


def is_accepted(bank):
    """Acceptance gate for projector use: biorthogonality residual <= 1e-6."""
    return _acceptance_residual(bank) <= ACCEPTANCE_RESIDUAL


def ensure_accepted(bank):
    if not is_accepted(bank):
        raise BankRejected(
            f"bank {bank.bank_id} rejected: biorthogonality residual "
            f"{_acceptance_residual(bank):.3e} > {ACCEPTANCE_RESIDUAL}")


# ---------------------------------------------------------------------------
# registry files


def read_key_values(path, normalize=str):
    """({key: value}, {key: line number}) of a file of 'key: value' lines
    with '#' comments; ParseError on any other line or a repeated key.

    ``normalize`` maps each stripped key before the repeat check.
    """
    fields = {}
    lines = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(path, lineno, f"expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = normalize(key.strip())
        if key in fields:
            raise ParseError(path, lineno, f"duplicate key {key!r}")
        fields[key] = value.strip()
        lines[key] = lineno
    return fields, lines


def parse_bank_file(path):
    """Parse one structured-text bank file into a FilterBank."""
    fields, lines = read_key_values(path)
    required = ("id", "smoothness", "primal-support", "dual-support",
                "primal", "dual")
    for key in required:
        if key not in fields:
            raise ParseError(path, 0, f"missing key {key!r}")

    def support(key):
        toks = fields[key].split()
        if len(toks) != 2:
            raise ParseError(path, lines[key], f"{key} needs two endpoints")
        try:
            a, b = float(toks[0]), float(toks[1])
        except ValueError as exc:
            raise ParseError(path, lines[key], str(exc)) from None
        if a != int(a) or b != int(b):
            raise ParseError(path, lines[key], f"{key} endpoints must be integers")
        return int(a), int(b)

    def coeffs(key):
        try:
            return tuple(float(tok) for tok in fields[key].split())
        except ValueError as exc:
            raise ParseError(path, lines[key], str(exc)) from None

    psup, dsup = support("primal-support"), support("dual-support")
    pc, dc = coeffs("primal"), coeffs("dual")
    for name, sup, cs in (("primal", psup, pc), ("dual", dsup, dc)):
        if sup[1] - sup[0] != len(cs) - 1:
            raise ParseError(
                path, lines[name],
                f"{name} support length {sup[1] - sup[0]} inconsistent with "
                f"{len(cs)} coefficients")
    smooth = fields["smoothness"]
    if smooth not in SMOOTHNESS_CLASSES:
        raise ParseError(path, lines["smoothness"],
                         f"unknown smoothness class {smooth!r}")
    try:
        return FilterBank(
            bank_id=fields["id"],
            primal=Mask(pc, psup[0]),
            dual=Mask(dc, dsup[0]),
            smoothness=smooth)
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from None


def packaged_registry_dir():
    return Path(__file__).resolve().parent / "registry"


def load_registry(directory=None):
    """Load every *.txt bank file in a directory, keyed by bank id."""
    directory = Path(directory) if directory is not None else packaged_registry_dir()
    banks = {}
    for path in sorted(directory.glob("*.txt")):
        bank = parse_bank_file(path)
        if bank.bank_id in banks:
            raise ParseError(path, 0, f"duplicate bank id {bank.bank_id!r}")
        banks[bank.bank_id] = bank
    return banks


def get_bank(bank_id, directory=None):
    banks = load_registry(directory)
    if bank_id not in banks:
        raise KeyError(f"unknown bank {bank_id!r}; registry has "
                       f"{', '.join(sorted(banks))}")
    return banks[bank_id]


# ---------------------------------------------------------------------------
# table memo


class TableCache:
    """Memoized dyadic tables, built on first use and kept in memory.

    Tables are keyed by the frozen bank, so a dual mask equal to the
    primal one shares its table.
    """

    def __init__(self):
        self._memo = {}

    def get(self, bank, which, depth):
        which = "primal" if bank.mask(which) == bank.primal else which
        key = (bank, which, depth)
        table = self._memo.get(key)
        if table is None:
            table = self._memo[key] = cascade(bank, which, depth)
        return table


DEFAULT_CACHE = TableCache()
