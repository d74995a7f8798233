import math
import tracemalloc

import numpy as np
import pytest

from dyadwave import refinable
from dyadwave.errors import (BankRejected, DepthOverflow, NonSimpleEigenvalue,
                             ParseError)

SQRT2 = math.sqrt(2.0)


def bank_from_masks(bank_id, primal, n0p, dual, n0d, smoothness="c0"):
    return refinable.FilterBank(
        bank_id=bank_id,
        primal=refinable.Mask(tuple(primal), n0p),
        dual=refinable.Mask(tuple(dual), n0d),
        smoothness=smoothness)


# ---------------------------------------------------------------------------
# registry and mask invariants


def test_registry_contents(registry):
    assert sorted(registry) == ["db2", "db3", "db4", "haar", "spline24"]
    for bank in registry.values():
        for mask in (bank.primal, bank.dual):
            assert abs(sum(mask.coeffs) - SQRT2) < 1e-12
            assert mask.n_last - mask.n_first == len(mask.coeffs) - 1


def test_bad_mask_sum_rejected():
    with pytest.raises(ValueError, match="sums to"):
        bank_from_masks("bad", [0.5, 0.5], 0, [0.5, 0.5], 0)


def test_parse_errors(tmp_path):
    good = ("id: t\nsmoothness: c0\nprimal-support: 0 1\ndual-support: 0 1\n"
            f"primal: {1/SQRT2!r} {1/SQRT2!r}\ndual: {1/SQRT2!r} {1/SQRT2!r}\n")
    path = tmp_path / "t.txt"
    path.write_text(good)
    bank = refinable.parse_bank_file(path)
    assert bank.bank_id == "t"

    path.write_text(good.replace("primal-support: 0 1", "primal-support: 0 5"))
    with pytest.raises(ParseError, match="inconsistent"):
        refinable.parse_bank_file(path)

    path.write_text(good + "id: again\n")
    with pytest.raises(ParseError, match="duplicate"):
        refinable.parse_bank_file(path)

    path.write_text(good.replace("id: t\n", ""))
    with pytest.raises(ParseError, match="missing"):
        refinable.parse_bank_file(path)

    path.write_text("garbage line\n" + good)
    with pytest.raises(ParseError, match="t.txt:1"):
        refinable.parse_bank_file(path)


# ---------------------------------------------------------------------------
# integer values


def integer_points(bank, which):
    """{n: phi(n)} at the integer support points, read off a depth-1 table:
    subdivision keeps the integer points bit for bit."""
    values = refinable.cascade(bank, which, 1).values[::2]
    return {bank.mask(which).n_first + i: float(v) for i, v in enumerate(values)}


def test_haar_integer_points_left_closed(haar):
    assert integer_points(haar, "primal") == {0: 1.0, 1: 0.0}


def test_db2_integer_points_closed_form(db2):
    vals = integer_points(db2, "primal")
    s3 = math.sqrt(3.0)
    assert abs(vals[1] - (1 + s3) / 2) < 1e-12
    assert abs(vals[2] - (1 - s3) / 2) < 1e-12
    assert abs(vals[0]) < 1e-12 and abs(vals[3]) < 1e-12
    assert abs(vals[1] + vals[2] - 1.0) < 1e-12


def test_db2_integer_points_against_bruteforce_eigen(db2):
    # independent oracle: dense nullspace solve of (M - I) v = 0 plus the
    # sum-one normalization, no shared code with the cascade path
    h = np.asarray(db2.primal.coeffs)
    m = np.zeros((4, 4))
    for k in range(4):
        for l in range(4):
            if 0 <= 2 * k - l <= 3:
                m[k, l] = SQRT2 * h[2 * k - l]
    a = np.vstack([m - np.eye(4), np.ones((1, 4))])
    b = np.concatenate([np.zeros(4), [1.0]])
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    got = integer_points(db2, "primal")
    for k in range(4):
        assert abs(got[k] - sol[k]) < 1e-10


def test_integer_points_sum_one(registry):
    for bank in registry.values():
        for which in ("primal", "dual"):
            assert abs(sum(integer_points(bank, which).values())
                       - 1.0) < 1e-12


def test_integer_points_exact_seed(registry):
    # the seed solves the refinement equations to rounding, and the one-tap
    # boundary equations force exact zeros at the ends of the support
    for bank in registry.values():
        for which in ("primal", "dual"):
            mask = bank.mask(which)
            if mask.support_length < 2:
                continue
            vals = integer_points(bank, which)
            v = np.array([vals[mask.n_first + i]
                          for i in range(mask.support_length + 1)])
            m = refinable._refinement_matrix(mask)
            assert np.abs(m @ v - v).max() <= 1e-15, (bank.bank_id, which)
            assert v[0] == 0.0 and v[-1] == 0.0, (bank.bank_id, which)


def test_non_simple_eigenvalue():
    c = 1 / SQRT2
    bank = bank_from_masks("degenerate", [c, 0.0, c], 0, [c, 0.0, c], 0)
    with pytest.raises(NonSimpleEigenvalue):
        refinable.cascade(bank, "primal", 1)


# ---------------------------------------------------------------------------
# cascade


def test_haar_cascade_is_indicator(haar):
    table = refinable.cascade(haar, "primal", 3)
    assert np.array_equal(table.values[:-1], np.ones(8))
    assert table.values[-1] == 0.0


def test_cascade_depth_bounds(haar):
    with pytest.raises(DepthOverflow):
        refinable.cascade(haar, "primal", 0)
    with pytest.raises(DepthOverflow):
        refinable.cascade(haar, "primal", 25)


def reference_subdivision(bank, which, depth):
    """Tables at depths 1..depth by the refinement relation, point by point.

    Each odd point x of the finer grid is sqrt(2) * sum_n h[n] phi(2x - n)
    over the taps whose argument lies in the support, summed in ascending
    n from 0.0; even points keep the coarser value.
    """
    mask = bank.mask(which)
    h = [float(c) for c in mask.coeffs]
    v = [float(x) for x in refinable._integer_vector(bank, which)]
    tables = []
    for lev in range(depth):
        out = []
        for j in range(2 * len(v) - 1):
            if j % 2 == 0:
                out.append(v[j // 2])
                continue
            acc = 0.0
            for n, hn in enumerate(h):
                # 2x - (n_first + n) on the coarser grid, as an index
                src = j - (n << lev)
                if 0 <= src < len(v):
                    acc += SQRT2 * hn * v[src]
            out.append(acc)
        v = out
        tables.append(np.array(v))
    return tables


def test_subdivision_matches_pointwise_reference(registry):
    for bank in registry.values():
        for which in ("primal", "dual"):
            ref = reference_subdivision(bank, which, 8)
            for depth, want in enumerate(ref, start=1):
                got = refinable.cascade(bank, which, depth).values
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), (
                    bank.bank_id, which, depth)


def test_cascade_peak_memory(db4):
    # the last level holds the coarser table, the finer one and one product
    # a quarter of the table's size: 1.75 table bytes
    refinable.cascade(db4, "primal", 1)  # imports fractions untraced
    tracemalloc.start()
    table = refinable.cascade(db4, "primal", 16)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 2.0 * table.values.nbytes


def test_db2_refinement_residual_independent_summation(db2):
    table = refinable.cascade(db2, "primal", 10)
    assert refinable.refinement_residual(table, db2) <= 1e-9
    # direct summation oracle over a sample of grid points
    h = np.asarray(db2.primal.coeffs)
    step = 2.0 ** -10
    worst = 0.0
    grid = table.values
    for i in range(0, grid.size, 37):
        x = i * step
        acc = 0.0
        for n in range(4):
            arg = 2 * x - n
            j = arg / step
            if 0 <= arg <= 3:
                acc += SQRT2 * h[n] * grid[int(round(j))]
        worst = max(worst, abs(grid[i] - acc))
    assert worst <= 1e-9


def test_db2_partition_of_unity_bruteforce(db2):
    table = refinable.cascade(db2, "primal", 10)
    assert refinable.partition_of_unity_residual(table) <= 1e-8
    # brute-force lattice sum at a few offsets
    step = 1 << 10
    for r in (1, 17, 511, 1023):
        total = sum(table.values[r + n * step] for n in range(3 + 1)
                    if r + n * step < table.values.size)
        assert abs(total - 1.0) <= 1e-8


def test_accepted_tables_refinement_residual(registry):
    for bank in registry.values():
        for which in ("primal", "dual"):
            table = refinable.cascade(bank, which, 12)
            assert refinable.refinement_residual(table, bank) <= 1e-9


# ---------------------------------------------------------------------------
# gram and biorthogonality


def test_haar_gram_identity(haar):
    g = refinable.shift_gram(haar, "primal", shifts=8, depth=10)
    assert np.abs(g - np.eye(8)).max() == 0.0


def test_db2_gram_riesz_window(db2):
    g = refinable.shift_gram(db2, "primal", shifts=32, depth=12)
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() >= 0.4 and eigs.max() <= 1.6
    # high-resolution oracle: same quadrature two octaves finer
    g16 = refinable.shift_gram(db2, "primal", shifts=32, depth=16)
    assert np.abs(g - g16).max() < 1e-6


def test_orthonormal_gram_is_identity(registry):
    for name in ("haar", "db2", "db3", "db4"):
        g = refinable.shift_gram(registry[name], "primal", shifts=16, depth=12)
        assert np.abs(g - np.eye(16)).max() <= 1e-6, name


def test_biorthogonality_residuals(registry):
    assert refinable.biorthogonality_residual(registry["haar"], 12) <= 1e-12
    for name in ("db2", "db3", "db4", "spline24"):
        res = refinable.biorthogonality_residual(registry[name], 12)
        assert res <= 1e-6, name
        # depth-16 oracle pins the converged value
        assert refinable.biorthogonality_residual(registry[name], 16) <= res + 1e-12


def test_mismatched_pair_rejected(haar, db2):
    bank = bank_from_masks("mismatch", haar.primal.coeffs, 0,
                           db2.primal.coeffs, 0)
    assert refinable.biorthogonality_residual(bank, 12) > 0.1
    assert not refinable.is_accepted(bank)
    with pytest.raises(BankRejected):
        refinable.ensure_accepted(bank)


def test_residual_depth_stability(registry):
    # quadrature-converged banks are depth-stable at 1e-8; the two whose
    # depth-12 residual still sits above the 1e-8 scale may only improve
    for name in ("haar", "db3", "db4"):
        r12 = refinable.biorthogonality_residual(registry[name], 12)
        r14 = refinable.biorthogonality_residual(registry[name], 14)
        assert abs(r12 - r14) <= 1e-8, name
    for name in ("db2", "spline24"):
        r12 = refinable.biorthogonality_residual(registry[name], 12)
        r14 = refinable.biorthogonality_residual(registry[name], 14)
        assert r14 <= r12, name


# ---------------------------------------------------------------------------
# table memo


def test_cache_shares_equal_masks(registry):
    cache = refinable.TableCache()
    for name in ("haar", "db2", "db3", "db4"):
        bank = registry[name]
        assert cache.get(bank, "primal", 7) is cache.get(bank, "dual", 7)
    spline = registry["spline24"]
    assert cache.get(spline, "primal", 7) is not cache.get(spline, "dual", 7)
    for bank in registry.values():
        for which in ("primal", "dual"):
            want = refinable.cascade(bank, which, 7)
            got = cache.get(bank, which, 7)
            assert np.array_equal(got.values, want.values)
            assert got.checksum == want.checksum
