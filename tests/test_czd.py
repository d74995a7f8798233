import dataclasses

import numpy as np
import pytest

from dyadwave import cli, czd
from dyadwave import gridfn as gf
from dyadwave import lpharness as lp
from dyadwave import mrand
from dyadwave.errors import AlphaTooSmall, DegenerateF


def spiky(depth, seed):
    rng = np.random.default_rng(seed)
    n = 2 ** depth
    data = rng.standard_normal(n) * np.exp(rng.standard_normal(n))
    return gf.GridFunction(data + 0j, depth, (int(rng.integers(-n, n)),))


# the oracle's own arithmetic on (scale, index) pairs


def grid_range(cube, depth):
    scale, index = cube
    span = 1 << (depth - scale)
    return index * span, (index + 1) * span


def width(cube):
    return 2.0 ** (-cube[0])


def parent(cube):
    return cube[0] - 1, cube[1] >> 1


def cube_list(dec):
    return [tuple(c) for c in dec.cubes.tolist()]


# ---------------------------------------------------------------------------
# worked examples


def test_no_cube_above_sup():
    chi = gf.indicator(10, ((0.0, 1.0),))
    dec = czd.cz_decompose(chi, 2.0)
    assert dec.cubes.shape == (0, 2) and dec.averages.shape == (0,)
    assert np.array_equal(dec.good.data, chi.data)
    assert dec.bad.box() == dec.good.box()
    assert not np.abs(dec.bad.data).any()


def test_single_unit_cube():
    chi = gf.indicator(10, ((0.0, 1.0),))
    dec = czd.cz_decompose(chi, 0.5)
    assert cube_list(dec) == [(0, 0)]
    assert dec.averages.tolist() == [1.0]
    assert np.abs(dec.bad.data).max() == 0.0
    assert all(c.passed for c in czd.verify_cz(dec, chi))
    assert dec.mes_w == 1.0  # alpha^-1 * ||f||_1 = 2 bounds it


def test_tall_spike_doubling_bound():
    f = gf.sample(lambda x: np.where(x < 0.25, 4.0, 0.0), 10, ((0.0, 1.0),))
    dec = czd.cz_decompose(f, 0.5)
    assert len(dec.cubes) == 1
    (cube,) = cube_list(dec)
    lo, hi = (max(x - f.origin[0], 0) for x in grid_range(cube, f.depth))
    avg = np.abs(f.data[lo:hi]).sum() * 2.0 ** -f.depth / width(cube)
    assert 0.5 < avg <= 2 * 0.5  # strict lower, doubling upper
    assert all(c.passed for c in czd.verify_cz(dec, f))


def test_preconditions():
    chi = gf.indicator(8, ((0.0, 1.0),))
    with pytest.raises(ValueError, match="positive"):
        czd.cz_decompose(chi, 0.0)
    zero = gf.GridFunction(np.zeros(16, dtype=complex), 8, (0,))
    with pytest.raises(ValueError, match="mass"):
        czd.cz_decompose(zero, 1.0)
    cplx = gf.GridFunction(np.full(16, 1j), 8, (0,))
    with pytest.raises(ValueError, match="real"):
        czd.cz_decompose(cplx, 1.0)
    f2 = gf.indicator(8, ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="one-dimensional"):
        czd.cz_decompose(f2, 1.0)


def test_real_data_is_read_in_place():
    f = cli._cz_corpus_member(8, 0)
    assert f.data.dtype == np.float64
    assert czd._real_data(f) is f.data
    nearly_real = gf.GridFunction(f.data + 1e-14j, 8, f.origin)
    assert np.array_equal(czd._real_data(nearly_real), f.data)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -1.0, 0.0])
def test_alpha_outside_open_half_line_rejected(alpha):
    chi = gf.indicator(8, ((0.0, 1.0),))
    with pytest.raises(ValueError, match="positive and finite"):
        czd.cz_decompose(chi, alpha)


def test_alpha_too_small():
    chi = gf.indicator(8, ((0.0, 1.0),))
    with pytest.raises(AlphaTooSmall):
        czd.cz_decompose(chi, 1e-14)


# ---------------------------------------------------------------------------
# oracle comparison and randomized suite


def bruteforce_stopping_time(f, alpha, root_exponent):
    """Enumerate every dyadic interval in the root; keep the maximal ones
    whose |f| average exceeds alpha (all ancestors at most alpha)."""
    data = f.data.real
    depth = f.depth
    origin = f.origin[0]
    cell = 2.0 ** (-depth)

    def avg(scale, index):
        span = 1 << (depth - scale)
        lo, hi = index * span, (index + 1) * span
        ia = min(max(lo - origin, 0), data.size)
        ib = min(max(hi - origin, 0), data.size)
        mass = float(np.abs(data[ia:ib]).sum()) * cell if ib > ia else 0.0
        return mass * 2.0 ** scale

    selected = []
    for scale in range(-root_exponent, depth + 1):
        count = 1 << (scale + root_exponent)
        for index in range(-count, count):
            if avg(scale, index) <= alpha:
                continue
            ancestors_ok = True
            s, i = scale, index
            while s > -root_exponent:
                s, i = s - 1, i >> 1
                if avg(s, i) > alpha:
                    ancestors_ok = False
                    break
            if ancestors_ok:
                selected.append((scale, index))
    return sorted(selected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_against_bruteforce_scan(seed):
    f = spiky(6, seed)
    norm1 = gf.l1_norm(f)
    for alpha in (norm1 / 4, norm1, 4 * norm1):
        dec = czd.cz_decompose(f, alpha)
        got = sorted(cube_list(dec))
        want = bruteforce_stopping_time(f, alpha, dec.root_exponent)
        assert got == want


@pytest.mark.parametrize("seed", range(20))
def test_randomized_suite(seed):
    f = spiky(10, seed)
    norm1 = gf.l1_norm(f)
    for alpha in (norm1 / 8, norm1 / 2, norm1, 2 * norm1, 8 * norm1):
        dec = czd.cz_decompose(f, alpha)
        checks = czd.verify_cz(dec, f)
        failed = [c.name for c in checks if not c.passed]
        assert not failed, (seed, alpha, failed)


def test_reconstruction_bitlevel(rng):
    f = spiky(10, 99)
    dec = czd.cz_decompose(f, gf.l1_norm(f) / 3)
    assert np.abs((dec.good + dec.bad - f).data).max() <= 1e-12


# ---------------------------------------------------------------------------
# the depth-first stopping time, the part-by-part reconstruction and the
# component scan of the first implementation, kept as a bit-level oracle


def oracle_decompose(f, alpha):
    data = f.data.real
    depth = f.depth
    origin = f.origin[0]
    size = data.size
    cell = 2.0 ** (-depth)
    total_abs = float(np.abs(data).sum()) * cell
    prefix_abs = np.concatenate([[0.0], np.cumsum(np.abs(data))]) * cell
    prefix = np.concatenate([[0.0], np.cumsum(data)]) * cell

    def integral(lo, hi, table):
        ia = min(max(lo - origin, 0), size)
        ib = min(max(hi - origin, 0), size)
        if ib <= ia:
            return 0.0
        return float(table[ib] - table[ia])

    m = 0
    scale = 1 << depth
    while (-(1 << m)) * scale > origin or (origin + size) > (1 << m) * scale:
        m += 1
    while total_abs / (2.0 ** (m + 1)) > alpha:
        m += 1

    cubes, averages = [], []
    stack = [(-m, -1), (-m, 0)]
    while stack:
        cube = stack.pop()
        lo, hi = grid_range(cube, depth)
        mass = integral(lo, hi, prefix_abs)
        if mass == 0.0:
            continue
        if mass / width(cube) > alpha:
            cubes.append(cube)
            averages.append(integral(lo, hi, prefix) / width(cube))
        elif cube[0] < depth:
            stack.append((cube[0] + 1, 2 * cube[1]))
            stack.append((cube[0] + 1, 2 * cube[1] + 1))

    order = sorted(range(len(cubes)),
                   key=lambda i: grid_range(cubes[i], depth)[0])
    cubes = [cubes[i] for i in order]
    averages = [averages[i] for i in order]

    g_lo, g_hi = origin, origin + size
    for cube in cubes:
        lo, hi = grid_range(cube, depth)
        g_lo, g_hi = min(g_lo, lo), max(g_hi, hi)
    g_data = np.zeros(g_hi - g_lo, dtype=data.dtype)
    g_data[origin - g_lo:origin - g_lo + size] = data
    bad = np.zeros_like(g_data)
    for cube, avg in zip(cubes, averages):
        lo, hi = grid_range(cube, depth)
        bad[lo - g_lo:hi - g_lo] = g_data[lo - g_lo:hi - g_lo] - avg
        g_data[lo - g_lo:hi - g_lo] = avg
    return czd.CZDecomposition(
        alpha=float(alpha), cubes=np.array(cubes, dtype=object).reshape(-1, 2),
        averages=np.array(averages, dtype=np.float64),
        good=gf.GridFunction(g_data, depth, (g_lo,)),
        bad=gf.GridFunction(bad, depth, (g_lo,)), root_exponent=m)


def oracle_verify(dec, f):
    Check = czd.Check
    data = f.data.real
    depth = f.depth
    origin = f.origin[0]
    cell = 2.0 ** (-depth)
    alpha = dec.alpha
    norm1 = gf.l1_norm(f)
    cubes = cube_list(dec)
    checks = []
    eps = 1e-12

    diff = dec.good + dec.bad - f
    worst = float(np.abs(diff.data).max())
    checks.append(Check("reconstruction", worst <= 1e-12, worst, 1e-12))

    w_mask = np.zeros(data.size, dtype=bool)
    for cube in cubes:
        lo, hi = grid_range(cube, depth)
        ia, ib = max(lo - origin, 0), min(hi - origin, data.size)
        if ib > ia:
            w_mask[ia:ib] = True
    f_vals = np.abs(data[~w_mask])
    worst_f = float(f_vals.max()) if f_vals.size else 0.0
    checks.append(Check("good_bound_on_f", worst_f <= alpha * (1 + eps),
                        worst_f, alpha))
    mes_w = float(sum(width(cube) for cube in cubes))
    checks.append(Check("mes_w", mes_w <= norm1 / alpha * (1 + eps), mes_w,
                        norm1 / alpha))
    ranges = sorted(grid_range(cube, depth) for cube in cubes)
    disjoint = all(a[1] <= b[0] for a, b in zip(ranges, ranges[1:]))
    checks.append(Check("disjoint", disjoint, 0.0 if disjoint else 1.0, 0.0))

    prefix_abs = np.concatenate([[0.0], np.cumsum(np.abs(data))]) * cell

    def integral(lo, hi):
        ia = min(max(lo - origin, 0), data.size)
        ib = min(max(hi - origin, 0), data.size)
        return float(prefix_abs[ib] - prefix_abs[ia]) if ib > ia else 0.0

    avg_lo, avg_hi, parent_ok = np.inf, 0.0, True
    for cube in cubes:
        lo, hi = grid_range(cube, depth)
        avg = integral(lo, hi) / width(cube)
        avg_lo, avg_hi = min(avg_lo, avg), max(avg_hi, avg)
        plo, phi = grid_range(parent(cube), depth)
        if integral(plo, phi) / width(parent(cube)) > alpha * (1 + eps):
            parent_ok = False
    if cubes:
        checks.append(Check("cube_avg_above", avg_lo > alpha * (1 - eps),
                            avg_lo, alpha, note="strict lower bound"))
        checks.append(Check("cube_avg_doubling",
                            avg_hi <= 2 * alpha * (1 + eps), avg_hi,
                            2 * alpha))
    checks.append(Check("parent_maximality", parent_ok,
                        0.0 if parent_ok else 1.0, 0.0))
    sup_g = float(np.abs(dec.good.data).max()) if dec.good.data.size else 0.0
    checks.append(Check("good_sup", sup_g <= 2 * alpha * (1 + eps), sup_g,
                        2 * alpha))
    g2 = gf.lp_norm(dec.good, 2) ** 2
    checks.append(Check("good_l2", g2 <= 2 * alpha * norm1 * (1 + eps), g2,
                        2 * alpha * norm1))
    checks += oracle_bad_checks(dec, f)

    if cubes:
        merged = []
        for lo, hi in ranges:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        ratios = []
        for cube in cubes:
            lo, hi = grid_range(cube, depth)
            for clo, chi in merged:
                if clo <= lo and hi <= chi:
                    mids = (np.arange(clo, chi) + 0.5) * cell
                    dists = np.minimum(mids - clo * cell, chi * cell - mids)
                    ratios.append(float(dists[lo - clo:hi - clo].min())
                                  / width(cube))
                    break
        checks.append(Check("distance_ratio_min", True, min(ratios),
                            note="measured c3, not asserted"))
        checks.append(Check("distance_ratio_max", True, max(ratios),
                            note="measured c4, not asserted"))
    return checks


def oracle_bad_checks(dec, f):
    """bad_support, bad_mean_zero and bad_l1 by two np.sum calls per cube;
    h_Q is dec.bad on the cells of Q within its box."""
    Check = czd.Check
    cell = 2.0 ** (-f.depth)
    alpha = dec.alpha
    norm1 = gf.l1_norm(f)
    eps = 1e-12
    b_lo, n = dec.bad.origin[0], dec.bad.shape[0]
    in_w = np.zeros(n, dtype=bool)
    mean_worst, l1_ok, l1_worst_ratio = 0.0, True, 0.0
    for cube in cube_list(dec):
        lo, hi = grid_range(cube, f.depth)
        ia, ib = min(max(lo - b_lo, 0), n), min(max(hi - b_lo, 0), n)
        in_w[ia:ib] = True
        part = dec.bad.data[ia:ib]
        mean_worst = max(mean_worst, abs(float(np.sum(part.real)) * cell))
        mass = float(np.abs(part).sum()) * cell
        l1_worst_ratio = max(l1_worst_ratio, mass / (alpha * width(cube)))
        l1_ok = l1_ok and mass <= 4 * alpha * width(cube) * (1 + eps)
    off_w = np.abs(dec.bad.data[~in_w])
    worst_off = float(off_w.max()) if off_w.size else 0.0
    return [Check("bad_support", worst_off <= 0.0, worst_off, 0.0),
            Check("bad_mean_zero", mean_worst <= 1e-12 * max(norm1, 1.0),
                  mean_worst, 1e-12 * max(norm1, 1.0)),
            Check("bad_l1", l1_ok, l1_worst_ratio, 4.0,
                  note="ratio to alpha * |Q|")]


def assert_same_as_oracle(f, alpha):
    got, want = czd.cz_decompose(f, alpha), oracle_decompose(f, alpha)
    assert got.cubes.dtype == np.int64 and got.cubes.shape == (
        len(want.cubes), 2)
    assert got.cubes.tolist() == want.cubes.tolist()
    assert got.root_exponent == want.root_exponent
    assert got.averages.dtype == np.float64
    assert got.averages.tobytes() == want.averages.tobytes()
    for a, b in ((got.good, want.good), (got.bad, want.bad)):
        assert a.origin == b.origin
        assert a.data.tobytes() == b.data.tobytes()
    checks = czd.verify_cz(got, f)
    assert [repr(c) for c in checks] == [
        repr(c) for c in oracle_verify(want, f)]
    return got, checks


def test_matches_oracle_on_cz_corpus():
    depth = 10
    signs, grown, single_cell, empty = set(), False, False, False
    for seed in range(6):
        f = cli._cz_corpus_member(depth, seed)
        signs.add(f.origin[0] > 0)
        cover = czd.cz_decompose(f, 1e6).root_exponent
        for alpha in (0.1, 0.3, 1.0, 2.0, 3.0, 10.0):
            dec, checks = assert_same_as_oracle(f, alpha)
            assert all(c.passed for c in checks), (seed, alpha)
            grown |= dec.root_exponent > cover
            single_cell |= bool((dec.cubes[:, 0] == depth).any())
            empty |= not len(dec.cubes)
    assert signs == {False, True}
    assert grown and single_cell and empty


@pytest.mark.parametrize("seed", range(4))
def test_matches_oracle_on_spiky(seed):
    f = spiky(9, seed)
    norm1 = gf.l1_norm(f)
    for alpha in (norm1 / 8, norm1, 8 * norm1):
        assert_same_as_oracle(f, alpha)


def test_matches_oracle_beyond_int64_coordinates():
    # a support far from 0 needs a root beyond int64 grid coordinates; the
    # cube rows then fall back to Python ints.  Compare cube by cube, and
    # the order against the exact left ends
    rng = np.random.default_rng(7)
    f = gf.GridFunction(rng.standard_normal(12) + 0j, 40, (3 << 60,))
    got, want = czd.cz_decompose(f, 0.5), oracle_decompose(f, 0.5)
    assert got.root_exponent + f.depth > 61 and len(got.cubes) > 1
    assert got.cubes.dtype == object
    lefts = [grid_range(cube, f.depth)[0] for cube in cube_list(got)]
    assert lefts == sorted(lefts)
    assert (sorted(zip(cube_list(got), got.averages.tolist()))
            == sorted(zip(cube_list(want), want.averages.tolist())))
    assert got.good.data.tobytes() == want.good.data.tobytes()
    assert all(c.passed for c in czd.verify_cz(got, f))


def test_verify_builds_one_reconstruction(monkeypatch):
    f = cli._cz_corpus_member(17, 0)
    dec = czd.cz_decompose(f, 2.0)
    assert len(dec.cubes) > 10_000
    calls = []
    real_combine = gf.combine

    def counting(*args):
        calls.append(1)
        return real_combine(*args)

    monkeypatch.setattr(gf, "combine", counting)
    checks = czd.verify_cz(dec, f)
    assert all(c.passed for c in checks)
    assert len(calls) <= 2


def test_verify_recomputes_averages():
    f = spiky(8, 3)
    dec = czd.cz_decompose(f, gf.l1_norm(f))
    forged = dataclasses.replace(dec, averages=np.zeros_like(dec.averages))
    assert czd.verify_cz(forged, f) == czd.verify_cz(dec, f)


def test_verify_flags_overlapping_cubes():
    f = gf.indicator(6, ((0.0, 1.0),))
    dec = czd.cz_decompose(f, 0.5)
    overlap = czd.CZDecomposition(
        alpha=0.5, cubes=np.array([[0, 0], [1, 1]]),
        averages=np.array([1.0, 1.0]), good=dec.good, bad=dec.bad,
        root_exponent=0)
    checks = {c.name: c for c in czd.verify_cz(overlap, f)}
    want = {c.name: c for c in oracle_verify(overlap, f)}
    assert not checks["disjoint"].passed
    assert repr(checks) == repr(want)


def test_verify_reads_cube_rows_in_any_order():
    f = cli._cz_corpus_member(10, 0)
    dec = czd.cz_decompose(f, 3.0)
    assert len(dec.cubes) > 50
    flipped = dataclasses.replace(dec, cubes=dec.cubes[::-1],
                                  averages=dec.averages[::-1])
    assert [repr(c) for c in czd.verify_cz(flipped, f)] == [
        repr(c) for c in czd.verify_cz(dec, f)]


def test_verify_rejects_cube_finer_than_grid():
    f = gf.indicator(6, ((0.0, 1.0),))
    dec = czd.cz_decompose(f, 0.5)
    fine = dataclasses.replace(dec, cubes=np.array([[0, 0], [7, 3]]),
                               averages=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finer than the grid"):
        czd.verify_cz(fine, f)


def test_verify_bad_sums_match_per_cube_loop():
    # cubes of every length from 1 cell up, summed a length at a time
    f = cli._cz_corpus_member(16, 3)
    dec = czd.cz_decompose(f, 2.0)
    assert len(dec.cubes) > 7_000
    assert len(set(dec.cubes[:, 0].tolist())) > 5
    checks = [c for c in czd.verify_cz(dec, f)
              if c.name in ("bad_support", "bad_mean_zero", "bad_l1")]
    assert [repr(c) for c in checks] == [
        repr(c) for c in oracle_bad_checks(dec, f)]


def test_decompose_builds_two_grid_functions(monkeypatch):
    f = cli._cz_corpus_member(16, 1803)
    built = []
    real_init = gf.GridFunction.__init__

    def counting(self, *args):
        built.append(1)
        real_init(self, *args)

    monkeypatch.setattr(gf.GridFunction, "__init__", counting)
    dec = czd.cz_decompose(f, 2.0)
    assert len(dec.cubes) > 1000
    assert len(built) == 2  # good and bad


def _moved_to_bad(dec, cells, delta):
    """dec with delta moved from good to bad on the cells of their box."""
    good, bad = dec.good.data.copy(), dec.bad.data.copy()
    good[cells] -= delta
    bad[cells] += delta
    return dataclasses.replace(
        dec, good=gf.GridFunction(good, dec.good.depth, dec.good.origin),
        bad=gf.GridFunction(bad, dec.bad.depth, dec.bad.origin))


def _failed(dec, f):
    return [c.name for c in czd.verify_cz(dec, f) if not c.passed]


def test_verify_flags_bad_part_off_w():
    f = spiky(8, 3)
    dec = czd.cz_decompose(f, gf.l1_norm(f))
    b_lo, in_w = dec.bad.origin[0], np.zeros(dec.bad.shape[0], dtype=bool)
    for cube in cube_list(dec):
        lo, hi = grid_range(cube, f.depth)
        in_w[lo - b_lo:hi - b_lo] = True
    assert len(dec.cubes) and not in_w.all()
    cell = np.flatnonzero(~in_w)[0]
    assert _failed(dec, f) == []
    assert _failed(_moved_to_bad(dec, cell, 1e-6), f) == ["bad_support"]


def test_verify_flags_bad_part_with_nonzero_mean():
    f = spiky(8, 3)
    dec = czd.cz_decompose(f, gf.l1_norm(f))
    lo, hi = grid_range(cube_list(dec)[0], f.depth)
    b_lo = dec.bad.origin[0]
    forged = _moved_to_bad(dec, slice(lo - b_lo, hi - b_lo), 1e-6)
    assert _failed(forged, f) == ["bad_mean_zero"]


# ---------------------------------------------------------------------------
# marcinkiewicz integral


def test_marcinkiewicz_empty_w():
    chi = gf.indicator(9, ((0.0, 1.0),))
    dec = czd.cz_decompose(chi, 2.0)
    val, mes, ratio = czd.marcinkiewicz_integral(dec, chi, radius=8.0)
    assert val == 0.0 and mes == 0.0 and ratio == 0.0


def test_marcinkiewicz_stability_under_refinement():
    def member(depth):
        return gf.sample(
            lambda x: 1.0 + 0.5 * np.sin(5 * x), depth, ((0.0, 1.0),))

    ratios = {}
    for depth in (9, 10):
        f = member(depth)
        dec = czd.cz_decompose(f, 0.7)
        val, mes, ratio = czd.marcinkiewicz_integral(dec, f, radius=8.0)
        assert np.isfinite(ratio) and ratio > 0
        ratios[depth] = ratio
    drift = abs(ratios[10] - ratios[9]) / ratios[9]
    assert drift <= 0.10


def test_marcinkiewicz_degenerate_f():
    chi = gf.indicator(8, ((0.0, 1.0),))
    dec = czd.cz_decompose(chi, 0.5)
    wide = czd.CZDecomposition(
        alpha=0.5, cubes=np.array([[-4, -1], [-4, 0]]),
        averages=np.array([1.0, 1.0]), good=dec.good, bad=dec.bad,
        root_exponent=4)
    with pytest.raises(DegenerateF):
        czd.marcinkiewicz_integral(wide, chi, radius=8.0)


# ---------------------------------------------------------------------------
# weak type


def test_weak_type_identity_example():
    chi = gf.indicator(10, ((0.0, 1.0),))
    rows = czd.weak_type_measure(lambda g: g, chi, [0.5])
    assert rows[0]["mes"] == 1.0
    assert abs(rows[0]["l1_stat"] - 0.5) < 1e-12


def test_weak_type_monotone(rng):
    f = spiky(10, 5)
    rows = czd.weak_type_measure(lambda g: g, f,
                                 [0.1, 0.3, 1.0, 3.0, 10.0])
    mes = [r["mes"] for r in rows]
    assert all(a >= b for a, b in zip(mes, mes[1:]))


def test_weak_type_l2_statistic_of_sign_operator(db4, rng):
    noise = gf.GridFunction(rng.standard_normal(2 ** 13) + 0j, 13, (0,))
    coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    member = mrand.synthesize_nd(coeffs, (0,), (4,), db4, 13)
    pat = lp.SignPattern.random(1, 4, np.random.default_rng(2))
    worst = 0.0
    for f in (noise, member):
        rows = czd.weak_type_measure(
            lambda g: lp.sign_operator(g, pat, db4), f,
            [0.02, 0.05, 0.2, 0.5, 1.0, 2.0])
        for row in rows:
            assert row["l2_stat"] <= 1.0 + 1e-6
            worst = max(worst, row["l2_stat"])
    # a full-energy member drives the statistic into the meaningful range
    assert worst > 0.2


# ---------------------------------------------------------------------------
# reports


def test_cube_csv_and_report(tmp_path):
    f = gf.sample(lambda x: np.where(x < 0.25, 4.0, 0.0), 9, ((0.0, 1.0),))
    dec = czd.cz_decompose(f, 0.5)
    czd.write_cubes_csv(dec, tmp_path / "cubes.csv")
    lines = (tmp_path / "cubes.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"scale,index,average"
    assert len(lines) == 2 + len(dec.cubes)
    report = czd.format_report(dec, czd.verify_cz(dec, f))
    assert "reconstruction: PASS" in report
    assert "alpha = 0.5" in report
