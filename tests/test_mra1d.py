import os
import tracemalloc
from pathlib import PurePosixPath

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from dyadwave import gridfn as gf
from dyadwave import mra1d, mrand, refinable
from dyadwave.errors import FrameTooLarge, LevelOverflow, ResolutionExhausted


def noise(rng, depth, size=None, origin=0):
    n = size if size is not None else 2 ** depth
    data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return gf.GridFunction(data, depth, (origin,))


def coefficients(f, level, bank):
    """{shift: c_nu} of the level-k analysis of a 1-D grid function."""
    coeffs, first = mra1d.analyze_rows(f.data[None, :], f.origin[0], f.depth,
                                       level, bank)
    return dict(enumerate(coeffs[0].tolist(), start=first))


def synthesized(values, shift_first, level, bank, depth):
    """sum_nu c_nu phi(2^level . - nu) as a 1-D grid function."""
    rows, origin = mra1d.synthesize_rows(np.asarray(values)[None, :],
                                         shift_first, level, bank, depth)
    return gf.GridFunction(rows[0], depth, (origin,))


# ---------------------------------------------------------------------------
# analyze


def test_analyze_haar_unit(haar):
    chi = gf.indicator(10, ((0.0, 1.0),))
    assert coefficients(chi, 0, haar) == {0: 1.0 + 0j}


def test_analyze_haar_level1(haar):
    chi = gf.indicator(10, ((0.0, 1.0),))
    assert coefficients(chi, 1, haar) == {0: 1.0 + 0j, 1: 1.0 + 0j}


def test_analyze_haar_linear(haar):
    xf = gf.sample(lambda x: x, 12, ((0.0, 1.0),))
    coeffs = coefficients(xf, 0, haar)
    assert set(coeffs) == {0}
    assert abs(coeffs[0] - 0.5) < 1e-12


def test_analyze_window_is_support_exact(db4, rng):
    f = noise(rng, 10, size=2 ** 10)
    c = coefficients(f, 2, db4)
    # shifts with measure-positive overlap of supp phi*(4 . - nu) and (0,1)
    assert min(c) == -6
    assert max(c) == 3
    assert len(c) == 10


def test_level_cap(haar, rng):
    f = noise(rng, 8)
    with pytest.raises(LevelOverflow):
        mrand.project_nd(f, 5, haar)
    with pytest.raises(ValueError):
        mrand.project_nd(f, -1, haar)


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_haar_unit(haar):
    g = synthesized([1.0 + 0j], 0, 0, haar, 8)
    chi = gf.indicator(8, ((0.0, 1.0),))
    assert np.array_equal(g.data, chi.data) and g.origin == chi.origin


def test_synthesize_haar_step(haar):
    g = synthesized(np.array([1.0, -1.0], dtype=complex), 0, 1, haar, 8)
    want = gf.sample(lambda x: np.where(x < 0.5, 1.0, -1.0), 8, ((0.0, 1.0),))
    assert np.array_equal(g.data, want.data)


def test_synthesize_support_box(db2, rng):
    vals = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    g = synthesized(vals, -1, 2, db2, 10)
    # box oracle: union over nu in [-1, 3] of [nu/4, (nu+3)/4], in grid
    # units of 2^-10
    assert g.box() == ((-1 * 2 ** 8, (3 + 3) * 2 ** 8),)
    assert np.isfinite(gf.lp_norm(g, 2))


def test_synthesize_headroom(haar):
    with pytest.raises(ResolutionExhausted):
        synthesized([1.0 + 0j], 0, 4, haar, 6)


# ---------------------------------------------------------------------------
# project / detail: the tensor operators at d = 1


def test_project_haar_is_cell_mean(haar, rng):
    f = noise(rng, 10, size=3 * 2 ** 10)
    e0 = mrand.project_nd(f, 0, haar)
    # independent averaging oracle
    means = f.data.reshape(3, 2 ** 10).mean(axis=1)
    want = np.repeat(means, 2 ** 10)
    sel = slice(0, want.size)
    got = gf.embed(e0, f.box())
    assert np.abs(got - want).max() < 1e-12


def test_project_reproduces_basis_function(db4):
    table = refinable.cascade(db4, "primal", 13)
    phi = gf.GridFunction(table.midpoint_samples(12).astype(complex), 12, (0,))
    shifted = gf.GridFunction(phi.data, 12, (3 * 2 ** 10,))
    for f in (phi, shifted):
        e = mrand.project_nd(f, 2, db4)
        assert gf.lp_norm(e - f, 2) <= 1e-6 * gf.lp_norm(f, 2)


def test_project_kernel_element(haar):
    w = gf.sample(lambda x: np.where(x < 0.5, 1.0, -1.0), 10, ((0.0, 1.0),))
    e0 = mrand.project_nd(w, 0, haar)
    assert np.abs(e0.data).max() <= 1e-12


def test_project_support_growth(db4, rng):
    f = noise(rng, 10, size=2 ** 10)
    e0 = mrand.project_nd(f, 0, db4)
    lo, hi = e0.box()[0]
    # fattening by at most the two supports at scale 1, in grid units
    assert lo >= (0 - 7) * 2 ** 10 and hi <= (1 + 7) * 2 ** 10


def test_detail_level0_is_projection(haar, rng):
    f = noise(rng, 9)
    d0 = mrand.mixed_detail(f, 0, haar)
    e0 = mrand.project_nd(f, 0, haar)
    assert np.array_equal(d0.data, e0.data) and d0.origin == e0.origin


def test_detail_vanishes_on_coarse_space(haar):
    chi = gf.indicator(10, ((0.0, 1.0),))
    for level in (1, 2, 3):
        d = mrand.mixed_detail(chi, level, haar)
        assert np.abs(d.data).max() <= 1e-12


def test_detail_telescoping(db3, rng):
    f = noise(rng, 12)
    acc = mrand.mixed_detail(f, 0, db3)
    for level in range(1, 6):
        acc = acc + mrand.mixed_detail(f, level, db3)
    ek = mrand.project_nd(f, 5, db3)
    assert gf.lp_norm(acc - ek, 2) <= 1e-10 * gf.lp_norm(f, 2)


# ---------------------------------------------------------------------------
# operator identities


@pytest.mark.parametrize("bank_name,depth,tol", [
    ("haar", 10, 1e-8),
    ("db4", 14, 1e-8),
])
def test_projector_algebra(registry, rng, bank_name, depth, tol):
    bank = registry[bank_name]
    f = noise(rng, depth, size=2 ** depth)
    g = noise(rng, depth, size=2 ** depth)
    nf, ng = gf.lp_norm(f, 2), gf.lp_norm(g, 2)
    levels = (0, 2, 5)
    proj = {k: mrand.project_nd(f, k, bank) for k in levels}
    for k in levels:
        again = mrand.project_nd(proj[k], k, bank)
        assert gf.lp_norm(again - proj[k], 2) <= tol * nf
    for k in levels:
        for kp in levels:
            if kp < k:
                down = mrand.project_nd(proj[k], kp, bank)
                assert gf.lp_norm(down - proj[kp], 2) <= tol * nf
                up = mrand.project_nd(proj[kp], k, bank)
                assert gf.lp_norm(up - proj[kp], 2) <= tol * nf
    det_f = {k: mrand.mixed_detail(f, k, bank) for k in levels}
    det_g = {k: mrand.mixed_detail(g, k, bank) for k in levels}
    for k in levels:
        for kp in levels:
            if kp < k:
                ip = gf.inner_product(det_f[k], det_g[kp])
                assert abs(ip) <= tol * nf * ng
    for k in levels:
        lhs = gf.inner_product(proj[k], g)
        rhs = gf.inner_product(f, mrand.project_nd(g, k, bank))
        assert abs(lhs - rhs) <= tol * nf * ng


@pytest.mark.parametrize("bank_name,depth,level", [
    ("haar", 10, 6),
    ("db4", 11, 3),
])
def test_parseval_for_synthesized(registry, rng, bank_name, depth, level):
    bank = registry[bank_name]
    coeffs = (rng.standard_normal(2 ** level)
              + 1j * rng.standard_normal(2 ** level))
    f = mrand.synthesize_nd(coeffs, (0,), (level,), bank, depth)
    n2 = gf.lp_norm(f, 2) ** 2
    total = sum(gf.lp_norm(mrand.mixed_detail(f, k, bank), 2) ** 2
                for k in range(level + 1))
    assert abs(n2 - total) <= 1e-8 * n2


def test_convergence_c1_bump(db4):
    f = gf.sample(lambda x: np.cos(np.pi * (x - 0.5)) ** 2, 14, ((0.0, 1.0),))
    n2 = gf.lp_norm(f, 2)
    errs = [gf.lp_norm(f - mrand.project_nd(f, k, db4), 2) / n2
            for k in range(7)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-3


def test_uniform_boundedness(db4, rng):
    # corpus with content at every scale so the per-level sup means something
    depth, top = 13, 5
    corpus = [gf.sample(lambda x: np.exp(-((x - 0.5) / 0.2) ** 2), depth,
                        ((0.0, 1.0),))]
    for k in range(top + 1):
        c = (rng.standard_normal(2 ** k) + 1j * rng.standard_normal(2 ** k))
        corpus.append(mrand.synthesize_nd(c, (0,), (k,), db4, depth))
    for p in (1.5, 2.0, 4.0):
        sups = []
        for k in range(top + 1):
            sups.append(max(
                gf.lp_norm(mrand.project_nd(f, k, db4), p) / gf.lp_norm(f, p)
                for f in corpus))
        assert max(sups) <= 1.25
        assert (max(sups) - min(sups)) / min(sups) <= 0.10


# ---------------------------------------------------------------------------
# row kernels


def _shift_loop(coeffs, taps, stride):
    """Oracle: the plain loop over shifts, with uncast taps."""
    rows, count = coeffs.shape
    out = np.zeros((rows, (count - 1) * stride + taps.size),
                   np.result_type(coeffs, taps))
    for j in range(count):
        out[:, j * stride:j * stride + taps.size] += coeffs[:, j:j + 1] * taps
    return out


@pytest.mark.parametrize("count, ntaps, stride", [
    (40, 7, 2), (40, 24, 4), (5, 48, 16), (300, 48, 16)])
def test_scatter_adds_in_shift_order(rng, monkeypatch, count, ntaps, stride):
    # oracle: the plain loop over shifts, compared bit for bit, on complex
    # and on real coefficients; small row tiles exercise the tiling for
    # either item size
    monkeypatch.setattr(mra1d, "SCATTER_TILE_BYTES", 1000)
    c = rng.standard_normal((5, count)) + 1j * rng.standard_normal((5, count))
    taps = rng.standard_normal(ntaps)
    for coeffs in (c, c.real.copy()):
        want = _shift_loop(coeffs, taps.astype(coeffs.dtype), stride)
        got = mra1d._scatter(coeffs, taps, stride)
        assert got.dtype == coeffs.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count, ntaps, stride", [
    (40, 7, 2), (40, 24, 4), (5, 48, 16), (300, 48, 16)])
def test_scatter_window_has_the_bits_of_the_frame(rng, count, ntaps,
                                                   stride):
    # a window of columns, made by either loop, has the bits of the same
    # columns of the whole output: edges, single columns, odd runs
    c = rng.standard_normal((3, count)) + 1j * rng.standard_normal((3, count))
    taps = rng.standard_normal(ntaps)
    for coeffs in (c, c.real.copy(), c[:1]):
        whole = mra1d._scatter(coeffs, taps, stride)
        width = whole.shape[1]
        windows = [(0, width), (0, 1), (width - 1, width),
                   (stride + 1, min(width, 3 * stride + ntaps - 1))]
        for a, b in rng.integers(0, width, size=(12, 2)):
            windows.append((min(a, b), max(a, b) + 1))
        for a, b in windows:
            got = mra1d._scatter(coeffs, taps, stride, (a, b))
            assert got.dtype == whole.dtype
            assert got.tobytes() == whole[:, a:b].tobytes(), (a, b)


@pytest.mark.parametrize("count, ntaps, stride", [(20, 896, 128),
                                                  (300, 48, 16)])
@pytest.mark.parametrize("layout", ["contiguous", "strided", "broadcast"])
def test_scatter_keeps_the_callers_buffer_and_bits(rng, at_buffer, count,
                                                   ntaps, stride, layout):
    # the loop runs under the kernel's small ufunc buffer with cast taps:
    # the caller's buffer size comes back, and the bits are those of the
    # plain loop over shifts at numpy's default buffer with uncast taps
    c = rng.standard_normal((36, 2 * count)) + 1j * rng.standard_normal(
        (36, 2 * count))
    c = {"contiguous": c[:, :count].copy(), "strided": c[:, ::2],
         "broadcast": np.broadcast_to(c[:1, :count], (36, count))}[layout]
    taps = rng.standard_normal(ntaps)
    for coeffs in (c, c.real):
        want = _shift_loop(coeffs, taps, stride)
        for size in (np.getbufsize(), 4096):
            got = at_buffer(size, mra1d._scatter, coeffs, taps, stride)
            assert got.tobytes() == want.tobytes()


def _signed_zeros(rng, rows, count, ntaps):
    """Complex coefficients and real taps with +0.0 and -0.0 among them,
    so that some products are -0.0."""
    c = rng.standard_normal((rows, 2 * count)) + 1j * rng.standard_normal(
        (rows, 2 * count))
    c[:, ::5] = -0.0
    c[:, 1::7] = 0.0
    c.imag[:, 2::3] = -0.0
    taps = rng.standard_normal(ntaps)
    taps[::4] = 0.0
    return c, taps


SCATTER_LOOPS = {"by shift", "by phase, broadcast", "by phase, per column",
                 "by phase, one term"}


def test_scatter_by_phase_has_the_bits_of_the_shift_loop(rng, monkeypatch,
                                                          at_buffer):
    # one-row stacks with windows at the edges and off the stride, stacks
    # of rows whose runs of taps tile the row, up-steps whose last phase
    # row overhangs and an empty stack, against the plain loop over shifts
    # bit for bit: real and complex, contiguous, strided and broadcast
    # coefficients, with signed zeros, under a caller's buffer size; the
    # output is C-contiguous, and the spy sees every loop (by shift, by
    # phase as broadcast runs, per phase column or one term per cell)
    reached = set()

    def spy(name, loop):
        def call(coeffs, taps, stride, *window):
            form = ("by shift" if name == "shift" else
                    "by phase, one term" if taps.size == stride else
                    "by phase, per column" if window[-1] else
                    "by phase, broadcast")
            reached.add(form)
            return loop(coeffs, taps, stride, *window)
        return call

    for name in ("shift", "phase"):
        loop = f"_scatter_by_{name}"
        monkeypatch.setattr(mra1d, loop, spy(name, getattr(mra1d, loop)))
    monkeypatch.setattr(mra1d, "SCATTER_TILE_BYTES", 4096)
    cases = [(1, 60, 112, 16), (1, 60, 100, 16), (1, 40, 16, 16),
             (1, 300, 48, 16), (1, 3, 100, 64), (1, 300, 4, 4),
             (6, 5, 16, 16), (6, 1, 32, 32), (6, 300, 2, 2), (6, 5, 10, 16),
             (6, 8, 48, 16), (6, 300, 3, 2), (0, 60, 16, 16),
             (0, 300, 3, 2)]
    for rows, count, ntaps, stride in cases:
        c, taps = _signed_zeros(rng, rows, count, ntaps)
        layouts = (c[:, :count].copy(), c[:, ::2],
                   np.broadcast_to(c[:1, :count], (rows, count)))
        for coeffs in layouts + tuple(x.real for x in layouts):
            want = _shift_loop(coeffs, taps, stride)
            width = want.shape[1]
            windows = [(stride + 1, min(width, 3 * stride + 5)),
                       (stride, width - stride + 1)]
            for a, b in rng.integers(0, width, size=(4, 2)):
                windows.append((min(a, b), max(a, b) + 1))
            for cols in [None, (0, 1), (width - 1, width)] + [
                    w for w in windows if w[0] < w[1]]:
                got = at_buffer(4096, mra1d._scatter, coeffs, taps, stride,
                                cols)
                a, b = cols or (0, width)
                assert got.dtype == want.dtype and got.flags.c_contiguous
                assert got.tobytes() == want[:, a:b].tobytes(), (
                    rows, count, ntaps, stride, cols)
                assert got.shape == (rows, b - a)
    assert reached == SCATTER_LOOPS


def _pads(n, first, count, stride, size):
    """Zero cells the windows reach left and right of rows of n cells."""
    return max(0, -first), max(0, first + (count - 1) * stride + size - n)


def _padded_gather(rows, first, count, stride, taps):
    """Oracle: the windows as a strided view of a zero-padded copy of the
    whole stack of rows."""
    pad_l, pad_r = _pads(rows.shape[1], first, count, stride, taps.size)
    padded = np.pad(rows, ((0, 0), (pad_l, pad_r)))
    s0, s1 = padded.strides
    view = as_strided(padded[:, first + pad_l:],
                      shape=(len(rows), count, taps.size),
                      strides=(s0, stride * s1, s1))
    out = np.einsum("ijk,k->ij", view, taps.astype(np.complex128))
    return out if np.iscomplexobj(rows) else out.real


def _gather_rows(rng, n):
    """Real and complex rows with exact (and negative) zeros among them."""
    real = rng.standard_normal((6, n))
    real[:, ::3] = 0.0
    real[0], real[1] = 0.0, -0.0
    return real, real + 1j * rng.standard_normal((6, n))


def _window_runs(n, size, stride, firsts):
    """(first, count) of runs of windows from each first: those that end
    inside the rows, and all that start inside them."""
    for first in firsts:
        for count in sorted({(n - size - first) // stride + 1,
                             (n - 1 - first) // stride + 1}):
            if count >= 1:
                yield first, count


ALL_OVERHANGS = {(False, False), (True, False), (False, True), (True, True)}


@pytest.mark.parametrize("bank_name", ["haar", "db2", "db3", "db4",
                                       "spline24"])
def test_gather_matches_padded_window(registry, rng, bank_name):
    # the analysis taps at two gaps and the down-step mask, against the
    # padded-copy oracle bit for bit: rows shorter than the window, whose
    # windows all leave them, and longer rows whose windows overhang on
    # neither side, the left, the right and both
    dual = registry[bank_name].dual
    tap_sets = [(mra1d._table(registry[bank_name], "dual", gap)
                 .midpoint_samples(gap), 1 << gap) for gap in (4, 7)]
    tap_sets.append((dual.array() / refinable.SQRT2, 2))
    for taps, stride in tap_sets:
        size, overhangs = taps.size, set()
        for n in sorted({1, size // 2 + 1, size - 1, size, size + 37,
                         3 * size + stride + 5}):
            firsts = (-(size - 1), -(size // 2), 0, 1)
            for first, count in _window_runs(n, size, stride, firsts):
                pad_l, pad_r = _pads(n, first, count, stride, size)
                if n >= size:
                    overhangs.add((pad_l > 0, pad_r > 0))
                for rows in _gather_rows(rng, n):
                    want = _padded_gather(rows, first, count, stride, taps)
                    got = mra1d._gather(rows, first, count, stride, taps)
                    assert got.dtype == rows.dtype
                    assert got.tobytes() == want.tobytes(), (n, first, count)
        assert overhangs == ALL_OVERHANGS


def test_gather_long_real_window_adds_in_sequence(rng):
    # a window longer than einsum's cast buffer (8,192 elements), on rows
    # shorter and longer than it with every overhang: real rows are cast
    # to complex before the contraction, so each output adds its taps in
    # sequence, with the bits of the padded copy of the rows cast to
    # complex; complex rows match the padded copy of themselves
    taps = rng.standard_normal(8192 + 808)
    overhangs = set()
    for n in (5000, 2 * taps.size + 3000):
        real, cplx = _gather_rows(rng, n)
        for stride in (512, 1024, 2048):
            firsts = (-(taps.size - stride), 0)
            for first, count in _window_runs(n, taps.size, stride, firsts):
                pad_l, pad_r = _pads(n, first, count, stride, taps.size)
                overhangs.add((pad_l > 0, pad_r > 0))
                args = (first, count, stride, taps)
                want = _padded_gather(real.astype(complex), *args).real
                got = mra1d._gather(real, *args)
                assert got.tobytes() == want.tobytes(), (n, stride, first,
                                                         count)
                got = mra1d._gather(cplx, *args)
                assert got.tobytes() == _padded_gather(cplx, *args).tobytes()
    assert overhangs == ALL_OVERHANGS


def test_gather_pads_only_the_edges(db4, rng):
    # the windows that overhang are contracted against tap matrices over
    # the columns they reach: no zero-padded copy of the rows, not even of
    # the columns at the edges
    gap = 7
    taps = mra1d._table(db4, "dual", gap).midpoint_samples(gap)
    stride = 1 << gap
    rows = rng.standard_normal((64, 8192)) + 1j * rng.standard_normal(
        (64, 8192))
    first = -(taps.size - stride)
    count = (rows.shape[1] - 1 - first) // stride + 1
    tracemalloc.start()
    try:
        mra1d._gather(rows, first, count, stride, taps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes // 16


def test_scatter_refuses_frame_over_memory_budget(monkeypatch, rng):
    # 6 MiB of physical memory allow one frame of 1 MiB: 131,072 float64
    # cells, or 65,536 complex128
    pages = {"SC_PHYS_PAGES": 1536, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    taps = np.ones(1024)
    assert mra1d._scatter(np.ones((128, 1)), taps, 1024).nbytes == 1 << 20
    with pytest.raises(FrameTooLarge, match="physical memory"):
        mra1d._scatter(np.ones((128, 2)), taps, 1024)
    with pytest.raises(FrameTooLarge):
        mra1d._scatter(np.ones((128, 1), dtype=complex), taps, 1024)
    # a one-row window is made from whole phase rows: 131,072 columns
    # fit on a stride multiple, and the same width one column later
    # spans a stride more
    row, runs = np.ones((1, 200)), np.ones(7 * 1024)
    window = mra1d._scatter(row, runs, 1024, (1024, 1024 + (1 << 17)))
    assert window.nbytes == 1 << 20
    with pytest.raises(FrameTooLarge):
        mra1d._scatter(row, runs, 1024, (1025, 1025 + (1 << 17)))
    # a refused frame leaves the caller's ufunc buffer size as it was
    with np.errstate():
        np.setbufsize(4096)
        with pytest.raises(FrameTooLarge):
            mra1d._scatter(np.ones((128, 2)), taps, 1024)
        assert np.getbufsize() == 4096


def test_frame_budget_is_the_lower_of_memory_and_cgroup_limit(monkeypatch):
    # 64 MiB of physical memory; a cgroup limit below it sets the budget
    # and a higher one, or none, does not
    pages = {"SC_PHYS_PAGES": 16384, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    for limit, budget in [(None, 64 << 20), (1 << 40, 64 << 20),
                          (48 << 20, 48 << 20)]:
        monkeypatch.setattr(gf, "_cgroup_limit", lambda: limit)
        assert gf.memory_budget() == budget
    # a 1,024 x 1,024 float64 frame, 8 MiB, takes a sixth of 48 MiB
    gf.check_frame((1024, 1024), np.float64)
    frame = mra1d._scatter(np.ones((1024, 1)), np.ones(1024), 1)
    assert frame.nbytes == 8 << 20
    monkeypatch.setattr(gf, "_cgroup_limit", lambda: (48 << 20) - 1)
    with pytest.raises(FrameTooLarge, match="cgroup limit"):
        gf.check_frame((1024, 1024), np.float64)
    with pytest.raises(FrameTooLarge):
        mra1d._scatter(np.ones((1024, 1)), np.ones(1024), 1)


def test_cgroup_limit_reads_v1_and_v2_files(monkeypatch):
    # the lowest number among the process's cgroup and its ancestors, in
    # the v1 memory hierarchy and the v2 unified one; "max" is no limit,
    # and other v1 controllers are not read
    files = {
        "/proc/self/cgroup": "5:cpu:/x\n4:memory:/a/b\n0::/c\n",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n",
        "/sys/fs/cgroup/memory/a/memory.limit_in_bytes": "3000000000\n",
        "/sys/fs/cgroup/memory/a/b/memory.limit_in_bytes":
            "9223372036854771712\n",
        "/sys/fs/cgroup/memory/x/memory.limit_in_bytes": "1\n",
        "/sys/fs/cgroup/c/memory.max": "max\n",
    }

    class FakePath(PurePosixPath):
        def read_text(self):
            if str(self) not in files:
                raise FileNotFoundError(str(self))
            return files[str(self)]

    monkeypatch.setattr(gf, "Path", FakePath)
    read = gf._cgroup_limit.__wrapped__  # past the once-per-process memo
    assert read() == 3000000000
    files["/sys/fs/cgroup/memory.max"] = "2000000000\n"
    assert read() == 2000000000
    files["/proc/self/cgroup"] = "0::/c\n"
    files["/sys/fs/cgroup/memory.max"] = "max\n"
    assert read() is None
    del files["/proc/self/cgroup"]
    assert read() is None
