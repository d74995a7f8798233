import os
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from dyadwave import gridfn as gf
from dyadwave import lpharness as lp
from dyadwave import mra1d, refinable
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
        mra1d.project(f, 5, haar)
    with pytest.raises(ValueError):
        mra1d.project(f, -1, haar)


def test_analyze_needs_1d(haar, rng):
    f = gf.GridFunction(rng.standard_normal((8, 8)) + 0j, 6, (0, 0))
    with pytest.raises(ValueError, match="1-D"):
        mra1d.project(f, 0, haar)


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
# project / detail


def test_project_haar_is_cell_mean(haar, rng):
    f = noise(rng, 10, size=3 * 2 ** 10)
    e0 = mra1d.project(f, 0, haar)
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
        e = mra1d.project(f, 2, db4)
        assert gf.lp_norm(e - f, 2) <= 1e-6 * gf.lp_norm(f, 2)


def test_project_kernel_element(haar):
    w = gf.sample(lambda x: np.where(x < 0.5, 1.0, -1.0), 10, ((0.0, 1.0),))
    e0 = mra1d.project(w, 0, haar)
    assert np.abs(e0.data).max() <= 1e-12


def test_project_support_growth(db4, rng):
    f = noise(rng, 10, size=2 ** 10)
    e0 = mra1d.project(f, 0, db4)
    lo, hi = e0.box()[0]
    # fattening by at most the two supports at scale 1, in grid units
    assert lo >= (0 - 7) * 2 ** 10 and hi <= (1 + 7) * 2 ** 10


def test_detail_level0_is_projection(haar, rng):
    f = noise(rng, 9)
    d0 = mra1d.detail(f, 0, haar)
    e0 = mra1d.project(f, 0, haar)
    assert np.array_equal(d0.data, e0.data) and d0.origin == e0.origin


def test_detail_vanishes_on_coarse_space(haar):
    chi = gf.indicator(10, ((0.0, 1.0),))
    for level in (1, 2, 3):
        assert np.abs(mra1d.detail(chi, level, haar).data).max() <= 1e-12


def test_detail_telescoping(db3, rng):
    f = noise(rng, 12)
    acc = mra1d.detail(f, 0, db3)
    for level in range(1, 6):
        acc = acc + mra1d.detail(f, level, db3)
    ek = mra1d.project(f, 5, db3)
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
    proj = {k: mra1d.project(f, k, bank) for k in levels}
    for k in levels:
        again = mra1d.project(proj[k], k, bank)
        assert gf.lp_norm(again - proj[k], 2) <= tol * nf
    for k in levels:
        for kp in levels:
            if kp < k:
                down = mra1d.project(proj[k], kp, bank)
                assert gf.lp_norm(down - proj[kp], 2) <= tol * nf
                up = mra1d.project(proj[kp], k, bank)
                assert gf.lp_norm(up - proj[kp], 2) <= tol * nf
    det_f = {k: mra1d.detail(f, k, bank) for k in levels}
    det_g = {k: mra1d.detail(g, k, bank) for k in levels}
    for k in levels:
        for kp in levels:
            if kp < k:
                ip = gf.inner_product(det_f[k], det_g[kp])
                assert abs(ip) <= tol * nf * ng
    for k in levels:
        lhs = gf.inner_product(proj[k], g)
        rhs = gf.inner_product(f, mra1d.project(g, k, bank))
        assert abs(lhs - rhs) <= tol * nf * ng


@pytest.mark.parametrize("bank_name,depth,level", [
    ("haar", 10, 6),
    ("db4", 11, 3),
])
def test_parseval_for_synthesized(registry, rng, bank_name, depth, level):
    bank = registry[bank_name]
    coeffs = (rng.standard_normal(2 ** level)
              + 1j * rng.standard_normal(2 ** level))
    f = lp.synthesize_nd(coeffs, (0,), (level,), bank, depth)
    n2 = gf.lp_norm(f, 2) ** 2
    total = sum(gf.lp_norm(mra1d.detail(f, k, bank), 2) ** 2
                for k in range(level + 1))
    assert abs(n2 - total) <= 1e-8 * n2


def test_convergence_c1_bump(db4):
    f = gf.sample(lambda x: np.cos(np.pi * (x - 0.5)) ** 2, 14, ((0.0, 1.0),))
    n2 = gf.lp_norm(f, 2)
    errs = [gf.lp_norm(f - mra1d.project(f, k, db4), 2) / n2
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
        corpus.append(lp.synthesize_nd(c, (0,), (k,), db4, depth))
    for p in (1.5, 2.0, 4.0):
        sups = []
        for k in range(top + 1):
            sups.append(max(
                gf.lp_norm(mra1d.project(f, k, db4), p) / gf.lp_norm(f, p)
                for f in corpus))
        assert max(sups) <= 1.25
        assert (max(sups) - min(sups)) / min(sups) <= 0.10


# ---------------------------------------------------------------------------
# row kernels


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
        t = taps.astype(coeffs.dtype)
        want = np.zeros((5, (count - 1) * stride + ntaps), dtype=coeffs.dtype)
        for j in range(count):
            want[:, j * stride:j * stride + ntaps] += coeffs[:, j:j + 1] * t
        got = mra1d._scatter(coeffs, taps, stride)
        assert got.dtype == coeffs.dtype and np.array_equal(got, want)


def _padded_gather(rows, first, count, stride, taps):
    """Oracle: the windows as a strided view of zero-padded rows."""
    pad_l = max(0, -first)
    pad_r = max(0, first + (count - 1) * stride + taps.size - rows.shape[1])
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


@pytest.mark.parametrize("bank_name", ["haar", "db2", "db3", "db4",
                                       "spline24"])
def test_gather_matches_padded_window(registry, rng, monkeypatch, bank_name):
    # the analysis taps at two gaps and the down-step mask, rows shorter
    # and longer than the window, compared bit for bit; the short rows
    # (the tap-matrix branch) pad nothing
    dual = registry[bank_name].dual
    tap_sets = [(mra1d._table(registry[bank_name], "dual", gap)
                 .midpoint_samples(gap), 1 << gap) for gap in (4, 7)]
    tap_sets.append((dual.array() / refinable.SQRT2, 2))
    pad = np.pad
    for taps, stride in tap_sets:
        for n in sorted({1, taps.size // 2 + 1, taps.size - 1, taps.size,
                         taps.size + 37}):
            for first in (-(taps.size - 1), -(taps.size // 2), 0, 1):
                count = max(1, (n - 1 - first) // stride + 1)
                for rows in _gather_rows(rng, n):
                    want = _padded_gather(rows, first, count, stride, taps)
                    if n < taps.size:
                        monkeypatch.setattr(np, "pad", None)
                    got = mra1d._gather(rows, first, count, stride, taps)
                    monkeypatch.setattr(np, "pad", pad)
                    assert got.dtype == rows.dtype
                    assert got.tobytes() == want.tobytes(), (n, first)


def test_gather_long_real_window_keeps_window_path(rng):
    # einsum casts real rows in buffers of EINSUM_BUFFER elements and adds
    # a longer window in parts, so a tap matrix would change the bits:
    # such rows stay on the padded window path; complex rows need no cast
    taps = rng.standard_normal(mra1d.EINSUM_BUFFER + 808)
    real, cplx = _gather_rows(rng, 5000)
    differs = False
    for stride in (512, 1024, 2048):
        first = -(taps.size - stride)
        count = (5000 - 1 - first) // stride + 1
        for rows in (real, cplx):
            want = _padded_gather(rows, first, count, stride, taps)
            got = mra1d._gather(rows, first, count, stride, taps)
            assert got.tobytes() == want.tobytes(), stride
        k = np.arange(5000) - first - stride * np.arange(count)[:, None]
        inside = (k >= 0) & (k < taps.size)
        tap_matrix = np.where(inside, taps[k * inside], 0).astype(complex)
        by_matrix = np.einsum("ix,jx->ij", real, tap_matrix).real
        differs |= by_matrix.tobytes() != want.tobytes()
    assert differs


def test_level_sums_releases_input_rows(db4, rng):
    rows = rng.standard_normal((4, 2 ** 9))
    alive = weakref.ref(rows)
    sums = mra1d.level_sums(rows, 0, 9, [(1.0,), (0.0, 1.0), (-1.0, 1.0)],
                            db4)
    del rows
    first = next(sums)
    assert alive() is None  # only the top analysis reads the rows
    assert len(list(sums)) == 2 and first[0].shape[0] == 4


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
