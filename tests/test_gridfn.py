import math

import numpy as np
import pytest

from dyadwave import gridfn as gf
from dyadwave.errors import BadExponent, DepthMismatch, ResolutionExhausted


def random_gridfn(rng, shape, depth, origin=None):
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if origin is None:
        origin = (0,) * len(shape) if isinstance(shape, tuple) else (0,)
    return gf.GridFunction(data, depth, origin)


# ---------------------------------------------------------------------------
# construction


def test_dimension_cap(rng):
    with pytest.raises(ValueError, match="dimension"):
        gf.GridFunction(np.zeros((2, 2, 2, 2), dtype=complex), 8, (0, 0, 0, 0))


def test_nan_rejected():
    data = np.array([1.0, np.nan], dtype=complex)
    with pytest.raises(ValueError, match="NaN"):
        gf.GridFunction(data, 8, (0,))


def test_immutability(rng):
    f = random_gridfn(rng, (16,), 8)
    with pytest.raises(ValueError):
        f.data[0] = 1.0


def test_sample_box_alignment():
    with pytest.raises(ValueError, match="lattice"):
        gf.sample(lambda x: x, 4, ((0.0, 0.3),))


# ---------------------------------------------------------------------------
# inner product and norms


def test_indicator_inner_products():
    chi01 = gf.indicator(12, ((0.0, 1.0),))
    chi12 = gf.indicator(12, ((1.0, 2.0),))
    assert gf.inner_product(chi01, chi01) == 1.0 + 0j
    assert gf.inner_product(chi01, chi12) == 0j


def test_linear_times_indicator():
    xf = gf.sample(lambda x: x, 12, ((0.0, 1.0),))
    chi = gf.indicator(12, ((0.0, 1.0),))
    assert abs(gf.inner_product(xf, chi).real - 0.5) < 1e-6
    assert abs(gf.lp_norm(xf, 2) - 3 ** -0.5) < 1e-6


def test_lp_norm_examples():
    chi2 = gf.indicator(10, ((0.0, 1.0), (0.0, 1.0)))
    for p in (1.5, 2, 3, 7):
        assert abs(gf.lp_norm(chi2, p) - 1.0) < 1e-12
    chi = gf.indicator(10, ((0.0, 1.0),))
    assert abs(gf.lp_norm(2.0 * chi, 3) - 2.0) < 1e-12


def test_lp_norm_matches_power_formula(rng):
    # dyadic exponents take the sqrt/multiply chain, the others libm pow
    f = random_gridfn(rng, (37, 29), 6)
    ps = (1.25, 1.5, 2.0, 3.0, 4.0, 1.3, 7.5, 17.0)
    direct = [float(np.sum(np.abs(f.data) ** p) * f.cell_volume) ** (1 / p)
              for p in ps]
    norms = gf.lp_norms(f, ps)
    for p, want, got in zip(ps, direct, norms):
        assert abs(got - want) <= 1e-13 * want, p
        assert gf.lp_norm(f, p) == got


def test_bad_exponents():
    chi = gf.indicator(8, ((0.0, 1.0),))
    for p in (1.0, 0.5, 0, -2, float("inf"), float("nan")):
        with pytest.raises(BadExponent):
            gf.lp_norm(chi, p)


def test_quadrature_consistency(rng):
    f = random_gridfn(rng, (256,), 9)
    lhs = gf.lp_norm(f, 2) ** 2
    rhs = gf.inner_product(f, f).real
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_conjugate_symmetry_exact(rng):
    f = random_gridfn(rng, (64,), 8)
    g = random_gridfn(rng, (64,), 8, origin=(13,))
    assert gf.inner_product(f, g) == np.conj(gf.inner_product(g, f))


def test_hoelder(rng):
    for p in (1.5, 2.0, 4.0):
        q = p / (p - 1)
        for _ in range(5):
            f = random_gridfn(rng, (128,), 8)
            g = random_gridfn(rng, (128,), 8)
            lhs = abs(gf.inner_product(f, g))
            assert lhs <= gf.lp_norm(f, p) * gf.lp_norm(g, q) + 1e-9


def test_depth_mismatch(rng):
    f = random_gridfn(rng, (8,), 6)
    g = random_gridfn(rng, (8,), 7)
    with pytest.raises(DepthMismatch):
        gf.inner_product(f, g)
    with pytest.raises(DepthMismatch):
        _ = f + g


@pytest.mark.parametrize("f_box, g_box", [
    (((3, 7),), ((0, 12),)),                   # g sticks out on both sides
    (((0, 12),), ((3, 7),)),                   # g inside f
    (((0, 5),), ((8, 11),)),                   # apart, with a gap
    (((2, 6), (1, 9)), ((0, 8), (4, 5))),      # 2-D, both ways per axis
])
def test_combine_matches_embedded_ufunc(rng, f_box, g_box):
    def make(box):
        shape = tuple(hi - lo for lo, hi in box)
        return random_gridfn(rng, shape, 6, tuple(lo for lo, _ in box))

    f, g = make(f_box), make(g_box)
    box = gf.union_box(f_box, g_box)
    for got, op in ((f + g, np.add), (f - g, np.subtract)):
        want = op(gf.embed(f, box), gf.embed(g, box))
        assert got.origin == tuple(lo for lo, _ in box)
        assert got.data.tobytes() == want.tobytes()
    assert not f.data.flags.writeable and not g.data.flags.writeable


# ---------------------------------------------------------------------------
# dilation


def test_dilate_identity(rng):
    f = random_gridfn(rng, (32,), 8)
    g = gf.dilate(f, 0)
    assert g.depth == f.depth and np.array_equal(g.data, f.data)


def test_dilate_indicator_halves():
    chi = gf.indicator(8, ((0.0, 1.0),))
    g = gf.dilate(chi, 1)
    assert g.support() == ((0.0, 0.5),)
    assert abs(gf.l1_norm(g) - 0.5) < 1e-15


def test_dilate_norm_law(rng):
    f = random_gridfn(rng, (512,), 10)
    g = gf.dilate(f, 2)
    ratio = gf.lp_norm(g, 3) / gf.lp_norm(f, 3)
    assert abs(ratio - 2.0 ** (-2 / 3)) < 1e-10


def test_dilate_semigroup(rng):
    f = random_gridfn(rng, (64,), 10)
    a = gf.dilate(gf.dilate(f, 2), -1)
    b = gf.dilate(f, 1)
    assert a.depth == b.depth and a.origin == b.origin
    assert np.array_equal(a.data, b.data)


def test_dilate_headroom(rng):
    f = random_gridfn(rng, (16,), 5)
    with pytest.raises(ResolutionExhausted):
        gf.dilate(f, 4)


# ---------------------------------------------------------------------------
# CSV export


def test_csv_export(tmp_path, rng):
    f = random_gridfn(rng, (4,), 4)
    path = tmp_path / "f.csv"
    gf.gridfn_to_csv(f, path)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"x,re,im"
    assert len(lines) == 6  # header + 4 rows + trailing newline
    f2 = random_gridfn(rng, (2, 3), 4, origin=(0, 0))
    gf.gridfn_to_csv(f2, tmp_path / "f2.csv")
    assert (tmp_path / "f2.csv").read_bytes().startswith(b"x1,x2,re,im")


# ---------------------------------------------------------------------------
# multi-index helpers


def test_multiindex_helpers():
    assert set(gf.sign_patterns(2)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert gf.pattern_parity((1, 1)) == 1 and gf.pattern_parity((1, 0)) == -1
    assert list(gf.box_range((1, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert gf.pattern_within((1, 0), (2, 0)) and not gf.pattern_within((1, 1), (2, 0))
