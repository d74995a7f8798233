import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dyadwave import gridfn as gf
from dyadwave.errors import BadExponent, DepthMismatch


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


@pytest.mark.parametrize("values, dtype", [
    (np.array([True, False]), np.float64),
    (np.array([3, -1]), np.float64),
    (np.array([0.5, -1.25], dtype=np.float32), np.float64),
    (np.array([0.5, -1.25]), np.float64),
    (np.array([0.5 + 2j, -1.25], dtype=np.complex64), np.complex128),
], ids=["bool", "int", "float32", "float64", "complex64"])
def test_dtype_rule(values, dtype):
    # complex input stays complex128, anything else becomes float64
    f = gf.GridFunction(values, 8, (0,))
    assert f.data.dtype == dtype
    assert np.array_equal(f.data, values)


@pytest.mark.parametrize("data", [
    np.array([1.0, np.nan]), np.array([np.inf, 1.0], dtype=np.float32),
    np.array([1.0, complex(1.0, np.nan)]), np.array([complex(-np.inf, 0.0)])],
    ids=["float-nan", "float32-inf", "complex-nan", "complex-inf"])
def test_nonfinite_rejected_real_and_complex(data):
    with pytest.raises(ValueError, match="NaN"):
        gf.GridFunction(data, 8, (0,))


def test_immutability(rng):
    f = random_gridfn(rng, (16,), 8)
    with pytest.raises(ValueError):
        f.data[0] = 1.0


def _tiled(made):
    """A 4 x 3 TiledFunction whose make records each call."""
    def make(a, b):
        made.append((a, b))
        return np.ones((b - a, 3))
    return gf.TiledFunction(make, (4, 3), np.float64, 5, (0, 0))


def test_repr_and_str_read_no_cell():
    made = []
    f = _tiled(made)
    assert "TiledFunction" in repr(f) and "TiledFunction" in str(f)
    assert made == [] and f._frame is None


def test_eq_and_hash_by_identity(rng):
    made = []
    f, g = _tiled(made), _tiled(made)
    assert f == f and f != g and len({f, g, f}) == 2
    assert made == [] and f._frame is None and g._frame is None
    h = random_gridfn(rng, (4,), 5)
    twin = gf.GridFunction(h.data, 5, (0,))  # the same cells
    assert h == h and h != twin and len({h, twin}) == 2


@pytest.mark.parametrize("tiled", [False, True], ids=["given", "made"])
def test_attributes_are_set_once(rng, tiled):
    f = _tiled([]) if tiled else random_gridfn(rng, (4,), 5)
    with pytest.raises(AttributeError):
        f.depth = 3
    with pytest.raises(AttributeError):
        del f.origin
    assert (f.depth, f.origin[0]) == (5, 0)


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


def _power_oracle(s, q):
    """s**q by the sqrt/multiply chain, evaluated alone for each exponent."""
    if q * 8 != int(q * 8) or q > 8:
        return np.float_power(s, q)
    whole, frac = divmod(int(q * 8), 8)
    out = None
    for _ in range(whole):
        out = s if out is None else out * s
    root = s
    for bit in (4, 2, 1):
        if not frac:
            break
        root = np.sqrt(root)
        if frac & bit:
            out = root if out is None else out * root
            frac -= bit
    return out


# exponents that share roots (1.25 and 1.5 read s^(1/2)), that share none
# (2, 4, 6), that read all three roots twice (1.75, 3.75), and that go
# through float_power (1.3, 17)
SHARED_ROOT_LISTS = [(1.25, 1.5, 2.0, 4.0), (1.5, 2.0, 4.0), (2.0, 4.0, 6.0),
                     (1.75, 3.75), (1.25, 1.75, 2.75, 3.3), (17.0, 1.25, 1.3),
                     (2.25, 5.5, 1.5, 2.5, 3.0)]


def _frames_over_leaves(rng):
    """Frames of one leaf and of several, split unevenly by the tree."""
    leaf = gf.SUM_LEAF
    real = [(37, 29), (41, 23), (181, 419), (40, 41, 43), ((1 << 17) + 3,),
            (leaf,), (leaf + 1,)]
    yield random_gridfn(rng, (37, 29), 6)
    yield random_gridfn(rng, (256, 300), 6)
    for shape in real:
        yield gf.GridFunction(rng.standard_normal(shape), 6, (0,) * len(shape))


@pytest.mark.parametrize("ps", SHARED_ROOT_LISTS)
def test_lp_norms_share_roots_bit_for_bit(rng, ps):
    # the leaves and their tree give np.sum's bits over the whole frame
    for f in _frames_over_leaves(rng):
        s = gf.abs_sq(f.data)
        want = [float(np.sum(_power_oracle(s, p / 2)) * f.cell_volume)
                ** (1.0 / p) for p in ps]
        assert gf.lp_norms(f, ps) == want
        assert [gf.lp_norm(f, p) for p in ps] == want


def _traced_peak(fn, *args):
    tracemalloc.start()
    fn(*args)
    _, top = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return top


@pytest.mark.parametrize("ps", SHARED_ROOT_LISTS)
def test_lp_norms_hold_a_few_leaves(rng, ps):
    # |f|^2, its roots and the products live one leaf at a time
    shape = (16, gf.SUM_LEAF)
    for f in (gf.GridFunction(rng.standard_normal(shape), 6, (0, 0)),
              random_gridfn(rng, shape, 6)):
        assert _traced_peak(gf.lp_norms, f, ps) < 8 * gf.SUM_LEAF * 8


def test_abs_sq_complex_holds_two_frames(rng):
    shape = (1024, 1024)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    frame = z.size * 8
    assert _traced_peak(gf.abs_sq, z) <= 2 * frame + frame // 16
    sq = z.view(np.float64) * z.view(np.float64)
    assert gf.abs_sq(z).tobytes() == (sq[:, 0::2] + sq[:, 1::2]).tobytes()


def test_kernel_buffer_is_restored_on_an_exception():
    with np.errstate():
        np.setbufsize(4096)
        with pytest.raises(ZeroDivisionError):
            with gf.kernel_buffer():
                assert np.getbufsize() == gf.KERNEL_BUFSIZE
                1 / 0
        assert np.getbufsize() == 4096


def test_kernel_buffer_is_per_thread():
    # a pool thread inside the scope does not change the caller's size
    inside, checked = threading.Event(), threading.Event()

    def kernel():
        with gf.kernel_buffer():
            inside.set()
            assert checked.wait(10)
            return np.getbufsize()

    with np.errstate():
        np.setbufsize(4096)
        with ThreadPoolExecutor(max_workers=1) as pool:
            size = pool.submit(kernel)
            assert inside.wait(10)
            assert np.getbufsize() == 4096
            checked.set()
            assert size.result(timeout=10) == gf.KERNEL_BUFSIZE


def test_abs_sq_keeps_the_callers_buffer_and_bits(rng, monkeypatch,
                                                  at_buffer):
    # a strided complex view, a broadcast real row and a contiguous complex
    # frame: the bits of the body run at numpy's default buffer
    z = rng.standard_normal((600, 2700)) + 1j * rng.standard_normal((600, 2700))
    inputs = [z[::2, 1::3], np.broadcast_to(z[0].real[:900], (300, 900)),
              z[:40, :900]]
    got = [[at_buffer(size, gf.abs_sq, x) for x in inputs]
           for size in (np.getbufsize(), 4096)]
    monkeypatch.setattr(gf, "KERNEL_BUFSIZE", 8192)
    for x, *outs in zip(inputs, *got):
        want = gf.abs_sq(x).tobytes()
        assert all(out.tobytes() == want for out in outs)


def test_combine_keeps_the_callers_buffer_and_bits(rng, monkeypatch,
                                                   at_buffer):
    # weights +-1 and 0.5 on real and complex terms whose slots in the
    # union box are strided windows of each tile
    monkeypatch.setattr(gf, "TILE_CELLS", 1 << 14)
    f = random_gridfn(rng, (300, 900), 6, (0, 0))
    g = random_gridfn(rng, (250, 700), 6, (20, 150))
    h = gf.GridFunction(rng.standard_normal((280, 600)), 6, (10, 310))
    terms = [(1, f), (-1, g), (0.5, h), (0.5, g), (-1, h)]
    got = [at_buffer(size, lambda: gf.combine(terms).data)
           for size in (np.getbufsize(), 4096)]
    monkeypatch.setattr(gf, "KERNEL_BUFSIZE", 8192)
    want = gf.combine(terms).data.tobytes()
    assert all(out.tobytes() == want for out in got)


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
    # a real h overlapping g and reaching past it: mixed dtypes, three boxes
    h_box = tuple((lo + 1, hi + 2) for lo, hi in g_box)
    h = gf.GridFunction(make(h_box).data.real, 6, tuple(lo for lo, _ in h_box))
    box = gf.union_box(f_box, g_box)
    for got, op in ((f + g, np.add), (f - g, np.subtract)):
        want = op(gf.embed(f, box), gf.embed(g, box))
        assert got.origin == tuple(lo for lo, _ in box)
        assert got.data.tobytes() == want.tobytes()
    # n terms against the pairwise ufunc chain on embedded arrays
    box = gf.union_box(f_box, g_box, h_box)
    ef, eg, eh = (gf.embed(u, box) for u in (f, g, h))
    for terms, want in (
            ([(1, f), (-1, g), (2.5, h), (1, g)], ef - eg + eh * 2.5 + eg),
            ([(2.5, h), (1, f), (-1, g)], eh * 2.5 + ef - eg),
            ([(-1, h), (1, g), (2.5, h), (-1, f)], -eh + eg + eh * 2.5 - ef)):
        got = gf.combine(terms)
        assert got.origin == tuple(lo for lo, _ in box)
        assert got.dtype == want.dtype
        assert got.data.tobytes() == want.tobytes()
    assert not f.data.flags.writeable and not g.data.flags.writeable


def test_combine_mixed_dtypes(rng):
    # real with complex is complex, in either order; real with real is real
    x = gf.GridFunction(rng.standard_normal(8), 6, (2,))
    z = random_gridfn(rng, (6,), 6, (0,))
    box = gf.union_box(x.box(), z.box())
    for f, g in ((x, z), (z, x)):
        got = f - g
        assert got.data.dtype == np.complex128
        assert np.array_equal(got.data, gf.embed(f, box) - gf.embed(g, box))
    assert (x + x).data.dtype == np.float64


@pytest.mark.parametrize("real, scalar", [
    (True, 2.5), (False, 2.5), (False, 0.75 - 1.5j), (True, 0.75 - 1.5j)],
    ids=["real", "complex", "complex-scalar", "real-by-complex"])
def test_scalar_product_and_negation_are_lazy(rng, monkeypatch, real, scalar):
    # made tile by tile (3 rows a tile), with the bits of the eager product
    monkeypatch.setattr(gf, "TILE_CELLS", 100)
    f = random_gridfn(rng, (37, 29), 6, (-4, 5))
    if real:
        f = gf.GridFunction(f.data.real, 6, f.origin)
    for got, want in ((scalar * f, f.data * scalar),
                      (f * scalar, f.data * scalar), (-f, f.data * -1.0)):
        assert isinstance(got, gf.TiledFunction) and got._frame is None
        assert (got.origin, got.dtype) == (f.origin, want.dtype)
        assert got.data.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# multi-index helpers


def test_multiindex_helpers():
    assert list(gf.box_range((1, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
