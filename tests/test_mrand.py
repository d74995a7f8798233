import gc
import math
import tracemalloc

import numpy as np
import pytest

from dyadwave import cli
from dyadwave import gridfn as gf
from dyadwave import lpharness as lp
from dyadwave import mra1d, mrand, refinable
from dyadwave.errors import AxisOutOfRange


def noise(rng, shape, depth, origin=None):
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return gf.GridFunction(data, depth, origin or (0,) * len(shape))


def rel(a, b, n):
    return gf.lp_norm(a - b, 2) / n


# ---------------------------------------------------------------------------
# axis lifting


def test_apply_axis_d1_matches_base(haar, rng):
    f = noise(rng, (2 ** 9,), 9)
    base = mrand.LevelProjection(haar, 2)
    lifted = mrand.apply_axis(base, f, 0)
    direct = mrand.project_nd(f, 2, haar)
    assert np.array_equal(lifted.data, direct.data)
    assert lifted.origin == direct.origin


def test_apply_axis_generic_callable_matches_rows(db2, rng):
    # oracle: project each row on its own; all rows share one output box
    f = noise(rng, (64, 64), 6)
    rows = [mrand.project_nd(gf.GridFunction(row, f.depth, (f.origin[1],)),
                             1, db2) for row in f.data]
    assert len({g.box() for g in rows}) == 1
    fast = mrand.apply_axis(mrand.LevelProjection(db2, 1), f, 1)
    assert np.array_equal(np.stack([g.data for g in rows]), fast.data)
    assert fast.origin == (f.origin[0], rows[0].origin[0])


def test_apply_axis_separable(db3, rng):
    u = rng.standard_normal(2 ** 8) + 1j * rng.standard_normal(2 ** 8)
    v = rng.standard_normal(2 ** 8) + 0j
    f = gf.GridFunction(np.outer(u, v), 8, (0, 0))
    uf = gf.GridFunction(u, 8, (0,))
    pu = mrand.project_nd(uf, 2, db3)
    lifted = mrand.apply_axis(mrand.LevelProjection(db3, 2), f, 0)
    want = gf.GridFunction(np.outer(pu.data, v), 8, (pu.origin[0], 0))
    assert rel(lifted, want, gf.lp_norm(f, 2)) < 1e-12


def test_apply_axis_out_of_range(haar, rng):
    f = noise(rng, (16, 16), 6)
    with pytest.raises(AxisOutOfRange):
        mrand.apply_axis(mrand.LevelProjection(haar, 0), f, 2)


def _layout_inputs(rng, shape, dtype):
    """Owned, read-only and strided views of one random array."""
    x = rng.standard_normal(shape)
    if dtype == np.complex128:
        x = x + 1j * rng.standard_normal(shape)
    frozen = x.copy()
    frozen.setflags(write=False)
    wide = np.zeros(tuple(2 * n for n in shape), dtype)
    wide[tuple(slice(None, None, 2) for _ in shape)] = x
    return {"owned": x, "read-only": frozen,
            "strided": wide[tuple(slice(None, None, 2) for _ in shape)]}


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(70,), (64, 128), (130, 67), (3, 65, 129),
                                   (17, 5, 64)])
def test_axis_layout_matches_contiguous_copy(rng, shape, dtype):
    # tiled copy against numpy's own: every axis, lengths on and off the tile
    for kind, x in _layout_inputs(rng, shape, dtype).items():
        for axis in range(x.ndim):
            rows, back = mrand.axis_layout(x, (3,) * x.ndim, axis)
            want = np.ascontiguousarray(
                np.moveaxis(x, axis, -1).reshape(-1, x.shape[axis]))
            assert rows.flags.c_contiguous, (kind, axis)
            assert rows.dtype == want.dtype and np.array_equal(rows, want)
            data, origin = back(rows, 3)
            assert np.array_equal(data, x) and origin == (3,) * x.ndim
            if kind == "owned" and axis == x.ndim - 1:
                assert np.shares_memory(rows, x)  # no copy of the last axis


def test_commutation(db2, db3, rng):
    f = noise(rng, (2 ** 8, 2 ** 8), 8)
    a = mrand.apply_axis(mrand.LevelProjection(db2, 1), f, 0)
    ab = mrand.apply_axis(mrand.LevelProjection(db3, 2), a, 1)
    b = mrand.apply_axis(mrand.LevelProjection(db3, 2), f, 1)
    ba = mrand.apply_axis(mrand.LevelProjection(db2, 1), b, 0)
    assert rel(ab, ba, gf.lp_norm(f, 2)) <= 1e-10


def test_apply_axis_norm_bound(db4, rng):
    # lifted operator norm never exceeds the measured 1-D norm
    measured = 0.0
    for _ in range(12):
        u = noise(rng, (2 ** 8,), 8)
        pu = mrand.project_nd(u, 1, db4)
        measured = max(measured, gf.lp_norm(pu, 2) / gf.lp_norm(u, 2))
    f = noise(rng, (2 ** 8, 2 ** 8), 8)
    lifted = mrand.apply_axis(mrand.LevelProjection(db4, 1), f, 0)
    assert gf.lp_norm(lifted, 2) / gf.lp_norm(f, 2) <= measured + 1e-9


# ---------------------------------------------------------------------------
# tensor projectors


def test_project_nd_identity_on_unit_indicator(haar):
    chi = gf.indicator(8, ((0.0, 1.0), (0.0, 1.0)))
    e00 = mrand.project_nd(chi, (0, 0), haar)
    assert rel(e00, chi, 1.0) <= 1e-14


def test_project_nd_separable_crosscheck(db2, db3, rng):
    u = rng.standard_normal(2 ** 8) + 1j * rng.standard_normal(2 ** 8)
    v = rng.standard_normal(2 ** 8) + 1j * rng.standard_normal(2 ** 8)
    f = gf.GridFunction(np.outer(u, v), 8, (0, 0))
    pu = mrand.project_nd(gf.GridFunction(u, 8, (0,)), 1, db2)
    pv = mrand.project_nd(gf.GridFunction(v, 8, (0,)), 3, db3)
    want = gf.GridFunction(np.outer(pu.data, pv.data), 8,
                           (pu.origin[0], pv.origin[0]))
    got = mrand.project_nd(f, (1, 3), (db2, db3))
    assert rel(got, want, gf.lp_norm(f, 2)) <= 1e-10


def test_project_nd_bruteforce_double_sum(db2, rng):
    # direct evaluation of the double-sum definition with tensor generators
    depth, level = 8, 2
    f = noise(rng, (2 ** depth + 2 ** 7, 2 ** depth + 2 ** 7), depth)
    from dyadwave.refinable import cascade
    gap = depth - level
    dual = cascade(db2, "dual", gap + 1).midpoint_samples(gap)
    primal = cascade(db2, "primal", gap + 1).midpoint_samples(gap)
    m = 1 << gap
    sup = db2.primal.support_length
    n_axis = f.shape[0]
    nu_lo, nu_hi = -sup + 1, (n_axis - 1) // m  # open-overlap window at origin 0
    shifts = range(nu_lo, nu_hi + 1)
    assert len(list(shifts)) == 8  # 8 x 8 coefficient instance
    coeffs = np.zeros((8, 8), dtype=complex)
    for a, nu1 in enumerate(shifts):
        for b, nu2 in enumerate(shifts):
            r1 = slice(max(0, nu1 * m), min(n_axis, (nu1 + sup) * m))
            r2 = slice(max(0, nu2 * m), min(n_axis, (nu2 + sup) * m))
            w1 = dual[r1.start - nu1 * m:r1.stop - nu1 * m]
            w2 = dual[r2.start - nu2 * m:r2.stop - nu2 * m]
            block = f.data[r1, r2]
            coeffs[a, b] = (w1 @ block @ w2) * 4.0 ** level * 4.0 ** (-depth)
    out = np.zeros((n_axis + 2 * sup * m, n_axis + 2 * sup * m), dtype=complex)
    for a, nu1 in enumerate(shifts):
        for b, nu2 in enumerate(shifts):
            o1 = (nu1 + sup) * m
            o2 = (nu2 + sup) * m
            out[o1:o1 + sup * m, o2:o2 + sup * m] += (
                coeffs[a, b] * np.outer(primal, primal))
    oracle = gf.GridFunction(out, depth, (-sup * m, -sup * m))
    got = mrand.project_nd(f, (level, level), db2)
    assert rel(got, oracle, gf.lp_norm(f, 2)) <= 1e-8


# ---------------------------------------------------------------------------
# mixed differences


def test_mixed_detail_d1_matches_detail(db3, rng):
    # oracle: the difference of the two projections, each synthesised alone
    f = noise(rng, (2 ** 9,), 9)
    for level in (0, 1, 3):
        a = mrand.mixed_detail(f, (level,), db3)
        b = mrand.project_nd(f, level, db3)
        if level:
            b = b - mrand.project_nd(f, level - 1, db3)
        assert rel(a, b, gf.lp_norm(f, 2)) <= 1e-14


def test_mixed_detail_level_zero_is_projection(db2, rng):
    f = noise(rng, (128, 128), 7)
    a = mrand.mixed_detail(f, (0, 0), db2)
    b = mrand.project_nd(f, (0, 0), db2)
    assert rel(a, b, gf.lp_norm(f, 2)) <= 1e-14


def test_mixed_detail_two_term(db2, rng):
    f = noise(rng, (128, 128), 7)
    got = mrand.mixed_detail(f, (1, 0), db2)
    want = (mrand.project_nd(f, (1, 0), db2)
            - mrand.project_nd(f, (0, 0), db2))
    assert gf.lp_norm(got - want, 2) <= 1e-12 * gf.lp_norm(f, 2)


def test_mixed_forms_agree(db2, db3, rng):
    f = noise(rng, (2 ** 8, 2 ** 8), 8)
    for lv in [(0, 0), (0, 2), (1, 1), (2, 3), (3, 3)]:
        a = mrand.mixed_detail(f, lv, (db2, db3), form="factorized")
        b = mrand.mixed_detail(f, lv, (db2, db3), form="alternating")
        denom = gf.lp_norm(a, 2) or 1.0
        assert gf.lp_norm(a - b, 2) / denom <= 1e-9


def test_partial_sum_zero_bound(haar, rng):
    f = noise(rng, (64, 64), 6)
    a = mrand.partial_sum(f, (0, 0), haar)
    b = mrand.project_nd(f, (0, 0), haar)
    assert rel(a, b, gf.lp_norm(f, 2)) <= 1e-14


def test_partial_sum_telescopes(db2, db3, rng):
    f = noise(rng, (2 ** 8, 2 ** 8), 8)
    a = mrand.partial_sum(f, (2, 3), (db2, db3))
    b = mrand.project_nd(f, (2, 3), (db2, db3))
    assert rel(a, b, gf.lp_norm(b, 2)) <= 1e-9


def test_partial_sum_reconstructs_members(haar, rng):
    coeffs = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = mrand.synthesize_nd(coeffs, (0, 0), (3, 3), haar, 9)
    back = mrand.partial_sum(f, (3, 3), haar)
    assert rel(back, f, gf.lp_norm(f, 2)) <= 1e-8


# ---------------------------------------------------------------------------
# block algebra


@pytest.mark.parametrize("bank_name,depth,shape", [
    ("haar", 8, (256, 256)),
    ("db4", 13, (2 ** 13,)),
])
def test_block_orthogonality_and_idempotence(registry, rng, bank_name, depth,
                                             shape):
    bank = registry[bank_name]
    f = noise(rng, shape, depth)
    nf = gf.lp_norm(f, 2)
    dim = len(shape)
    lv_a = (2,) * dim
    lv_b = (0,) + (2,) * (dim - 1) if dim > 1 else (4,)
    block_a = mrand.mixed_detail(f, lv_a, bank)
    block_ab = mrand.mixed_detail(block_a, lv_b, bank)
    assert gf.lp_norm(block_ab, 2) <= 1e-8 * nf
    block_aa = mrand.mixed_detail(block_a, lv_a, bank)
    assert gf.lp_norm(block_aa - block_a, 2) <= 1e-8 * nf


def test_block_self_adjoint(haar, rng):
    f = noise(rng, (128, 128), 7)
    g = noise(rng, (128, 128), 7)
    nf, ng = gf.lp_norm(f, 2), gf.lp_norm(g, 2)
    bf = mrand.mixed_detail(f, (1, 2), haar)
    bg = mrand.mixed_detail(g, (1, 2), haar)
    assert abs(gf.inner_product(bf, g) - gf.inner_product(f, bg)) <= 1e-8 * nf * ng


def test_block_pythagoras_2d(haar, rng):
    level = 3
    coeffs = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = mrand.synthesize_nd(coeffs, (0, 0), (level, level), haar, 9)
    n2 = gf.lp_norm(f, 2) ** 2
    total = sum(gf.lp_norm(mrand.mixed_detail(f, lv, haar), 2) ** 2
                for lv in gf.box_range((level, level)))
    assert abs(n2 - total) <= 1e-8 * n2


def test_three_dimensional_blocks(haar, rng):
    f = noise(rng, (16, 16, 16), 6, origin=(0, 0, 0))
    nf = gf.lp_norm(f, 2)
    total = sum(gf.lp_norm(mrand.mixed_detail(f, lv, haar), 2) ** 2
                for lv in gf.box_range((1, 1, 1)))
    e1 = mrand.project_nd(f, (1, 1, 1), haar)
    assert abs(total - gf.lp_norm(e1, 2) ** 2) <= 1e-8 * nf ** 2
    ps = mrand.partial_sum(f, (1, 1, 1), haar)
    assert rel(ps, e1, nf) <= 1e-9


def test_convergence_2d(db4):
    f = gf.sample(lambda x, y: (np.cos(np.pi * (x - 0.5)) ** 2
                                * np.cos(np.pi * (y - 0.5)) ** 2),
                  7, ((0.0, 1.0), (0.0, 1.0)))
    for p in (1.5, 2.0, 4.0):
        nf = gf.lp_norm(f, p)
        errs = [gf.lp_norm(f - mrand.project_nd(f, (k, k), db4), p) / nf
                for k in range(4)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 2e-2


# ---------------------------------------------------------------------------
# level pyramid: one analysis, coefficient-space levels, one synthesis


def _direct_sum(f, weights, bank):
    """sum_k w_k E_k f of a 1-D function from direct level-k quadratures."""
    total = None
    for k, w in enumerate(weights):
        if w:
            term = w * mrand.project_nd(f, k, bank)
            total = term if total is None else total + term
    return total


def _weight_vectors(top, rng):
    # E_0 also written with zeros up to the top level
    onehot = [(0.0,) * k + (1.0,) for k in range(top + 1)]
    onehot.append((1.0,) + (0.0,) * top)
    details = [mrand.detail_weights(k) for k in range(top + 1)]
    return onehot + details + [tuple(rng.standard_normal(top + 1))]


@pytest.mark.parametrize("bank_name",
                         ["haar", "db2", "db3", "db4", "spline24"])
@pytest.mark.parametrize("shape, depth, origin, axis", [
    ((2 ** 9 + 7,), 9, (-11,), 0),
    ((12, 2 ** 8 + 13), 8, (-3, 21), 0),
    ((12, 2 ** 8 + 13), 8, (-3, 21), 1),
], ids=["1d", "2d-axis0", "2d-axis1"])
def test_level_sum_matches_direct_projections(registry, rng, bank_name, shape,
                                              depth, origin, axis):
    # oracle: every slice along the axis, projected level by level with
    # project_nd (one direct quadrature per level) and summed on the grid
    bank = registry[bank_name]
    top = depth - mra1d.LEVEL_HEADROOM
    f = noise(rng, shape, depth, origin)
    moved = np.moveaxis(f.data, axis, -1)
    lines = [gf.GridFunction(line, depth, (origin[axis],))
             for line in moved.reshape(-1, moved.shape[-1])]
    for weights in _weight_vectors(top, rng):
        refs = [_direct_sum(line, weights, bank) for line in lines]
        assert len({r.box() for r in refs}) == 1
        want = np.moveaxis(np.stack([r.data for r in refs]).reshape(
            moved.shape[:-1] + (-1,)), -1, axis)
        got = mrand.apply_axis(mrand.LevelSum(bank, weights), f, axis)
        assert got.origin[axis] == refs[0].origin[0]
        assert got.shape == want.shape
        if sum(w != 0 for w in weights) == 1 and max(weights) == 1.0:
            assert np.array_equal(got.data, want), weights
        else:
            scale = np.abs(want).max()
            assert np.abs(got.data - want).max() <= 1e-13 * scale, weights


class _DepthRecorder(refinable.TableCache):
    def __init__(self):
        super().__init__()
        self.depths = set()

    def get(self, bank, which, depth):
        self.depths.add(depth)
        return super().get(bank, which, depth)


@pytest.mark.parametrize("bank_name", ["db4", "spline24"])
@pytest.mark.parametrize("shape, depth, top", [((2 ** 10,), 10, 4),
                                               ((64, 64), 6, 2)])
def test_operators_read_one_table_depth(registry, rng, monkeypatch,
                                        bank_name, shape, depth, top):
    bank = registry[bank_name]
    f = noise(rng, shape, depth)
    pattern = lp.SignPattern.random(len(shape), top, rng)
    for run in (lambda: lp.square_function(f, top, bank),
                lambda: lp.sign_operator(f, pattern, bank),
                lambda: mrand.project_nd(f, (top,) * len(shape), bank)):
        cache = _DepthRecorder()
        monkeypatch.setattr(refinable, "DEFAULT_CACHE", cache)
        run()
        assert cache.depths == {depth - top + 1}


# ---------------------------------------------------------------------------
# one tensor pass: every analysis, coefficient-space sums, one synthesis


@pytest.mark.parametrize("bank_name",
                         ["haar", "db2", "db3", "db4", "spline24"])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("shape, depth, origin", [
    ((2 ** 7 + 5,), 7, (-3,)),
    ((12, 2 ** 6 + 5), 6, (-3, 7)),
    ((6, 2 ** 5 + 3, 9), 5, (5, -1, 3)),
], ids=["1d", "2d", "3d"])
def test_tensor_level_sum_is_composed_apply_axis(registry, rng, bank_name,
                                                 kind, shape, depth, origin):
    # oracle: the per-axis liftings, each ending in a GridFunction; one axis
    # keeps the bits, more axes reorder the sums of the synthesis.  The last
    # axis acts on each of its slices alone, so in 2-D and 3-D the oracle
    # lifts it slab by slab along axis 0, and each slab is compared with
    # the same cells of the result: no whole frame of either is made (a
    # 3-D db4 one would be 416 x 480 x 416 complex, 1,267 MiB)
    bank = registry[bank_name]
    top = depth - mra1d.LEVEL_HEADROOM
    f = noise(rng, shape, depth, origin)
    if kind == "real":
        f = gf.GridFunction(f.data.real, depth, origin)
    cases = [[(0.0,) * top + (1.0,)] * len(shape),
             [mrand.detail_weights(top - a % 2) for a in range(len(shape))],
             [tuple(rng.standard_normal(top + 1)) for _ in shape]]
    for weights in cases:
        got = mrand.tensor_level_sum(f, weights, bank)
        want = f
        for axis, w in enumerate(weights[:-1]):
            want = mrand.apply_axis(mrand.LevelSum(bank, w), want, axis)
        last = mrand.LevelSum(bank, weights[-1])
        if len(shape) == 1:
            want = mrand.apply_axis(last, want, 0)
            assert (got.origin, got.shape) == (want.origin, want.shape)
            assert got.data.dtype == want.data.dtype
            assert np.array_equal(got.data, want.data), weights
            continue
        err = scale = 0.0
        for a in range(0, want.shape[0], 16):
            slab = mrand.apply_axis(last, gf.GridFunction(
                want.data[a:a + 16], depth,
                (want.origin[0] + a,) + want.origin[1:]), len(shape) - 1)
            cells = got.tile(a, a + slab.shape[0])
            assert cells.dtype == slab.data.dtype
            assert cells.shape == slab.shape
            err = max(err, np.abs(cells - slab.data).max())
            scale = max(scale, np.abs(slab.data).max())
        assert got.origin == want.origin[:-1] + slab.origin[-1:]
        assert got.shape == want.shape[:-1] + slab.shape[-1:]
        assert err <= 1e-13 * scale, weights


def _tensor_operators(bank, rng, dim, depth):
    top = 1
    f = noise(rng, (2 ** (depth - 1) + 3,) * dim, depth,
              (-5,) + (2,) * (dim - 1))
    pattern = lp.SignPattern.random(dim, top, rng)
    coeffs = (rng.standard_normal((2 ** top,) * dim)
              + 1j * rng.standard_normal((2 ** top,) * dim))
    return {
        "square_function": lambda: lp.square_function(f, top, bank),
        "project_nd": lambda: mrand.project_nd(f, top, bank),
        "mixed_detail": lambda: mrand.mixed_detail(f, top, bank),
        "mixed_detail-alternating":
            lambda: mrand.mixed_detail(f, top, bank, form="alternating"),
        "sign_operator": lambda: lp.sign_operator(f, pattern, bank),
        "synthesize_nd": lambda: mrand.synthesize_nd(
            coeffs, (0,) * dim, (top,) * dim, bank, depth),
        "partial_sum": lambda: mrand.partial_sum(f, top, bank),
    }


@pytest.mark.parametrize("dim, depth", [(2, 6), (3, 5)], ids=["2d", "3d"])
def test_tensor_operators_leave_no_cyclic_garbage(db2, rng, dim, depth):
    for name, run in _tensor_operators(db2, rng, dim, depth).items():
        run()  # tables and caches filled outside the measured run
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0, name
        finally:
            gc.enable()


def test_one_grid_function_per_result(db2, rng, monkeypatch):
    # array-backed or made on demand, one grid function per result
    top, dim = 1, 2
    operators = _tensor_operators(db2, rng, dim, 6)
    made = []
    init, tiled_init = gf.GridFunction.__init__, gf.TiledFunction.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self.shape)

    def record_tiled(self, *args):
        tiled_init(self, *args)
        made.append(self.shape)

    monkeypatch.setattr(gf.GridFunction, "__init__", record)
    monkeypatch.setattr(gf.TiledFunction, "__init__", record_tiled)
    for name, count in [("project_nd", 1), ("mixed_detail", 1),
                        ("sign_operator", 1), ("synthesize_nd", 1),
                        ("square_function", (top + 1) ** dim + 1)]:
        made.clear()
        operators[name]()
        assert len(made) == count, name


@pytest.mark.parametrize("dim, depth", [(2, 6), (3, 5)], ids=["2d", "3d"])
def test_every_analysis_before_any_synthesis(db2, rng, monkeypatch, dim,
                                             depth):
    # one analysis per axis, on the input, before the first synthesis
    operators = _tensor_operators(db2, rng, dim, depth)
    calls = []
    for name in ("analyze_rows", "synthesize_rows"):
        def traced(*args, _name=name, _fn=getattr(mra1d, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(mra1d, name, traced)
    for name in ("square_function", "project_nd", "sign_operator",
                 "mixed_detail"):
        calls.clear()
        operators[name]()
        assert calls.count("analyze_rows") == dim, name
        first_synthesis = calls.index("synthesize_rows")
        assert calls[first_synthesis:].count("analyze_rows") == 0, name


def test_battery_parseval_part_analyses_once_per_axis(db4, haar, monkeypatch):
    # the synthesised member's detail blocks come from one tensor pass (the
    # one tensor_sums call with more than one vector per axis): dim
    # analyses in all, not dim per block
    calls = []
    analyze_rows, tensor_sums = mra1d.analyze_rows, mrand.tensor_sums

    def traced_analysis(*args):
        calls.append("analyze_rows")
        return analyze_rows(*args)

    def traced_sums(f, weight_lists, banks):
        calls.append(len(weight_lists[0]))
        return tensor_sums(f, weight_lists, banks)

    monkeypatch.setattr(mra1d, "analyze_rows", traced_analysis)
    monkeypatch.setattr(mrand, "tensor_sums", traced_sums)
    rows = cli._identity_battery([db4, haar], 2, 7, 2, 601)
    assert [r["name"] for r in rows][-2:] == ["parseval_synth",
                                              "reconstruction_synth"]
    passes = [i for i, c in enumerate(calls) if c not in ("analyze_rows", 1)]
    assert len(passes) == 1 and calls[passes[0]] == 3
    assert calls[passes[0]:].count("analyze_rows") == 2


def test_alternating_mixed_detail_holds_no_term_frame(db2, rng, monkeypatch):
    # the +-1 terms are added tile by tile: no negated term is filled, and
    # the norm holds less than the frame of the smallest term
    monkeypatch.setattr(gf, "TILE_CELLS", 1 << 12)
    f = noise(rng, (128, 128), 8)
    terms = [mrand.project_nd(f, lv, db2)
             for lv in [(1, 1), (0, 1), (1, 0), (0, 0)]]
    smallest = min(math.prod(t.shape) * t.dtype.itemsize for t in terms)
    gf.lp_norm(mrand.mixed_detail(f, (1, 1), db2, form="alternating"), 2)
    tracemalloc.start()
    try:
        block = mrand.mixed_detail(f, (1, 1), db2, form="alternating")
        norm = gf.lp_norm(block, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(block, gf.TiledFunction) and block._frame is None
    assert peak < smallest
    factorized = gf.lp_norm(mrand.mixed_detail(f, (1, 1), db2), 2)
    assert abs(norm - factorized) <= 1e-9 * factorized


@pytest.mark.parametrize("shape", [(40, 36), (12, 20, 18)], ids=["2d", "3d"])
def test_tensor_pass_holds_no_frame(db2, rng, monkeypatch, shape):
    # every product is kept synthesised along all axes but the last, and
    # neither it nor the square function fills its frame while the norms
    # of the square function are taken
    f = noise(rng, shape, 6, (3,) + (-2,) * (len(shape) - 1))
    products = []
    synthesize_nd = mrand.synthesize_nd

    def traced_synthesis(*args):
        products.append(synthesize_nd(*args))
        return products[-1]

    monkeypatch.setattr(mrand, "synthesize_nd", traced_synthesis)
    sf = lp.square_function(f, 1, db2)
    gf.lp_norms(sf, [2.0])
    assert len(products) == 2 ** len(shape)
    for g in products + [sf]:
        assert isinstance(g, gf.TiledFunction) and g._frame is None


# (coefficient shape, level, depth) of a synthesised member whose frame is
# a few MiB: 384^2 and 96^3 cells
TILED_INPUTS = {"2d": ((4, 4), 2, 8), "3d": ((4, 4, 4), 0, 4)}


@pytest.mark.parametrize("case", sorted(TILED_INPUTS))
def test_tensor_sums_analyses_unfilled_input_tile_by_tile(db2, rng,
                                                          monkeypatch, case):
    # the last axis is analysed from the tiles: an unfilled input gives
    # the coefficient bytes of its filled frame, is never filled, and the
    # analysis holds less than one input frame at its peak
    shape, level, depth = TILED_INPUTS[case]
    monkeypatch.setattr(gf, "TILE_CELLS", 1 << 12)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def member():
        return mrand.synthesize_nd(coeffs, (0,) * len(shape),
                                   (level,) * len(shape), db2, depth)

    weight_lists = [[mrand.detail_weights(k) for k in range(level + 1)]
                    ] * len(shape)
    seen = []
    synthesize_nd = mrand.synthesize_nd

    def traced_synthesis(data, firsts, *args):
        seen.append((np.asarray(data).tobytes(), tuple(firsts)))
        return synthesize_nd(data, firsts, *args)

    filled = member()
    frame = gf.GridFunction(filled.data, depth, filled.origin)
    unfilled = member()
    monkeypatch.setattr(mrand, "synthesize_nd", traced_synthesis)
    list(mrand.tensor_sums(frame, weight_lists, db2))
    want, seen[:] = seen[:], []
    list(mrand.tensor_sums(unfilled, weight_lists, db2))
    assert seen == want and len(want) == (level + 1) ** len(shape)
    assert unfilled._frame is None
    frame_bytes = math.prod(frame.shape) * frame.dtype.itemsize
    del filled, frame
    gc.collect()
    tracemalloc.start()
    try:
        next(mrand.tensor_sums(unfilled, weight_lists, db2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert unfilled._frame is None
    assert peak < frame_bytes


@pytest.mark.parametrize("call", [
    lambda f, haar: list(mrand.tensor_sums(f, [[(0.0, 0.0)]], haar)),
    lambda f, haar: list(mrand.tensor_sums(f, [[(1.0,), (0.0, 0.0)]], haar)),
    lambda f, haar: mrand.apply_axis(mrand.LevelSum(haar, (0.0,)), f, 0),
], ids=["only-vector", "second-vector", "apply-axis"])
def test_all_zero_weights_are_refused(haar, rng, call):
    # no level sum starts from an all-zero vector; the message says so
    # instead of naming a level nobody passed
    f = noise(rng, (64,), 6)
    with pytest.raises(ValueError, match="weights are all zero"):
        call(f, haar)
