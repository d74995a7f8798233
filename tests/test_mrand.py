import numpy as np
import pytest

from dyadwave import gridfn as gf
from dyadwave import mra1d, mrand
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
    direct = mra1d.project(f, 2, haar)
    assert np.array_equal(lifted.data, direct.data)
    assert lifted.origin == direct.origin


def test_apply_axis_generic_callable_matches_rows(db2, rng):
    # oracle: project each row on its own; all rows share one output box
    f = noise(rng, (64, 64), 6)
    rows = [mra1d.project(gf.GridFunction(row, f.depth, (f.origin[1],)), 1, db2)
            for row in f.data]
    assert len({g.box() for g in rows}) == 1
    fast = mrand.apply_axis(mrand.LevelProjection(db2, 1), f, 1)
    assert np.array_equal(np.stack([g.data for g in rows]), fast.data)
    assert fast.origin == (f.origin[0], rows[0].origin[0])


def test_apply_axis_separable(db3, rng):
    u = rng.standard_normal(2 ** 8) + 1j * rng.standard_normal(2 ** 8)
    v = rng.standard_normal(2 ** 8) + 0j
    f = gf.GridFunction(np.outer(u, v), 8, (0, 0))
    uf = gf.GridFunction(u, 8, (0,))
    pu = mra1d.project(uf, 2, db3)
    lifted = mrand.apply_axis(mrand.LevelProjection(db3, 2), f, 0)
    want = gf.GridFunction(np.outer(pu.data, v), 8, (pu.origin[0], 0))
    assert rel(lifted, want, gf.lp_norm(f, 2)) < 1e-12


def test_apply_axis_out_of_range(haar, rng):
    f = noise(rng, (16, 16), 6)
    with pytest.raises(AxisOutOfRange):
        mrand.apply_axis(mrand.LevelProjection(haar, 0), f, 2)


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
        pu = mra1d.project(u, 1, db4)
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
    pu = mra1d.project(gf.GridFunction(u, 8, (0,)), 1, db2)
    pv = mra1d.project(gf.GridFunction(v, 8, (0,)), 3, db3)
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
    f = noise(rng, (2 ** 9,), 9)
    for level in (0, 1, 3):
        a = mrand.mixed_detail(f, (level,), db3)
        b = mra1d.detail(f, level, db3)
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
    from dyadwave.lpharness import synthesize_nd
    coeffs = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = synthesize_nd(coeffs, (0, 0), (3, 3), haar, 9)
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
    from dyadwave.lpharness import synthesize_nd
    level = 3
    coeffs = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = synthesize_nd(coeffs, (0, 0), (level, level), haar, 9)
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
