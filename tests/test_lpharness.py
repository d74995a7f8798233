import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from dyadwave import gridfn as gf
from dyadwave import lpharness as lp
from dyadwave import mra1d, mrand
from dyadwave.errors import FrameTooLarge, NonProductPattern, TooManyTerms


def block_member(bank, level, depth, rng, dim=1):
    n = 2 ** level
    coeffs = (rng.standard_normal((n,) * dim)
              + 1j * rng.standard_normal((n,) * dim))
    return mrand.synthesize_nd(coeffs, (0,) * dim, (level,) * dim, bank, depth)


# ---------------------------------------------------------------------------
# sign patterns


def test_sign_pattern_product_table():
    pat = lp.SignPattern(((1, -1, 1), (-1, 1, -1)))
    table = pat.table()
    assert table.shape == (3, 3)
    assert table[1, 2] == pat.value((1, 2)) == (-1) * (-1)
    back = lp.SignPattern.from_table(table)
    assert np.array_equal(back.table(), table)


def test_sign_pattern_rejects_non_product():
    table = np.ones((2, 2), dtype=int)
    table[1, 1] = -1
    with pytest.raises(NonProductPattern):
        lp.SignPattern.from_table(table)


def test_sign_pattern_validation():
    with pytest.raises(ValueError):
        lp.SignPattern(((1, 0),))
    with pytest.raises(ValueError):
        lp.SignPattern(((1, 1), (1,)))


# ---------------------------------------------------------------------------
# square function


def test_square_function_zero(haar):
    z = gf.GridFunction(np.zeros(256, dtype=complex), 8, (0,))
    sf = lp.square_function(z, 3, haar)
    assert np.abs(sf.data).max() == 0.0


@pytest.mark.parametrize("complex_input", [False, True])
def test_square_function_tiles_keep_bits(db2, rng, complex_input):
    # the frame-wide formula is the oracle: |first block|^2, then += each
    # later block's |.|^2 on its slot, then the root; the first block's
    # 640^2 cells make 13 row tiles
    data = rng.standard_normal((128, 128))
    if complex_input:
        data = data + 1j * rng.standard_normal((128, 128))
    f = gf.GridFunction(data, 7, (0, 0))
    weights = [mrand.detail_weights(k) for k in range(3)]
    blocks = list(mrand.tensor_sums(f, [weights] * 2, db2))
    box = blocks[0].box()
    acc = gf.abs_sq(blocks[0].data)
    assert acc.size > 4 * gf.SUM_LEAF
    for block in blocks[1:]:
        acc[gf._slot(block, box)] += gf.abs_sq(block.data)
    sf = lp.square_function(f, 2, db2)
    assert sf.origin == blocks[0].origin
    assert sf.data.tobytes() == np.sqrt(acc).tobytes()


def test_square_function_tile_keeps_the_callers_buffer_and_bits(
        db4, rng, monkeypatch, at_buffer):
    # a tile of a complex 2-D input's square function: the bits of the body
    # run at numpy's default buffer, and the caller's buffer size kept
    data = rng.standard_normal((256, 256)) + 1j * rng.standard_normal(
        (256, 256))
    sf = lp.square_function(gf.GridFunction(data, 8, (0, 0)), 2, db4)
    a, b = 40, 76
    got = [at_buffer(size, sf.tile, a, b) for size in (np.getbufsize(), 4096)]
    monkeypatch.setattr(gf, "KERNEL_BUFSIZE", 8192)
    want = sf.tile(a, b).tobytes()
    assert all(out.tobytes() == want for out in got)


def test_square_function_single_block_level0(db4):
    # a level-0 generator shift is reproduced by the 0-block and annihilated
    # by every finer detail, so S f = |f|
    from dyadwave.refinable import cascade
    table = cascade(db4, "primal", 13)
    f = gf.GridFunction(table.midpoint_samples(12).astype(complex), 12, (0,))
    sf = lp.square_function(f, 3, db4)
    diff = sf - gf.GridFunction(np.abs(f.data), 12, f.origin)
    assert gf.lp_norm(diff, 2) <= 1e-8 * gf.lp_norm(f, 2)


def test_square_function_single_block_general(db4, rng):
    # elements of one detail block are fixed by it and killed by the others
    f = gf.GridFunction(rng.standard_normal(2 ** 12) + 0j, 12, (0,))
    block = mrand.mixed_detail(f, (2,), db4)
    sf = lp.square_function(block, 4, db4)
    want = gf.GridFunction(np.abs(block.data), 12, block.origin)
    assert gf.lp_norm(sf - want, 2) <= 1e-7 * gf.lp_norm(block, 2)


@pytest.mark.parametrize("dim,bank_name,depth,level", [
    (1, "db4", 12, 4),
    (2, "haar", 9, 3),
])
def test_square_function_p2_identity(registry, rng, dim, bank_name, depth,
                                     level):
    bank = registry[bank_name]
    f = block_member(bank, level, depth, rng, dim)
    sf = lp.square_function(f, level, bank)
    assert np.abs(sf.data.imag).max() == 0.0
    assert sf.data.real.min() >= 0.0
    n2 = gf.lp_norm(f, 2)
    assert abs(gf.lp_norm(sf, 2) - n2) <= 1e-8 * n2


def test_square_function_p2_matches_projection_norm(db4, haar, rng):
    # block Pythagoras: ||Sf||_2 equals the projection norm for arbitrary f
    f1 = gf.GridFunction(rng.standard_normal(2 ** 12)
                         + 1j * rng.standard_normal(2 ** 12), 12, (0,))
    s1 = gf.lp_norm(lp.square_function(f1, 4, db4), 2)
    e1 = gf.lp_norm(mrand.project_nd(f1, (4,), db4), 2)
    assert abs(s1 - e1) <= 1e-8 * gf.lp_norm(f1, 2)
    f2 = gf.GridFunction(rng.standard_normal((128, 128)) + 0j, 7, (0, 0))
    s2 = gf.lp_norm(lp.square_function(f2, 2, haar), 2)
    e2 = gf.lp_norm(mrand.project_nd(f2, (2, 2), haar), 2)
    assert abs(s2 - e2) <= 1e-8 * gf.lp_norm(f2, 2)


def test_square_function_monotone_in_level(db3, rng):
    f = gf.GridFunction(rng.standard_normal(2 ** 10) + 0j, 10, (0,))
    s2 = lp.square_function(f, 2, db3)
    s4 = lp.square_function(f, 4, db3)
    lo = gf.embed(s2, s4.box())
    assert (s4.data.real - lo.real).min() >= -1e-12


# ---------------------------------------------------------------------------
# sign operator


def test_sign_operator_all_plus_telescopes(db4, rng):
    f = gf.GridFunction(rng.standard_normal(2 ** 12) + 0j, 12, (0,))
    pat = lp.SignPattern(((1,) * 5,))
    ts = lp.sign_operator(f, pat, db4)
    ek = mrand.project_nd(f, (4,), db4)
    assert gf.lp_norm(ts - ek, 2) <= 1e-10 * gf.lp_norm(f, 2)


def test_sign_operator_p2_norm(db4, rng):
    f = gf.GridFunction(rng.standard_normal(2 ** 12) + 0j, 12, (0,))
    ek = mrand.project_nd(f, (4,), db4)
    for seed in range(3):
        pat = lp.SignPattern.random(1, 4, np.random.default_rng(seed))
        ts = lp.sign_operator(f, pat, db4)
        assert abs(gf.lp_norm(ts, 2) - gf.lp_norm(ek, 2)) <= 1e-8 * gf.lp_norm(f, 2)


def test_sign_operator_involution(db4, haar, rng):
    f1 = gf.GridFunction(rng.standard_normal(2 ** 12) + 0j, 12, (0,))
    pat = lp.SignPattern.random(1, 3, np.random.default_rng(5))
    tt = lp.sign_operator(lp.sign_operator(f1, pat, db4), pat, db4)
    ek = mrand.project_nd(f1, (3,), db4)
    assert gf.lp_norm(tt - ek, 2) <= 1e-8 * gf.lp_norm(f1, 2)
    f2 = gf.GridFunction(rng.standard_normal((128, 128)) + 0j, 7, (0, 0))
    pat2 = lp.SignPattern.random(2, 2, np.random.default_rng(6))
    tt2 = lp.sign_operator(lp.sign_operator(f2, pat2, haar), pat2, haar)
    ek2 = mrand.project_nd(f2, (2, 2), haar)
    assert gf.lp_norm(tt2 - ek2, 2) <= 1e-8 * gf.lp_norm(f2, 2)


def test_sign_operator_dimension_check(haar, rng):
    f = gf.GridFunction(rng.standard_normal(64) + 0j, 6, (0,))
    with pytest.raises(ValueError, match="dimension"):
        lp.sign_operator(f, lp.SignPattern(((1,) * 4,) * 2), haar)


def test_sign_operator_rejects_non_product(haar, rng):
    f = gf.GridFunction(rng.standard_normal((64, 64)) + 0j, 6, (0, 0))
    table = np.ones((3, 3), dtype=int)
    table[2, 2] = -1
    with pytest.raises(NonProductPattern):
        lp.sign_operator(f, table, haar)


# ---------------------------------------------------------------------------
# khintchine


def test_khintchine_single_term():
    for p in (1.5, 2, 4, 7):
        r = lp.khintchine_check(np.array([3.5]), p)
        assert abs(r.ratio - 1.0) < 1e-12


def test_khintchine_two_terms_p2():
    r = lp.khintchine_check(np.array([1.0, 1.0]), 2)
    assert abs(r.norm_lp - math.sqrt(2)) < 1e-12


def test_khintchine_p4_closed_form():
    for m in (2, 5, 8, 12):
        r = lp.khintchine_check(np.ones(m), 4)
        assert abs(r.norm_lp ** 4 - (3 * m * m - 2 * m)) < 1e-12 * (3 * m * m)
        assert r.method == "exact" and r.lower_ok and r.upper_ok
    rng = np.random.default_rng(0)
    a = rng.standard_normal(10)
    r = lp.khintchine_check(a, 4)
    closed = 3 * (a @ a) ** 2 - 2 * np.sum(a ** 4)
    assert abs(r.norm_lp ** 4 - closed) <= 1e-12 * closed


def test_khintchine_2d_family():
    r = lp.khintchine_check(np.ones((2, 2)), 2)
    assert abs(r.norm_lp - 2.0) < 1e-12  # orthonormal product system


def test_khintchine_monte_carlo():
    a = np.ones(20)
    r = lp.khintchine_check(a, 4, mc_trials=200_000, seed=11)
    closed = (3 * 400 - 40) ** 0.25
    assert r.method == "monte_carlo" and r.stderr is not None
    assert abs(r.norm_lp - closed) <= 3 * r.stderr
    with pytest.raises(TooManyTerms):
        lp.khintchine_check(a, 4, mc_trials=0)


# ---------------------------------------------------------------------------
# corpus and sweep


def test_corpus_deterministic(db3):
    a = lp.standard_corpus(1, 9, 5, banks=db3, block_level=3)
    b = lp.standard_corpus(1, 9, 5, banks=db3, block_level=3)
    assert [fid for fid, _ in a] == [fid for fid, _ in b]
    for (_, fa), (_, fb) in zip(a, b):
        assert np.array_equal(fa.data, fb.data)
    ids = [fid for fid, _ in a]
    assert len(ids) == len(set(ids))


def test_corpus_bumps_match_closed_form(haar):
    # the separable libm evaluation is the same function as the closed form
    corpus = dict(lp.standard_corpus(2, 7, 3, banks=haar, block_level=2))
    rng = np.random.default_rng(3)
    for i in range(2):
        c = 0.35 + 0.3 * rng.random(2)
        w = 0.08 + 0.12 * rng.random(2)
        want = gf.sample(lambda x, y: np.exp(-((x - c[0]) / w[0]) ** 2
                                             - ((y - c[1]) / w[1]) ** 2),
                         7, ((0.0, 1.0), (0.0, 1.0)))
        got = corpus[f"gauss-{i}"]
        assert got.origin == want.origin
        assert np.abs(got.data - want.data).max() <= 1e-15
    want = gf.sample(lambda x, y: (np.exp(-((x - 0.5) / 0.15) ** 2)
                                   * np.cos(np.pi * (y - 0.5)) ** 2),
                     7, ((0.0, 1.0), (0.0, 1.0)))
    assert np.abs(corpus["tensor-bump"].data - want.data).max() <= 1e-15


def test_corpus_2d_members(haar):
    corpus = lp.standard_corpus(2, 7, 3, banks=haar, block_level=2)
    ids = {fid for fid, _ in corpus}
    assert "tensor-bump" in ids and "chirp" in ids
    for _, f in corpus:
        assert f.dim == 2


def test_sweep_p2_block_rows(db4):
    corpus = lp.standard_corpus(1, 12, 7, banks=db4, block_level=4)
    records, summary = lp.lp_sweep(corpus, [2.0], db4, 4, trials=2, seed=1)
    for r in records:
        if r.function_id.startswith("block-"):
            assert abs(r.ratio - 1.0) <= 1e-6
    assert summary["per_p"][2.0]["ratio_max"] <= 1.0 + 1e-6


def test_sweep_scale_invariance(haar, rng):
    f = gf.GridFunction(rng.standard_normal(512) + 0j, 9, (0,))
    corpus = [("f", f), ("2f", 2.0 * f)]
    records, _ = lp.lp_sweep(corpus, [1.5, 4.0], haar, 3, trials=0, seed=0)
    by_id = {}
    for r in records:
        by_id.setdefault(r.p, {})[r.function_id] = r.ratio
    for p, ratios in by_id.items():
        assert abs(ratios["f"] - ratios["2f"]) <= 1e-12


def test_sweep_skips_zero_member(haar):
    z = gf.GridFunction(np.zeros(256, dtype=complex), 8, (0,))
    records, _ = lp.lp_sweep([("zero", z)], [2.0], haar, 2, trials=1, seed=0)
    assert records[0].status == "skipped" and records[0].reason == "zero norm"


def test_sweep_jobs_deterministic(db3):
    corpus = lp.standard_corpus(1, 10, 9, banks=db3, block_level=3)
    r1, _ = lp.lp_sweep(corpus, [1.5, 2.0], db3, 3, trials=3, seed=4, jobs=1)
    r2, _ = lp.lp_sweep(corpus, [1.5, 2.0], db3, 3, trials=3, seed=4, jobs=3)
    assert [(r.function_id, r.p, r.ratio, r.sign_ratio_max) for r in r1] == \
           [(r.function_id, r.p, r.ratio, r.sign_ratio_max) for r in r2]


def test_writers(tmp_path, haar):
    corpus = lp.standard_corpus(1, 9, 2, banks=haar, block_level=3)
    records, summary = lp.lp_sweep(corpus, [1.5, 2.0], haar, 3, trials=2,
                                   seed=3)
    csv_path = tmp_path / "ratios.csv"
    lp.write_ratio_csv(records, csv_path)
    raw = csv_path.read_bytes()
    assert raw.startswith(b"function_id,filters,dim,p,depth")
    assert b"\r\n" in raw
    lp.write_ratio_csv(records, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == raw

    lp.write_summary(summary, tmp_path / "summary.txt")
    text = (tmp_path / "summary.txt").read_text()
    assert "ratio window" in text and "filters = haar" in text

    lp.write_ratio_svg(records, tmp_path / "ratios.svg")
    svg = (tmp_path / "ratios.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


# ---------------------------------------------------------------------------
# real data


@pytest.mark.parametrize("bank_name",
                         ["haar", "db2", "db3", "db4", "spline24"])
@pytest.mark.parametrize("shape, depth, origin, levels", [
    ((300,), 9, (-7,), (2,)), ((40, 24), 7, (3, -5), (2, 1))],
    ids=["1d", "2d"])
def test_real_input_gives_real_part_of_complex(registry, rng, bank_name, shape,
                                               depth, origin, levels):
    # x and x + 0j run the same operators; the real run is float64 and
    # carries exactly the real parts of the complex run
    bank = registry[bank_name]
    x = rng.standard_normal(shape)
    pattern = lp.SignPattern.random(len(shape), max(levels), rng)

    def results(f):
        return [mrand.project_nd(f, levels, bank),
                mrand.mixed_detail(f, levels, bank),
                mrand.mixed_detail(f, levels, bank, form="alternating"),
                lp.square_function(f, max(levels), bank),
                lp.sign_operator(f, pattern, bank)]

    for real, cplx in zip(results(gf.GridFunction(x, depth, origin)),
                          results(gf.GridFunction(x + 0j, depth, origin))):
        assert real.data.dtype == np.float64 and real.origin == cplx.origin
        assert real.data.tobytes() == np.ascontiguousarray(
            cplx.data.real).tobytes()
        assert not cplx.data.imag.any()


def test_real_sweep_members_stay_real(db4, monkeypatch):
    # every grid function a sweep of real members builds, and every tile
    # made on demand, is float64
    corpus = lp.standard_corpus(1, 10, 7) + lp.standard_corpus(2, 6, 7)
    made = []
    init, tile = gf.GridFunction.__init__, gf.TiledFunction.tile

    def record(self, *args):
        init(self, *args)
        made.append(self.data.dtype)

    def record_tile(self, a, b):
        cells = tile(self, a, b)
        made.extend([self.dtype, cells.dtype])
        return cells

    monkeypatch.setattr(gf.GridFunction, "__init__", record)
    monkeypatch.setattr(gf.TiledFunction, "tile", record_tile)
    for dim in (1, 2):
        members = [m for m in corpus if m[1].dim == dim]
        assert all(f.data.dtype == np.float64 for _, f in members)
        lp.lp_sweep(members, [1.5, 2, 4], db4, 2, trials=2, seed=7)
    assert len(made) > 100 and set(made) == {np.dtype(np.float64)}


# ---------------------------------------------------------------------------
# operator outputs made tile by tile


PS = [1.25, 1.5, 2.0, 3.3, 4.0]


def _sweep_outputs(f, bank, level):
    pattern = lp.SignPattern.random(f.dim, level, np.random.default_rng(3))
    return {"square_function": lp.square_function(f, level, bank),
            "sign_operator": lp.sign_operator(f, pattern, bank),
            "tail": f - mrand.project_nd(f, (level,) * f.dim, bank)}


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("shape, depth, origin", [
    ((2 ** 9 + 7,), 9, (-3,)),
    ((37, 2 ** 6 + 5), 7, (3, -2)),
    ((6, 19, 11), 5, (1, -1, 2)),
], ids=["1d", "2d", "3d"])
def test_streamed_outputs_equal_materialised(db2, rng, monkeypatch, kind,
                                             shape, depth, origin):
    # whole frames first: a tile as large as the frame is one kernel call
    # over it.  Then tiles of 7 cells (a row or a plane in 2-D and 3-D,
    # 7 columns in 1-D) and leaves of 1,000 cells, so tile borders cut the
    # leaves: the norms read tile by tile equal those of the filled frame,
    # and the frame equals the whole-frame result
    data = rng.standard_normal(shape)
    if kind == "complex":
        data = data + 1j * rng.standard_normal(shape)
    f = gf.GridFunction(data, depth, origin)
    level = 2 if len(shape) < 3 else 1
    monkeypatch.setattr(gf, "TILE_CELLS", 1 << 40)
    whole = {name: (g.origin, g.data)
             for name, g in _sweep_outputs(f, db2, level).items()}
    monkeypatch.setattr(gf, "TILE_CELLS", 7)
    monkeypatch.setattr(gf, "SUM_LEAF", 1000)
    for name, g in _sweep_outputs(f, db2, level).items():
        norms = gf.lp_norms(g, PS)
        assert isinstance(g, gf.TiledFunction) and g._frame is None, name
        assert norms == gf.lp_norms(gf.GridFunction(g.data, depth, g.origin),
                                    PS), name
        assert g.origin == whole[name][0], name
        assert g.data.dtype == whole[name][1].dtype, name
        assert g.data.tobytes() == whole[name][1].tobytes(), name


def _block_member(db4, depth):
    assignment = mrand.banks_for(db4, 2)
    corpus = lp.standard_corpus(2, depth, 601, banks=assignment,
                                block_level=1)
    return assignment, [m for m in corpus if m[0] == "block-0"]


def test_sweep_entry_holds_no_frame(db4):
    # one sweep entry of a 2-D db4 member of V_1 at depth 7 peaks under
    # half of its largest block frame, the complex level-0 block
    assignment, member = _block_member(db4, 7)
    f = member[0][1]
    largest = math.prod(lp.square_function(f, 1, assignment).shape) * 16
    args = ("block-0", f, [1.25, 2.0, 4.0], assignment, 1, 1, 601, 0)
    lp._entry_records(args)  # tables and the member filled beforehand
    tracemalloc.start()
    try:
        lp._entry_records(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < largest / 2, (peak, largest)


def test_budget_guards_materialised_frames_only(db4, monkeypatch):
    # a budget below the square function's frame refuses that frame when
    # it is read, and the sweep, which never reads it, keeps its records
    assignment, member = _block_member(db4, 7)
    sweep = functools.partial(lp.lp_sweep, member, [1.5, 2.0], assignment,
                              1, trials=1, seed=601)
    want = [dataclasses.replace(r, runtime=0.0) for r in sweep()[0]]
    frame = math.prod(lp.square_function(member[0][1], 1, assignment).shape)
    monkeypatch.setattr(gf, "_cgroup_limit",
                        lambda: frame * 8 * gf.FRAME_MEMORY_PARTS - 1)
    assert [dataclasses.replace(r, runtime=0.0) for r in sweep()[0]] == want
    with pytest.raises(FrameTooLarge):
        lp.square_function(member[0][1], 1, assignment).data
