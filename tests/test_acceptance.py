"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting every stated tolerance, including the runtime
budget."""

import time
from pathlib import Path

import numpy as np
import pytest

from dyadwave import czd
from dyadwave import gridfn as gf
from dyadwave import lpharness as lp
from dyadwave import mra1d, mrand, refinable

GOLDEN_DIR = Path(__file__).parent / "golden"

CORPUS_SEED = 2026


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(n, timer, detail=""):
    print(f"ACCEPTANCE {n}: PASS ({timer.elapsed:.2f} s / budget "
          f"{timer.budget:.0f} s) {detail}")
    assert timer.elapsed < timer.budget


def corpus_of(count, dim, depth, banks, level, seed=CORPUS_SEED):
    out = []
    shift = 0
    while len(out) < count:
        for fid, f in lp.standard_corpus(dim, depth, seed + shift,
                                         banks=banks, block_level=level):
            out.append((f"{fid}-s{shift}", f))
        shift += 1
    return out[:count]


# ---------------------------------------------------------------------------


def test_criterion_01_biorthogonality(registry):
    with Timer(5.0) as t:
        worst = {}
        for name in ("haar", "db2", "db3", "db4"):
            worst[name] = refinable.biorthogonality_residual(registry[name],
                                                             depth=12)
            assert worst[name] <= 1e-6, name
    report(1, t, " ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_02_projector_algebra(registry):
    with Timer(30.0) as t:
        worst = 0.0
        for bank_name, depth, tol in (("haar", 10, 1e-8), ("db4", 14, 1e-6)):
            bank = registry[bank_name]
            corpus = corpus_of(10, 1, depth, bank, 6)
            levels = range(7)
            for i, (fid, f) in enumerate(corpus):
                nf = gf.lp_norm(f, 2)
                gid, g = corpus[(i + 1) % len(corpus)]
                ng = gf.lp_norm(g, 2)
                proj = {k: mrand.project_nd(f, k, bank) for k in levels}
                det_f = {k: mrand.mixed_detail(f, k, bank) for k in levels}
                det_g = {k: mrand.mixed_detail(g, k, bank) for k in levels}
                for k in levels:
                    again = mrand.project_nd(proj[k], k, bank)
                    r = gf.lp_norm(again - proj[k], 2) / nf
                    assert r <= tol, (bank_name, fid, "idempotence", k)
                    worst = max(worst, r / tol)
                    lhs = gf.inner_product(proj[k], g)
                    rhs = gf.inner_product(f, mrand.project_nd(g, k, bank))
                    r = abs(lhs - rhs) / (nf * ng)
                    assert r <= tol, (bank_name, fid, "self_adjoint", k)
                    worst = max(worst, r / tol)
                for k in levels:
                    for kp in range(k):
                        low = mrand.project_nd(proj[k], kp, bank)
                        r = gf.lp_norm(low - proj[kp], 2) / nf
                        assert r <= tol, (bank_name, fid, "nesting", kp, k)
                        worst = max(worst, r / tol)
                        r = abs(gf.inner_product(det_f[k], det_g[kp])) / (nf * ng)
                        assert r <= tol, (bank_name, fid, "orthogonality", kp, k)
                        worst = max(worst, r / tol)
    report(2, t, f"worst residual at {worst:.3f} of tolerance")


def test_criterion_03_parseval_reconstruction(registry, rng):
    with Timer(60.0) as t:
        cases = [
            (1, "haar", 11, 6),
            (1, "db4", 11, 3),
            (2, "haar", 11, 3),
        ]
        worst = 0.0
        for dim, bank_name, depth, level in cases:
            bank = registry[bank_name]
            n = 2 ** level if dim == 1 else 2 ** (level - 1)
            coeffs = (rng.standard_normal((n,) * dim)
                      + 1j * rng.standard_normal((n,) * dim))
            f = mrand.synthesize_nd(coeffs, (0,) * dim, (level,) * dim,
                                    bank, depth)
            n2 = gf.lp_norm(f, 2) ** 2
            total = sum(
                gf.lp_norm(mrand.mixed_detail(f, kv, bank), 2) ** 2
                for kv in gf.box_range((level,) * dim))
            r = abs(n2 - total) / n2
            assert r <= 1e-8, (dim, bank_name, "parseval", r)
            worst = max(worst, r)
            back = mrand.partial_sum(f, (level,) * dim, bank)
            r = gf.lp_norm(back - f, 2) / gf.lp_norm(f, 2)
            assert r <= 1e-8, (dim, bank_name, "reconstruction", r)
            worst = max(worst, r)
    report(3, t, f"worst relative residual {worst:.2e}")


def test_criterion_04_tensor_equivalences(registry, rng):
    with Timer(60.0) as t:
        db2, db3 = registry["db2"], registry["db3"]
        f = gf.GridFunction(
            rng.standard_normal((2 ** 8, 2 ** 8))
            + 1j * rng.standard_normal((2 ** 8, 2 ** 8)), 8, (0, 0))
        worst_forms = 0.0
        for kv in gf.box_range((3, 3)):
            a = mrand.mixed_detail(f, kv, (db2, db3), form="factorized")
            b = mrand.mixed_detail(f, kv, (db2, db3), form="alternating")
            r = gf.lp_norm(a - b, 2) / (gf.lp_norm(a, 2) or 1.0)
            assert r <= 1e-9, ("forms", kv, r)
            worst_forms = max(worst_forms, r)
        x = mrand.apply_axis(mrand.LevelProjection(db2, 1), f, 0)
        xy = mrand.apply_axis(mrand.LevelProjection(db3, 2), x, 1)
        y = mrand.apply_axis(mrand.LevelProjection(db3, 2), f, 1)
        yx = mrand.apply_axis(mrand.LevelProjection(db2, 1), y, 0)
        r_comm = gf.lp_norm(xy - yx, 2) / gf.lp_norm(f, 2)
        assert r_comm <= 1e-10

        # brute-force double-sum oracle on an 8 x 8 coefficient instance
        depth, level = 8, 2
        n_axis = 2 ** depth + 2 ** 7
        g = gf.GridFunction(
            rng.standard_normal((n_axis, n_axis))
            + 1j * rng.standard_normal((n_axis, n_axis)), depth, (0, 0))
        gap = depth - level
        m = 1 << gap
        sup = db2.primal.support_length
        dual = refinable.cascade(db2, "dual", gap + 1).midpoint_samples(gap)
        primal = refinable.cascade(db2, "primal", gap + 1).midpoint_samples(gap)
        shifts = list(range(-sup + 1, (n_axis - 1) // m + 1))
        assert len(shifts) == 8
        out = np.zeros((n_axis + 2 * sup * m,) * 2, dtype=complex)
        for a, nu1 in enumerate(shifts):
            for b, nu2 in enumerate(shifts):
                r1 = slice(max(0, nu1 * m), min(n_axis, (nu1 + sup) * m))
                r2 = slice(max(0, nu2 * m), min(n_axis, (nu2 + sup) * m))
                w1 = dual[r1.start - nu1 * m:r1.stop - nu1 * m]
                w2 = dual[r2.start - nu2 * m:r2.stop - nu2 * m]
                c = (w1 @ g.data[r1, r2] @ w2) * 4.0 ** (level - depth)
                o1, o2 = (nu1 + sup) * m, (nu2 + sup) * m
                out[o1:o1 + sup * m, o2:o2 + sup * m] += c * np.outer(primal,
                                                                      primal)
        oracle = gf.GridFunction(out, depth, (-sup * m, -sup * m))
        got = mrand.project_nd(g, (level, level), db2)
        r_oracle = gf.lp_norm(got - oracle, 2) / gf.lp_norm(g, 2)
        assert r_oracle <= 1e-8
    report(4, t, f"forms {worst_forms:.1e}, commutation {r_comm:.1e}, "
                 f"oracle {r_oracle:.1e}")


def test_criterion_05_convergence(registry):
    with Timer(60.0) as t:
        db4 = registry["db4"]
        finals = {}
        f1 = gf.sample(lambda x: np.cos(np.pi * (x - 0.5)) ** 2, 14,
                       ((0.0, 1.0),))
        for p in (1.5, 2.0, 4.0):
            nf = gf.lp_norm(f1, p)
            errs = [gf.lp_norm(f1 - mrand.project_nd(f1, (k,), db4), p) / nf
                    for k in range(7)]
            assert all(a > b for a, b in zip(errs, errs[1:])), (1, p, errs)
            assert errs[-1] <= 5e-3, (1, p, errs[-1])
            finals[(1, p)] = errs[-1]
        f2 = gf.sample(
            lambda x, y: (np.cos(np.pi * (x - 0.5)) ** 2
                          * np.cos(np.pi * (y - 0.5)) ** 2),
            8, ((0.0, 1.0), (0.0, 1.0)))
        for p in (1.5, 2.0, 4.0):
            nf = gf.lp_norm(f2, p)
            errs = [gf.lp_norm(f2 - mrand.project_nd(f2, (k, k), db4), p) / nf
                    for k in range(5)]
            assert all(a > b for a, b in zip(errs, errs[1:])), (2, p, errs)
            assert errs[-1] <= 5e-3, (2, p, errs[-1])
            finals[(2, p)] = errs[-1]
    report(5, t, "finals " + " ".join(f"d{d}p{p}={v:.1e}"
                                      for (d, p), v in finals.items()))


def test_criterion_06_p2_littlewood_paley(registry, rng):
    with Timer(30.0) as t:
        worst = 0.0
        for dim, bank_name, depth, level in ((1, "db4", 12, 4),
                                             (2, "haar", 9, 3)):
            bank = registry[bank_name]
            n = 2 ** level
            coeffs = (rng.standard_normal((n,) * dim)
                      + 1j * rng.standard_normal((n,) * dim))
            f = mrand.synthesize_nd(coeffs, (0,) * dim, (level,) * dim,
                                    bank, depth)
            sf = lp.square_function(f, level, bank)
            n2 = gf.lp_norm(f, 2)
            r = abs(gf.lp_norm(sf, 2) - n2) / n2
            assert r <= 1e-8, (dim, bank_name, r)
            worst = max(worst, r)
    report(6, t, f"worst relative deviation {worst:.2e}")


def test_criterion_07_sign_operator_uniformity(registry):
    with Timer(300.0) as t:
        db4 = registry["db4"]
        maxima = {}
        p2_worst = 0.0
        invol_worst = 0.0
        for top in (4, 6):
            depth = top + 9
            corpus = corpus_of(20, 1, depth, db4, top)
            rng = np.random.default_rng([CORPUS_SEED, top])
            patterns = [lp.SignPattern.random(1, top, rng)
                        for _ in range(100)]
            for p in (1.5, 4.0):
                maxima.setdefault(p, {})[top] = 0.0
            for fid, f in corpus:
                norms = {p: gf.lp_norm(f, p) for p in (1.5, 2.0, 4.0)}
                if norms[2.0] == 0.0:
                    continue
                blocks = [mrand.mixed_detail(f, (k,), db4)
                          for k in range(top + 1)]
                frame = gf.union_box(*[b.box() for b in blocks])
                stack = np.stack([gf.embed(b, frame) for b in blocks])
                ek_norm = gf.lp_norm(
                    mrand.project_nd(f, (top,), db4), 2)
                origin = tuple(lo for lo, _ in frame)
                for j, pat in enumerate(patterns):
                    signs = np.asarray(pat.axis_signs[0], dtype=float)
                    tf = gf.GridFunction(
                        np.tensordot(signs, stack, axes=(0, 0)), depth,
                        origin)
                    for p in (1.5, 4.0):
                        maxima[p][top] = max(maxima[p][top],
                                             gf.lp_norm(tf, p) / norms[p])
                    p2_worst = max(p2_worst,
                                   abs(gf.lp_norm(tf, 2) - ek_norm) / norms[2.0])
                    if top == 6 and j < 5:
                        back = lp.sign_operator(tf, pat, db4)
                        ek = mrand.project_nd(f, (top,), db4)
                        invol_worst = max(
                            invol_worst,
                            gf.lp_norm(back - ek, 2) / norms[2.0])
        drifts = {}
        for p in (1.5, 4.0):
            hi, lo = maxima[p][6], maxima[p][4]
            drifts[p] = abs(hi - lo) / lo
            assert drifts[p] <= 0.20, (p, maxima[p])
        assert p2_worst <= 1e-6
        assert invol_worst <= 1e-8
    report(7, t, f"drift p1.5={drifts[1.5]:.2%} p4={drifts[4.0]:.2%} "
                 f"p2 dev {p2_worst:.1e} involution {invol_worst:.1e}")


SWEEP_CONFIGS = {
    "d1": dict(dim=1, bank="db4", depths=(11, 12), level=4),
    "d2": dict(dim=2, bank="haar", depths=(9, 10), level=4),
}
SWEEP_PS = [1.25, 1.5, 2.0, 4.0]


def _sweep_records(registry, tag, depth):
    cfg = SWEEP_CONFIGS[tag]
    bank = registry[cfg["bank"]]
    corpus = lp.standard_corpus(cfg["dim"], depth, CORPUS_SEED, banks=bank,
                                block_level=cfg["level"])
    return lp.lp_sweep(corpus, SWEEP_PS, bank, cfg["level"], trials=3,
                       seed=CORPUS_SEED)


def test_criterion_08_square_function_stability(registry, tmp_path):
    with Timer(600.0) as t:
        shifts = []
        for tag, cfg in SWEEP_CONFIGS.items():
            windows = {}
            for depth in cfg["depths"]:
                records, summary = _sweep_records(registry, tag, depth)
                windows[depth] = {
                    p: (summary["per_p"][p]["ratio_min"],
                        summary["per_p"][p]["ratio_max"])
                    for p in SWEEP_PS}
                if depth == cfg["depths"][0]:
                    path = tmp_path / f"ratios-{tag}.csv"
                    lp.write_ratio_csv(records, path)
                    golden = GOLDEN_DIR / f"ratios-{tag}.csv"
                    assert golden.exists(), f"golden file {golden} missing"
                    assert path.read_bytes() == golden.read_bytes(), tag
            lo_d, hi_d = cfg["depths"]
            for p in SWEEP_PS:
                lo1, hi1 = windows[lo_d][p]
                lo2, hi2 = windows[hi_d][p]
                assert lo1 > 0 and hi1 > 0
                shift_lo = abs(lo2 - lo1) / lo1
                shift_hi = abs(hi2 - hi1) / hi1
                assert shift_lo <= 0.10 and shift_hi <= 0.10, (tag, p)
                shifts.extend([shift_lo, shift_hi])
    report(8, t, f"max window shift {max(shifts):.2%}, golden files matched")


def test_criterion_09_khintchine(rng):
    with Timer(10.0) as t:
        for m in (3, 6, 9, 12):
            r = lp.khintchine_check(np.ones(m), 4)
            closed = 3.0 * m * m - 2.0 * m
            assert abs(r.norm_lp ** 4 - closed) <= 1e-12 * closed
        a = rng.standard_normal(12)
        r = lp.khintchine_check(a, 4)
        closed = 3 * float(a @ a) ** 2 - 2 * float(np.sum(a ** 4))
        assert abs(r.norm_lp ** 4 - closed) <= 1e-12 * closed
        big = rng.standard_normal(24)
        rmc = lp.khintchine_check(big, 4, mc_trials=250_000, seed=8)
        closed4 = (3 * float(big @ big) ** 2
                   - 2 * float(np.sum(big ** 4))) ** 0.25
        assert rmc.method == "monte_carlo"
        assert abs(rmc.norm_lp - closed4) <= 3 * rmc.stderr
    report(9, t, f"exact to closed form, MC within 3 se "
                 f"({abs(rmc.norm_lp - closed4) / rmc.stderr:.2f} se)")


def test_criterion_10_cz_decomposition():
    with Timer(30.0) as t:
        runs = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 2 ** 10
            data = rng.standard_normal(n) * np.exp(rng.standard_normal(n))
            f = gf.GridFunction(data + 0j, 10, (int(rng.integers(-n, n)),))
            norm1 = gf.l1_norm(f)
            for alpha in (norm1 / 8, norm1 / 2, norm1, 2 * norm1, 8 * norm1):
                dec = czd.cz_decompose(f, alpha)
                checks = czd.verify_cz(dec, f)
                failed = [c.name for c in checks if not c.passed]
                assert not failed, (seed, alpha, failed)
                runs += 1
    report(10, t, f"{runs} decompositions, every dyadic constant held")


def test_criterion_11_marcinkiewicz_weak_type(registry):
    with Timer(60.0) as t:
        ratios = {}
        for depth in (9, 10):
            f = gf.sample(lambda x: 1.0 + 0.5 * np.sin(5 * x), depth,
                          ((0.0, 1.0),))
            dec = czd.cz_decompose(f, 0.7)
            _, _, ratio = czd.marcinkiewicz_integral(dec, f, radius=8.0)
            assert np.isfinite(ratio) and ratio > 0
            ratios[depth] = ratio
        drift = abs(ratios[10] - ratios[9]) / ratios[9]
        assert drift <= 0.10

        db4 = registry["db4"]
        rng = np.random.default_rng(CORPUS_SEED)
        worst = 0.0
        members = [gf.GridFunction(rng.standard_normal(2 ** 13) + 0j, 13,
                                   (0,)) for _ in range(2)]
        coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        members.append(mrand.synthesize_nd(coeffs, (0,), (4,), db4, 13))
        for f in members:
            pat = lp.SignPattern.random(1, 4, rng)
            rows = czd.weak_type_measure(
                lambda g: lp.sign_operator(g, pat, db4), f,
                [0.02, 0.05, 0.2, 0.5, 1.0, 2.0])
            worst = max(worst, max(r["l2_stat"] for r in rows))
        assert worst <= 1.0 + 1e-6
    report(11, t, f"marcinkiewicz drift {drift:.2%}, "
                  f"weak-type L2 statistic max {worst:.9f}")
