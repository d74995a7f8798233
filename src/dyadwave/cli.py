"""Experiment driver.

Commands: filters, table, identities, lp-sweep, cz, report.  Every run is
configured by an optional structured-text config file plus flags, flags
winning; all randomness is seeded explicitly, and identical config + seeds
produce byte-identical CSV artifacts.  Exit codes: 0 all checks pass, 1 at
least one tolerance failure, 2 configuration or IO error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import czd, gridfn, lpharness, mra1d, mrand, refinable
from .errors import DyadwaveError, ParseError

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2


def parse_config(path):
    """key: value lines, '#' comments."""
    out = {}
    path = Path(path)
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(path, lineno, f"expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _setting(args, config, key, default, cast=str):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        return default
    if cast is bool and isinstance(value, str):
        return value.lower() in ("1", "true", "yes", "on")
    return cast(value)


def _positive(name, value):
    """value if it lies in (0, inf); ValueError otherwise, NaN included."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _tolerance_scale(args, config):
    return _positive("tolerance scale",
                     _setting(args, config, "tolerance_scale", 1.0, float))


def _float_list(text):
    return [float(tok) for tok in _str_list(text)]


def _str_list(text):
    return text.replace(",", " ").split()


def _load_banks(ids, registry_dir):
    registry = refinable.load_registry(registry_dir)
    banks = []
    for bank_id in ids:
        if bank_id not in registry:
            raise KeyError(f"unknown bank {bank_id!r}; registry has "
                           f"{', '.join(sorted(registry))}")
        banks.append(registry[bank_id])
    return banks


def _out_dir(args, config):
    out = Path(_setting(args, config, "out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# filters


def cmd_filters(args, config):
    registry_dir = _setting(args, config, "registry", None)
    depth = _setting(args, config, "depth", 12, int)
    scale = _tolerance_scale(args, config)
    directory = Path(registry_dir) if registry_dir else refinable.packaged_registry_dir()
    paths = sorted(directory.glob("*.txt"))
    if not paths:
        print("0 banks")
        return EXIT_OK
    failures = 0
    for path in paths:
        try:
            bank = refinable.parse_bank_file(path)
        except ParseError as exc:
            print(f"{path.name}: FAIL parse ({exc})")
            failures += 1
            continue
        residual = refinable.biorthogonality_residual(bank, depth)
        table = refinable.cascade(bank, "primal", min(depth, 10))
        refine = refinable.refinement_residual(table, bank)
        pou = refinable.partition_of_unity_residual(table)
        ok = (residual <= refinable.ACCEPTANCE_RESIDUAL * scale
              and refine <= 1e-9 * scale)
        status = "PASS" if ok else "FAIL"
        print(f"{bank.bank_id}: {status} biorthogonality={residual:.3e} "
              f"refinement={refine:.3e} partition_of_unity={pou:.3e}")
        failures += 0 if ok else 1
    print(f"{len(paths)} banks, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# table


def cmd_table(args, config):
    registry_dir = _setting(args, config, "registry", None)
    bank_id = _setting(args, config, "bank", None)
    if bank_id is None:
        raise ValueError("table needs a bank id (--bank)")
    which = _setting(args, config, "which", "primal")
    depth = _setting(args, config, "depth", 12, int)
    (bank,) = _load_banks([bank_id], registry_dir)
    table = refinable.DEFAULT_CACHE.get(bank, which, depth)
    print(f"{bank.bank_id}/{which} depth={depth} points={len(table.values)} "
          f"checksum={table.checksum[:16]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# identities


def _identity_battery(banks, dim, depth, max_level, seed):
    """Measured residuals for the projector identity suite, one dict each."""
    rng = np.random.default_rng(seed)
    assignment = mrand.banks_for(banks if len(banks) > 1 else banks[0], dim)
    rough = any(b.smoothness != "pcw_const" for b in assignment)
    tol = 1e-6 if rough else 1e-8
    shape = (2 ** depth,) * dim
    f = gridfn.GridFunction(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        depth, (0,) * dim)
    g = gridfn.GridFunction(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        depth, (0,) * dim)
    nf = gridfn.lp_norm(f, 2)
    ng = gridfn.lp_norm(g, 2)
    rows = []

    def add(name, measured, bound):
        rows.append({"name": name, "measured": float(measured),
                     "tolerance": float(bound),
                     "pass": bool(measured <= bound)})

    # levels 1 and 2 where max_level allows, so no check asks for more
    k1, k2 = min(1, max_level), min(2, max_level)
    levels = sorted({0, k1, max_level})
    proj = {k: mrand.project_nd(f, (k,) * dim, assignment) for k in levels}
    for k in levels:
        again = mrand.project_nd(proj[k], (k,) * dim, assignment)
        add(f"idempotence_k{k}",
            gridfn.lp_norm(again - proj[k], 2) / nf, tol)
        del again
    for k in levels:
        for kp in levels:
            if kp >= k:
                continue
            low = mrand.project_nd(proj[k], (kp,) * dim, assignment)
            add(f"nesting_k{kp}_{k}",
                gridfn.lp_norm(low - proj[kp], 2) / nf, tol)
            del low
    for k in levels:
        block_f = mrand.mixed_detail(f, (k,) * dim, assignment)
        for kp in levels:
            if kp >= k:
                continue
            block_g = mrand.mixed_detail(g, (kp,) * dim, assignment)
            add(f"block_orthogonality_k{kp}_{k}",
                abs(gridfn.inner_product(block_f, block_g)) / (nf * ng), tol)
            del block_g
        alt = mrand.mixed_detail(f, (k,) * dim, assignment, form="alternating")
        denom = gridfn.lp_norm(block_f, 2) or 1.0
        add(f"mixed_forms_k{k}",
            gridfn.lp_norm(alt - block_f, 2) / denom, 1e-9)
        del alt, block_f
    pk = mrand.project_nd(g, (max_level,) * dim, assignment)
    add("self_adjoint",
        abs(gridfn.inner_product(proj[max_level], g)
            - gridfn.inner_product(f, pk)) / (nf * ng), tol)
    del pk, proj
    ps = mrand.partial_sum(f, (k2,) * dim, assignment)
    pn = mrand.project_nd(f, (k2,) * dim, assignment)
    add("partial_sum_telescopes",
        gridfn.lp_norm(ps - pn, 2) / (gridfn.lp_norm(pn, 2) or 1.0), 1e-9)
    if dim >= 2:
        e0 = mrand.LevelProjection(assignment[0], k1)
        e1 = mrand.LevelProjection(assignment[1], k2)
        ab = mrand.apply_axis(e1, mrand.apply_axis(e0, f, 0), 1)
        ba = mrand.apply_axis(e0, mrand.apply_axis(e1, f, 1), 0)
        add("axis_commutation", gridfn.lp_norm(ab - ba, 2) / nf, 1e-10)
    # synthesized member: Parseval and reconstruction, from the same blocks
    n = 2 ** min(3, max_level)
    coeffs = (rng.standard_normal((n,) * dim)
              + 1j * rng.standard_normal((n,) * dim))
    member = lpharness.synthesize_nd(coeffs, (0,) * dim,
                                     (min(3, max_level),) * dim,
                                     assignment, depth)
    nm2 = gridfn.lp_norm(member, 2) ** 2
    total, rec = 0.0, None
    for kvec in gridfn.box_range((min(3, max_level),) * dim):
        blk = mrand.mixed_detail(member, kvec, assignment)
        total += gridfn.lp_norm(blk, 2) ** 2
        rec = blk if rec is None else rec + blk
    add("parseval_synth", abs(nm2 - total) / nm2, tol)
    add("reconstruction_synth",
        gridfn.lp_norm(rec - member, 2) / gridfn.lp_norm(member, 2), tol)
    return rows


def cmd_identities(args, config):
    registry_dir = _setting(args, config, "registry", None)
    bank_ids = _str_list(_setting(args, config, "banks", "haar"))
    dim = _setting(args, config, "dim", 1, int)
    depth = _setting(args, config, "depth", 10, int)
    max_level = _setting(args, config, "max_level", 4, int)
    seed = _setting(args, config, "seed", 0, int)
    scale = _tolerance_scale(args, config)
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if depth - max_level < mra1d.LEVEL_HEADROOM:
        raise ValueError(
            f"headroom violated: depth {depth} - max_level {max_level} < "
            f"{mra1d.LEVEL_HEADROOM}")
    banks = _load_banks(bank_ids, registry_dir)
    if len(banks) not in (1, dim):
        raise ValueError(f"need 1 or {dim} banks, got {len(banks)}")
    out = _out_dir(args, config)
    rows = _identity_battery(banks, dim, depth, max_level, seed)
    lines = []
    failures = 0
    for row in rows:
        tol = row["tolerance"] * scale
        ok = row["measured"] <= tol
        failures += 0 if ok else 1
        lines.append(f"{row['name']}: {'PASS' if ok else 'FAIL'} "
                     f"residual={row['measured']:.6e} tolerance={tol:.1e}")
    text = "\n".join(lines) + f"\nchecks = {len(rows)}, failures = {failures}\n"
    (out / "identities.txt").write_text(text)
    print(text, end="")
    return EXIT_OK if failures == 0 else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# lp sweep


def cmd_lp_sweep(args, config):
    registry_dir = _setting(args, config, "registry", None)
    bank_ids = _str_list(_setting(args, config, "banks", "haar"))
    dim = _setting(args, config, "dim", 1, int)
    depth = _setting(args, config, "depth", 10, int)
    max_level = _setting(args, config, "max_level", 4, int)
    p_list = _float_list(_setting(args, config, "p_list", "1.5 2 4"))
    seed = _setting(args, config, "seed", 0, int)
    trials = _setting(args, config, "trials", 10, int)
    jobs = _setting(args, config, "jobs", 1, int)
    scale = _tolerance_scale(args, config)
    no_plot = bool(getattr(args, "no_plot", False)) or _setting(
        args, config, "plot", True, bool) is False
    if any(p <= 1 or not np.isfinite(p) for p in p_list):
        raise ValueError(f"p values must lie in (1, inf): {p_list}")
    if max_level < 0 or trials < 0:
        raise ValueError("max_level and trials must be nonnegative, got "
                         f"{max_level} and {trials}")
    if depth - max_level < mra1d.LEVEL_HEADROOM:
        raise ValueError("headroom violated: depth - max_level < "
                         f"{mra1d.LEVEL_HEADROOM}")
    banks = _load_banks(bank_ids, registry_dir)
    assignment = mrand.banks_for(banks if len(banks) > 1 else banks[0], dim)
    out = _out_dir(args, config)
    t0 = time.perf_counter()
    corpus = lpharness.standard_corpus(dim, depth, seed, banks=assignment,
                                       block_level=max_level)
    records, summary = lpharness.lp_sweep(
        corpus, p_list, assignment, max_level, trials=trials, seed=seed,
        jobs=jobs)
    lpharness.write_ratio_csv(records, out / "ratios.csv")
    lpharness.write_summary(summary, out / "summary.txt")
    if not no_plot:
        lpharness.write_ratio_svg(records, out / "ratios.svg")
    failures = 0
    if 2.0 in [float(p) for p in p_list]:
        for r in records:
            if (r.status == "ok" and r.p == 2.0
                    and r.function_id.startswith("block-")
                    and abs(r.ratio - 1.0) > 1e-6 * scale):
                failures += 1
                print(f"p=2 identity violated for {r.function_id}: "
                      f"ratio={r.ratio!r}")
    print(f"wrote {out / 'ratios.csv'} ({len(records)} records, "
          f"{time.perf_counter() - t0:.2f} s)")
    return EXIT_OK if failures == 0 else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# cz


def _cz_corpus_member(depth, seed):
    rng = np.random.default_rng(seed)
    kind = seed % 3
    n = 2 ** depth
    if kind == 0:
        normal = rng.standard_normal(n)
        data = normal * lpharness.libm_map(math.exp, rng.standard_normal(n))
    elif kind == 1:
        data = np.zeros(n)
        for _ in range(6):
            lo = rng.integers(0, n - 1)
            hi = rng.integers(lo + 1, n + 1)
            data[lo:hi] += rng.standard_normal() * 4.0
    else:
        x = (np.arange(n) + 0.5) / n
        data = (lpharness.libm_map(math.sin, 9.0 * x)
                + 8.0 * lpharness.libm_map(math.exp, -((x - 0.5) / 0.02) ** 2))
    return gridfn.GridFunction(data, depth, (int(rng.integers(-n, n)),))


def cmd_cz(args, config):
    depth = _setting(args, config, "depth", 10, int)
    seeds = [int(s) for s in _str_list(_setting(args, config, "seeds", "0 1 2 3 4"))]
    alphas = [_positive("alpha", a) for a in _float_list(
        _setting(args, config, "alphas", "0.1 0.3 1.0 3.0 10.0"))]
    if depth < 0 or any(seed < 0 for seed in seeds):
        raise ValueError("depth and seeds must be nonnegative, got "
                         f"{depth} and {seeds}")
    out = _out_dir(args, config)
    failures = 0
    runs = 0
    for seed in seeds:
        f = _cz_corpus_member(depth, seed)
        for alpha in alphas:
            runs += 1
            tag = f"seed{seed}-alpha{alpha:g}"
            try:
                dec = czd.cz_decompose(f, alpha)
            except DyadwaveError as exc:
                (out / f"cz-{tag}.txt").write_text(f"degenerate: {exc}\n")
                failures += 1
                continue
            checks = czd.verify_cz(dec, f)
            czd.write_cubes_csv(dec, out / f"cz-{tag}-cubes.csv")
            (out / f"cz-{tag}.txt").write_text(czd.format_report(dec, checks))
            if not all(c.passed for c in checks):
                failures += 1
                print(f"{tag}: FAIL "
                      f"{[c.name for c in checks if not c.passed]}")
    print(f"{runs} decompositions, {failures} failures; reports in {out}")
    return EXIT_OK if failures == 0 else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# report


def cmd_report(args, config):
    out = Path(_setting(args, config, "out", "out"))
    if not out.exists():
        raise FileNotFoundError(f"no artifact directory {out}")
    shown = 0
    for name in ("identities.txt", "summary.txt"):
        path = out / name
        if path.exists():
            print(f"== {name}")
            print(path.read_text(), end="")
            shown += 1
    cz_reports = sorted(out.glob("cz-*.txt"))
    if cz_reports:
        fails = sum("FAIL" in p.read_text() for p in cz_reports)
        print(f"== cz: {len(cz_reports)} reports, {fails} with failures")
        shown += 1
    if shown == 0:
        print(f"no artifacts found in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dyadwave",
        description="dyadic multiresolution experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--out": {"help": "output directory (default: out)"},
        "--registry": {"help": "filter registry directory"},
        "--seed": {"type": int, "help": "base RNG seed"},
        "--jobs": {"type": int, "help": "parallel corpus entries"},
        "--tolerance-scale": {"type": float,
                              "help": "multiply every tolerance by this factor"},
        "--banks": {"help": "comma-separated bank ids"},
        "--dim": {"type": int},
        "--depth": {"type": int},
        "--max-level": {"type": int},
    }

    def command(name, func, help, *flags):
        """A subcommand with --config and the named shared flags."""
        # no abbreviations: cz would read --seed as its --seeds
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="structured text config file")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    p = command("filters", cmd_filters, "validate a filter registry",
                "--registry", "--tolerance-scale")
    p.add_argument("--depth", type=int, help="quadrature depth (default 12)")

    p = command("table", cmd_table,
                "print the size and checksum of a generator value table",
                "--registry", "--depth")
    p.add_argument("--bank", help="bank id")
    p.add_argument("--which", choices=("primal", "dual"))

    # identities and cz read no --jobs; they accept it so that one flag set
    # (perfbench/workloads.py) drives every command
    experiment_flags = ("--out", "--registry", "--seed", "--jobs",
                        "--tolerance-scale", "--banks", "--dim", "--depth",
                        "--max-level")
    command("identities", cmd_identities, "projector identity suite",
            *experiment_flags)

    p = command("lp-sweep", cmd_lp_sweep,
                "square-function / sign-operator sweep", *experiment_flags)
    p.add_argument("--p-list", help="comma-separated exponents")
    p.add_argument("--trials", type=int, help="random sign patterns per entry")
    p.add_argument("--no-plot", action="store_true", help="skip the SVG plot")

    p = command("cz", cmd_cz, "dyadic decomposition suite",
                "--out", "--jobs", "--depth")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.add_argument("--alphas", help="comma-separated levels")

    command("report", cmd_report, "summarize artifacts in an out dir", "--out")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    try:
        if args.config:
            config = parse_config(args.config)
        return args.func(args, config)
    except (DyadwaveError, OSError, KeyError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
