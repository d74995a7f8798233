"""Experiment driver.

Commands: filters, table, identities, lp-sweep, cz, report.  Every setting
is declared once, as a flag with its type and default in ``build_parser``;
an optional structured-text config file sets those defaults, flags
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
from .errors import DyadwaveError, FrameTooLarge, ParseError

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2


def parse_config(path):
    """{dest: text} of a file of key: value lines with '#' comments; a key
    names its flag's dest, '-' and '_' alike."""
    return refinable.read_key_values(
        path, lambda key: key.replace("-", "_"))[0]


def _with_config(parser, argv, args):
    """argv parsed again with the config file's values as the command's
    defaults: a flag still wins, and each value is converted by its flag's
    type.  Refuses a key that names no flag of the command."""
    config = parse_config(args.config)
    settings = set(vars(args)) - {"command", "func", "config"}
    unknown = sorted(set(config) - settings)
    if unknown:
        raise ValueError(f"{args.command} reads no config key "
                         f"{', '.join(unknown)}")
    if "plot" in config:
        config["plot"] = config["plot"].lower() in ("1", "true", "yes", "on")
    parser.commands[args.command].set_defaults(**config)
    try:
        return parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        raise ValueError(f"{args.config}: {exc}") from None


def _positive(name, value):
    """value if it lies in (0, inf); ValueError otherwise, NaN included."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _str_list(text):
    items = text.replace(",", " ").split()
    if not items:
        raise argparse.ArgumentTypeError(f"needs a value, got {text!r}")
    return items


def _int_list(text):
    return [int(tok) for tok in _str_list(text)]


def _float_list(text):
    return [float(tok) for tok in _str_list(text)]


def _jobs(text):
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _experiment_banks(args, input_dtype):
    """Check the settings identities and lp-sweep share, before anything is
    drawn or written, and return the accepted banks, one per axis.
    input_dtype is that of the (2^depth)^dim input frames the run draws."""
    _positive("tolerance scale", args.tolerance_scale)
    if args.dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {args.dim}")
    if args.max_level < 0:
        raise ValueError(f"max_level must be nonnegative, got {args.max_level}")
    if args.depth - args.max_level < mra1d.LEVEL_HEADROOM:
        raise ValueError(
            f"headroom violated: depth {args.depth} - max_level "
            f"{args.max_level} < {mra1d.LEVEL_HEADROOM}")
    banks = [refinable.get_bank(b, args.registry) for b in args.banks]
    assignment = mrand.banks_for(banks if len(banks) > 1 else banks[0],
                                 args.dim)
    gridfn.check_frame((2 ** args.depth,) * args.dim, input_dtype)
    return assignment


# ---------------------------------------------------------------------------
# filters


def cmd_filters(args):
    scale = _positive("tolerance scale", args.tolerance_scale)
    directory = (Path(args.registry) if args.registry
                 else refinable.packaged_registry_dir())
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
        residual = refinable.biorthogonality_residual(bank, args.depth)
        table = refinable.cascade(bank, "primal", min(args.depth, 10))
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


def cmd_table(args):
    if args.bank is None:
        raise ValueError("table needs a bank id (--bank)")
    bank = refinable.get_bank(args.bank, args.registry)
    table = refinable.DEFAULT_CACHE.get(bank, args.which, args.depth)
    print(f"{bank.bank_id}/{args.which} depth={args.depth} "
          f"points={len(table.values)} checksum={table.checksum[:16]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# identities


def _identity_battery(banks, dim, depth, max_level, seed):
    """Measured residuals for the projector identity suite, one dict each."""
    rng = np.random.default_rng(seed)
    assignment = mrand.banks_for(banks if len(banks) > 1 else banks[0], dim)
    rough = any(b.smoothness != "pcw_const" for b in assignment)
    tol = 1e-6 if rough else 1e-8

    def gaussian(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    f = gridfn.GridFunction(gaussian((2 ** depth,) * dim), depth, (0,) * dim)
    g = gridfn.GridFunction(gaussian((2 ** depth,) * dim), depth, (0,) * dim)
    nf = gridfn.lp_norm(f, 2)
    ng = gridfn.lp_norm(g, 2)
    rows = []

    def add(name, measured, bound):
        rows.append({"name": name, "measured": float(measured),
                     "tolerance": float(bound)})

    # levels 1 and 2 where max_level allows, so no check asks for more
    k1, k2 = min(1, max_level), min(2, max_level)
    levels = sorted({0, k1, max_level})
    proj = {k: mrand.project_nd(f, (k,) * dim, assignment) for k in levels}
    for k in levels:
        again = mrand.project_nd(proj[k], (k,) * dim, assignment)
        add(f"idempotence_k{k}",
            gridfn.lp_norm(again - proj[k], 2) / nf, tol)
        del again
    for i, k in enumerate(levels):
        for kp in levels[:i]:
            low = mrand.project_nd(proj[k], (kp,) * dim, assignment)
            add(f"nesting_k{kp}_{k}",
                gridfn.lp_norm(low - proj[kp], 2) / nf, tol)
            del low
    for i, k in enumerate(levels):
        block_f = mrand.mixed_detail(f, (k,) * dim, assignment)
        for kp in levels[:i]:
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
    # synthesized member: Parseval and reconstruction from its detail
    # blocks, all from one tensor pass, as the square function takes them
    top = min(3, max_level)
    member = mrand.synthesize_nd(gaussian((2 ** top,) * dim), (0,) * dim,
                                 (top,) * dim, assignment, depth)
    nm = gridfn.lp_norm(member, 2)
    weights = [mrand.detail_weights(k) for k in range(top + 1)]
    blocks = list(mrand.tensor_sums(member, [weights] * dim, assignment))
    total = sum(gridfn.lp_norm(blk, 2) ** 2 for blk in blocks)
    add("parseval_synth", abs(nm ** 2 - total) / nm ** 2, tol)
    rec = gridfn.combine((1, blk) for blk in blocks)
    add("reconstruction_synth", gridfn.lp_norm(rec - member, 2) / nm, tol)
    return rows


def cmd_identities(args):
    assignment = _experiment_banks(args, np.complex128)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = _identity_battery(assignment, args.dim, args.depth, args.max_level,
                             args.seed)
    lines = []
    failures = 0
    for row in rows:
        tol = row["tolerance"] * args.tolerance_scale
        ok = row["measured"] <= tol
        failures += 0 if ok else 1
        lines.append(f"{row['name']}: {'PASS' if ok else 'FAIL'} "
                     f"residual={row['measured']:.6e} tolerance={tol:.1e}")
    text = "\n".join(lines) + f"\nchecks = {len(rows)}, failures = {failures}\n"
    (args.out / "identities.txt").write_text(text)
    print(text, end="")
    return EXIT_OK if failures == 0 else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# lp sweep


def cmd_lp_sweep(args):
    if any(p <= 1 or not np.isfinite(p) for p in args.p_list):
        raise ValueError(f"p values must lie in (1, inf): {args.p_list}")
    if args.trials < 0:
        raise ValueError(f"trials must be nonnegative, got {args.trials}")
    assignment = _experiment_banks(args, np.float64)
    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    corpus = lpharness.standard_corpus(args.dim, args.depth, args.seed,
                                       banks=assignment,
                                       block_level=args.max_level)
    records, summary = lpharness.lp_sweep(
        corpus, args.p_list, assignment, args.max_level, trials=args.trials,
        seed=args.seed, jobs=args.jobs)
    lpharness.write_ratio_csv(records, args.out / "ratios.csv")
    lpharness.write_summary(summary, args.out / "summary.txt")
    if args.plot:
        lpharness.write_ratio_svg(records, args.out / "ratios.svg")
    failures = 0
    for r in records:
        if (r.status == "ok" and r.p == 2.0
                and r.function_id.startswith("block-")
                and abs(r.ratio - 1.0) > 1e-6 * args.tolerance_scale):
            failures += 1
            print(f"p=2 identity violated for {r.function_id}: "
                  f"ratio={r.ratio!r}")
    print(f"wrote {args.out / 'ratios.csv'} ({len(records)} records, "
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


def cmd_cz(args):
    for alpha in args.alphas:
        _positive("alpha", alpha)
    if args.depth < 0 or any(seed < 0 for seed in args.seeds):
        raise ValueError("depth and seeds must be nonnegative, got "
                         f"{args.depth} and {args.seeds}")
    # from depth 18 on, drawing a member peaks at under five of its frames
    gridfn.check_frame((2 ** args.depth,), np.float64)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    runs = 0
    for seed in args.seeds:
        f = _cz_corpus_member(args.depth, seed)
        for alpha in args.alphas:
            runs += 1
            tag = f"seed{seed}-alpha{alpha:g}"
            try:
                dec = czd.cz_decompose(f, alpha)
            except FrameTooLarge:
                raise
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


def cmd_report(args):
    out = args.out
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
    """Every command's flags with their types and defaults; ``.commands``
    maps each command name to its subparser."""
    # a value a flag's type refuses raises ArgumentError: exit 2 in main
    parser = argparse.ArgumentParser(
        prog="dyadwave",
        description="dyadic multiresolution experiment driver",
        exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default is converted by the flag's type, as a config value is
    shared = {
        "--out": {"type": Path, "default": "out",
                  "help": "output directory (default: out)"},
        "--registry": {"help": "filter registry directory"},
        "--seed": {"type": int, "default": 0, "help": "base RNG seed"},
        "--jobs": {"type": _jobs, "default": 1,
                   "help": "parallel corpus entries (lp-sweep); identities "
                           "and cz accept it and ignore it"},
        "--tolerance-scale": {"type": float, "default": 1.0,
                              "help": "multiply every tolerance by this factor"},
        "--banks": {"type": _str_list, "default": "haar",
                    "help": "comma-separated bank ids"},
        "--dim": {"type": int, "default": 1},
        "--depth": {"type": int, "default": 10},
        "--max-level": {"type": int, "default": 4},
    }

    def command(name, func, help, *flags):
        """A subcommand with --config and the named shared flags."""
        # no abbreviations: cz would read --seed as its --seeds
        p = sub.add_parser(name, help=help, allow_abbrev=False,
                           exit_on_error=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="structured text config file")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    p = command("filters", cmd_filters, "validate a filter registry",
                "--registry", "--tolerance-scale")
    p.add_argument("--depth", type=int, default=12,
                   help="quadrature depth (default 12)")

    p = command("table", cmd_table,
                "print the size and checksum of a generator value table",
                "--registry", "--depth")
    p.set_defaults(depth=12)
    p.add_argument("--bank", help="bank id")
    p.add_argument("--which", choices=("primal", "dual"), default="primal")

    # identities and cz read no --jobs; they accept it so that one flag set
    # (perfbench/workloads.py) drives every command
    experiment_flags = ("--out", "--registry", "--seed", "--jobs",
                        "--tolerance-scale", "--banks", "--dim", "--depth",
                        "--max-level")
    command("identities", cmd_identities, "projector identity suite",
            *experiment_flags)

    p = command("lp-sweep", cmd_lp_sweep,
                "square-function / sign-operator sweep", *experiment_flags)
    p.add_argument("--p-list", type=_float_list, default="1.5 2 4",
                   help="comma-separated exponents")
    p.add_argument("--trials", type=int, default=10,
                   help="random sign patterns per entry")
    p.add_argument("--no-plot", dest="plot", action="store_false",
                   help="skip the SVG plot")

    p = command("cz", cmd_cz, "dyadic decomposition suite",
                "--out", "--jobs", "--depth")
    p.add_argument("--seeds", type=_int_list, default="0 1 2 3 4",
                   help="comma-separated seeds")
    p.add_argument("--alphas", type=_float_list,
                   default="0.1 0.3 1.0 3.0 10.0",
                   help="comma-separated levels")

    command("report", cmd_report, "summarize artifacts in an out dir", "--out")
    parser.commands = sub.choices
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _with_config(parser, argv, args)
        return args.func(args)
    except (argparse.ArgumentError, DyadwaveError, OSError, KeyError,
            ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
