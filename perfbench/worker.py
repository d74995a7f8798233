"""One benchmark process: a timed set-up, then whole rounds of one workload.

Run by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  The
set-up clock starts before numpy and dyadwave are imported, and set-up
ends once the bank acceptance gate has run and the in-memory table cache
(``refinable.DEFAULT_CACHE``, the one the CLI uses without a cache
directory) holds every table the rounds read.  Each round then runs the
workload's CLI command through ``dyadwave.cli.main`` and checks its
artifacts outside the timed region.  The last stdout line is a JSON
object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import CZ_ALPHAS, WORKLOADS, cz_seeds

OUT_ROOT = Path(".perfbench_out")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def set_up(workload, tracer, start):
    """Imports, registry load, acceptance gate and table-cache fill."""
    from dyadwave import cli, refinable

    if tracer is not None:
        tracer.install()
    registry = refinable.load_registry()
    for bank_id in workload.banks:
        if not refinable.is_accepted(registry[bank_id]):
            raise SystemExit(f"bank {bank_id} fails the acceptance gate")
    for bank_id, which, depth in workload.tables():
        refinable.DEFAULT_CACHE.get(registry[bank_id], which, depth)
    if tracer is not None:
        tracer.uninstall()
    return time.perf_counter() - start, peak_rss_mb(), cli


class Checker:
    """Runs the independent checks on one round's artifacts.

    Inputs the checks need are rebuilt once per run, untimed and untraced.
    """

    def __init__(self, workload, seed, out_dir):
        import checks

        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self._inputs = None

    def inputs(self):
        if self._inputs is None:
            self._inputs = self._build_inputs()
        return self._inputs

    def _build_inputs(self):
        from dyadwave import cli, lpharness, mrand, refinable

        w = self.workload
        if w.command == "lp-sweep":
            dim = int(w.flag("--dim"))
            banks = [refinable.get_bank(b) for b in w.banks]
            assignment = mrand.banks_for(banks[0] if len(banks) == 1
                                         else banks, dim)
            return lpharness.standard_corpus(dim, w.depth, self.seed,
                                             banks=assignment,
                                             block_level=w.max_level)
        if w.command == "cz":
            return {s: cli._cz_corpus_member(w.depth, s)
                    for s in cz_seeds(self.seed)}
        return None

    def round(self, stdout):
        """(attempted, failed, problems) for the artifacts now on disk."""
        w, c = self.workload, self.checks
        if w.command == "lp-sweep":
            text = (self.out_dir / "ratios.csv").read_text()
            p_list = [float(p) for p in w.flag("--p-list").split(",")]
            return c.check_sweep(text, stdout, self.inputs(), p_list,
                                 w.identity_tol)
        if w.command == "identities":
            return c.check_identities(
                (self.out_dir / "identities.txt").read_text(), IDENT_CHECKS)
        attempted = failed = 0
        problems = []
        for seed, f in self.inputs().items():
            for alpha in CZ_ALPHAS:
                tag = f"cz-seed{seed}-alpha{alpha:g}"
                report = (self.out_dir / f"{tag}.txt").read_text()
                cubes = self.out_dir / f"{tag}-cubes.csv"
                a, b, p = c.check_cz(report, cubes.read_text()
                                     if cubes.exists() else "", f, alpha)
                attempted, failed = attempted + a, failed + b
                problems += p
        return attempted, failed, problems

    def rejects_perturbed(self):
        """The checks must reject a damaged copy of this round's artifact.

        The copy is checked as if the program had reported no failure.
        """
        w, c = self.workload, self.checks
        if w.command == "lp-sweep":
            text = c.perturb_sweep((self.out_dir / "ratios.csv").read_text())
            p_list = [float(p) for p in w.flag("--p-list").split(",")]
            return bool(c.check_sweep(text, "", self.inputs(), p_list,
                                      w.identity_tol)[2])
        if w.command == "identities":
            text = c.perturb_identities(
                (self.out_dir / "identities.txt").read_text())
            return bool(c.check_identities(text, IDENT_CHECKS)[2])
        # the decomposition with the most cubes
        seed, alpha = max(
            ((s, a) for s in cz_seeds(self.seed) for a in CZ_ALPHAS),
            key=lambda sa: (self.out_dir / f"cz-seed{sa[0]}-alpha{sa[1]:g}"
                            "-cubes.csv").stat().st_size)
        tag = f"cz-seed{seed}-alpha{alpha:g}"
        report = (self.out_dir / f"{tag}.txt").read_text()
        cubes = c.perturb_cz_cubes(
            (self.out_dir / f"{tag}-cubes.csv").read_text())
        return bool(c.cz_problems(report, cubes, self.inputs()[seed], alpha))

    def haar_axis(self):
        """ident2d: the tensor projection along the Haar axis is block means.

        The input is the first random function of ``identities`` (complex
        normal from the seed).  numpy's block means along axis 1 followed
        by the program's db4 projection along axis 0 must equal the
        program's tensor projection, level by level.
        """
        import numpy as np
        from dyadwave import gridfn, mrand, refinable

        w = self.workload
        rng = np.random.default_rng(self.seed)
        shape = (2 ** w.depth,) * 2
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        db4, haar = (refinable.get_bank(b) for b in w.banks)
        problems = []
        for k in (0, w.max_level):
            got = mrand.project_nd(gridfn.GridFunction(f, w.depth, (0, 0)),
                                   (k, k), (db4, haar))
            means = gridfn.GridFunction(
                self.checks.block_means(f, 1, 2 ** (w.depth - k)),
                w.depth, (0, 0))
            ref = mrand.apply_axis(mrand.LevelProjection(db4, k), means, 0)
            err = self.checks.embedded_difference(got.data, got.origin,
                                                  ref.data, ref.origin)
            scale = float(np.abs(ref.data).max())
            if err > 1e-12 * scale:
                problems.append(f"haar axis at level {k}: max error {err:.3e}")
        return problems


# identities --dim 2 --max-level 2 reports 17 checks (levels {0, 1, 2})
IDENT_CHECKS = 17
# a median of at least two rounds, also when one round outlasts --seconds
MIN_ROUNDS = 2


def measure(workload, seed, seconds, tracer, start):
    setup_s, setup_rss, cli = set_up(workload, tracer, start)
    out_dir = OUT_ROOT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = workload.argv(seed, out_dir)
    checker = Checker(workload, seed, out_dir)
    walls = {True: [], False: []}
    sequence = []
    cpus = []
    attempted = failed = 0
    problems = []
    # a traced run alternates traced and untraced rounds, ABBA
    order = [False] if tracer is None else [True, False, False, True]
    began = time.perf_counter()
    n = 0
    while (n < MIN_ROUNDS or n % len(order)
           or time.perf_counter() - began < seconds):
        traced = order[n % len(order)]
        n += 1
        for stale in out_dir.iterdir():  # a check must never read old output
            stale.unlink()
        if traced:
            tracer.phase = n
            tracer.install()
        buf = io.StringIO()
        c0, w0 = cpu_seconds(), time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        sequence.append(("traced " if traced else "") + f"{wall:.4f}")
        cpus.append(cpu)
        a, f, p = checker.round(buf.getvalue())
        attempted, failed = attempted + a, failed + f
        problems += p
        if rc != 0 and f == 0:
            problems.append(f"exit code {rc} with no failed operation")
    if not checker.rejects_perturbed():
        problems.append("checker accepted a perturbed artifact")
    if workload.command == "identities":
        problems += checker.haar_axis()
    result = {"attempted": attempted, "failed": failed,
              "problems": problems[:20], "rounds": sequence,
              "setup_s": setup_s, "setup_rss_mb": setup_rss,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is None:
        result["wall_s"] = statistics.median(walls[False])
        result["cpu_s"] = statistics.median(cpus)
    else:
        result["layers"] = layer_metrics(tracer, walls)
        tracer.write(out_dir / f"spans-seed{seed}.csv")
    return result


def layer_metrics(tracer, walls):
    """Per-layer values: set-up totals, or the median over traced rounds."""
    import spans

    rounds = sorted({s[4] for s in tracer.spans if s[4] > 0})
    setup = tracer.totals(0)
    per_round = [tracer.totals(r) for r in rounds]
    metrics = {}
    for layer, (quantities, phase) in spans.LAYERS.items():
        for q in quantities:
            key = q if q in ("calls", "time_s", "self_s") else "amount"
            metrics[f"{layer}.{q}"] = (
                setup[layer][key] if phase == "setup"
                else statistics.median(t[layer][key] for t in per_round))
    metrics[spans.OVERHEAD_METRIC[0]] = 100.0 * (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1)
    return metrics


def main():
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup_s, setup_rss, _ = set_up(workload, None, start)
        result = {"setup_s": setup_s, "setup_rss_mb": setup_rss}
    else:
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        result = measure(workload, args.seed, args.seconds, tracer, start)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
