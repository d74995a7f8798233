"""dyadwave benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lp1d-db4 --seed 1 --seconds 15 --trace 0

Run from the root of a dyadwave checkout.  Every process this starts is a
fresh, single-threaded Python (one BLAS/OpenMP thread, no DYADWAVE_CACHE,
so tables are built in set-up on every run).  ``SETUP_REPEATS - 1``
processes only set up; the last sets up and then measures whole rounds of
the workload for ``--seconds``.  With ``--trace 0`` the result carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
BUDGET_S = 170.0


def child_env():
    env = dict(os.environ)
    env.pop("DYADWAVE_CACHE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Fixed glibc malloc thresholds.  With the default, dynamic ones the
    # 1 MB arrays of cz's reconstruction come from the heap or from fresh
    # mmap pages depending on allocation history: one cz round took 4.6 s
    # and the next 3.0 s in one process.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    env["PYTHONPATH"] = str(Path("src").resolve())
    return env


def run_worker(args, deadline):
    """Run worker.py and return its JSON line, or raise RuntimeError."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget exhausted before " + " ".join(args))
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    deadline = time.monotonic() + BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/dyadwave/cli.py").is_file():
        print("run from the root of a dyadwave checkout (no src/dyadwave)",
              file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [run_worker([*common, "--setup-only"], deadline)
                  for _ in range(SETUP_REPEATS - 1)]
        main_run = run_worker([*common, "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(main_run)
    if args.trace:
        from spans import metric_names
        metrics = {name: {"value": main_run["layers"][name], "unit": unit}
                   for name, unit in metric_names()}
    else:
        metrics = {
            "wall_s": {"value": main_run["wall_s"], "unit": "s"},
            "cpu_s": {"value": main_run["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(
                s["setup_s"] for s in setups), "unit": "s"},
            "setup_rss_mb": {"value": statistics.median(
                s["setup_rss_mb"] for s in setups), "unit": "MB"},
        }
    problems = main_run["problems"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(main_run['rounds'])} rounds, {main_run['attempted']} "
          f"operations, {main_run['failed']} failed")
    print("round wall times (s): " + ", ".join(main_run["rounds"]))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems,
                      "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
