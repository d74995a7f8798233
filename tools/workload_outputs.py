#!/usr/bin/env python3
"""Write the outputs of the benchmark's workload commands, for a same-bytes
check of two checkouts.

Every workload of ``perfbench/workloads.py`` runs with its benchmark argv
at seeds 601 and 7, and ``lp2d-db4`` once more at seed 601 with
``--jobs 2``.  Each run is its own ``python -m dyadwave.cli`` process on
the ``src/`` of the checkout this file sits in, with one BLAS thread, and
writes under ``DIR/<workload>-<seed>[-jobs2]/``.  Copy this file into the
other checkout's ``tools/``, run it there into a second directory, and
``diff -r`` the two: an empty diff is the whole check.

Usage: python tools/workload_outputs.py DIR
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (601, 7)


def workloads():
    """perfbench/workloads.py's WORKLOADS, read from this checkout."""
    path = ROOT / "perfbench" / "workloads.py"
    return runpy.run_path(str(path))["WORKLOADS"]


def commands(out):
    """[(run directory, dyadwave argv)] of every run, in the order run."""
    table = workloads()
    runs = [(out / f"{name}-{seed}", w.argv(seed, out / f"{name}-{seed}"))
            for name, w in table.items() for seed in SEEDS]
    jobs2 = out / f"lp2d-db4-{SEEDS[0]}-jobs2"
    argv = table["lp2d-db4"].argv(SEEDS[0], jobs2)
    argv[argv.index("--jobs") + 1] = "2"
    return runs + [(jobs2, argv)]


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("DYADWAVE_CACHE", None)  # every table built from its bank
    for _, args in commands(Path(argv[0])):
        print("dyadwave", *args, flush=True)
        subprocess.run([sys.executable, "-m", "dyadwave.cli", *args],
                       env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
