"""The four dyadwave benchmark workloads.

Each workload is one ``dyadwave`` CLI command.  A round of the measured
phase runs that command once through ``dyadwave.cli.main``; its inputs come
from the benchmark seed alone.  This module imports nothing heavy, so the
worker can start its set-up clock before numpy and dyadwave load.
"""

from __future__ import annotations

from dataclasses import dataclass

P_LIST = "1.25,1.5,2,4"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # the dyadwave subcommand
    flags: tuple             # flags besides --seed/--seeds, --jobs and --out
    # p = 2 identity tolerance of the sweeps: 100 times db4's discrete Gram
    # error (the repository README's table) at the largest tabulated scale
    # gap not above depth - max_level
    identity_tol: float = 0.0

    def argv(self, seed, out_dir):
        if self.command == "cz":
            seed_flags = ["--seeds", ",".join(str(s) for s in cz_seeds(seed))]
        else:
            seed_flags = ["--seed", str(seed)]
        return [self.command, *self.flags, *seed_flags, "--jobs", "1",
                "--out", str(out_dir)]

    def flag(self, name):
        """The value given to one CLI flag of this workload."""
        return self.flags[self.flags.index(name) + 1]

    @property
    def banks(self):
        """Registry ids of the banks, one per axis or one for all."""
        if "--banks" not in self.flags:
            return ()
        return tuple(self.flag("--banks").split(","))

    @property
    def depth(self):
        return int(self.flag("--depth"))

    @property
    def max_level(self):
        return int(self.flag("--max-level")) if self.banks else 0

    def tables(self):
        """(bank id, which, table depth) of every table a round reads.

        A level-k projection at grid depth J reads the primal and dual
        tables of depth J - k + 1 (``mra1d._table``); rounds use levels
        0..max_level on every axis.
        """
        return [(bank, which, self.depth - k + 1)
                for bank in self.banks
                for which in ("primal", "dual")
                for k in range(self.max_level + 1)]


def cz_seeds(seed):
    """One corpus member per round, of the heavy-tailed kind (seed % 3 == 0).

    Its 2^16 cells of normal * exp(normal) give thousands of cubes at
    alpha 2-5.  The step kind (seed % 3 == 1) selects a few cubes up to
    eight times wider than the support at alpha 0.3, so its peak RSS
    swings with the seed (64-116 MB); it adds no cube work.
    """
    return [3 * seed]


CZ_DEPTH = 16
# no alpha below 1: at 0.3 the root cube grows to 4-8 times the support,
# and the good part's array, and so the peak RSS, follows the member's
# random origin instead of the cube work
CZ_ALPHAS = (1.0, 2.0, 3.0, 5.0, 10.0)

WORKLOADS = {w.name: w for w in (
    Workload("lp1d-db4", "lp-sweep",
             ("--banks", "db4", "--dim", "1", "--depth", "18",
              "--max-level", "8", "--trials", "4", "--p-list", P_LIST),
             identity_tol=2.3e-9),
    Workload("lp2d-db4", "lp-sweep",
             ("--banks", "db4", "--dim", "2", "--depth", "8",
              "--max-level", "1", "--trials", "1", "--p-list", P_LIST),
             identity_tol=3.7e-5),
    Workload("ident2d", "identities",
             ("--banks", "db4,haar", "--dim", "2", "--depth", "9",
              "--max-level", "2")),
    Workload("cz-dense", "cz",
             ("--depth", str(CZ_DEPTH),
              "--alphas", ",".join(f"{a:g}" for a in CZ_ALPHAS))),
)}
