"""Criterion 8's golden CSVs, the ``cz`` artifacts and the table checksums
are fixed by the computation alone.

The first-depth sweeps of criterion 8 are written in fresh interpreters
under settings that change numpy's SIMD loops and the BLAS kernel, and
in-process from misaligned and strided inputs; every variant must give the
committed golden bytes.  The ``cz`` command's reports and cube CSVs must
not change with numpy's SIMD target either, nor the checksum of any
shipped table with the BLAS kernel.  Run as a script, this module
writes criterion 8's CSVs into a directory, which is how ``tests/golden``
is regenerated:

    PYTHONPATH=src python tests/test_reproducibility.py tests/golden
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyadwave
from dyadwave import gridfn as gf
from dyadwave import lpharness as lp
from dyadwave import refinable
from test_acceptance import (CORPUS_SEED, GOLDEN_DIR, SWEEP_CONFIGS, SWEEP_PS,
                             _sweep_records)

try:
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# SIMD targets numpy dispatches to at run time and this CPU has
DISPATCHED = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


OPENBLAS = "openblas" in _blas_name().lower()

SETTINGS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE",
            "OPENBLAS_NUM_THREADS")

# Nehalem kernels need SSE4.2 only, so every x86-64 CPU can run them
NEHALEM = {"OPENBLAS_CORETYPE": "Nehalem", "OPENBLAS_NUM_THREADS": "1"}
NEEDS_OPENBLAS = pytest.mark.skipif(not OPENBLAS,
                                    reason="numpy's BLAS is not OpenBLAS")
NEEDS_SSE42 = pytest.mark.skipif(not __cpu_features__.get("SSE42"),
                                 reason="CPU lacks SSE4.2")


def write_first_depth_csvs(out_dir, registry=None):
    """Criterion 8's first-depth ratio CSVs, one per sweep tag."""
    registry = registry or refinable.load_registry()
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for tag, cfg in SWEEP_CONFIGS.items():
        records, _ = _sweep_records(registry, tag, cfg["depths"][0])
        lp.write_ratio_csv(records, Path(out_dir) / f"ratios-{tag}.csv")


def _assert_golden(out_dir):
    for tag in SWEEP_CONFIGS:
        name = f"ratios-{tag}.csv"
        got = (Path(out_dir) / name).read_bytes()
        assert got == (GOLDEN_DIR / name).read_bytes(), tag


@pytest.mark.parametrize("settings", [
    pytest.param({}, id="default"),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": " ".join(DISPATCHED)},
                 id="baseline-simd",
                 marks=pytest.mark.skipif(
                     not DISPATCHED, reason="numpy dispatches no SIMD target")),
    pytest.param(NEHALEM, id="openblas-nehalem-1thread",
                 marks=[NEEDS_OPENBLAS, NEEDS_SSE42]),
])
def test_golden_bytes_in_subprocess(settings, tmp_path):
    subprocess.run([sys.executable, __file__, str(tmp_path)],
                   env=_subprocess_env(settings), check=True, timeout=600)
    _assert_golden(tmp_path)


def _subprocess_env(settings):
    env = {k: v for k, v in os.environ.items() if k not in SETTINGS}
    env.update(settings)
    src = str(Path(dyadwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _cz_artifacts(out_dir, settings):
    """Run the cz command in a fresh interpreter; {file name: bytes}."""
    subprocess.run([sys.executable, "-m", "dyadwave.cli", "cz",
                    "--depth", "10", "--seeds", "0,1,2,3,4,5",
                    "--alphas", "0.1,0.3,1,3,10", "--out", str(out_dir)],
                   env=_subprocess_env(settings), check=True, timeout=600,
                   stdout=subprocess.DEVNULL)
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


@pytest.fixture(scope="module")
def cz_default(tmp_path_factory):
    return _cz_artifacts(tmp_path_factory.mktemp("cz-default"), {})


@pytest.mark.skipif(not DISPATCHED, reason="numpy dispatches no SIMD target")
@pytest.mark.parametrize("disabled", [DISPATCHED, DISPATCHED[1:]],
                         ids=["baseline-simd", "lowest-dispatched-simd"])
def test_cz_bytes_in_subprocess(cz_default, disabled, tmp_path):
    if not disabled:
        pytest.skip("numpy dispatches a single SIMD target")
    got = _cz_artifacts(
        tmp_path, {"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)})
    assert len(got) == 60 and got.keys() == cz_default.keys()
    assert [n for n in got if got[n] != cz_default[n]] == []


_PRINT_CHECKSUMS = """
from dyadwave import refinable
for bank_id, bank in sorted(refinable.load_registry().items()):
    for which in ("primal", "dual"):
        print(bank_id, which, refinable.cascade(bank, which, 12).checksum)
"""


def _table_checksums(settings):
    """'bank which checksum' lines of every shipped depth-12 table."""
    run = subprocess.run([sys.executable, "-c", _PRINT_CHECKSUMS],
                         env=_subprocess_env(settings), check=True,
                         timeout=600, capture_output=True, text=True)
    return run.stdout.splitlines()


@NEEDS_OPENBLAS
@NEEDS_SSE42
def test_table_checksums_in_subprocess():
    want = _table_checksums({})
    assert len(want) == 2 * len(refinable.load_registry())
    assert _table_checksums(NEHALEM) == want


def _misaligned(a):
    """Copy of a whose data starts 8 bytes past a 64-byte boundary."""
    buf = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = (8 - buf.ctypes.data) % 64
    out = buf[start:start + a.nbytes].view(np.complex128).reshape(a.shape)
    out[...] = a
    return out


def _strided(a):
    """View of a with every other element of its last axis skipped over."""
    big = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=np.complex128)
    big[..., 1::2] = a
    return big[..., 1::2]


@pytest.mark.parametrize("layout, jobs", [(_misaligned, 1), (_strided, 2)],
                         ids=["misaligned", "strided-jobs2"])
def test_golden_bytes_from_moved_inputs(registry, layout, jobs, tmp_path):
    for tag, cfg in SWEEP_CONFIGS.items():
        bank = registry[cfg["bank"]]
        corpus = [(fid, gf.GridFunction(layout(f.data), f.depth, f.origin,
                                        f.meta))
                  for fid, f in lp.standard_corpus(
                      cfg["dim"], cfg["depths"][0], CORPUS_SEED, banks=bank,
                      block_level=cfg["level"])]
        if layout is _misaligned:
            assert all(g.data.ctypes.data % 64 == 8 for _, g in corpus)
        records, _ = lp.lp_sweep(corpus, SWEEP_PS, bank, cfg["level"],
                                 trials=3, seed=CORPUS_SEED, jobs=jobs)
        lp.write_ratio_csv(records, tmp_path / f"ratios-{tag}.csv")
    _assert_golden(tmp_path)


if __name__ == "__main__":
    write_first_depth_csvs(sys.argv[1])
