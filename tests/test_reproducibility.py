"""Criterion 8's golden CSVs, the ``cz`` artifacts and the table checksums
are fixed by the computation alone.

The first-depth sweeps of criterion 8 are written in fresh interpreters
under settings that change numpy's SIMD loops and the BLAS kernel, and
in-process from misaligned and strided inputs; every variant must give the
committed golden bytes.  The ``cz`` command's reports and cube CSVs must
not change with numpy's SIMD target either, nor the checksum of any
shipped table with the BLAS kernel, and the ``cz`` bytes must match the
sha256 of each file committed in ``tests/golden/cz-d10.sha256``.  The
checksum of every shipped primal and dual table at depths 12 and 19 must
match ``tests/golden/tables.sha256``.  Run as a script, this module writes
criterion 8's CSVs, the ``cz`` hashes and the table checksums into a
directory, which is how ``tests/golden`` is regenerated:

    PYTHONPATH=src python tests/test_reproducibility.py tests/golden

Over existing files it prints, per column, the rows that changed, the
largest change in units in the last place and the largest relative change,
and the name of every ``cz`` file and table whose hash changed.
"""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
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
    """Criterion 8's first-depth ratio CSVs, one per sweep tag.

    Returns the :func:`column_changes` lines of every file it replaced.
    """
    registry = registry or refinable.load_registry()
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    changes = []
    for tag, cfg in SWEEP_CONFIGS.items():
        path = Path(out_dir) / f"ratios-{tag}.csv"
        old = path.read_text() if path.exists() else None
        records, _ = _sweep_records(registry, tag, cfg["depths"][0])
        lp.write_ratio_csv(records, path)
        if old is not None:
            changes += [f"{path.name} {line}"
                        for line in column_changes(old, path.read_text())]
    return changes


def _ulps(x, y):
    """Distance of two floats in units in the last place."""
    a, b = np.array([x, y], dtype=np.float64).view(np.int64)
    a, b = (int(v) if v >= 0 else -(int(v) & (2 ** 63 - 1)) for v in (a, b))
    return abs(a - b)


def column_changes(old, new):
    """Per column of two ratio CSVs: rows changed, max ulp, max relative."""
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        return ["header or row count changed"]
    lines = []
    for i, name in enumerate(new_rows[0]):
        pairs = [(a[i], b[i]) for a, b in zip(old_rows[1:], new_rows[1:])
                 if a[i] != b[i]]
        ulp = rel = 0.0
        for a, b in pairs:
            try:
                x, y = float(a), float(b)
            except ValueError:
                rel = math.inf
                continue
            ulp = max(ulp, _ulps(x, y))
            rel = max(rel, abs(y - x) / abs(x) if x else math.inf)
        lines.append(f"{name}: {len(pairs)} of {len(new_rows) - 1} rows "
                     f"changed, max {ulp:g} ulp, max relative {rel:.2e}")
    return lines


def test_column_changes():
    old = "a,x,s\r\n1,1.0,ok\r\n2,2.0,ok\r\n"
    new = "a,x,s\r\n1,1.0000000000000002,ok\r\n2,2.0,skipped\r\n"
    assert column_changes(old, new) == [
        "a: 0 of 2 rows changed, max 0 ulp, max relative 0.00e+00",
        "x: 1 of 2 rows changed, max 1 ulp, max relative 2.22e-16",
        "s: 1 of 2 rows changed, max 0 ulp, max relative inf"]
    assert _ulps(-0.0, 0.0) == 0 and _ulps(-5e-324, 5e-324) == 2


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
    assert _changed(_read_hashes(CZ_HASHES),
                    _read_hashes(tmp_path / CZ_HASHES.name)) == []


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


CZ_HASHES = GOLDEN_DIR / "cz-d10.sha256"


def _cz_hashes(artifacts):
    """{file name: sha256 hex digest} of the cz artifacts."""
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in artifacts.items()}


def _read_hashes(path):
    """{file name: digest} of a file in sha256sum's format."""
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in path.read_text().splitlines())}


def _changed(old, new):
    """Names whose digest differs or that only one side has."""
    return sorted(n for n in old.keys() | new.keys()
                  if old.get(n) != new.get(n))


def _write_hashes(path, new):
    """Write {name: digest} in sha256sum's format; returns the names whose
    digest changed over an existing file."""
    old = _read_hashes(path) if path.exists() else None
    path.write_text("".join(f"{new[n]}  {n}\n" for n in sorted(new)))
    return [] if old is None else _changed(old, new)


def write_cz_hashes(out_dir):
    """Write the cz run's hashes as ``cz-d10.sha256``; returns the names
    whose hash changed over an existing file."""
    with tempfile.TemporaryDirectory() as tmp:
        new = _cz_hashes(_cz_artifacts(tmp, {}))
    return _write_hashes(Path(out_dir) / CZ_HASHES.name, new)


def test_cz_bytes_match_golden_hashes(cz_default):
    want = _read_hashes(CZ_HASHES)
    assert len(want) == 60
    assert _changed(want, _cz_hashes(cz_default)) == []


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


TABLE_HASHES = GOLDEN_DIR / "tables.sha256"
TABLE_DEPTHS = (12, 19)


def _table_hashes():
    """{'bank-which-Ldepth': checksum} of every shipped primal and dual
    table at the golden depths."""
    return {f"{bank_id}-{which}-L{depth}":
            refinable.cascade(bank, which, depth).checksum
            for bank_id, bank in sorted(refinable.load_registry().items())
            for which in ("primal", "dual") for depth in TABLE_DEPTHS}


def write_table_hashes(out_dir):
    """Write the table checksums as ``tables.sha256``; returns the names
    whose checksum changed over an existing file."""
    return _write_hashes(Path(out_dir) / TABLE_HASHES.name, _table_hashes())


def test_tables_match_golden_hashes(registry):
    want = _read_hashes(TABLE_HASHES)
    assert len(want) == 2 * len(TABLE_DEPTHS) * len(registry)
    assert _changed(want, _table_hashes()) == []


def _misaligned(a):
    """Copy of a whose data starts 8 bytes past a 64-byte boundary."""
    buf = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = (8 - buf.ctypes.data) % 64
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def _strided(a):
    """View of a with every other element of its last axis skipped over."""
    big = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
    big[..., 1::2] = a
    return big[..., 1::2]


@pytest.mark.parametrize("layout, jobs", [(_misaligned, 1), (_strided, 2)],
                         ids=["misaligned", "strided-jobs2"])
def test_golden_bytes_from_moved_inputs(registry, layout, jobs, tmp_path):
    for tag, cfg in SWEEP_CONFIGS.items():
        bank = registry[cfg["bank"]]
        corpus = [(fid, gf.GridFunction(layout(f.data), f.depth, f.origin))
                  for fid, f in lp.standard_corpus(
                      cfg["dim"], cfg["depths"][0], CORPUS_SEED, banks=bank,
                      block_level=cfg["level"])]
        if layout is _misaligned:
            assert all(g.data.ctypes.data % 64 == 8 for _, g in corpus)
        # only the synthesized members are complex; the rest stay real
        assert [g.data.dtype for _, g in corpus] == [
            np.complex128 if fid.startswith("block-") else np.float64
            for fid, _ in corpus]
        records, _ = lp.lp_sweep(corpus, SWEEP_PS, bank, cfg["level"],
                                 trials=3, seed=CORPUS_SEED, jobs=jobs)
        lp.write_ratio_csv(records, tmp_path / f"ratios-{tag}.csv")
    _assert_golden(tmp_path)


if __name__ == "__main__":
    for line in write_first_depth_csvs(sys.argv[1]):
        print(line)
    for name in write_cz_hashes(sys.argv[1]):
        print(f"{CZ_HASHES.name} {name} changed")
    for name in write_table_hashes(sys.argv[1]):
        print(f"{TABLE_HASHES.name} {name} changed")
