import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dyadwave
from dyadwave import cli, refinable


def run(args):
    return cli.main(args)


# ---------------------------------------------------------------------------
# filters


def test_filters_packaged_registry(capsys):
    assert run(["filters"]) == 0
    out = capsys.readouterr().out
    assert "5 banks, 0 failures" in out
    assert "haar: PASS" in out and "db4: PASS" in out


def test_filters_empty_registry(tmp_path, capsys):
    assert run(["filters", "--registry", str(tmp_path)]) == 0
    assert "0 banks" in capsys.readouterr().out


def test_filters_corrupted_mask(tmp_path, capsys):
    for path in refinable.packaged_registry_dir().glob("*.txt"):
        shutil.copy(path, tmp_path / path.name)
    bad = tmp_path / "haar.txt"
    bad.write_text(bad.read_text().replace(
        "primal: 0.707", "primal: 0.9 0.707").replace(
        "primal-support: 0 1", "primal-support: 0 2"))
    assert run(["filters", "--registry", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "haar.txt: FAIL parse" in out and "sums to" in out


# ---------------------------------------------------------------------------
# table


def test_table_command_prints_golden_checksum(tmp_path, capsys, monkeypatch):
    # no file in the working directory, nor in a directory named by the
    # environment variable that once located a table cache
    env_dir, work = tmp_path / "env", tmp_path / "work"
    env_dir.mkdir()
    work.mkdir()
    monkeypatch.setenv("DYADWAVE_CACHE", str(env_dir))
    monkeypatch.chdir(work)
    assert run(["table", "--bank", "db4", "--which", "dual",
                "--depth", "12"]) == 0
    golden = Path(__file__).parent / "golden" / "tables.sha256"
    want = {name: digest for digest, name in
            (line.split("  ") for line in golden.read_text().splitlines())}
    assert capsys.readouterr().out == (
        f"db4/dual depth=12 points={7 * 2 ** 12 + 1} "
        f"checksum={want['db4-dual-L12'][:16]}\n")
    assert list(env_dir.iterdir()) == list(work.iterdir()) == []


def test_table_unknown_bank(capsys):
    assert run(["table", "--bank", "nope"]) == 2
    assert "unknown bank" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["cz", "--seed", "3"],
                                  ["table", "--bank", "haar", "--out", "o"],
                                  ["filters", "--seed", "1"],
                                  ["report", "--tolerance-scale", "2"]],
                         ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_the_command_does_not_read_rejected(argv, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ["filters"],
    ["identities", "--banks", "haar", "--depth", "8", "--max-level", "3"],
    ["lp-sweep", "--banks", "haar", "--depth", "9", "--max-level", "3",
     "--trials", "0"]], ids=lambda argv: argv[0])
def test_bad_tolerance_scale(argv, scale, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run([*argv, f"--tolerance-scale={scale}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tolerance scale must be" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# identities


def test_identities_haar(tmp_path, capsys):
    rc = run(["identities", "--banks", "haar", "--dim", "1", "--depth", "10",
              "--max-level", "6", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "failures = 0" in out
    report = (tmp_path / "identities.txt").read_text()
    assert "idempotence_k6: PASS" in report
    # haar battery runs exact: every residual at most 1e-10
    for line in report.splitlines():
        if "residual=" in line:
            residual = float(line.split("residual=")[1].split()[0])
            assert residual <= 1e-10


def test_identities_headroom_rejected(tmp_path, capsys):
    rc = run(["identities", "--banks", "haar", "--depth", "8",
              "--max-level", "8", "--out", str(tmp_path)])
    assert rc == 2
    assert "headroom" in capsys.readouterr().err


def test_identities_tolerance_failure_exit_code(tmp_path, capsys):
    rc = run(["identities", "--banks", "db4", "--dim", "1", "--depth", "12",
              "--max-level", "4", "--out", str(tmp_path),
              "--tolerance-scale", "1e-12"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_identities_2d_mixed_banks(tmp_path, capsys):
    rc = run(["identities", "--banks", "haar,haar", "--dim", "2", "--depth",
              "8", "--max-level", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert "axis_commutation: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("dim, depth, max_level, checks", [
    ("1", "4", "0", 6), ("2", "5", "1", 11)])
def test_identities_low_max_level(tmp_path, capsys, dim, depth, max_level,
                                  checks):
    # the headroom check accepts these; no check may ask for a higher level
    rc = run(["identities", "--banks", "haar", "--dim", dim, "--depth", depth,
              "--max-level", max_level, "--out", str(tmp_path)])
    assert rc == 0
    assert f"checks = {checks}, failures = 0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# lp-sweep


def test_lp_sweep_outputs_and_determinism(tmp_path, capsys):
    args = ["lp-sweep", "--banks", "db4", "--dim", "1", "--depth", "11",
            "--max-level", "3", "--p-list", "1.5,2,4", "--trials", "2",
            "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    csv1 = (out1 / "ratios.csv").read_bytes()
    assert csv1 == (out2 / "ratios.csv").read_bytes()
    assert (out1 / "summary.txt").read_text() == (out2 / "summary.txt").read_text()
    assert (out1 / "ratios.svg").exists()


def test_lp_sweep_no_plot(tmp_path, capsys):
    rc = run(["lp-sweep", "--banks", "haar", "--depth", "9", "--max-level",
              "3", "--trials", "0", "--out", str(tmp_path), "--no-plot"])
    assert rc == 0
    capsys.readouterr()
    assert not (tmp_path / "ratios.svg").exists()
    assert (tmp_path / "ratios.csv").exists()


def test_lp_sweep_bad_p_list(tmp_path, capsys):
    rc = run(["lp-sweep", "--banks", "haar", "--depth", "9", "--max-level",
              "3", "--p-list", "0.5,2", "--out", str(tmp_path)])
    assert rc == 2
    assert "p values" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-level", "--trials"])
def test_lp_sweep_negative_level_or_trials(flag, tmp_path, capsys):
    rc = run(["lp-sweep", "--banks", "haar", "--depth", "9", flag, "-1",
              "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nonnegative" in err
    assert not (tmp_path / "ratios.csv").exists()


def test_allocation_failure_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 333. MiB")

    monkeypatch.setattr(cli.lpharness, "lp_sweep", exhausted)
    rc = run(["lp-sweep", "--banks", "haar", "--depth", "9", "--max-level",
              "3", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_frame_over_memory_budget_exits_2(tmp_path, capsys, monkeypatch):
    # 1 MiB of physical memory: the depth-9 sweep's largest frame, 8 KiB,
    # fits; the depth-14 one, 256 KiB, is over the sixth allowed to a frame
    pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    args = ["lp-sweep", "--banks", "haar", "--max-level", "3", "--trials",
            "0", "--no-plot", "--out", str(tmp_path)]
    assert run(args + ["--depth", "9"]) == 0
    capsys.readouterr()
    assert run(args + ["--depth", "14"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "physical memory" in err


# every module `import dyadwave.cli` loads beyond `import numpy`; the CLI's
# set-up time is these imports and the registry, so a new one must be added
# here on purpose
CLI_IMPORTS = {
    "__future__", "_blake2", "_csv", "_hashlib", "_heapq", "_queue",
    "_string", "argparse", "concurrent", "concurrent.futures",
    "concurrent.futures._base", "concurrent.futures.thread", "copy", "csv",
    "dataclasses", "dyadwave", "dyadwave.cli", "dyadwave.czd",
    "dyadwave.errors", "dyadwave.gridfn", "dyadwave.lpharness",
    "dyadwave.mra1d", "dyadwave.mrand", "dyadwave.refinable", "gettext",
    "hashlib", "heapq", "logging", "queue", "string", "traceback"}

_NEW_MODULES = """
import sys
import numpy
before = set(sys.modules)
import dyadwave.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_footprint():
    env = dict(os.environ)
    src = str(Path(dyadwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _NEW_MODULES], env=env,
                         check=True, timeout=120, capture_output=True,
                         text=True)
    assert set(run.stdout.split()) - CLI_IMPORTS == set()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("banks: haar\ndim: 1\ndepth: 9\nmax_level: 3\n"
                   "p_list: 2\ntrials: 1\nseed: 3\nplot: no\n")
    out = tmp_path / "o"
    rc = run(["lp-sweep", "--config", str(cfg), "--out", str(out),
              "--trials", "0"])
    assert rc == 0
    capsys.readouterr()
    assert not (out / "ratios.svg").exists()
    text = (out / "summary.txt").read_text()
    assert "trials = 0" in text  # flag beat the config value


# ---------------------------------------------------------------------------
# cz and report


def test_cz_suite_and_report(tmp_path, capsys):
    out = tmp_path / "cz"
    rc = run(["cz", "--depth", "9", "--seeds", "0,1,2", "--alphas",
              "0.2,1.0,5.0", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "9 decompositions, 0 failures" in text
    assert len(list(out.glob("cz-*-cubes.csv"))) > 0
    rc = run(["report", "--out", str(out)])
    assert rc == 0
    assert "cz: " in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--depth", "-1"),
                                         ("--seeds", "0,-1")])
def test_cz_negative_depth_or_seed(flag, value, tmp_path, capsys):
    args = {"--depth": "9", "--seeds": "0", flag: value}
    rc = run(["cz", *(x for kv in args.items() for x in kv),
              "--alphas", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nonnegative" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0", "1,nan"])
def test_cz_non_finite_alpha(alpha, tmp_path, capsys):
    rc = run(["cz", "--depth", "9", "--seeds", "0", f"--alphas={alpha}",
              "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha must be positive" in err
    assert list(tmp_path.iterdir()) == []


def test_report_missing_dir(tmp_path, capsys):
    rc = run(["report", "--out", str(tmp_path / "nope")])
    assert rc == 2
