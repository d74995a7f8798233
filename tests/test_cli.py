import os
import shlex
import shutil
import subprocess
import sys
import tracemalloc
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


@pytest.mark.parametrize("command, keys", [
    (["cz", "--depth", "9", "--alphas", "1"], "seed: 3\ncache: {cache}\n"),
    (["lp-sweep", "--banks", "haar", "--depth", "7", "--max-level", "1",
      "--trials", "0"], "plot: no\ncache: {cache}\n"),
], ids=["cz-seed-cache", "lp-sweep-cache"])
def test_config_key_the_command_does_not_read(command, keys, tmp_path,
                                              capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys.format(cache=tmp_path / "cache"))
    out = tmp_path / "o"
    rc = run([*command, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cache" in err
    assert ("seed" in err) == (command[0] == "cz")
    assert not out.exists() and not (tmp_path / "cache").exists()


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


def test_cz_good_part_over_memory_budget_exits_2(tmp_path, capsys,
                                                 monkeypatch):
    # 1 MiB of physical memory: seed 0's depth-10 member, 8 KiB, fits, and
    # so does its good part at alpha 1; at alpha 0.001 the good part is
    # 1,179,648 cells (9 MiB), over the sixth allowed to a frame, and the
    # run exits 2 before making it, instead of recording a degenerate
    # decomposition
    pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    args = ["cz", "--depth", "10", "--seeds", "0", "--out", str(tmp_path)]
    assert run(args + ["--alphas", "1"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(args + ["--alphas", "0.001"]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1179648 * 8 // 16
    err = capsys.readouterr().err
    assert err.startswith("error:") and "a 1179648 float64 frame" in err
    assert not (tmp_path / "cz-seed0-alpha0.001.txt").exists()


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


# ---------------------------------------------------------------------------
# one declaration per setting: flags, config defaults and the shared checks


def _never_drawn(*args, **kwargs):
    raise AssertionError("an input was drawn")


@pytest.mark.parametrize("argv, message", [
    (["identities", "--max-level", "-1"], "max_level must be nonnegative"),
    (["identities", "--dim", "4"], "dim must be 1, 2 or 3"),
    (["lp-sweep", "--dim", "0"], "dim must be 1, 2 or 3"),
    (["lp-sweep", "--dim", "4", "--depth", "8"], "dim must be 1, 2 or 3"),
    (["lp-sweep", "--banks", "haar,haar,haar", "--dim", "2"],
     "3 banks for dimension 2"),
    # an empty list or a job count below 1 is refused by the flag's type
    (["lp-sweep", "--banks", ","], "argument --banks: needs a value"),
    (["identities", "--banks", ","], "argument --banks: needs a value"),
    (["lp-sweep", "--p-list", ","], "argument --p-list: needs a value"),
    (["cz", "--seeds", ","], "argument --seeds: needs a value"),
    (["cz", "--alphas", ","], "argument --alphas: needs a value"),
    (["lp-sweep", "--jobs", "0"], "argument --jobs: must be at least 1"),
    (["identities", "--jobs", "-4"], "argument --jobs: must be at least 1"),
    (["cz", "--jobs", "0"], "argument --jobs: must be at least 1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_experiment_settings_checked_before_anything_is_made(
        argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.lpharness, "standard_corpus", _never_drawn)
    monkeypatch.setattr(cli, "_identity_battery", _never_drawn)
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, frame", [
    # a complex frame of 2^14 cells is over the budget, a real one is not
    (["identities", "--depth", "14"], "16384 complex128"),
    (["identities", "--dim", "2", "--depth", "14"], "16384 x 16384 complex128"),
    (["lp-sweep", "--depth", "15"], "32768 float64"),
    (["cz", "--depth", "15"], "32768 float64"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_input_frame_checked_before_it_is_drawn(argv, frame, tmp_path, capsys,
                                                monkeypatch):
    # 1 MiB of physical memory: a frame may take 174,762 bytes
    pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(cli.lpharness, "standard_corpus", _never_drawn)
    monkeypatch.setattr(cli, "_identity_battery", _never_drawn)
    monkeypatch.setattr(cli, "_cz_corpus_member", _never_drawn)
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"a {frame} frame is over" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["depth: 9\ndepth: 8\n",
                                  "max-level: 3\nmax_level: 2\n"],
                         ids=["same-spelling", "dash-and-underscore"])
def test_repeated_config_key_exits_2(text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run(["lp-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{cfg}:2: duplicate key" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["command", "func", "config"])
def test_config_key_that_names_no_setting(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}: x\n")
    out = tmp_path / "o"
    assert run(["cz", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cz reads no config key {key}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["identities", "lp-sweep", "cz"])
def test_config_value_that_does_not_convert_exits_2(command, tmp_path,
                                                    capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth: x\n")
    out = tmp_path / "o"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: argument --depth")
    assert "invalid int value: 'x'" in err
    assert not out.exists()


DEFAULTS = {
    "filters": {"registry": None, "tolerance_scale": 1.0, "depth": 12},
    "table": {"registry": None, "depth": 12, "bank": None, "which": "primal"},
    "identities": {"out": Path("out"), "registry": None, "seed": 0, "jobs": 1,
                   "tolerance_scale": 1.0, "banks": ["haar"], "dim": 1,
                   "depth": 10, "max_level": 4},
    "cz": {"out": Path("out"), "jobs": 1, "depth": 10,
           "seeds": [0, 1, 2, 3, 4], "alphas": [0.1, 0.3, 1.0, 3.0, 10.0]},
    "report": {"out": Path("out")},
}
DEFAULTS["lp-sweep"] = {**DEFAULTS["identities"], "p_list": [1.5, 2.0, 4.0],
                        "trials": 10, "plot": True}

# every flag of every command, each with a value other than its default
FLAGS = {
    "filters": ["--registry", "r", "--tolerance-scale", "2.5",
                "--depth", "11"],
    "table": ["--registry", "r", "--depth", "7", "--bank", "db2",
              "--which", "dual"],
    "identities": ["--out", "o", "--registry", "r", "--seed", "5",
                   "--jobs", "2", "--tolerance-scale", "3",
                   "--banks", "db4,haar", "--dim", "2", "--depth", "9",
                   "--max-level", "2"],
    "cz": ["--out", "o", "--jobs", "2", "--depth", "8", "--seeds", "4,5",
           "--alphas", "0.5,2"],
    "report": ["--out", "o"],
}
FLAGS["lp-sweep"] = FLAGS["identities"] + ["--p-list", "1.5,3",
                                           "--trials", "3", "--no-plot"]


def _settings(argv, monkeypatch):
    """The settings one run's command reads, without running it."""
    seen = []
    name = "cmd_" + argv[0].replace("-", "_")
    monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    assert run(argv) == 0
    return {k: v for k, v in seen[0].items()
            if k not in ("command", "func", "config")}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_command_flags_and_defaults(command, monkeypatch):
    assert _settings([command], monkeypatch) == DEFAULTS[command]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_config_setting_resolves_as_its_flag(command, tmp_path, monkeypatch):
    flags = FLAGS[command]
    by_flag = _settings([command, *flags], monkeypatch)
    assert all(by_flag[k] != v for k, v in DEFAULTS[command].items())
    lines, tokens = [], iter(flags)
    for flag in tokens:
        value = "no" if flag == "--no-plot" else next(tokens)
        key = "plot" if flag == "--no-plot" else flag[2:]
        lines += [f"# {flag}", f"{key}: {value}"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert _settings([command, "--config", str(cfg)], monkeypatch) == by_flag


def _readme_commands():
    """The dyadwave command lines of README's "Command line" block, with
    their backslash continuations joined and their comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)
            for line in block.splitlines() if line.startswith("dyadwave ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert [argv[1] for argv in commands] == [
        "filters", "table", "identities", "lp-sweep", "cz", "report"]
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("command", ["identities", "cz"])
def test_jobs_help_says_the_flag_is_ignored(command):
    # the flag stays so that one flag set drives every command
    text = cli.build_parser().commands[command].format_help()
    assert "identities and cz accept it and ignore it" in " ".join(text.split())
