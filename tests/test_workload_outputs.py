"""tools/workload_outputs.py's commands, listed without running them."""

import importlib.util
from pathlib import Path

from dyadwave import cli

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "workload_outputs", ROOT / "tools" / "workload_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_run_per_workload_and_seed_and_one_with_two_jobs(tmp_path):
    tool = _tool()
    table = tool.workloads()
    runs = tool.commands(tmp_path)
    assert [d.name for d, _ in runs] == [
        f"{name}-{seed}" for name in table for seed in (601, 7)
    ] + ["lp2d-db4-601-jobs2"]
    assert set(table) == {"lp1d-db4", "lp2d-db4", "ident2d", "cz-dense"}
    for directory, argv in runs[:-1]:
        name, seed = directory.name.rsplit("-", 1)
        assert argv == table[name].argv(int(seed), directory)
    directory, argv = runs[-1]
    want = table["lp2d-db4"].argv(601, directory)
    assert want[want.index("--jobs") + 1] == "1"
    want[want.index("--jobs") + 1] = "2"
    assert argv == want
    for directory, argv in runs:
        args = cli.build_parser().parse_args(argv)
        assert args.out == directory and args.out.parent == tmp_path


def test_usage_without_a_directory(capsys):
    assert _tool().main([]) == 2
    err = capsys.readouterr().err
    assert "Usage: python tools/workload_outputs.py DIR" in err
