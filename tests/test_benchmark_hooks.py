"""The names the benchmark's tracer and checks hook into dyadwave.

``perfbench/spans.py`` looks up every ``LAYERS`` name when it installs and
reads ``derivative_values`` off every cascade result, so deleting one of
them breaks a traced benchmark run; a layer the code no longer calls reads
0 instead.  ``perfbench/worker.py``'s correctness checks call operators by
name too.  The files are read here, never edited.
"""

import dataclasses
import importlib.util
from pathlib import Path

from dyadwave import cli, czd, lpharness, mrand, refinable  # cli imports all

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, as_name):
    spec = importlib.util.spec_from_file_location(as_name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans", "perfbench_spans")


def test_tracer_installs_every_layer():
    # install looks up every LAYERS name: a deleted one raises AttributeError
    originals = (mrand.apply_axis, refinable.TableCache.get)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert mrand.apply_axis is not originals[0]
    finally:
        tracer.uninstall()
    assert (mrand.apply_axis, refinable.TableCache.get) == originals


def test_cascade_measure_reads_derivative_values(haar):
    assert hasattr(refinable.DyadicTable, "derivative_values")
    table = refinable.cascade(haar, "primal", 3)
    assert spans.MEASURES["refinable.cascade"]((), table) == (
        table.values.nbytes / spans.MB)


def test_cz_decompose_measure_counts_cubes():
    # cz-dense --trace 1 reports czd.cz_decompose.cubes from this measure
    f = cli._cz_corpus_member(10, 0)
    tracer = spans.Tracer()
    try:
        tracer.install()
        dec = czd.cz_decompose(f, 1.0)
    finally:
        tracer.uninstall()
    assert len(dec.cubes)
    assert tracer.totals(0)["czd.cz_decompose"]["amount"] == len(dec.cubes)


# round layers that lp2d-db4 and ident2d exercise; a refactor that routes
# around one of these names would make its benchmark metric read 0
KERNEL_LAYERS = ("mra1d.analyze_rows", "mra1d.synthesize_rows",
                 "mrand.project_nd", "gridfn.lp_norms",
                 "refinable.TableCache.get")
SWEEP_LAYERS = KERNEL_LAYERS + ("lpharness.square_function",
                                "lpharness.sign_operator")
BATTERY_LAYERS = KERNEL_LAYERS + ("mrand.apply_axis", "mrand.mixed_detail",
                                  "mrand.partial_sum", "gridfn.combine",
                                  "gridfn.inner_product")


def _traced_calls(run):
    tracer = spans.Tracer()
    try:
        tracer.install()
        run()
    finally:
        tracer.uninstall()
    return {name: t["calls"] for name, t in tracer.totals(0).items()}


def test_sweep_reaches_every_traced_layer(db4):
    assignment = mrand.banks_for(db4, 2)
    corpus = lpharness.standard_corpus(2, 6, 601, banks=assignment,
                                       block_level=1)
    calls = _traced_calls(lambda: lpharness.lp_sweep(
        corpus, [2.0], assignment, 1, trials=1, seed=601))
    assert [name for name in SWEEP_LAYERS if not calls.get(name)] == []


def test_identity_battery_reaches_every_traced_layer(db4, haar):
    calls = _traced_calls(
        lambda: cli._identity_battery([db4, haar], 2, 6, 1, 601))
    assert [name for name in BATTERY_LAYERS if not calls.get(name)] == []


def test_ident2d_haar_axis_check_holds(monkeypatch, tmp_path):
    # the ident2d correctness check calls project_nd, apply_axis and
    # LevelProjection; run here at depth 6 so that an operator-API change
    # that breaks it fails this suite, not only a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))  # worker imports its siblings
    worker = _load("worker", "perfbench_worker")
    ident2d = worker.WORKLOADS["ident2d"]
    flags = list(ident2d.flags)
    flags[flags.index("--depth") + 1] = "6"
    checker = worker.Checker(
        dataclasses.replace(ident2d, flags=tuple(flags)), 601, tmp_path)
    assert checker.workload.depth == 6 and checker.workload.max_level == 2
    assert checker.haar_axis() == []
