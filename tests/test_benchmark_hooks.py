"""The names the benchmark's tracer hooks into dyadwave.

``perfbench/spans.py`` looks up every ``LAYERS`` name when it installs and
reads ``derivative_values`` off every cascade result, so deleting one of
them breaks a traced benchmark run; a layer the code no longer calls reads
0 instead.  The file is read here, never edited.
"""

import importlib.util
from pathlib import Path

from dyadwave import cli, czd, lpharness, mrand, refinable  # cli imports all

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


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
