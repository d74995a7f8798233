"""The names the benchmark's tracer hooks into dyadwave.

``perfbench/spans.py`` looks up every ``LAYERS`` name when it installs and
reads ``derivative_values`` off every cascade result, so deleting one of
them breaks a traced benchmark run.  The file is read here, never edited.
"""

import importlib.util
from pathlib import Path

from dyadwave import cli, czd, mrand, refinable  # cli imports every module

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
