"""Dyadic-grid multiresolution projectors and harmonic-analysis experiments.

Subpackage map:

* :mod:`dyadwave.refinable` -- filter banks, dyadic value tables, Riesz and
  biorthogonality diagnostics.
* :mod:`dyadwave.gridfn` -- sampled functions on dyadic grids, quadrature,
  norms, dilation, multi-index helpers.
* :mod:`dyadwave.mra1d` -- one-dimensional projection / detail operators.
* :mod:`dyadwave.mrand` -- axis lifting and tensor-product projectors.
* :mod:`dyadwave.lpharness` -- square function, sign operators, Rademacher
  moments, ratio sweeps.
* :mod:`dyadwave.czd` -- dyadic Calderon-Zygmund decomposition and weak-type
  measurements.
* :mod:`dyadwave.cli` -- experiment driver.
"""

from . import errors
from .gridfn import GridFunction, inner_product, lp_norm, dilate
from .refinable import FilterBank, get_bank, load_registry

__version__ = "0.1.0"

__all__ = [
    "errors",
    "GridFunction",
    "inner_product",
    "lp_norm",
    "dilate",
    "FilterBank",
    "get_bank",
    "load_registry",
    "__version__",
]
