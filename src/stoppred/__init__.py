"""Optimal stopping with a predicted prior.

Bi-criteria stopping rules (best-so-far plus a time threshold on the
predicted-prior quantile), the solvers producing their consistency versus
robustness trade-off curves for the expectation and win-probability
objectives, a Monte Carlo engine to stress-test them under misprediction,
and the factor-revealing LP bounding what any rule can achieve.

The LP module ``hardness`` is imported on first access: it loads the
top-level scipy package and scipy's HiGHS extension, by its file path,
which nothing else here needs.
"""

import importlib

from . import analytics, engine, maxexp, quadrature, thresholds
from .engine import SimReport, simulate
from .priors import (
    E_INV,
    DiscretePrior,
    Exponential,
    LambdaPair,
    PowerRoot,
    Prior,
    Uniform,
    lambda_pair,
    power_root_cdf,
)
from .thresholds import ThresholdFn, dynkin_threshold, gm_threshold, robustify, single_threshold

__version__ = "0.1.0"
__all__ = [
    "analytics",
    "engine",
    "hardness",
    "maxexp",
    "quadrature",
    "thresholds",
    "SimReport",
    "simulate",
    "E_INV",
    "DiscretePrior",
    "Exponential",
    "LambdaPair",
    "PowerRoot",
    "Prior",
    "Uniform",
    "lambda_pair",
    "power_root_cdf",
    "ThresholdFn",
    "dynkin_threshold",
    "gm_threshold",
    "robustify",
    "single_threshold",
]


def __getattr__(name):
    # PEP 562: the LP stack loads only when something asks for it
    if name == "hardness":
        return importlib.import_module(".hardness", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
