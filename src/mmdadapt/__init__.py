"""MMD-based unsupervised domain adaptation.

A joint-probability discrepancy solver (jpda, with its mu = 0 ablation jp)
plus the classic weighted marginal/conditional solvers (tca, jda, bda) under
one formulation, a portable synthetic-shift generator, and an experiment
harness with run/sweep/trace/embed2d commands.
"""

__version__ = "0.1.0"

from .data import AdaptConfig, DomainPair, LabeledDataset, one_hot_encode
from .datagen import ShiftSpec, generate_pair
from .errors import ConfigError, DataError, MmdAdaptError, NumericalError
from .kernels import KernelSpec, gram, resolve_bandwidth
from .classify import accuracy, knn1_predict
from .mmd import bda_weight
from .adapt import (
    FitReport,
    FitResult,
    Projection,
    fit,
    weighted_fit,
)

__all__ = [
    "__version__",
    "AdaptConfig",
    "DomainPair",
    "LabeledDataset",
    "one_hot_encode",
    "ShiftSpec",
    "generate_pair",
    "ConfigError",
    "DataError",
    "MmdAdaptError",
    "NumericalError",
    "KernelSpec",
    "gram",
    "resolve_bandwidth",
    "accuracy",
    "knn1_predict",
    "bda_weight",
    "FitReport",
    "FitResult",
    "Projection",
    "fit",
    "weighted_fit",
]
