"""Outlier-robust partial least squares via low-rank + sparse decomposition.

The robust solver factors predictors and responses jointly around a
shared orthonormal score matrix while sparse error blocks absorb gross
corruption; regression then happens by projection onto the recovered
latent space. Classical baselines (MLR, PCR, iterative PLS), synthetic
data generation with outlier injection, and an NMSE evaluation harness
round out the package.
"""

from .baselines import LinearModel, PlsFactors, fit_mlr, fit_pcr, fit_pls_nipals, predict
from .datagen import (
    LOW_TAIL,
    SPARSE_RANDOM,
    OutlierSpec,
    SynthSpec,
    SynthTruth,
    generate,
    inject_low_tail,
    inject_sparse,
)
from .errors import (
    ConfigError,
    DegenerateEllipseError,
    DimensionError,
    InvalidInputError,
    MetricError,
    ParseError,
    RplsError,
    SolverError,
)
from .evaluate import ConfidenceEllipse, ExperimentReport, confidence_ellipse, nmse, run_experiment
from .linalg import procrustes_orthonormal, singular_value_threshold, soft_threshold, svd
from .projection import ProjectionRegressor, from_pls, from_rpls, predict_projection, project
from .rpls import RplsConfig, RplsModel, RplsState, fit

__version__ = "0.1.0"

__all__ = [
    "LinearModel",
    "PlsFactors",
    "fit_mlr",
    "fit_pcr",
    "fit_pls_nipals",
    "predict",
    "LOW_TAIL",
    "SPARSE_RANDOM",
    "OutlierSpec",
    "SynthSpec",
    "SynthTruth",
    "generate",
    "inject_low_tail",
    "inject_sparse",
    "ConfigError",
    "DegenerateEllipseError",
    "DimensionError",
    "InvalidInputError",
    "MetricError",
    "ParseError",
    "RplsError",
    "SolverError",
    "ConfidenceEllipse",
    "ExperimentReport",
    "confidence_ellipse",
    "nmse",
    "run_experiment",
    "procrustes_orthonormal",
    "singular_value_threshold",
    "soft_threshold",
    "svd",
    "ProjectionRegressor",
    "from_pls",
    "from_rpls",
    "predict_projection",
    "project",
    "RplsConfig",
    "RplsModel",
    "RplsState",
    "fit",
]
