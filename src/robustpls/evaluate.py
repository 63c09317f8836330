"""Evaluation: NMSE, train/test experiments, and confidence ellipses."""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import baselines, projection, rpls
from .errors import ConfigError, DegenerateEllipseError, DimensionError, InvalidInputError, MetricError
from .linalg import _exponent, _matched_rows, as_matrix, svd

__all__ = [
    "METHODS",
    "MethodResult",
    "ExperimentReport",
    "ConfidenceEllipse",
    "nmse",
    "chi2_quantile_2dof",
    "confidence_ellipse",
    "predict_model",
    "run_experiment",
]

logger = logging.getLogger(__name__)


def nmse(y_true, y_est) -> float:
    """Normalized error: ``||y_true - y_est||_F / ||y_true||_F``.

    Each norm is taken on its matrix scaled by a power of two to a largest
    entry in [0.5, 1), so no sum of squares overflows on finite data, and the
    ratio is scaled back: the value is the unscaled one bit for bit wherever
    that is finite and no scaled entry is subnormal.
    """
    y_true = as_matrix(y_true, "y_true")
    y_est = as_matrix(y_est, "y_est")
    if y_true.shape != y_est.shape:
        raise DimensionError(f"shape mismatch: {y_true.shape} vs {y_est.shape}")
    e = _exponent(y_true)
    denom = np.linalg.norm(np.ldexp(y_true, -e))
    if denom == 0.0:
        raise MetricError("nmse is undefined for an all-zero reference")
    diff = y_true - y_est
    f = _exponent(diff)
    return float(np.ldexp(np.linalg.norm(np.ldexp(diff, -f)) / denom, f - e))


def chi2_quantile_2dof(coverage: float) -> float:
    """Chi-square quantile with 2 degrees of freedom, in closed form."""
    if not 0.0 < coverage < 1.0:
        raise ConfigError(f"coverage must be in (0, 1), got {coverage!r}")
    return -2.0 * math.log1p(-coverage)


@dataclass(frozen=True)
class ConfidenceEllipse:
    """Coverage ellipse of 2-D scores: center, semi-axes (major first), tilt."""

    center: np.ndarray
    semi_axes: np.ndarray
    rotation_angle: float


def confidence_ellipse(scores_2d, coverage: float = 0.95) -> ConfidenceEllipse:
    """Ellipse covering the given probability mass of a Gaussian score cloud.

    Built from the sample mean and covariance of the two columns,
    scaled by the 2-dof chi-square quantile at ``coverage``. These are taken
    on the scores scaled by a power of two, as ``nmse`` takes its norms, and
    the center and semi-axes are scaled back.
    """
    scores = as_matrix(scores_2d, "scores_2d")
    if scores.shape[1] != 2:
        raise DimensionError(f"scores_2d must have exactly 2 columns, got {scores.shape[1]}")
    if scores.shape[0] < 3:
        raise InvalidInputError(f"need at least 3 score rows, got {scores.shape[0]}")
    e = _exponent(scores)
    scaled = np.ldexp(scores, -e)
    evals, evecs = np.linalg.eigh(np.cov(scaled, rowvar=False, ddof=1))  # ascending
    if evals[1] <= 0 or evals[0] <= 1e-12 * evals[1]:
        raise DegenerateEllipseError("score covariance is numerically singular")
    quantile = chi2_quantile_2dof(coverage)
    major = evecs[:, 1]
    if major[0] < 0 or (major[0] == 0 and major[1] < 0):
        major = -major
    return ConfidenceEllipse(
        center=np.ldexp(scaled.mean(axis=0), e),
        semi_axes=np.ldexp(np.sqrt(evals[::-1] * quantile), e),
        rotation_angle=float(math.atan2(major[1], major[0])),
    )


@dataclass
class MethodResult:
    """Outcome of one method inside an experiment."""

    predictions: np.ndarray | None = None
    nmse: float | None = None
    scores: np.ndarray | None = None  # training latent scores, when the method has them
    error: str | None = None


@dataclass
class ExperimentReport:
    """Per-method predictions and errors for one train/test split."""

    results: dict = field(default_factory=dict)  # method_tag -> MethodResult
    train_indices: np.ndarray = None
    test_indices: np.ndarray = None
    dataset_tag: str = ""


def _check_split(n, train_indices, test_indices):
    train, test = np.asarray(train_indices), np.asarray(test_indices)
    if train.ndim != 1 or test.ndim != 1 or train.size == 0 or test.size == 0:
        raise ConfigError("split indices must be non-empty 1-D sequences")
    # Casting would truncate floats and read a boolean mask as rows 0 and 1.
    if train.dtype.kind not in "iu" or test.dtype.kind not in "iu":
        raise ConfigError(f"split indices must be integers, got {train.dtype} and {test.dtype}")
    train, test = train.astype(np.intp), test.astype(np.intp)
    merged = np.concatenate([train, test])
    if merged.min() < 0 or merged.max() >= n:
        raise ConfigError(f"split indices out of range for {n} rows")
    if np.intersect1d(train, test).size > 0:
        raise ConfigError("train and test indices overlap")
    if np.unique(train).size != train.size or np.unique(test).size != test.size:
        raise ConfigError("split indices contain duplicates")
    # Sorted order makes the report independent of how the caller shuffled.
    return np.sort(train), np.sort(test)


def _fit_mlr(x, y, config):
    return baselines.fit_mlr(x, y), None


def _fit_pcr(x, y, config):
    k = config.k
    model = baselines.fit_pcr(x, y, k)
    u, s, _ = svd(x - model.x_means)
    return model, u[:, :k] * s[:k]


def _fit_plsr(x, y, config):
    factors, model = baselines.fit_pls_nipals(x, y, config.k)
    return model, factors.scores


def _fit_pls_proj(x, y, config):
    factors, model = baselines.fit_pls_nipals(x, y, config.k)
    return projection.from_pls(factors, model.x_means, model.y_means), factors.scores


def _fit_rpls(x, y, config):
    model = rpls.fit(x, y, config)
    return model, model.state.q


# CLI name -> (report tag, fit(x, y, config) -> (model, training scores or None)).
# `rpls fit`, `rpls bench` and run_experiment all dispatch through this table;
# the component methods read their latent dimension from config.k.
Method = namedtuple("Method", "tag fit")
METHODS = {
    "mlr": Method("MLR", _fit_mlr),
    "pcr": Method("PCR", _fit_pcr),
    "plsr": Method("PLSR", _fit_plsr),
    "pls-proj": Method("PLS_PROJ", _fit_pls_proj),
    "rpls": Method("RPLS_PROJ", _fit_rpls),
}
_BY_TAG = {m.tag: m for m in METHODS.values()}


def _check_methods(names, known, label: str) -> None:
    """The rule for a method list: at least one name, each in ``known``, none twice.

    ``label`` names the list in the message: ``run_experiment``'s parameter
    or the CLI's ``--methods``.
    """
    if not names:
        raise ConfigError(f"{label} names no method; valid: {sorted(known)}")
    unknown = [m for m in names if m not in known]
    if unknown:
        raise ConfigError(f"{label}: unknown {unknown}; valid: {sorted(known)}")
    repeated = sorted({m for m in names if names.count(m) > 1})
    if repeated:
        raise ConfigError(f"{label}: {repeated} repeated")


def predict_model(model, x_new) -> np.ndarray:
    """Predictions of any fitted model kind: robust, projection or linear.

    Raises ``InvalidInputError`` when a prediction is not finite: the model
    and the rows overflow float64, as a model at the float64 limits can.
    """
    if isinstance(model, rpls.RplsModel):
        model = projection.from_rpls(model)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, projection.ProjectionRegressor):
            y_hat = projection.predict_projection(model, x_new)
        else:
            y_hat = baselines.predict(model, x_new)
    if not np.isfinite(y_hat).all():
        raise InvalidInputError("a prediction is not finite: the model and the rows overflow float64")
    return y_hat


def run_experiment(
    x,
    y,
    split,
    methods,
    config: rpls.RplsConfig = rpls.RplsConfig(),
    dataset_tag: str = "",
) -> ExperimentReport:
    """Fit each method on the train rows and score it on the test rows.

    Parameters
    ----------
    x, y : array_like
        Full dataset; rows are selected by the split.
    split : (train_indices, test_indices)
        Disjoint integer row index sequences. Order does not matter; indices are
        sorted internally so shuffled splits give identical reports.
    methods : sequence of str
        Report tags of entries in ``METHODS``, at least one, none repeated.
    config : RplsConfig
        Latent dimension ``k`` for every component-based method, and the
        robust solver's hyperparameters for RPLS_PROJ.

    A method that raises is recorded with its error message; the other
    methods still run.
    """
    x, y = _matched_rows(x, y)
    train, test = _check_split(x.shape[0], *split)
    _check_methods(methods, _BY_TAG, "methods")

    x_train, y_train = x[train], y[train]
    x_test, y_test = x[test], y[test]
    report = ExperimentReport(train_indices=train, test_indices=test, dataset_tag=dataset_tag)
    for tag in methods:
        try:
            model, scores = _BY_TAG[tag].fit(x_train, y_train, config)
            predictions = predict_model(model, x_test)
            report.results[tag] = MethodResult(
                predictions=predictions,
                nmse=nmse(y_test, predictions),
                scores=scores,
            )
        except Exception as exc:  # noqa: BLE001 - per-method isolation is the contract
            logger.warning("method %s failed: %s", tag, exc)
            report.results[tag] = MethodResult(error=str(exc))
    return report
