"""Regression by projection onto a fitted latent space.

A sample is mapped to latent scores by least squares against the
predictor loadings, then the response loadings map the scores to a
prediction. Works with loadings from either the robust decomposition or
a classical PLS fit. The score map is fixed once the loadings are, so a
regressor compiles it at construction and predicting takes no
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import RANK_RCOND, PlsFactors, _centered_product
from .errors import InvalidInputError
from .linalg import svd
from .rpls import RplsModel

__all__ = [
    "ProjectionRegressor",
    "STABILITY_THRESHOLD",
    "from_rpls",
    "from_pls",
    "project",
    "predict_projection",
    "regression_matrix",
]

# A latent direction is kept for prediction only while the X-side error
# leverage along it stays below this multiple of its signal gain.
STABILITY_THRESHOLD = 3.0

# Notes the compile records about the predictor loadings it was given.
ZERO_NOTE = "predictor loadings are zero: predictions fall back to the response offsets"
DEFICIENT_NOTE = "predictor loadings rank deficient: pseudoinverse projection"


@dataclass(frozen=True)
class ProjectionRegressor:
    """Loadings and offsets needed to predict responses by projection.

    Construction compiles the score map ``w = pinv(lambda_x.T)`` (p x k),
    keeping only the directions of ``lambda_x`` whose gain exceeds
    ``RANK_RCOND`` times the largest. With none left (k = 0 or all-zero
    loadings) ``w`` is zero and predictions are ``y_means``. ``w`` is
    derived and never serialized. The compile also owns the rank notes: it
    drops any ``ZERO_NOTE`` or ``DEFICIENT_NOTE`` it was given and appends
    the one that holds for these loadings.
    """

    lambda_x: np.ndarray  # p x k
    lambda_y: np.ndarray  # r x k
    x_means: np.ndarray   # (p,)
    y_means: np.ndarray   # (r,)
    source_tag: str       # "RPLS" or "PLS"
    notes: tuple = ()
    w: np.ndarray = field(init=False, repr=False)  # p x k

    def __post_init__(self):
        if not (np.isfinite(self.lambda_x).all() and np.isfinite(self.lambda_y).all()):
            raise InvalidInputError("projection loadings contain non-finite entries")
        u, s, vt = np.linalg.svd(self.lambda_x, full_matrices=False)
        keep = s > RANK_RCOND * s.max(initial=0.0)
        notes = tuple(n for n in self.notes if n not in (ZERO_NOTE, DEFICIENT_NOTE))
        if not keep.any():
            notes += (ZERO_NOTE,)
        elif not keep.all():
            notes += (DEFICIENT_NOTE,)
        object.__setattr__(self, "w", (u[:, keep] / s[keep]) @ vt[keep])
        object.__setattr__(self, "notes", notes)


def from_rpls(model: RplsModel, stability_threshold: float | None = STABILITY_THRESHOLD) -> ProjectionRegressor:
    """Build a projection regressor from a fitted robust decomposition.

    Latent directions along which the fitted sparse-error block has more
    leverage than ``stability_threshold`` times the direction's loading
    gain are removed from both loadings before prediction: the predictors
    carry too little signal there for the projected score to be
    trustworthy, while the response loading may be large (this is the
    signature of a direction captured by response corruption rather than
    shared structure). Pass None to disable the screen.
    """
    lambda_x = np.array(model.state.lambda_x, dtype=np.float64)
    lambda_y = np.array(model.state.lambda_y, dtype=np.float64)
    notes = ()
    if stability_threshold is not None and lambda_x.any():
        f = svd(lambda_x)
        leverage = np.linalg.norm(model.state.delta_x @ f.u, axis=0)
        unstable = leverage > stability_threshold * np.maximum(f.s, 1e-300)
        if unstable.any():
            keep = ~unstable
            lambda_x = (f.u[:, keep] * f.s[keep]) @ f.v[:, keep].T
            lambda_y = lambda_y @ f.v[:, keep] @ f.v[:, keep].T
            notes = (f"removed {int(unstable.sum())} unstable latent direction(s)",)
    return ProjectionRegressor(
        lambda_x=lambda_x,
        lambda_y=lambda_y,
        x_means=np.array(model.x_means, dtype=np.float64),
        y_means=np.array(model.y_means, dtype=np.float64),
        source_tag="RPLS",
        notes=notes,
    )


def from_pls(factors: PlsFactors, x_means, y_means) -> ProjectionRegressor:
    """Build a projection regressor from classical PLS loadings."""
    return ProjectionRegressor(
        lambda_x=np.array(factors.x_loadings, dtype=np.float64),
        lambda_y=np.array(factors.y_loadings, dtype=np.float64),
        x_means=np.asarray(x_means, dtype=np.float64),
        y_means=np.asarray(y_means, dtype=np.float64),
        source_tag="PLS",
    )


def project(reg: ProjectionRegressor, x_new) -> np.ndarray:
    """Latent scores of new rows: least-squares fit of ``q @ lambda_x.T``.

    Computed as ``(x_new - x_means) @ w`` through the compiled
    pseudoinverse, so numerically dead directions contribute zero score.
    """
    return _centered_product(x_new, reg.x_means, reg.w)


def predict_projection(reg: ProjectionRegressor, x_new) -> np.ndarray:
    """Predict responses: project to latent scores, map through y-loadings."""
    return project(reg, x_new) @ reg.lambda_y.T + reg.y_means


def regression_matrix(reg: ProjectionRegressor) -> np.ndarray:
    """Explicit p x r coefficient matrix equivalent to predict_projection.

    ``w @ lambda_y.T`` solves ``lambda_x^T theta = lambda_y^T`` in the
    minimum-norm least-squares sense; ``predict_projection(reg, x)`` equals
    ``(x - x_means) @ theta + y_means`` up to rounding.
    """
    return reg.w @ reg.lambda_y.T
