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

from .baselines import RANK_RCOND, PlsFactors, _affine
from .errors import check_fields
from .linalg import _check_arrays, _exponent, svd
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


@dataclass(frozen=True, eq=False)
class ProjectionRegressor:
    """Loadings and offsets needed to predict responses by projection.

    Construction compiles the score map ``w = pinv(lambda_x.T)`` (p x k),
    keeping only the directions of ``lambda_x`` whose gain exceeds
    ``RANK_RCOND`` times the largest and whose inverse gain is a finite
    float64. With none left (k = 0 or all-zero loadings) ``w`` is zero and
    predictions are ``y_means``. It also folds the predictor means into the
    score intercept ``offset = x_means @ w`` (k,), which is not finite
    where it overflows float64. ``w`` and ``offset`` are derived and never
    serialized. The regressor holds read-only copies of the arrays it was
    built from, and ``w`` and ``offset`` are read-only too, so the compiled
    map always matches the fields. The compile also owns the rank notes: it
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
    offset: np.ndarray = field(init=False, repr=False)  # (k,)

    # Stored as read-only C float64 copies when built; any that disagree in these axes or are not finite are rejected.
    AXES = {"lambda_x": "pk", "lambda_y": "rk", "x_means": "p", "y_means": "r"}

    def __post_init__(self):
        _check_arrays(self, self.AXES)
        check_fields(self, choices=(("source_tag", ("RPLS", "PLS")),))
        # Compile on the loadings scaled by 2**-e, then scale w back: the
        # scaled gains can neither overflow nor be subnormal.
        e = _exponent(self.lambda_x)
        u, s, vt = svd(np.ldexp(self.lambda_x, -e), canonical_signs=False)
        keep = s > RANK_RCOND * s.max(initial=0.0)
        # A direction whose inverse gain is not a finite float64 is numerically zero.
        with np.errstate(over="ignore"):
            keep[keep] = np.isfinite(np.ldexp(1.0 / s[keep], -e))
        notes = tuple(n for n in self.notes if n not in (ZERO_NOTE, DEFICIENT_NOTE))
        if not keep.any():
            notes += (ZERO_NOTE,)
        elif not keep.all():
            notes += (DEFICIENT_NOTE,)
        object.__setattr__(self, "w", np.ldexp((u[:, keep] / s[keep]) @ vt[keep], -e))
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "offset", np.dot(self.x_means, self.w))
        self.w.flags.writeable = self.offset.flags.writeable = False
        object.__setattr__(self, "notes", notes)


def from_rpls(model: RplsModel) -> ProjectionRegressor:
    """Build a projection regressor from a fitted robust decomposition.

    A direction of ``lambda_x`` with gain above ``RANK_RCOND`` times the
    largest is unstable when the fitted sparse-error block has more
    leverage along it than ``STABILITY_THRESHOLD`` times that gain: the
    predictors carry too little signal there to trust the projected score
    (the signature of a direction captured by response corruption). The
    regressor stores the m kept directions in the principal basis of
    ``lambda_x``, with canonical signs: ``u * s`` (p x m), whose column norms
    are the gains, largest first, and ``lambda_y @ vt.T`` (r x m). It
    predicts as the solver's loadings do, up to rounding, when no direction
    is unstable, and otherwise carries the note "removed N unstable latent
    direction(s)".

    The regressor copies what it keeps, so it shares no memory with
    ``model`` and no later change to ``model`` moves it.
    """
    u, s, vt = svd(model.state.lambda_x)
    leverage = np.linalg.norm(model.state.delta_x @ u, axis=0)
    unstable = (s > RANK_RCOND * s.max(initial=0.0)) & (leverage > STABILITY_THRESHOLD * s)
    keep = ~unstable
    notes = (f"removed {int(unstable.sum())} unstable latent direction(s)",) if unstable.any() else ()
    return ProjectionRegressor(
        lambda_x=u[:, keep] * s[keep],
        lambda_y=model.state.lambda_y @ vt[keep].T,
        x_means=model.x_means,
        y_means=model.y_means,
        source_tag="RPLS",
        notes=notes,
    )


def from_pls(factors: PlsFactors, x_means, y_means) -> ProjectionRegressor:
    """Build a projection regressor from classical PLS loadings."""
    return ProjectionRegressor(
        lambda_x=factors.x_loadings,
        lambda_y=factors.y_loadings,
        x_means=x_means,
        y_means=y_means,
        source_tag="PLS",
    )


def project(reg: ProjectionRegressor, x_new) -> np.ndarray:
    """Latent scores of new rows: least-squares fit of ``q @ lambda_x.T``.

    Computed as ``x_new @ w - offset``, which is ``(x_new - x_means) @ w``
    up to rounding, through the compiled pseudoinverse, so numerically dead
    directions contribute zero score.
    """
    return _affine(x_new, reg.w, reg.offset)


def predict_projection(reg: ProjectionRegressor, x_new) -> np.ndarray:
    """Predict responses: project to latent scores, map through y-loadings."""
    # ``np.dot`` and an in-place add give the bits of ``@ ... + y_means``
    # with one array and less dispatch: 0.7-1 us of a ~7 us one-row call.
    out = np.dot(project(reg, x_new), reg.lambda_y.T)
    out += reg.y_means
    return out


def regression_matrix(reg: ProjectionRegressor) -> np.ndarray:
    """Explicit p x r coefficient matrix equivalent to predict_projection.

    ``w @ lambda_y.T`` solves ``lambda_x^T theta = lambda_y^T`` in the
    minimum-norm least-squares sense; ``predict_projection(reg, x)`` equals
    ``(x - x_means) @ theta + y_means`` up to rounding.
    """
    return reg.w @ reg.lambda_y.T
