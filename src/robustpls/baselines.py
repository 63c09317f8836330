"""Classical regression baselines: MLR, PCR, and iterative PLS.

Every fitter removes the column means of x and y, fits the centered data,
and returns a ``LinearModel`` whose coefficients act on raw (uncentered)
inputs through ``predict``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, check_fields
from .linalg import _check_arrays, _check_k, _matched_rows, as_matrix, svd

__all__ = [
    "LinearModel",
    "PlsFactors",
    "fit_mlr",
    "fit_pcr",
    "fit_pls_nipals",
    "predict",
]

# Relative singular-value cutoff below which directions count as rank-deficient.
RANK_RCOND = 1e-12


@dataclass(frozen=True)
class LinearModel:
    """Linear predictor ``y_hat = (x - x_means) @ theta + y_means``.

    Construction folds both means into ``offset = x_means @ theta - y_means``
    (derived, never serialized, not finite where it overflows float64), and
    ``predict`` computes ``x @ theta - offset``.
    """

    theta: np.ndarray     # p x r
    x_means: np.ndarray   # (p,)
    y_means: np.ndarray   # (r,)
    method_tag: str
    n_components: int = 0
    notes: tuple = ()
    offset: np.ndarray = field(init=False, repr=False)  # (r,)

    # Construction rejects arrays that disagree in these axes or are not finite.
    AXES = {"theta": "pr", "x_means": "p", "y_means": "r"}

    def __post_init__(self):
        _check_arrays(self, self.AXES)
        if self.method_tag not in ("MLR", "PCR", "PLSR"):
            raise ConfigError(f"method_tag must be MLR, PCR or PLSR, got {self.method_tag!r}")
        check_fields(self, integers=(("n_components", 0),))
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "offset", np.dot(self.x_means, self.theta) - self.y_means)


@dataclass(frozen=True)
class PlsFactors:
    """Latent factors extracted by the iterative PLS fit.

    Weight columns have unit Euclidean norm; scores are ``t_j = X_res w_j``
    computed on the deflated predictor residuals.
    """

    scores: np.ndarray      # n x k
    weights: np.ndarray     # p x k
    x_loadings: np.ndarray  # p x k
    y_loadings: np.ndarray  # r x k


def _center(x, y):
    x, y = _matched_rows(x, y)
    x_means, y_means = x.mean(axis=0), y.mean(axis=0)
    return x - x_means, y - y_means, x_means, y_means


def fit_mlr(x, y) -> LinearModel:
    """Ordinary least squares on centered data.

    Falls back to the minimum-norm pseudoinverse solution when the
    predictor matrix is rank deficient, recording a note on the model.
    """
    xc, yc, x_means, y_means = _center(x, y)
    theta, _, rank, _ = np.linalg.lstsq(xc, yc, rcond=RANK_RCOND)
    notes = ()
    if rank < xc.shape[1]:
        notes = (f"rank deficient predictors (rank {rank} < {xc.shape[1]}): pseudoinverse solution",)
    return LinearModel(
        theta=theta,
        x_means=x_means,
        y_means=y_means,
        method_tag="MLR",
        n_components=0,
        notes=notes,
    )


def fit_pcr(x, y, k: int) -> LinearModel:
    """Principal component regression with the top-k score directions."""
    xc, yc, x_means, y_means = _center(x, y)
    _check_k(k, xc.shape)
    f = svd(xc)
    s = f.s[:k]
    keep = s > RANK_RCOND * (f.s[0] if f.s[0] > 0 else 1.0)
    notes = ()
    if not keep.all():
        notes = (f"{int((~keep).sum())} of {k} score directions numerically zero: dropped",)
    # Regress on scores u*s, fold back: theta = V_k S_k^{-1} U_k^T y.
    u = f.u[:, :k][:, keep]
    v = f.v[:, :k][:, keep]
    theta = (v / s[keep]) @ (u.T @ yc)
    return LinearModel(
        theta=theta,
        x_means=x_means,
        y_means=y_means,
        method_tag="PCR",
        n_components=int(keep.sum()),
        notes=notes,
    )


def fit_pls_nipals(x, y, k: int):
    """Iterative PLS: one covariance-maximizing component per deflation round.

    Each round takes the dominant singular direction of the residual
    cross-covariance ``X_res^T Y_res`` as the weight vector (unit norm,
    largest-magnitude entry nonnegative), scores the residuals, and
    deflates both blocks by the rank-one fit. Stops early if the
    cross-covariance vanishes before k components; the actual count is
    recorded on the model.

    Returns
    -------
    (PlsFactors, LinearModel)
    """
    xc, yc, x_means, y_means = _center(x, y)
    n, p = xc.shape
    r = yc.shape[1]
    _check_k(k, xc.shape)

    x_res = xc.copy()
    y_res = yc.copy()
    cov_scale = np.linalg.norm(xc.T @ yc)
    weights, scores, x_loadings, y_loadings = [], [], [], []
    notes = ()
    for j in range(k):
        cov = x_res.T @ y_res
        if np.linalg.norm(cov) <= max(1e-12 * cov_scale, 1e-300):
            notes = (f"cross-covariance vanished after {j} of {k} components",)
            break
        w = svd(cov).u[:, 0]
        t = x_res @ w
        tt = float(t @ t)
        if tt <= 0.0:
            notes = (f"zero score variance after {j} of {k} components",)
            break
        p_load = x_res.T @ t / tt
        c_load = y_res.T @ t / tt
        x_res = x_res - np.outer(t, p_load)
        y_res = y_res - np.outer(t, c_load)
        weights.append(w)
        scores.append(t)
        x_loadings.append(p_load)
        y_loadings.append(c_load)

    # Each stack starts from a zero-width block, so no component gives
    # (rows, 0) factors, and the 0x0 solve below gives a zero theta.
    factors = PlsFactors(
        scores=np.column_stack([np.zeros((n, 0)), *scores]),
        weights=np.column_stack([np.zeros((p, 0)), *weights]),
        x_loadings=np.column_stack([np.zeros((p, 0)), *x_loadings]),
        y_loadings=np.column_stack([np.zeros((r, 0)), *y_loadings]),
    )
    # P^T W is unit upper triangular (p_j.w_j = 1, and deflation gives
    # X_i w_j = 0 for i > j), so the solve never meets a zero pivot.
    pw = factors.x_loadings.T @ factors.weights
    theta = factors.weights @ np.linalg.solve(pw, factors.y_loadings.T)

    model = LinearModel(
        theta=theta,
        x_means=x_means,
        y_means=y_means,
        method_tag="PLSR",
        n_components=len(weights),
        notes=notes,
    )
    return factors, model


def _affine(x_new, matrix, offset) -> np.ndarray:
    """``x_new @ matrix - offset`` for checked rows: the one prediction apply.

    The model compiled ``offset``, so no centered copy of the batch is made.
    This intercept form rounds at the scale of ``|x_new|``, not ``|x_new -
    x_means|``. A batch in another layout is copied to C order first, so it
    gives the bits of its C copy.
    """
    x_new = np.ascontiguousarray(as_matrix(x_new, "x_new"))
    if x_new.shape[1] != matrix.shape[0]:
        raise DimensionError(f"x_new has {x_new.shape[1]} columns, model expects {matrix.shape[0]}")
    out = np.dot(x_new, matrix)
    out -= offset
    return out


def predict(model: LinearModel, x_new) -> np.ndarray:
    """Apply a fitted linear model to new rows."""
    return _affine(x_new, model.theta, model.offset)
