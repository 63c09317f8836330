"""Classical regression baselines: MLR, PCR, and iterative PLS.

Every fitter removes the column means of x and y, fits the centered data,
and returns a ``LinearModel`` whose coefficients act on raw (uncentered)
inputs through ``predict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, SolverError, check_fields
from .linalg import _check_arrays, _check_k, _exponent, _finite, _matched_rows, _matrix, svd

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

# A prediction batch larger than this is multiplied in row blocks of this
# size, which fit in L2, and checked through its product (see ``_affine``).
BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linear predictor ``y_hat = (x - x_means) @ theta + y_means``.

    Construction folds both means into ``offset = x_means @ theta - y_means``
    (derived, never serialized, not finite where it overflows float64), and
    ``predict`` computes ``x @ theta - offset``. The model holds read-only
    copies of the arrays it was built from, and ``offset`` is read-only too,
    so the offset always matches the fields.
    """

    theta: np.ndarray     # p x r
    x_means: np.ndarray   # (p,)
    y_means: np.ndarray   # (r,)
    method_tag: str
    n_components: int = 0
    notes: tuple = ()
    offset: np.ndarray = field(init=False, repr=False)  # (r,)

    # Stored as read-only C float64 copies when built; any that disagree in these axes or are not finite are rejected.
    AXES = {"theta": "pr", "x_means": "p", "y_means": "r"}

    def __post_init__(self):
        _check_arrays(self, self.AXES)
        check_fields(self, integers=(("n_components", 0),), choices=(("method_tag", ("MLR", "PCR", "PLSR")),))
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "offset", np.dot(self.x_means, self.theta) - self.y_means)
        self.offset.flags.writeable = False


@dataclass(frozen=True, eq=False)
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
    """The centered blocks, their means, and the rounding floor of the centered x.

    Far from the origin, rounding the data and their column means leaves
    the centered x a full-rank error whose singular values grow with
    ``max|x|``. Its largest was 0.8-1.6 times ``eps * sqrt(n p) * max|x|``
    on rank-5 data of 120x40 and 48x401 moved by 1e2 to 1e8 column spreads,
    almost all of it the rank-one error of the rounded means. A direction
    whose singular value is not above ten times that, the floor, is that
    error and not data, whatever ``RANK_RCOND`` allows.
    """
    x, y = _matched_rows(x, y)
    x_means, y_means = _column_means(x), _column_means(y)
    floor = 10.0 * np.finfo(np.float64).eps * math.sqrt(x.size) * float(np.abs(x).max())
    return x - x_means, y - y_means, x_means, y_means, floor


def _column_means(a) -> np.ndarray:
    """``a.mean(axis=0)``, taken on each column scaled by a power of two to a
    largest entry in [0.5, 1), so that no sum overflows on finite data.

    The scaling is exact, so the means are those of ``a.mean(axis=0)`` bit
    for bit wherever that is finite and no scaled entry is subnormal.
    """
    e = np.frexp(np.abs(a).max(axis=0))[1]
    return np.ldexp(np.ldexp(a, -e).mean(axis=0), e)


def fit_mlr(x, y) -> LinearModel:
    """Ordinary least squares on centered data.

    Falls back to the minimum-norm pseudoinverse solution when the
    predictor matrix is rank deficient, recording a note on the model.
    Singular values up to ``RANK_RCOND`` times the largest, or up to the
    centering's rounding floor, count as zero.
    """
    xc, yc, x_means, y_means, floor = _center(x, y)
    try:
        theta, _, rank, s = np.linalg.lstsq(xc, yc, rcond=RANK_RCOND)
        # lstsq takes its cutoff relative to the largest singular value, which
        # only its own decomposition finds; it solves again only in the rare
        # case that the floor drops a direction RANK_RCOND kept.
        if np.count_nonzero(s > floor) < rank:
            theta, _, rank, _ = np.linalg.lstsq(xc, yc, rcond=floor / s[0])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"least squares did not converge for {xc.shape[0]}x{xc.shape[1]} matrix") from exc
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
    xc, yc, x_means, y_means, floor = _center(x, y)
    _check_k(k, xc.shape)
    u, s, vt = svd(xc, canonical_signs=False)  # theta cancels a matched sign flip of u and vt
    keep = s[:k] > max(RANK_RCOND * s[0], floor)
    notes = ()
    if not keep.all():
        notes = (f"{int((~keep).sum())} of {k} score directions numerically zero: dropped",)
    # Regress on scores u*s, fold back: theta = V_k S_k^{-1} U_k^T y.
    u = u[:, :k][:, keep]
    v = vt.T[:, :k][:, keep]
    theta = (v / s[:k][keep]) @ (u.T @ yc)
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
    cross-covariance vanishes before k components: when its norm is not
    above ``RANK_RCOND`` times the first one's, or not above what the
    centering's rounding floor can give it. The actual count is recorded on
    the model.

    The rounds run on the centered blocks, each scaled by a power of two to
    a largest entry in [0.5, 1), where no product or sum of squares can
    overflow or underflow and a kept score has positive variance; scores,
    y-loadings and theta are scaled back exactly. Power-of-two units thus
    rescale the fit bit for bit while data, means and results stay normal.

    Returns
    -------
    (PlsFactors, LinearModel)
    """
    xc, yc, x_means, y_means, floor = _center(x, y)
    n, p = xc.shape
    r = yc.shape[1]
    _check_k(k, xc.shape)

    ex, ey = _exponent(xc), _exponent(yc)
    x_res, y_res = np.ldexp(xc, -ex), np.ldexp(yc, -ey)
    cov_scale = np.linalg.norm(x_res.T @ y_res)
    # Rounding error of spectral size ``floor`` in x gives the cross-covariance
    # a norm of at most ``floor * |y_res|_F``, and deflation never makes
    # ``|y_res|_F`` larger than ``|yc|_F <= sqrt(n r) max|yc|``.
    cov_floor = math.ldexp(floor, -ex) * math.sqrt(yc.size) * float(np.abs(y_res).max())
    weights, scores, x_loadings, y_loadings = [], [], [], []
    notes = ()
    for j in range(k):
        cov = x_res.T @ y_res
        if np.linalg.norm(cov) <= max(RANK_RCOND * cov_scale, cov_floor):
            notes = (f"cross-covariance vanished after {j} of {k} components",)
            break
        w = svd(cov)[0][:, 0]
        t = x_res @ w
        tt = float(t @ t)
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
        scores=np.ldexp(np.column_stack([np.zeros((n, 0)), *scores]), ex),
        weights=np.column_stack([np.zeros((p, 0)), *weights]),
        x_loadings=np.column_stack([np.zeros((p, 0)), *x_loadings]),
        y_loadings=np.ldexp(np.column_stack([np.zeros((r, 0)), *y_loadings]), ey - ex),
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
    x_means|``. ``_matrix`` gives the batch its layout, so a batch in
    another layout or type gives the bits of its C float64 copy.

    A batch of at most ``BLOCK_BYTES`` is checked and multiplied whole. A
    larger one is multiplied one block of ``BLOCK_BYTES`` worth of rows at a
    time, with the bits of ``np.dot`` on each row block, and then only the
    (n, k) product is tested for finiteness, so the batch is read once. A
    product must multiply every nonzero entry of ``matrix``: a NaN or
    infinity in column j of the batch makes its row of the product
    non-finite whenever row j of ``matrix`` has a nonzero entry. BLAS may
    skip a zero factor (OpenBLAS returns finite zeros for an (n, 1) batch
    holding NaN times a 1x1 zero matrix), so when some row of ``matrix`` is
    all zero, as every row is when it has no columns, the batch itself is
    checked too. A non-finite product of a finite batch overflowed; it is
    taken again, with the warnings the unchecked product held back.
    """
    x_new = _matrix(x_new, "x_new")
    if x_new.shape[1] != matrix.shape[0]:
        _finite(x_new, "x_new")  # a non-finite entry is reported first, as by as_matrix
        raise DimensionError(f"x_new has {x_new.shape[1]} columns, model expects {matrix.shape[0]}")
    if x_new.nbytes <= BLOCK_BYTES:
        out = np.dot(_finite(x_new, "x_new"), matrix)
    else:
        out = np.empty((x_new.shape[0], matrix.shape[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            _dot_by_blocks(x_new, matrix, out)
        if not np.logical_and.reduce(np.isfinite(out), axis=None):
            _dot_by_blocks(_finite(x_new, "x_new"), matrix, out)
        elif not matrix.any(axis=1).all():
            _finite(x_new, "x_new")
    out -= offset
    return out


def _dot_by_blocks(x, matrix, out) -> None:
    """``out[:] = np.dot(x, matrix)``, one ``np.dot`` per ``BLOCK_BYTES``
    worth of C-order rows, so that each block stays in L2."""
    step = max(1, BLOCK_BYTES // x.strides[0])
    for start in range(0, x.shape[0], step):
        rows = slice(start, start + step)
        np.dot(x[rows], matrix, out=out[rows])


def predict(model: LinearModel, x_new) -> np.ndarray:
    """Apply a fitted linear model to new rows."""
    return _affine(x_new, model.theta, model.offset)
