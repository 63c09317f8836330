"""Robust PLS solver: joint low-rank + sparse decomposition of X and Y.

Fits ``X = Q Lx^T + Dx`` and ``Y = Q Ly^T + Dy`` with a shared
orthonormal score matrix Q, minimizing ``|Dx|_1 + |Dy|_1 +
lambda1*||Lx||_* + lambda2*||Ly||_*`` by alternating closed-form block
updates under an augmented Lagrangian. Both constraints share one
geometrically growing penalty ``alpha``, so they act as one constraint on
``[X Y]`` with one multiplier ``[l m]``. Each iteration runs
Q -> Lx, Ly -> [Dx Dy] -> [l m] -> alpha and checks the primal residual.

``fit`` keeps each stacked quantity in one flat ``(1, n*p + n*r)`` row,
the X block row-major and then the Y block, and runs each elementwise step
once per iteration on it, into reused buffers: ``[b a] = [l m]/alpha +
[X Y] - [Dx Dy]``, ``z = [X Y] - Q [Lx Ly]^T`` and the residual
``z - [Dx Dy]``. ``update_q`` and ``update_loadings`` take the blocks b and
a, ``update_sparse`` z and ``[l m]/alpha``, ``update_multipliers`` the
residual, and ``primal_residual`` (the stopping test) its two blocks. The
blocks check nothing; ``fit`` checks its inputs' shapes once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InvalidInputError, check_fields
from .linalg import _check_k, _matched_rows, procrustes_orthonormal, singular_value_threshold, soft_threshold

__all__ = [
    "CENTER_MODES",
    "RplsConfig",
    "RplsState",
    "RplsModel",
    "update_q",
    "update_loadings",
    "update_sparse",
    "update_multipliers",
    "primal_residual",
    "fit",
]

logger = logging.getLogger(__name__)

CENTER_MODES = ("median", "none")


@dataclass(frozen=True)
class RplsConfig:
    """Hyperparameters of the alternating solver.

    ``k`` is the latent dimension. It is the one source of ``k`` for every
    component method in ``evaluate.METHODS``, not only the robust solver.

    ``lambda1``, ``lambda2`` and ``tol`` may be left as None, in which
    case they are resolved against the data when fitting:
    ``lambda = 1/sqrt(max(n, p))`` and
    ``tol = 1e-6 * (||X||_F + ||Y||_F)``.

    ``alpha0`` starts the one penalty that the X and Y constraints share;
    it grows by ``rho`` per iteration up to ``alpha_max``.

    ``center`` selects the column offset removed before fitting:
    "median" (default, the coordinatewise median, robust to corrupted
    columns) or "none" (no offset).
    """

    k: int = 5
    lambda1: float | None = None
    lambda2: float | None = None
    alpha0: float = 1.0
    rho: float = 1.1
    alpha_max: float = 1e6
    tol: float | None = None
    max_iter: int = 500
    center: str = "median"

    def __post_init__(self):
        check_fields(
            self, ("alpha0", "rho", "alpha_max"), optional=("lambda1", "lambda2", "tol"),
            integers=(("k", 1), ("max_iter", 1)),
        )
        for name in ("lambda1", "lambda2", "tol"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigError(f"{name} must be positive (or None for auto), got {v!r}")
        for name in ("alpha0", "alpha_max"):
            v = getattr(self, name)
            if v <= 0:
                raise ConfigError(f"{name} must be positive, got {v!r}")
        if self.rho < 1:
            raise ConfigError(f"rho must be >= 1, got {self.rho!r}")
        if self.alpha_max < self.alpha0:
            raise ConfigError(f"alpha_max must be >= alpha0, got {self.alpha_max!r} < {self.alpha0!r}")
        if self.center not in CENTER_MODES:
            raise ConfigError(f"center must be one of {CENTER_MODES}, got {self.center!r}")

    def resolve(self, x: np.ndarray, y: np.ndarray) -> "RplsConfig":
        """Bind auto hyperparameters to the data and check k against its shape."""
        _check_k(self.k, x.shape)
        n, p = x.shape
        lam = 1.0 / math.sqrt(max(n, p))
        tol = self.tol
        if tol is None:
            with np.errstate(over="ignore"):
                tol = 1e-6 * (np.linalg.norm(x) + np.linalg.norm(y))
            if not math.isfinite(tol):
                raise InvalidInputError(
                    "the Frobenius norm of the centered data overflows float64, so the default tol is not finite"
                )
            if tol <= 0.0:  # all-zero data
                tol = 1e-12
        return replace(
            self,
            lambda1=self.lambda1 if self.lambda1 is not None else lam,
            lambda2=self.lambda2 if self.lambda2 is not None else lam,
            tol=tol,
        )


@dataclass
class RplsState:
    """All block variables of one solver iteration; ``alpha1 == alpha2``, the one penalty.

    ``fit`` builds a fresh one each iteration and never changes it after.
    """

    q: np.ndarray         # n x k, orthonormal columns
    lambda_x: np.ndarray  # p x k
    lambda_y: np.ndarray  # r x k
    delta_x: np.ndarray   # n x p
    delta_y: np.ndarray   # n x r
    l: np.ndarray         # n x p multipliers, X constraint
    m: np.ndarray         # n x r multipliers, Y constraint
    alpha1: float
    alpha2: float
    iteration: int = 0


@dataclass(frozen=True)
class RplsModel:
    """Fitted decomposition plus the configuration and convergence trace."""

    state: RplsState
    config: RplsConfig
    converged: bool
    residual_trace: tuple  # ((iteration, primal_residual), ...)
    x_means: np.ndarray
    y_means: np.ndarray

    def low_rank_x(self) -> np.ndarray:
        """Denoised predictor block ``Q Lx^T`` (centered coordinates)."""
        return self.state.q @ self.state.lambda_x.T

    def low_rank_y(self) -> np.ndarray:
        """Denoised response block ``Q Ly^T`` (centered coordinates)."""
        return self.state.q @ self.state.lambda_y.T


def update_q(b, a, lambda_x, lambda_y, alpha: float) -> np.ndarray:
    """Score update: the orthonormal maximizer of ``<alpha b Lx + alpha a Ly, Q>``."""
    return procrustes_orthonormal(alpha * (b @ lambda_x) + alpha * (a @ lambda_y))


def update_loadings(b, a, q, tau_x: float, tau_y: float):
    """Loading updates: singular value thresholding of ``b^T Q`` and ``a^T Q``."""
    return singular_value_threshold(b.T @ q, tau_x), singular_value_threshold(a.T @ q, tau_y)


def update_sparse(z, scaled, alpha: float) -> np.ndarray:
    """Sparse-error update: soft thresholding of ``z + [l m]/alpha`` at ``1/alpha``."""
    return soft_threshold(z + scaled, 1.0 / alpha)


def update_multipliers(lm, residual, alpha: float) -> np.ndarray:
    """Gradient-ascent step on the multipliers along the constraint residual.

    Returns a fresh array, ``lm + alpha * residual`` bit for bit, built with
    one temporary.
    """
    out = residual * alpha
    out += lm
    return out


def primal_residual(rx, ry) -> float:
    """Sum of Frobenius norms of the two constraint residuals.

    Each norm is ``sqrt(r . r)`` over the block flattened in memory order:
    the expression ``np.linalg.norm`` evaluates, without its wrapper.
    """
    rx, ry = rx.ravel("K"), ry.ravel("K")
    return math.sqrt(np.dot(rx, rx)) + math.sqrt(np.dot(ry, ry))


def _blocks(flat, n: int, p: int):
    """The X and Y blocks of a stacked ``(1, n*p + n*r)`` row, as C-contiguous views."""
    return flat[0, : n * p].reshape(n, p), flat[0, n * p :].reshape(n, -1)


def fit(x, y, config: RplsConfig, callback=None) -> RplsModel:
    """Run the alternating solver until the primal residual drops below tol.

    Parameters
    ----------
    x : array_like, shape (n, p)
    y : array_like, shape (n, r)
    config : RplsConfig
        Solver hyperparameters; ``config.k`` must not exceed min(n, p).
    callback : callable, optional
        Called as ``callback(state, residual)`` after every iteration,
        each time with a new ``RplsState``.

    Returns
    -------
    RplsModel
        Final state, per-iteration residual trace, convergence flag and
        the column offsets removed before fitting. Hitting max_iter is
        not an error; the model is returned with ``converged=False``.
    """
    x, y = _matched_rows(x, y)
    if config.center == "median":
        x_means, y_means = np.median(x, axis=0), np.median(y, axis=0)
    else:
        x_means, y_means = np.zeros(x.shape[1]), np.zeros(y.shape[1])
    xc = x - x_means
    yc = y - y_means

    cfg = config.resolve(xc, yc)
    n, p = xc.shape
    r = yc.shape[1]
    # Zero loadings start the solver: the first update_q returns
    # procrustes_orthonormal(0) = eye(n, k).
    lambda_x, lambda_y, alpha = np.zeros((p, cfg.k)), np.zeros((r, cfg.k)), cfg.alpha0
    data = np.concatenate((xc.ravel(), yc.ravel()))[None, :]  # [Xc Yc]; [Dx Dy] and [l m] laid out alike
    delta, lm = np.zeros_like(data), np.zeros_like(data)
    # Step-local buffers, overwritten every iteration. No state field ever
    # refers to them, so a callback may keep the states and their arrays.
    scaled, ba, z = np.empty_like(data), np.empty_like(data), np.empty_like(data)
    (b, a), (zx, zy) = _blocks(ba, n, p), _blocks(z, n, p)

    trace = []
    converged = False
    for it in range(1, cfg.max_iter + 1):
        np.divide(lm, alpha, out=scaled)
        np.subtract(np.add(scaled, data, out=ba), delta, out=ba)
        q = update_q(b, a, lambda_x, lambda_y, alpha)
        tau_x, tau_y = cfg.lambda1 / alpha, cfg.lambda2 / alpha
        lambda_x, lambda_y = update_loadings(b, a, q, tau_x, tau_y)
        np.matmul(q, lambda_x.T, out=zx)
        np.matmul(q, lambda_y.T, out=zy)
        np.subtract(data, z, out=z)
        delta = update_sparse(z, scaled, alpha)
        np.subtract(z, delta, out=z)  # z is now the constraint residual
        lm = update_multipliers(lm, z, alpha)
        alpha = min(cfg.rho * alpha, cfg.alpha_max)
        state = RplsState(q, lambda_x, lambda_y, *_blocks(delta, n, p), *_blocks(lm, n, p),
                          alpha, alpha, it)
        residual = primal_residual(zx, zy)
        trace.append((it, residual))
        logger.debug("iteration %d: residual=%.6e alpha=%.3e", it, residual, alpha)
        if callback is not None:
            callback(state, residual)
        if residual < cfg.tol:
            converged = True
            break

    logger.info(
        "rpls fit %s: %s after %d iterations (residual %.3e, tol %.3e)",
        (n, p, r),
        "converged" if converged else "max_iter reached",
        state.iteration,
        trace[-1][1],
        cfg.tol,
    )
    return RplsModel(
        state=state,
        config=cfg,
        converged=converged,
        residual_trace=tuple(trace),
        x_means=x_means,
        y_means=y_means,
    )
