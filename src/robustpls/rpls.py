"""Robust PLS solver: joint low-rank + sparse decomposition of X and Y.

Fits ``X = Q Lx^T + Dx`` and ``Y = Q Ly^T + Dy`` with a shared
orthonormal score matrix Q, minimizing ``|Dx|_1 + |Dy|_1 +
lambda1*||Lx||_* + lambda2*||Ly||_*`` by alternating closed-form block
updates under an augmented Lagrangian. Both constraints share one
geometrically growing penalty ``alpha``, so they act as one constraint on
``[X Y]`` with one multiplier ``[l m]``. Each iteration runs
Q -> Lx, Ly -> [Dx Dy] -> [l m] -> alpha and checks the primal residual.

``fit`` keeps each stacked quantity in one C-contiguous ``(n, p+r)``
array, the X block in the first p columns, and the loadings in one
``(p+r, k)`` array ``[Lx; Ly]``, so each step that reads both blocks is one
product or one elementwise pass, into reused buffers: ``[b a] = [l m]/alpha
+ [X Y] - [Dx Dy]``, ``z = [X Y] - Q [Lx; Ly]^T`` and the residual
``z - [Dx Dy]``. ``update_q`` and ``update_loadings`` take ``[b a]``,
``update_sparse`` z and ``[l m]/alpha``, ``update_multipliers`` the
residual, and ``primal_residual`` (the stopping test) its two column blocks.
The blocks check nothing; ``fit`` checks its inputs' shapes once.
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
    lambda_x: np.ndarray  # p x k, rows of [Lx; Ly]
    lambda_y: np.ndarray  # r x k, rows of [Lx; Ly]
    delta_x: np.ndarray   # n x p, columns of [Dx Dy]
    delta_y: np.ndarray   # n x r, columns of [Dx Dy]
    l: np.ndarray         # n x p multipliers, X constraint, columns of [l m]
    m: np.ndarray         # n x r multipliers, Y constraint, columns of [l m]
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


def update_q(ba, loadings) -> np.ndarray:
    """Score update: the orthonormal maximizer of ``<alpha [b a] [Lx; Ly], Q>``,
    which the positive factor alpha does not move, so it is left out."""
    return procrustes_orthonormal(ba @ loadings)


def update_loadings(ba, q, p: int, tau_x: float, tau_y: float) -> np.ndarray:
    """Loading updates: singular value thresholding of ``b^T Q`` and ``a^T Q``,
    the first p rows and the rest of ``[b a]^T Q``, stacked as ``[Lx; Ly]``."""
    g = ba.T @ q
    return np.concatenate((singular_value_threshold(g[:p], tau_x), singular_value_threshold(g[p:], tau_y)))


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

    Each norm is ``sqrt(sum r**2)``, summed in place, so a column block of
    a wider array is read where it lies rather than copied.
    """
    return math.sqrt(np.einsum("ij,ij->", rx, rx)) + math.sqrt(np.einsum("ij,ij->", ry, ry))


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
    # Zero loadings [Lx; Ly] start the solver: the first update_q returns
    # procrustes_orthonormal(0) = eye(n, k).
    loadings, alpha = np.zeros((p + r, cfg.k)), cfg.alpha0
    data = np.hstack((xc, yc))  # [Xc Yc]; [Dx Dy] and [l m] laid out alike
    delta, lm = np.zeros_like(data), np.zeros_like(data)
    # Step-local buffers, overwritten every iteration. No state field ever
    # refers to them, so a callback may keep the states and their arrays.
    scaled, ba, z = np.empty_like(data), np.empty_like(data), np.empty_like(data)

    trace = []
    converged = False
    for it in range(1, cfg.max_iter + 1):
        np.divide(lm, alpha, out=scaled)
        np.subtract(np.add(scaled, data, out=ba), delta, out=ba)
        q = update_q(ba, loadings)
        loadings = update_loadings(ba, q, p, cfg.lambda1 / alpha, cfg.lambda2 / alpha)
        np.subtract(data, np.matmul(q, loadings.T, out=z), out=z)
        delta = update_sparse(z, scaled, alpha)
        np.subtract(z, delta, out=z)  # z is now the constraint residual
        lm = update_multipliers(lm, z, alpha)
        alpha = min(cfg.rho * alpha, cfg.alpha_max)
        state = RplsState(q, loadings[:p], loadings[p:], delta[:, :p], delta[:, p:], lm[:, :p], lm[:, p:],
                          alpha, alpha, it)
        residual = primal_residual(z[:, :p], z[:, p:])
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
