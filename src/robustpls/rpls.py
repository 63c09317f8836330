"""Robust PLS solver: joint low-rank + sparse decomposition of X and Y.

Fits ``X = Q Lx^T + Dx`` and ``Y = Q Ly^T + Dy`` with a shared
orthonormal score matrix Q, minimizing ``|Dx|_1 + |Dy|_1 +
lambda1*||Lx||_* + lambda2*||Ly||_*`` by alternating closed-form block
updates under an augmented Lagrangian with geometrically growing
penalties. Each iteration runs the update sequence
Q -> Lx -> Ly -> Dx -> Dy -> multipliers -> penalties and checks the
primal residual against the tolerance.

One iteration of ``fit`` is a single pass that builds each n-by-p
intermediate once, into buffers reused across iterations:
``b = l/alpha1 + X - Dx``, ``zx = X - Q Lx^T`` and the constraint residual
``rx = zx - Dx``, and ``a``, ``zy``, ``ry`` for Y. The block functions take
these, not the state: ``update_q`` and ``update_loadings`` take b and a,
``update_sparse`` takes zx, zy and the scaled multipliers ``l/alpha1``,
``m/alpha2``, and ``update_multipliers`` and ``primal_residual`` (the
stopping test) take rx and ry. Each runs once per iteration and checks
nothing; ``fit`` checks its inputs' shapes once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, check_fields
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
    "update_penalties",
    "primal_residual",
    "augmented_lagrangian",
    "initial_state",
    "fit",
]

logger = logging.getLogger(__name__)

CENTER_MODES = ("mean", "median", "none")


@dataclass(frozen=True)
class RplsConfig:
    """Hyperparameters of the alternating solver.

    ``k`` is the latent dimension. It is the one source of ``k`` for every
    component method in ``evaluate.METHODS``, not only the robust solver.

    ``lambda1``, ``lambda2`` and ``tol`` may be left as None, in which
    case they are resolved against the data when fitting:
    ``lambda = 1/sqrt(max(n, p))`` and
    ``tol = 1e-6 * (||X||_F + ||Y||_F)``.

    ``alpha0`` starts both penalties, ``alpha1`` (X) and ``alpha2`` (Y);
    each grows by ``rho`` per iteration up to ``alpha_max``.

    ``center`` selects the column-location estimate removed before
    fitting: "median" (default, robust to corrupted columns), "mean",
    or "none".
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
            tol = 1e-6 * (np.linalg.norm(x) + np.linalg.norm(y))
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
    """All block variables of one solver iteration."""

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


def update_q(b, a, lambda_x, lambda_y, alpha1: float, alpha2: float) -> np.ndarray:
    """Score update: the orthonormal maximizer of ``<alpha1 b Lx + alpha2 a Ly, Q>``."""
    return procrustes_orthonormal(alpha1 * (b @ lambda_x) + alpha2 * (a @ lambda_y))


def update_loadings(b, a, q, tau_x: float, tau_y: float):
    """Loading updates: singular value thresholding of ``b^T Q`` and ``a^T Q``."""
    return singular_value_threshold(b.T @ q, tau_x), singular_value_threshold(a.T @ q, tau_y)


def update_sparse(zx, zy, l_scaled, m_scaled, alpha1: float, alpha2: float):
    """Sparse-error updates: soft thresholding of ``z + l/alpha`` at ``1/alpha``."""
    return soft_threshold(zx + l_scaled, 1.0 / alpha1), soft_threshold(zy + m_scaled, 1.0 / alpha2)


def update_multipliers(l, m, rx, ry, alpha1: float, alpha2: float):
    """Gradient-ascent step on the multipliers along the constraint residuals."""
    return l + alpha1 * rx, m + alpha2 * ry


def update_penalties(alpha1: float, alpha2: float, cfg: RplsConfig):
    """Grow both penalties geometrically, capped at alpha_max."""
    return min(cfg.rho * alpha1, cfg.alpha_max), min(cfg.rho * alpha2, cfg.alpha_max)


def primal_residual(rx, ry) -> float:
    """Sum of Frobenius norms of the two constraint residuals."""
    return float(np.linalg.norm(rx) + np.linalg.norm(ry))


def augmented_lagrangian(state: RplsState, x: np.ndarray, y: np.ndarray, cfg: RplsConfig) -> float:
    """Value of the augmented Lagrangian at the current state.

    Diagnostic: every block update minimizes this exactly over its own
    block, so the value is nonincreasing within an iteration while the
    multipliers and penalties are held fixed.
    """
    rx = x - state.q @ state.lambda_x.T - state.delta_x
    ry = y - state.q @ state.lambda_y.T - state.delta_y
    sx = np.linalg.svd(state.lambda_x, compute_uv=False)
    sy = np.linalg.svd(state.lambda_y, compute_uv=False)
    return float(
        np.abs(state.delta_x).sum()
        + np.abs(state.delta_y).sum()
        + cfg.lambda1 * sx.sum()
        + cfg.lambda2 * sy.sum()
        + np.vdot(state.l, rx)
        + 0.5 * state.alpha1 * np.vdot(rx, rx)
        + np.vdot(state.m, ry)
        + 0.5 * state.alpha2 * np.vdot(ry, ry)
    )


def initial_state(n: int, p: int, r: int, cfg: RplsConfig) -> RplsState:
    """Identity-padded scores, all other blocks zero."""
    return RplsState(
        q=np.eye(n, cfg.k),
        lambda_x=np.zeros((p, cfg.k)),
        lambda_y=np.zeros((r, cfg.k)),
        delta_x=np.zeros((n, p)),
        delta_y=np.zeros((n, r)),
        l=np.zeros((n, p)),
        m=np.zeros((n, r)),
        alpha1=cfg.alpha0,
        alpha2=cfg.alpha0,
        iteration=0,
    )


def _column_center(m: np.ndarray, mode: str) -> np.ndarray:
    if mode == "mean":
        return m.mean(axis=0)
    if mode == "median":
        return np.median(m, axis=0)
    return np.zeros(m.shape[1])


def fit(x, y, config: RplsConfig, callback=None) -> RplsModel:
    """Run the alternating solver until the primal residual drops below tol.

    Parameters
    ----------
    x : array_like, shape (n, p)
    y : array_like, shape (n, r)
    config : RplsConfig
        Solver hyperparameters; ``config.k`` must not exceed min(n, p).
    callback : callable, optional
        Called as ``callback(state, residual)`` after every iteration.

    Returns
    -------
    RplsModel
        Final state, per-iteration residual trace, convergence flag and
        the column offsets removed before fitting. Hitting max_iter is
        not an error; the model is returned with ``converged=False``.
    """
    x, y = _matched_rows(x, y)
    x_means = _column_center(x, config.center)
    y_means = _column_center(y, config.center)
    xc = x - x_means
    yc = y - y_means

    cfg = config.resolve(xc, yc)
    n, p = xc.shape
    r = yc.shape[1]
    state = initial_state(n, p, r, cfg)
    # Step-local buffers, overwritten every iteration. No state field ever
    # refers to them, so a callback may keep the state's arrays.
    l_scaled, b, zx = np.empty((n, p)), np.empty((n, p)), np.empty((n, p))
    m_scaled, a, zy = np.empty((n, r)), np.empty((n, r)), np.empty((n, r))

    trace = []
    converged = False
    for it in range(1, cfg.max_iter + 1):
        alpha1, alpha2 = state.alpha1, state.alpha2
        np.divide(state.l, alpha1, out=l_scaled)
        np.divide(state.m, alpha2, out=m_scaled)
        np.subtract(np.add(l_scaled, xc, out=b), state.delta_x, out=b)
        np.subtract(np.add(m_scaled, yc, out=a), state.delta_y, out=a)
        state.q = update_q(b, a, state.lambda_x, state.lambda_y, alpha1, alpha2)
        tau_x, tau_y = cfg.lambda1 / alpha1, cfg.lambda2 / alpha2
        state.lambda_x, state.lambda_y = update_loadings(b, a, state.q, tau_x, tau_y)
        np.subtract(xc, np.matmul(state.q, state.lambda_x.T, out=zx), out=zx)
        np.subtract(yc, np.matmul(state.q, state.lambda_y.T, out=zy), out=zy)
        state.delta_x, state.delta_y = update_sparse(zx, zy, l_scaled, m_scaled, alpha1, alpha2)
        rx = np.subtract(zx, state.delta_x, out=zx)
        ry = np.subtract(zy, state.delta_y, out=zy)
        state.l, state.m = update_multipliers(state.l, state.m, rx, ry, alpha1, alpha2)
        state.alpha1, state.alpha2 = update_penalties(alpha1, alpha2, cfg)
        state.iteration = it
        residual = primal_residual(rx, ry)
        trace.append((it, residual))
        logger.debug("iteration %d: residual=%.6e alpha1=%.3e", it, residual, state.alpha1)
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
