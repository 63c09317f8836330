"""Proximal operators and the orthonormal Procrustes solver.

These are the kernels used by every block update of the alternating
solver: elementwise soft thresholding (the l1 proximal operator),
singular value thresholding (the nuclear-norm proximal operator), and
the closed-form maximizer of ``<d, q>`` over matrices with orthonormal
columns. All functions are pure and deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InvalidInputError, SolverError

__all__ = [
    "SvdFactors",
    "as_matrix",
    "soft_threshold",
    "svd",
    "singular_value_threshold",
    "procrustes_orthonormal",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and validate it is finite and non-empty."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInputError(f"{name} must have at least one row and column, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def _matched_rows(x, y):
    """``x`` and ``y`` as checked matrices with the same number of rows."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    return x, y


def _check_arrays(model, axes) -> None:
    """Each field in ``axes`` has one dimension per letter, shared letters agree, and entries are finite."""
    dims = {}
    for name, letters in axes.items():
        a = getattr(model, name)
        shape = np.shape(a)
        expected = tuple(dims.setdefault(ax, size) for ax, size in zip(letters, shape))
        if len(shape) != len(letters) or shape != expected:
            raise DimensionError(f"field {name!r} has shape {shape}, which does not fit the other fields")
        if not np.isfinite(a).all():
            raise InvalidInputError(f"field {name!r} has a non-finite entry")


def _check_k(k: int, shape) -> None:
    """A latent dimension fits an (n, p) predictor matrix when ``1 <= k <= min(n, p)``."""
    m = min(shape)
    if not 1 <= k <= m:
        raise ConfigError(f"k must be in [1, {m}], got {k}")


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``u @ diag(s) @ v.T`` with orthonormal u, v columns.

    Singular values are nonincreasing. Canonical factors (the default of
    ``svd``) fix the largest-magnitude entry of each left singular vector
    to be nonnegative so factorizations are reproducible across backends;
    factors from ``svd(a, canonical_signs=False)`` carry LAPACK's signs.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(a, *, canonical_signs: bool = True) -> SvdFactors:
    """Thin singular value decomposition, by default with a deterministic sign convention.

    Parameters
    ----------
    a : array_like
        Matrix of shape (m, n); all entries must be finite.
    canonical_signs : bool, keyword-only
        With True (the default) each u column is flipped, with its v column,
        so that its largest-magnitude entry is nonnegative. With False the
        factors are LAPACK's as they come. Callers whose output is ``u @ v.T``
        or ``(u * s) @ v.T`` pass False: IEEE negation is exact, so a matched
        flip leaves those products the same bit for bit.

    Returns
    -------
    SvdFactors
        u (m, k), s (k,), v (n, k) with k = min(m, n).

    Raises
    ------
    SolverError
        If the underlying decomposition does not converge.
    """
    m = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD did not converge for {m.shape[0]}x{m.shape[1]} matrix") from exc
    if not canonical_signs:
        return SvdFactors(u=u, s=s, v=vt.T)
    # Flip signs so each u column has a nonnegative largest-magnitude entry.
    anchor = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[anchor, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u = u * signs
    vt = vt * signs[:, None]
    return SvdFactors(u=u, s=s, v=vt.T)


def soft_threshold(k, eps: float) -> np.ndarray:
    """Elementwise shrink-toward-zero operator.

    Each entry maps to ``k - eps`` if ``k > eps``, ``k + eps`` if
    ``k < -eps``, and 0 otherwise; the exact minimizer of
    ``eps*||z||_1 + 0.5*||z - k||_F**2``.

    Parameters
    ----------
    k : array_like
        Input matrix; all entries must be finite.
    eps : float
        Nonnegative threshold. ``eps == 0`` is the identity.
    """
    m = as_matrix(k, "k")
    if not math.isfinite(eps) or eps < 0:
        raise InvalidInputError(f"eps must be a nonnegative finite real, got {eps!r}")
    # m - clip(m, ±eps) is m ∓ eps outside the band and a zero inside it;
    # copysign gives each zero the sign of its input.
    out = np.clip(m, -eps, eps)
    np.subtract(m, out, out=out)
    return np.copysign(out, m, out=out)


def singular_value_threshold(a, tau: float) -> np.ndarray:
    """Apply soft thresholding to the singular values of ``a``.

    This is the proximal operator of ``tau * ||.||_*``: the output has
    singular values ``max(s_i - tau, 0)`` with the singular vectors of
    the input.
    """
    if not math.isfinite(tau) or tau < 0:
        raise InvalidInputError(f"tau must be a nonnegative finite real, got {tau!r}")
    f = svd(a, canonical_signs=False)
    s_shrunk = np.maximum(f.s - tau, 0.0)
    return (f.u * s_shrunk) @ f.v.T


def procrustes_orthonormal(d) -> np.ndarray:
    """Orthonormal-column matrix maximizing ``trace(d.T @ q)``.

    Given ``d`` of shape (n, k) with ``n >= k`` and thin SVD
    ``d = u @ diag(s) @ v.T``, the maximizer over all (n, k) matrices
    with orthonormal columns is ``q = u @ v.T``. The zero matrix maps
    to ``eye(n, k)``, because LAPACK returns identity factors for it; the
    SVD sign convention plays no part, since no matched sign flip of u and
    v changes ``u @ v.T``.
    """
    m = as_matrix(d, "d")
    n, k = m.shape
    if n < k:
        raise DimensionError(f"d must be tall or square, got shape ({n}, {k})")
    f = svd(m, canonical_signs=False)
    return f.u @ f.v.T
