"""Proximal operators and the orthonormal Procrustes solver.

These are the kernels used by every block update of the alternating
solver: elementwise soft thresholding (the l1 proximal operator),
singular value thresholding (the nuclear-norm proximal operator), and
the closed-form maximizer of ``<d, q>`` over matrices with orthonormal
columns. All functions are pure and deterministic.
"""

import math
from types import SimpleNamespace

import numpy as np
from numpy.linalg._umath_linalg import svd_s as _svd_s

from .errors import DimensionError, InvalidInputError, SolverError, check_fields

__all__ = [
    "as_matrix",
    "soft_threshold",
    "svd",
    "singular_value_threshold",
    "procrustes_orthonormal",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-ordered 2-D float64 array, by ``_matrix``, and validate it is finite and non-empty."""
    return _finite(_matrix(a, name), name)


def _matrix(a, name: str, empty: bool = False) -> np.ndarray:
    """``a`` as a 2-D float64 array in C order, non-empty unless ``empty``, copied unless it already is
    one, its entries not yet checked. This is the one place a data input gets its type and layout, so no
    sum runs in an order set by the caller's layout."""
    m = np.asarray(a, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={m.ndim}")
    # One attribute read, 0.1 us less than indexing the shape twice.
    if not (m.size or empty):
        raise InvalidInputError(f"{name} must have at least one row and column, got shape {m.shape}")
    return m


def _finite(m: np.ndarray, name: str) -> np.ndarray:
    """``m`` itself, once every entry is finite."""
    # The reduction ``ndarray.all`` runs, without its Python-level wrapper:
    # the same verdict on every input, 0.15-0.2 us less per call on a row.
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
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
    """Each field in ``axes``, stored on ``model`` as its own read-only C-ordered float64 copy, has one
    dimension per letter, shared letters agree, each vector has an entry, and entries are finite. A model's
    vectors are its predictor and response means, so it has at least one column of each. This is the one
    place a model field is copied: no caller's array is kept, so no later write by the caller moves the
    model or leaves what it compiled from its fields stale."""
    dims = {}
    for name, letters in axes.items():
        a = np.array(getattr(model, name), dtype=np.float64, order="C")
        a.flags.writeable = False
        object.__setattr__(model, name, a)
        shape = a.shape
        expected = tuple(dims.setdefault(ax, size) for ax, size in zip(letters, shape))
        if len(shape) != len(letters) or shape != expected:
            raise DimensionError(f"field {name!r} has shape {shape}, which does not fit the other fields")
        if len(letters) == 1 and a.size == 0:
            raise DimensionError(f"field {name!r} is empty: a model needs at least one predictor "
                                 "and one response column")
        if not np.isfinite(a).all():
            raise InvalidInputError(f"field {name!r} has a non-finite entry")


def _check_k(k: int, shape) -> None:
    """A latent dimension fits an (n, p) predictor matrix when it is an integer in ``[1, min(n, p)]``.
    ``check_fields`` tests bounds before integers, so an integer out of range is named as one."""
    check_fields(SimpleNamespace(k=k), ("k",), integers=(("k", 1),), bounds=(("k", 1, min(shape)),))


def _exponent(a) -> int:
    """The ``e`` with ``max|a| * 2**-e`` in [0.5, 1), and 0 for a zero ``a``;
    powers of two scale exactly within the normal float64 range."""
    return int(np.frexp(np.abs(a).max(initial=0.0))[1])


def _no_convergence(err, flag):
    """LAPACK's failure to converge, which the SVD gufunc signals as an invalid floating-point flag."""
    raise np.linalg.LinAlgError("SVD did not converge")


# The error state numpy's thin-SVD wrapper sets. As a decorator, np.errstate
# sets it afresh on each call, so it can be re-entered, and it costs less
# per call than a new errstate in a with statement.
@np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore")
def _thin_svd(m: np.ndarray):
    """The gufunc that numpy's thin-SVD wrapper calls, without the wrapper's checks and casts, which
    would change nothing on a C float64 matrix and cost about 4 us a call."""
    return _svd_s(m, signature="d->ddd")


def svd(a, *, canonical_signs: bool = True):
    """Thin singular value decomposition, by default with a deterministic sign convention.

    Parameters
    ----------
    a : array_like
        Matrix of shape (m, n); all entries must be finite. m or n may be
        0, which gives empty factors.
    canonical_signs : bool, keyword-only
        With True (the default) each u column is flipped, with its vt row,
        so that its largest-magnitude entry is nonnegative; factorizations
        are then reproducible across backends. With False the factors are
        LAPACK's, as ``numpy.linalg.svd(a, full_matrices=False)`` returns
        them. Callers whose output is ``u @ vt`` or ``(u * s) @ vt`` pass
        False: IEEE negation is exact, so a matched flip leaves those
        products the same bit for bit.

    Returns
    -------
    (u, s, vt)
        u (m, k) and vt (k, n) with orthonormal columns and rows, and the
        nonincreasing singular values s (k,), with k = min(m, n).

    Raises
    ------
    SolverError
        If the underlying decomposition does not converge.
    """
    m = _finite(_matrix(a, "matrix", empty=True), "matrix")
    try:
        u, s, vt = _thin_svd(m)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD did not converge for {m.shape[0]}x{m.shape[1]} matrix") from exc
    if not canonical_signs or not u.size:
        return u, s, vt
    # Flip signs so each u column has a positive largest-magnitude entry:
    # a unit-norm column has no zero largest entry.
    anchor = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[anchor, np.arange(u.shape[1])])
    return u * signs, s, vt * signs[:, None]


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
    # copysign gives each zero the sign of its input. ``m.clip`` runs the
    # ufunc that ``np.clip`` runs, without its dispatch.
    out = m.clip(-eps, eps)
    np.subtract(m, out, out=out)
    return np.copysign(out, m, out=out)


def singular_value_threshold(a, tau: float) -> np.ndarray:
    """Apply soft thresholding to the singular values of ``a``.

    This is the proximal operator of ``tau * ||.||_*``: the output has
    singular values ``max(s_i - tau, 0)`` with the singular vectors of
    the input.

    A one-row or one-column block has one singular value, its Euclidean
    norm ``sigma``, so it is shrunk in closed form, without an SVD:
    ``a * (max(sigma - tau, 0) / sigma)``, and zeros for a zero block.
    ``math.hypot`` takes the norm without overflow or underflow.
    """
    if not math.isfinite(tau) or tau < 0:
        raise InvalidInputError(f"tau must be a nonnegative finite real, got {tau!r}")
    shape = np.shape(a)
    if len(shape) == 2 and min(shape) == 1:
        m = as_matrix(a)
        sigma = math.hypot(*m.ravel().tolist())
        if sigma == 0.0:
            return np.zeros_like(m)
        return m * (max(sigma - tau, 0.0) / sigma)
    u, s, vt = svd(a, canonical_signs=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def procrustes_orthonormal(d) -> np.ndarray:
    """Orthonormal-column matrix maximizing ``trace(d.T @ q)``.

    Given ``d`` of shape (n, k) with ``n >= k`` and thin SVD
    ``d = u @ diag(s) @ vt``, the maximizer over all (n, k) matrices
    with orthonormal columns is ``q = u @ vt``. The zero matrix maps
    to ``eye(n, k)``, because LAPACK returns identity factors for it; the
    SVD sign convention plays no part, since no matched sign flip of u and
    vt changes ``u @ vt``.
    """
    u, _, vt = svd(d, canonical_signs=False)  # svd checks d, once
    n, k = u.shape[0], vt.shape[1]
    if n < k:
        raise DimensionError(f"d must be tall or square, got shape ({n}, {k})")
    return u @ vt
