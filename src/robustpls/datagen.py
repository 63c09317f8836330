"""Synthetic data generation and outlier injection.

Predictors are built from a small number of latent factors, with a
block of extra columns formed as random linear combinations of the
others to simulate multicollinearity. Responses are sparse linear
functions of the predictors plus Gaussian noise. Two corruption
regimes are provided: sign-symmetric sparse spikes hitting a random
subset of entries, and a multiplicative blow-up of each response
column's lower tail.

All randomness flows through numpy's Philox counter-based generator,
so identical seeds reproduce identical streams on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, check_fields
from .linalg import as_matrix, svd

__all__ = [
    "SPARSE_RANDOM",
    "LOW_TAIL",
    "SynthSpec",
    "OutlierSpec",
    "SynthTruth",
    "CorruptionMask",
    "rng_from_seed",
    "generate",
    "inject_sparse",
    "inject_low_tail",
]

SPARSE_RANDOM = "SPARSE_RANDOM"
LOW_TAIL = "LOW_TAIL"


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based deterministic generator used by every sampler here.

    Raises ConfigError unless ``seed`` is a nonnegative integer.
    """
    check_fields(SimpleNamespace(seed=seed), integers=(("seed", 0),))
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class SynthSpec:
    """Shape and noise parameters of one synthetic regression problem."""

    n: int = 150
    p: int = 40
    r: int = 4
    k_true: int = 5
    n_collinear: int = 10
    noise_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_fields(
            self, ("noise_sigma",),
            integers=(("n", 1), ("p", 1), ("r", 1), ("k_true", 1), ("n_collinear", 0), ("seed", 0)),
        )
        # x is n rows of p - n_collinear independent columns and their mixes.
        if self.k_true > min(self.n, self.p - self.n_collinear):
            raise ConfigError(
                f"k_true={self.k_true} must be at most min(n, p - n_collinear) for an x of rank k_true, "
                f"got n={self.n}, p={self.p}, n_collinear={self.n_collinear}"
            )
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be nonnegative, got {self.noise_sigma!r}")


@dataclass(frozen=True)
class OutlierSpec:
    """Parameters of one corruption regime (kind selects which)."""

    kind: str
    fraction: float = 0.02
    magnitude: float = 10.0
    tail_fraction: float = 0.10
    tail_multiplier: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (SPARSE_RANDOM, LOW_TAIL):
            raise ConfigError(f"kind must be {SPARSE_RANDOM} or {LOW_TAIL}, got {self.kind!r}")
        check_fields(self, ("fraction", "magnitude", "tail_fraction", "tail_multiplier"), integers=(("seed", 0),))
        for name in ("fraction", "tail_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v!r}")
        if self.tail_multiplier == 0:
            raise ConfigError("tail_multiplier must be nonzero")


@dataclass(frozen=True, eq=False)
class SynthTruth:
    """Ground truth behind one generated dataset."""

    q_true: np.ndarray      # n x k_true, orthonormal columns
    loadings: np.ndarray    # p x k_true, x = q_true @ loadings.T
    theta_true: np.ndarray  # p x r


@dataclass(frozen=True, eq=False)
class CorruptionMask:
    """Boolean masks of the entries selected for corruption."""

    x: np.ndarray | None
    y: np.ndarray


def generate(spec: SynthSpec):
    """Draw one synthetic (x, y) pair with its ground truth.

    Deterministic in ``spec.seed``. The predictor matrix has exact rank
    ``k_true``; responses are linear in a random subset of predictors
    with additive Gaussian noise of scale ``noise_sigma``.

    Returns
    -------
    (x, y, truth) : (ndarray (n, p), ndarray (n, r), SynthTruth)
    """
    rng = rng_from_seed(spec.seed)
    n, p, r, k = spec.n, spec.p, spec.r, spec.k_true
    p_base = p - spec.n_collinear

    factors = rng.standard_normal((n, k))
    base_loadings = rng.standard_normal((p_base, k)) / np.sqrt(k)
    x_base = factors @ base_loadings.T
    # With n_collinear = 0 the mix has no columns: its draw takes nothing from the stream.
    mix = rng.standard_normal((p_base, spec.n_collinear)) / np.sqrt(p_base)
    x = np.hstack([x_base, x_base @ mix])

    n_active = max(1, p // 10)
    theta = np.zeros((p, r))
    for j in range(r):
        support = rng.choice(p, size=n_active, replace=False)
        theta[support, j] = rng.standard_normal(n_active)
    y = x @ theta
    if spec.noise_sigma > 0:
        y = y + spec.noise_sigma * rng.standard_normal((n, r))

    u, s, vt = svd(x)
    truth = SynthTruth(
        q_true=u[:, :k],
        loadings=vt.T[:, :k] * s[:k],
        theta_true=theta,
    )
    return x, y, truth


def _corrupt_sparse(m: np.ndarray, fraction: float, magnitude: float, rng) -> tuple:
    out = m.copy()
    mask = np.zeros(m.shape, dtype=bool)
    n_hit = int(round(fraction * m.size))
    if n_hit == 0:
        return out, mask
    flat = rng.choice(m.size, size=n_hit, replace=False)
    signs = rng.choice(np.array([-1.0, 1.0]), size=n_hit)
    stds = m.std(axis=0)
    rows, cols = np.unravel_index(flat, m.shape)
    out[rows, cols] += signs * magnitude * stds[cols]
    mask[rows, cols] = True
    return out, mask


def inject_sparse(x, y, spec: OutlierSpec):
    """Add sign-symmetric spikes to a random subset of entries of x and y.

    Exactly ``round(fraction * size)`` entries of each matrix are hit;
    each receives ``+-magnitude`` times its column's standard deviation.

    Returns
    -------
    (x2, y2, mask) : corrupted copies plus a CorruptionMask of hit entries.
    """
    if spec.kind != SPARSE_RANDOM:
        raise ConfigError(f"inject_sparse requires kind={SPARSE_RANDOM}, got {spec.kind!r}")
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    rng = rng_from_seed(spec.seed)
    x2, mask_x = _corrupt_sparse(x, spec.fraction, spec.magnitude, rng)
    y2, mask_y = _corrupt_sparse(y, spec.fraction, spec.magnitude, rng)
    return x2, y2, CorruptionMask(x=mask_x, y=mask_y)


def inject_low_tail(y, spec: OutlierSpec):
    """Multiply each response column's smallest values by tail_multiplier.

    Per column, the ``floor(tail_fraction * n)`` rows with the smallest
    values are scaled; ties at the cutoff resolve to the lower row index.

    Returns
    -------
    (y2, mask) : corrupted copy plus a CorruptionMask (mask.x is None).
    """
    if spec.kind != LOW_TAIL:
        raise ConfigError(f"inject_low_tail requires kind={LOW_TAIL}, got {spec.kind!r}")
    y = as_matrix(y, "y")
    out = y.copy()
    mask = np.zeros(y.shape, dtype=bool)
    n_hit = int(np.floor(spec.tail_fraction * y.shape[0]))
    for j in range(y.shape[1]):
        order = np.argsort(y[:, j], kind="stable")
        rows = order[:n_hit]
        out[rows, j] = y[rows, j] * spec.tail_multiplier
        mask[rows, j] = True
    return out, CorruptionMask(x=None, y=mask)
