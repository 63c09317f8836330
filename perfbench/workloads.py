"""Benchmark workloads: shapes, outlier regimes and the inputs made from a seed.

Every input is drawn through the package's own generator from seeds derived
from the benchmark's ``--seed``, so the same seed gives the same arrays and
files. A workload holds several datasets so that figures which depend on the
drawn data (iteration count, fit time) are medians over datasets rather than
the value of one draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

K = 5
TRAIN_FRACTION = 0.8
BATCH_ROWS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int
    r: int
    outliers: str  # value of the CLI's --outliers flag: "sparse" or "lowtail"
    datasets: int


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
# scale-sparse runs on request but is not in BENCHMARK.json; README.md says why.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-sparse", 150, 40, 4, "sparse", 16),
        Workload("scale-sparse", 2000, 400, 8, "sparse", 3),
        Workload("nir-lowtail", 60, 401, 1, "lowtail", 16),
    )
}


def dataset_seeds(seed: int, count: int) -> list[int]:
    """Distinct per-dataset seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class Dataset:
    """One generated problem: clean data, its split, and corrupted training rows."""

    seed: int
    x: np.ndarray
    y: np.ndarray
    train: np.ndarray
    test: np.ndarray
    x_train: np.ndarray  # corrupted training predictors
    y_train: np.ndarray  # corrupted training responses

    @property
    def x_test(self) -> np.ndarray:
        return self.x[self.test]

    @property
    def y_test(self) -> np.ndarray:
        return self.y[self.test]


def make_dataset(rp, w: Workload, seed: int) -> Dataset:
    """Generate, split and corrupt exactly as ``rpls bench --seed seed`` does."""
    x, y, _ = rp.generate(rp.SynthSpec(n=w.n, p=w.p, r=w.r, seed=seed))
    perm = rp.datagen.rng_from_seed(seed).permutation(w.n)
    n_train = int(round(TRAIN_FRACTION * w.n))
    train, test = np.sort(perm[:n_train]), np.sort(perm[n_train:])
    if w.outliers == "sparse":
        spec = rp.OutlierSpec(kind=rp.SPARSE_RANDOM, seed=seed)
        x_train, y_train, _ = rp.inject_sparse(x[train], y[train], spec)
    else:
        spec = rp.OutlierSpec(kind=rp.LOW_TAIL, seed=seed)
        x_train = x[train]
        y_train, _ = rp.inject_low_tail(y[train], spec)
    return Dataset(seed, x, y, train, test, x_train, y_train)


def write_csvs(rp, d: Dataset, out: Path) -> dict:
    """Write the files the CLI reads; returns their paths by role."""
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "x_train": (out / "x_train.csv", d.x_train),
        "y_train": (out / "y_train.csv", d.y_train),
        "x_test": (out / "x_test.csv", d.x_test),
        "x": (out / "x.csv", d.x),
        "y": (out / "y.csv", d.y),
    }
    for path, matrix in files.values():
        rp.io.write_csv(path, matrix)
    return {role: str(path) for role, (path, _) in files.items()}


def batch_rows(d: Dataset, seed: int) -> np.ndarray:
    """BATCH_ROWS test rows drawn with replacement: the throughput input."""
    rows = np.random.default_rng(seed).integers(0, d.test.size, BATCH_ROWS)
    return np.ascontiguousarray(d.x_test[rows])
