"""Output checks. Each returns a list of failure messages; empty means correct.

An operation whose output fails any check counts as failed, as do exceptions
and non-zero CLI exit codes.
"""

from __future__ import annotations

import json

import numpy as np

# predict_projection and the explicit coefficient matrix compute the same
# pseudoinverse map in a different order; they agree to rounding, far inside this.
RTOL_REGRESSION_MATRIX = 1e-9


def prediction(y_hat, rows: int, r: int) -> list[str]:
    """Finite predictions of the expected shape."""
    y_hat = np.asarray(y_hat)
    if y_hat.shape != (rows, r):
        return [f"prediction has shape {y_hat.shape}, expected {(rows, r)}"]
    if not np.isfinite(y_hat).all():
        return ["prediction has non-finite entries"]
    return []


def agrees_with_regression_matrix(y_hat, x, reg, theta) -> list[str]:
    """``y_hat`` matches ``(x - x_means) @ theta + y_means`` within RTOL_REGRESSION_MATRIX."""
    ref = (x - reg.x_means) @ theta + reg.y_means
    scale = max(float(np.linalg.norm(ref)), np.finfo(float).tiny)
    err = float(np.linalg.norm(np.asarray(y_hat) - ref)) / scale
    if not err <= RTOL_REGRESSION_MATRIX:
        return [f"prediction differs from the regression matrix by {err:.3e} (relative), above {RTOL_REGRESSION_MATRIX:g}"]
    return []


def identical(got, want, what: str) -> list[str]:
    """Bit-identical arrays: same shape, dtype-normalized bytes equal."""
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    if got.tobytes() != want.tobytes():
        diff = int(np.count_nonzero(got != want))
        return [f"{what}: {diff} of {got.size} entries differ from the reference"]
    return []


def bench_report(path) -> list[str]:
    """``rpls bench``'s report.json lists every method without an error."""
    with open(path) as fh:
        methods = json.load(fh)["methods"]
    failed = {tag: m.get("error") for tag, m in methods.items() if m.get("error") is not None or m.get("nmse") is None}
    return [f"rpls bench method {tag} failed: {err}" for tag, err in failed.items()]
