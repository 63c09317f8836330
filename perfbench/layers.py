"""Per-layer metrics: how each is computed from the spans of a traced run.

Operation spans opened by the benchmark (``op.*``) are the roots; every span
below one belongs to it. Statistics:

- ``self_per_op``: self time of the named spans summed within one operation,
  median over operations (``rpls.update_q.self_ms`` is per fit).
- ``total_per_op``: inclusive time of the named spans summed within one
  operation, median over operations (``io.*.ms`` are per CLI cycle).
- ``count_first_op`` / ``bytes_first_op``: number of named spans, or their
  bytes, in the first operation of the kind. The first operation always uses
  the workload's first dataset, so these repeat exactly for a given seed.
- ``per_call`` / ``self_per_call``: inclusive or self time of one call,
  median over calls (optionally only calls inside one kind of operation).
- ``descendants_per_call``: spans of one name below each call of another,
  median over calls.

A metric whose spans never occur (its function was removed or is no longer
called) is reported as absent rather than as zero.
"""

from __future__ import annotations

import numpy as np

MS, US = 1e3, 1e6

FIT, PREDICT_ROW, CLI, DATAGEN = "op.fit", "op.predict_row", "op.cli", "op.datagen"


def _self_per_op(op, names, scale):
    return ("self_per_op", op, names, scale)


def _total_per_op(op, names, scale):
    return ("total_per_op", op, names, scale)


def _count(op, names):
    return ("count_first_op", op, names, 1)


def _bytes(op, names):
    return ("bytes_first_op", op, names, 1)


def _per_call(names, scale, op=None):
    return ("per_call", op, names, scale)


def _self_per_call(names, scale, op=None):
    return ("self_per_call", op, names, scale)


# (name, unit, statistic). The trace.* and rpls.iter_ms metrics come from the
# runner's own samples, not from spans.
SPAN_METRICS = [
    ("rpls.fit.self_ms", "ms", _self_per_op(FIT, ("rpls.fit",), MS)),
    ("rpls.update_q.self_ms", "ms", _self_per_op(FIT, ("rpls.update_q",), MS)),
    ("rpls.update_loadings.self_ms", "ms", _self_per_op(FIT, ("rpls.update_loadings",), MS)),
    ("rpls.update_sparse.self_ms", "ms", _self_per_op(FIT, ("rpls.update_sparse",), MS)),
    ("rpls.update_multipliers.self_ms", "ms", _self_per_op(FIT, ("rpls.update_multipliers",), MS)),
    ("rpls.primal_residual.self_ms", "ms", _self_per_op(FIT, ("rpls.primal_residual",), MS)),
    ("linalg.soft_threshold.self_ms", "ms", _self_per_op(FIT, ("linalg.soft_threshold",), MS)),
    ("linalg.soft_threshold.calls", "count", _count(FIT, ("linalg.soft_threshold",))),
    ("linalg.soft_threshold.bytes", "bytes", _bytes(FIT, ("linalg.soft_threshold",))),
    ("linalg.svd.self_ms", "ms", _self_per_op(FIT, ("linalg.svd",), MS)),
    ("linalg.svd.calls", "count", _count(FIT, ("linalg.svd",))),
    ("linalg.singular_value_threshold.self_ms", "ms", _self_per_op(FIT, ("linalg.singular_value_threshold",), MS)),
    ("linalg.procrustes_orthonormal.self_ms", "ms", _self_per_op(FIT, ("linalg.procrustes_orthonormal",), MS)),
    ("linalg.as_matrix.calls", "count", _count(FIT, ("linalg.as_matrix",))),
    ("linalg.as_matrix.self_ms", "ms", _self_per_op(FIT, ("linalg.as_matrix",), MS)),
    ("linalg.as_matrix.bytes", "bytes", _bytes(FIT, ("linalg.as_matrix",))),
    ("projection.from_rpls.ms", "ms", _per_call(("projection.from_rpls",), MS)),
    ("projection.predict_projection.self_us", "us", _self_per_call(("projection.predict_projection",), US, PREDICT_ROW)),
    ("projection.project.self_us", "us", _self_per_call(("projection.project",), US, PREDICT_ROW)),
    ("projection.svd_calls_per_predict", "count",
     ("descendants_per_call", PREDICT_ROW, ("projection.predict_projection", "linalg.svd"), 1)),
    ("baselines.fit_mlr.ms", "ms", _per_call(("baselines.fit_mlr",), MS)),
    ("baselines.fit_pcr.ms", "ms", _per_call(("baselines.fit_pcr",), MS)),
    ("baselines.fit_pls_nipals.ms", "ms", _per_call(("baselines.fit_pls_nipals",), MS)),
    ("baselines.predict.us", "us", _per_call(("baselines.predict",), US)),
    ("evaluate.run_experiment.self_ms", "ms", _self_per_call(("evaluate.run_experiment",), MS)),
    ("evaluate.nmse.us", "us", _per_call(("evaluate.nmse",), US)),
    ("evaluate.confidence_ellipse.us", "us", _per_call(("evaluate.confidence_ellipse",), US)),
    ("io.load_csv.ms", "ms", _total_per_op(CLI, ("io.load_csv",), MS)),
    ("io.load_csv.bytes", "bytes", _bytes(CLI, ("io.load_csv",))),
    ("io.write_csv.ms", "ms", _total_per_op(CLI, ("io.write_csv",), MS)),
    ("io.write_csv.bytes", "bytes", _bytes(CLI, ("io.write_csv",))),
    ("io.save_model.ms", "ms", _total_per_op(CLI, ("io.save_model",), MS)),
    ("io.load_model.ms", "ms", _total_per_op(CLI, ("io.load_model",), MS)),
    ("datagen.generate.ms", "ms", _per_call(("datagen.generate",), MS, DATAGEN)),
    ("datagen.inject.ms", "ms", _per_call(("datagen.inject_sparse", "datagen.inject_low_tail"), MS, DATAGEN)),
    ("cli.fit.self_ms", "ms", _self_per_call(("cli.fit",), MS, CLI)),
    ("cli.predict.self_ms", "ms", _self_per_call(("cli.predict",), MS, CLI)),
    ("cli.bench.self_ms", "ms", _self_per_call(("cli.bench",), MS, CLI)),
]

# Filled from the runner's samples; listed here so the full set has one home.
SAMPLE_METRICS = [
    ("rpls.iter_ms", "ms"),           # median gap between fit(callback=...) calls, untraced fits
    ("trace.fit_untraced_ms", "ms"),  # median untraced fit in the traced run
    ("trace.overhead_ms", "ms"),      # median traced fit minus median untraced fit
    ("trace.layer_sum_ms", "ms"),     # rpls.* plus linalg.* self time per traced fit, median
    ("accuracy.nmse_test", "ratio"),  # median over datasets of nmse(clean test Y, prediction)
]

PER_LAYER = [(name, unit) for name, unit, _ in SPAN_METRICS] + SAMPLE_METRICS


def layer_sums(spans, prefixes=("rpls.", "linalg.")) -> np.ndarray:
    """Per traced fit: self time of every span of the given layers, summed."""
    names = [n for n in spans.table if n.startswith(prefixes)]
    idx = spans.select(names, FIT)
    per_op = np.bincount(spans.root[idx], weights=spans.self_time[idx], minlength=len(spans))
    return per_op[spans.ops(FIT)]


def _nearest_ancestor(spans, j: int, name_id: int) -> int:
    p = spans.parent[j]
    while p >= 0 and spans.name[p] != name_id:
        p = spans.parent[p]
    return p


def compute(spans) -> dict:
    """Value of every span metric that has data; absent ones are left out."""
    out = {}
    for metric, _, (stat, op, names, scale) in SPAN_METRICS:
        if stat == "descendants_per_call":
            parent, child = names
            calls = spans.select([parent], op)
            if calls.size == 0:
                continue
            below = dict.fromkeys(calls.tolist(), 0)
            parent_id = spans.table.index(parent)
            for j in spans.select([child], op):
                p = _nearest_ancestor(spans, j, parent_id)
                if p >= 0:
                    below[p] += 1
            out[metric] = float(np.median(list(below.values())))
            continue
        idx = spans.select(names, op)
        if idx.size == 0:
            continue
        if stat == "per_call":
            out[metric] = float(np.median(spans.duration[idx])) * scale
            continue
        if stat == "self_per_call":
            out[metric] = float(np.median(spans.self_time[idx])) * scale
            continue
        weights = {
            "self_per_op": spans.self_time[idx],
            "total_per_op": spans.duration[idx],
            "count_first_op": np.ones(idx.size),
            "bytes_first_op": spans.nbytes[idx].astype(np.float64),
        }[stat]
        # Operations in which the layer never ran count as zero.
        per_op = np.bincount(spans.root[idx], weights=weights, minlength=len(spans))[spans.ops(op)]
        if stat in ("count_first_op", "bytes_first_op"):
            out[metric] = int(per_op[0])
        else:
            out[metric] = float(np.median(per_op)) * scale
    return out
