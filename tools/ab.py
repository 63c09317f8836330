"""Paired A/B timing of two source trees of robustpls, in one process.

    python3 tools/ab.py --a <tree> --b <tree> [--datasets 16] [--repeats 2] [-n 5]

A tree is any directory holding ``src/robustpls``: this checkout, or a past
commit unpacked with ``git archive <rev> src | tar -x -C <dir>``. Each tree's
package is copied into a temporary directory as ``arm_a`` and ``arm_b`` (tree B
a second time as ``arm_null``) and all are imported side by side; the package
imports itself only relatively, so the copies do not meet.

The datasets of the benchmark's two gated workloads, from seed 1
(``perfbench/workloads.py``, read-only), are built once, by arm A's generator.
Per repeat and dataset, each arm takes the minimum of N fits, of N x 100 one-row
predictions and of N 1,000-row batch predictions; the arms alternate which goes
first from one repeat to the next. A pair is one
dataset in one repeat, and its ratio is A's time over B's, so a ratio above 1
means B is faster and counts as a win for B. For fit, one-row predict and batch
predict the report gives the median ratio, its quartiles and B's wins, first for
an A/A of tree B (``arm_b`` against ``arm_null``: the null) and then for A/B.

Both arms must fit every dataset in the same number of iterations; the largest
relative difference between their residual traces is reported beside it, and so
is the largest difference between their one-row and batch predictions, relative
to the largest prediction of arm B. The last line printed is the report as one
JSON object. The tool only measures; it exits 1 when iteration counts differ.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# The tool imports perfbench's workloads and the arm copies; neither leaves
# compiled files behind, so the checkout stays as it was.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import BATCH_ROWS, K, WORKLOADS, batch_rows, dataset_seeds, make_dataset  # noqa: E402

ROWS_PER_REPEAT = 100  # one-row predictions per timed call
GATED = ("paper-sparse", "nir-lowtail")  # the workloads BENCHMARK.json gates
SEED = 1
KINDS = ("fit", "predict_row", "predict_batch")


def load_arm(tree: Path, name: str, into: Path):
    """Tree ``tree``'s package, copied to ``into/name`` and imported under that name."""
    src = tree / "src" / "robustpls"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"{tree}: no src/robustpls package")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def _best(fn, count: int) -> float:
    """The fastest of ``count`` timed calls of ``fn``."""
    best = float("inf")
    for _ in range(count):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def time_arm(rp, d, batch, n: int):
    """One arm on one dataset: its three best times, its fit, and its one-row
    predictions of the test rows followed by its batch prediction, as one array."""
    config = rp.RplsConfig(k=K)
    model = rp.fit(d.x_train, d.y_train, config)
    reg = rp.from_rpls(model)
    rows = [row[None, :] for row in d.x_test]

    def predict_rows():
        for j in range(ROWS_PER_REPEAT):
            rp.predict_projection(reg, rows[j % len(rows)])

    times = {
        "fit": _best(lambda: rp.fit(d.x_train, d.y_train, config), n),
        "predict_row": _best(predict_rows, n) / ROWS_PER_REPEAT,
        "predict_batch": _best(lambda: rp.predict_projection(reg, batch), n),
    }
    predictions = np.vstack([*(rp.predict_projection(reg, row) for row in rows), rp.predict_projection(reg, batch)])
    return times, model, predictions


def summary(ratios) -> dict:
    """Median and quartiles of A/B ratios, and how many pairs B won."""
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "wins": int(np.sum(np.asarray(ratios) > 1.0)), "pairs": len(ratios)}


def compare(a, b, data, batches, repeats: int, n: int) -> dict:
    """Paired timings of packages ``a`` and ``b`` over ``data``, with their fits' and predictions' agreement."""
    ratios = {kind: [] for kind in KINDS}
    iterations_equal, trace_diff, prediction_diff = True, 0.0, 0.0
    for rep in range(repeats):
        order = (("a", a), ("b", b)) if rep % 2 == 0 else (("b", b), ("a", a))
        for d, batch in zip(data, batches):
            times, models, predictions = {}, {}, {}
            for side, rp in order:
                times[side], models[side], predictions[side] = time_arm(rp, d, batch, n)
            for kind in KINDS:
                ratios[kind].append(times["a"][kind] / times["b"][kind])
            pa, pb = predictions["a"], predictions["b"]
            prediction_diff = max(prediction_diff, float(np.abs(pa - pb).max() / np.abs(pb).max()))
            ma, mb = models["a"], models["b"]
            if ma.state.iteration != mb.state.iteration:
                iterations_equal = False
                continue
            ta, tb = np.asarray(ma.residual_trace), np.asarray(mb.residual_trace)
            with np.errstate(divide="ignore", invalid="ignore"):
                trace_diff = max(trace_diff, float(np.nanmax(np.abs(ta - tb) / np.abs(tb), initial=0.0)))
    return {
        **{kind: summary(r) for kind, r in ratios.items()},
        "iterations_equal": iterations_equal,
        "max_trace_rel_diff": trace_diff,
        "max_prediction_rel_diff": prediction_diff,
    }


def _line(label: str, result: dict) -> str:
    """One comparison as a line: each kind's median ratio, quartiles and wins, then the arms' agreement."""
    parts = []
    for kind in KINDS:
        s = result[kind]
        parts.append(f"{kind} {s['median']:.3f} ({s['q1']:.3f}-{s['q3']:.3f}) {s['wins']}/{s['pairs']} B wins")
    return f"  {label}: " + "; ".join(parts) + (
        f"; iterations {'equal' if result['iterations_equal'] else 'DIFFER'}"
        f", max trace rel diff {result['max_trace_rel_diff']:.2e}"
        f", max prediction rel diff {result['max_prediction_rel_diff']:.2e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, type=Path, help="tree of arm A (holds src/robustpls)")
    ap.add_argument("--b", required=True, type=Path, help="tree of arm B (holds src/robustpls)")
    ap.add_argument("--datasets", type=int, default=16, help="datasets per workload")
    ap.add_argument("--repeats", type=int, default=2, help="passes over the datasets, arm order alternating")
    ap.add_argument("-n", type=int, default=5, help="timed calls per arm, dataset and repeat")
    args = ap.parse_args(argv)
    if min(args.datasets, args.repeats, args.n) < 1:
        ap.error("--datasets, --repeats and -n must be at least 1")

    report = {"a": str(args.a), "b": str(args.b), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab-arms-") as tmp:
        sys.path.insert(0, tmp)
        try:
            arms = {name: load_arm(tree, name, Path(tmp))
                    for name, tree in (("arm_a", args.a), ("arm_b", args.b), ("arm_null", args.b))}
        finally:
            sys.path.remove(tmp)
        for name in GATED:
            w = WORKLOADS[name]
            data = [make_dataset(arms["arm_a"], w, s) for s in dataset_seeds(SEED, args.datasets)]
            batches = [batch_rows(d, d.seed) for d in data]
            null = compare(arms["arm_b"], arms["arm_null"], data, batches, args.repeats, args.n)
            ab = compare(arms["arm_a"], arms["arm_b"], data, batches, args.repeats, args.n)
            report["workloads"][name] = {"null": null, "ab": ab}
            print(f"{name} ({args.datasets} datasets x {args.repeats} repeats, best of {args.n}; "
                  f"ratio = A time / B time, batch {BATCH_ROWS} rows)")
            print(_line("A/A null", null))
            print(_line("A/B", ab))
    print(json.dumps(report))
    ok = all(r["ab"]["iterations_equal"] and r["null"]["iterations_equal"] for r in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
