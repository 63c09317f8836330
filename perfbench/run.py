"""robustpls benchmark: fit, predict and the rpls CLI end to end, or traced per module.

    python3 perfbench/run.py --workload paper-sparse --seed 1 --seconds 55 --trace 0

Run it from the repository root. It imports the package from ``src/``, writes
its inputs and the CLI's outputs under ``.bench_work/`` and removes them at the
end, and prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the per-layer ones, from a run whose
calls into the package are wrapped in spans (tracer.py, layers.py).

Everything runs in this one process, without thread or process pools; BLAS
keeps its default thread count. The lines before the result record the
environment, the sample counts and the failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io as _io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from tracer import Spans, Tracer  # noqa: E402
from workloads import K, WORKLOADS, batch_rows, dataset_seeds, make_dataset, write_csvs  # noqa: E402

ROWS_PER_OP = 100      # one-row predictions per predict_row operation
MIN_FITS = 11          # so that fit_ms_tail has ten samples beyond it
GROUPS = 4             # dataset groups a gated timing takes its fastest sample from
MAX_FAILURE_LINES = 20

END_TO_END = [
    ("setup_s", "s"),
    ("fit_ms", "ms"),
    ("fit_ms_tail", "ms"),
    ("fit_iters", "count"),
    ("predict_row_us", "us"),
    ("predict_rows_per_s", "rows/s"),
    ("cli_fit_s", "s"),
    ("cli_predict_s", "s"),
    ("cli_bench_s", "s"),
    ("model_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
]

# Share of the measuring time and minimum count of each kind of operation.
PLAN_UNTRACED = {
    "fit": (0.27, MIN_FITS),
    "predict_row": (0.05, 1),
    "predict_batch": (0.10, 3),
    "cli": (0.53, 1),
    "setup": (0.05, 1),
}
PLAN_TRACED = {
    "fit": (0.30, 3),
    "fit_untraced": (0.20, 3),
    "predict_row": (0.05, 1),
    "predict_batch": (0.05, 1),
    "cli": (0.35, 1),
    "datagen": (0.05, 1),
}


def import_package():
    """Import robustpls afresh, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == "robustpls" or n.startswith("robustpls.")]:
        del sys.modules[name]
    rp = importlib.import_module("robustpls")
    importlib.import_module("robustpls.cli")  # also binds rp.io and rp.cli
    return rp


class Reference:
    """What the set-up fit of one dataset produced; later outputs must match it."""

    def __init__(self, rp, d, files, model):
        self.files = files
        self.iterations = model.state.iteration
        self.trace = np.array(model.residual_trace, dtype=np.float64)
        self.reg = rp.from_rpls(model)
        self.theta = rp.projection.regression_matrix(self.reg)
        self.y_test_hat = rp.predict_projection(self.reg, d.x_test)
        self.nmse = rp.nmse(d.y_test, self.y_test_hat)


class Bench:
    def __init__(self, workload, seed: int, work: Path, traced: bool):
        self.w = WORKLOADS[workload]
        self.work = work
        self.samples = defaultdict(list)
        self.by_group = defaultdict(lambda: defaultdict(list))  # kind -> dataset index % GROUPS -> samples
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._next = defaultdict(int)
        self.model_bytes = None  # size of the first dataset's model.json, from rpls fit

        self.data, self.refs = [], []
        for i, s in enumerate(dataset_seeds(seed, self.w.datasets)):
            rp, d, files, model = self._set_up(i, s, work / f"d{i}")
            self.data.append(d)
            self.refs.append(Reference(rp, d, files, model))
        self.rp = rp
        self.batches = [batch_rows(d, d.seed) for d in self.data]
        self.tracer = Tracer() if traced else None

    # -- bookkeeping -------------------------------------------------------

    def _dataset(self, kind: str) -> int:
        i = self._next[kind] % len(self.data)
        self._next[kind] += 1
        return i

    def _sample(self, kind: str, i: int, seconds: float) -> None:
        self.samples[kind].append(seconds)
        self.by_group[kind][i % GROUPS].append(seconds)

    def best(self, kind: str) -> float:
        """Median over dataset groups of each group's fastest sample of ``kind``."""
        return statistics.median(min(v) for v in self.by_group[kind].values())

    def _record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_LINES:
                self.failures.append(f"{what}: {'; '.join(problems)}")

    @contextlib.contextmanager
    def _traced(self, name: str):
        if self.tracer is None:
            yield
            return
        self.tracer.install()
        try:
            with self.tracer.span(name):
                yield
        finally:
            self.tracer.uninstall()

    def _guard(self, what: str, fn) -> None:
        """Run one operation; an exception counts it as failed."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - the benchmark must keep going and count it
            self._record(what, [f"{type(exc).__name__}: {exc}"])

    # -- operations ----------------------------------------------------------

    def _set_up(self, i: int, seed: int, out: Path):
        """One dataset's set-up, timed: import, generate + corrupt, write the CSVs, one warm-up fit."""
        t0 = perf_counter()
        rp = import_package()
        d = make_dataset(rp, self.w, seed)
        files = write_csvs(rp, d, out)
        model = rp.fit(d.x_train, d.y_train, rp.RplsConfig(k=K))
        self._sample("setup", i, perf_counter() - t0)
        return rp, d, files, model

    def op_setup(self) -> None:
        """Set a dataset up again, into its own directory. The package imported
        here is not used; every other operation keeps the one from the start."""
        i = self._dataset("setup")
        _, d, _, model = self._set_up(i, self.data[i].seed, self.work / f"setup-d{i}")
        self._record(
            f"setup d{i}",
            checks.identical(d.x_train, self.data[i].x_train, "regenerated x_train")
            + checks.identical(np.array(model.residual_trace, dtype=np.float64), self.refs[i].trace,
                               "residual_trace of the set-up fit"),
        )

    def op_fit(self, traced: bool = True) -> None:
        i = self._dataset("fit")
        d, ref = self.data[i], self.refs[i]
        config = self.rp.RplsConfig(k=K)
        if traced:
            with self._traced(layers.FIT):
                t0 = perf_counter()
                model = self.rp.fit(d.x_train, d.y_train, config)
                self._sample("fit", i, perf_counter() - t0)
        else:
            marks = []
            t0 = perf_counter()
            model = self.rp.fit(d.x_train, d.y_train, config, callback=lambda state, res: marks.append(perf_counter()))
            self.samples["fit_untraced"].append(perf_counter() - t0)
            self.samples["iter"].append(statistics.median(np.diff(marks)) if len(marks) > 1 else marks[0] - t0)
        trace = np.array(model.residual_trace, dtype=np.float64)
        self._record(f"fit d{i}", checks.identical(trace, ref.trace, "residual_trace of a repeated fit"))

    def op_predict_row(self) -> None:
        i = self._dataset("predict_row")
        d, ref = self.data[i], self.refs[i]
        x_test = d.x_test
        rows = [x_test[j % len(x_test)][None, :] for j in range(ROWS_PER_OP)]
        outputs = []
        with self._traced(layers.PREDICT_ROW):
            for row in rows:
                t0 = perf_counter()
                y_hat = self.rp.predict_projection(ref.reg, row)
                self._sample("predict_row", i, perf_counter() - t0)
                outputs.append(y_hat)
        for row, y_hat in zip(rows, outputs):
            self._record(
                f"predict_row d{i}",
                checks.prediction(y_hat, 1, self.w.r) or checks.agrees_with_regression_matrix(y_hat, row, ref.reg, ref.theta),
            )

    def op_predict_batch(self) -> None:
        i = self._dataset("predict_batch")
        ref, batch = self.refs[i], self.batches[i]
        with self._traced("op.predict_batch"):
            t0 = perf_counter()
            y_hat = self.rp.predict_projection(ref.reg, batch)
            self._sample("predict_batch", i, perf_counter() - t0)
        self._record(
            f"predict_batch d{i}",
            checks.prediction(y_hat, len(batch), self.w.r) or checks.agrees_with_regression_matrix(y_hat, batch, ref.reg, ref.theta),
        )

    def _cli(self, name: str, i: int, argv) -> int:
        with self._traced_span(f"cli.{name}"), contextlib.redirect_stdout(_io.StringIO()):
            t0 = perf_counter()
            rc = self.rp.cli.main(argv)
            self._sample(f"cli_{name}", i, perf_counter() - t0)
        return rc

    def _traced_span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def op_cli(self) -> None:
        i = self._dataset("cli")
        d, ref, f = self.data[i], self.refs[i], self.refs[i].files
        out = self.work / f"d{i}"
        commands = [
            ("fit", ["fit", "--x", f["x_train"], "--y", f["y_train"], "--method", "rpls", "--out-dir", str(out / "fit")]),
            ("predict", ["predict", "--model", str(out / "fit" / "model.json"), "--x", f["x_test"],
                         "--out-dir", str(out / "predict")]),
            ("bench", ["bench", "--x", f["x"], "--y", f["y"], "--outliers", self.w.outliers, "--seed", str(d.seed),
                       "--out-dir", str(out / "bench")]),
        ]
        codes = {}
        with self._traced(layers.CLI):
            for name, argv in commands:
                try:
                    codes[name] = self._cli(name, i, argv)
                except Exception as exc:  # noqa: BLE001 - counted as this command's failure
                    codes[name] = f"{type(exc).__name__}: {exc}"
        for name, code in codes.items():
            if code == 0:
                self._guard(f"rpls {name} d{i}", lambda name=name: self._check_cli(name, i, out, ref))
            else:
                self._record(f"rpls {name} d{i}", [code if isinstance(code, str) else f"exit code {code}"])

    def _check_cli(self, name, i, out, ref) -> None:
        io_mod = self.rp.io
        if name == "fit":
            if i == 0 and self.model_bytes is None:
                self.model_bytes = (out / "fit" / "model.json").stat().st_size
            trace = io_mod.load_csv(io_mod.DatasetFile(str(out / "fit" / "residual_trace.csv"), has_header=True))
            problems = checks.identical(trace, ref.trace, "residual_trace.csv of rpls fit")
        elif name == "predict":
            y_hat = io_mod.load_csv(out / "predict" / "predictions.csv")
            problems = checks.identical(y_hat, ref.y_test_hat, "predictions.csv of rpls predict")
        else:
            problems = checks.bench_report(out / "bench" / "report.json")
            y_hat = io_mod.load_csv(out / "bench" / "predictions_rpls_proj.csv")
            problems += checks.identical(y_hat, ref.y_test_hat, "RPLS_PROJ predictions of rpls bench")
        self._record(f"rpls {name} d{i}", problems)

    def op_datagen(self) -> None:
        i = self._dataset("datagen")
        with self._traced(layers.DATAGEN):
            d = make_dataset(self.rp, self.w, self.data[i].seed)
        ref = self.data[i]
        self._record(
            f"datagen d{i}",
            checks.identical(d.x_train, ref.x_train, "regenerated x_train")
            + checks.identical(d.y_train, ref.y_train, "regenerated y_train"),
        )

    # -- scheduling ----------------------------------------------------------

    def measure(self, seconds: float, plan: dict) -> None:
        """Run operations until ``seconds`` pass and every minimum count is met.

        The next operation is the kind furthest below its share of the time
        used so far, so the kinds interleave and drift affects them alike.
        """
        ops = {
            "fit": self.op_fit,
            "fit_untraced": lambda: self.op_fit(traced=False),
            "predict_row": self.op_predict_row,
            "predict_batch": self.op_predict_batch,
            "cli": self.op_cli,
            "datagen": self.op_datagen,
            "setup": self.op_setup,
        }
        used = dict.fromkeys(plan, 0.0)
        count = dict.fromkeys(plan, 0)
        start = perf_counter()
        while True:
            over = perf_counter() - start >= seconds
            pending = [k for k, (_, minimum) in plan.items() if not over or count[k] < minimum]
            if not pending:
                return
            kind = min(pending, key=lambda k: used[k] / plan[k][0])
            t0 = perf_counter()
            self._guard(kind, ops[kind])
            used[kind] += perf_counter() - t0
            count[kind] += 1


def tail(samples):
    """Highest sample with at least ten samples above it (the maximum if there
    are fewer than 11 samples), and its percentile."""
    s = sorted(samples)
    j = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[j], 100.0 * (j + 1) / len(s)


def end_to_end(b: Bench) -> tuple[dict, dict]:
    """The gated metrics. Timings other than the tail are the fastest sample
    of each group of datasets (index mod GROUPS), medianed over the groups: the
    shared host switches between a fast and a slow state for seconds at a time,
    and a plain median then moves with the share of the run spent in each
    (README.md, Steadiness). The plain medians go to the info line."""
    fit = b.samples["fit"]
    tail_value, tail_pct = tail(fit)
    values = {
        "setup_s": b.best("setup"),
        "fit_ms": b.best("fit") * 1e3,
        "fit_ms_tail": tail_value * 1e3,
        "fit_iters": statistics.fmean(ref.iterations for ref in b.refs),
        "predict_row_us": b.best("predict_row") * 1e6,
        "predict_rows_per_s": len(b.batches[0]) / b.best("predict_batch"),
        "cli_fit_s": b.best("cli_fit"),
        "cli_predict_s": b.best("cli_predict"),
        "cli_bench_s": b.best("cli_bench"),
        "model_bytes": b.model_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "samples": {k: len(v) for k, v in b.samples.items()},
        "median_s": {k: statistics.median(v) for k, v in b.samples.items()},
        "fit_ms_tail_percentile": tail_pct,
        "accuracy.nmse_test": statistics.median(ref.nmse for ref in b.refs),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, info


def per_layer(b: Bench, spans: Spans) -> tuple[dict, dict]:
    values = layers.compute(spans)
    traced = statistics.median(b.samples["fit"])
    untraced = statistics.median(b.samples["fit_untraced"])
    values["rpls.iter_ms"] = statistics.median(b.samples["iter"]) * 1e3
    values["trace.fit_untraced_ms"] = untraced * 1e3
    values["trace.overhead_ms"] = (traced - untraced) * 1e3
    values["trace.layer_sum_ms"] = float(np.median(layers.layer_sums(spans))) * 1e3
    values["accuracy.nmse_test"] = statistics.median(ref.nmse for ref in b.refs)
    absent = [name for name, _ in layers.PER_LAYER if name not in values]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER if name in values}
    info = {
        "samples": {k: len(v) for k, v in b.samples.items()},
        "spans": len(spans),
        "absent": absent,
        "trace.fit_traced_ms": traced * 1e3,
    }
    return metrics, info


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "bytes_note": "*.bytes metrics are computed from array sizes (nbytes), not measured memory traffic",
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        b = Bench(workload, seed, work, traced=trace)
        b.measure(seconds, PLAN_TRACED if trace else PLAN_UNTRACED)
        if trace:
            spans = b.tracer.spans()
            spans.save(WORK / f"spans-{workload}-seed{seed}.npz")
            metrics, info = per_layer(b, spans)
        else:
            metrics, info = end_to_end(b)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                      "environment": environment(), "info": info}))
    for line in b.failures:
        print(f"failed: {line}", file=sys.stderr)
    return {"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "robustpls" / "__init__.py").is_file():
        print(f"error: no robustpls package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
