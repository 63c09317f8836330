"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload twice in each trace mode on a short run and checks
   that every metric BENCHMARK.json names is emitted with its unit, that the
   count metrics (unit ``count`` or ``bytes``) repeat exactly, and that no
   operation failed.
2. Gives the output checks wrong predictions, directly and through the
   benchmark's own operations, and checks that they report failures.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = "0.5"

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok      " if condition else "FAILED  ") + message)
    if not condition:
        failures.append(message)


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_runs(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            first, second = bench(w["name"], trace), bench(w["name"], trace)
            label = f"{w['name']} --trace {trace}"
            expect(first["correct"] and second["correct"] and first["failed"] == second["failed"] == 0,
                   f"{label}: every operation passed its checks")
            for m in spec[key]:
                got = [r["metrics"].get(m["name"]) for r in (first, second)]
                expect(all(g is not None and g["unit"] == m["unit"] for g in got),
                       f"{label}: {m['name']} emitted in {m['unit']}")
                if m["unit"] in ("count", "bytes") and all(got):
                    expect(got[0]["value"] == got[1]["value"],
                           f"{label}: {m['name']} repeats exactly ({got[0]['value']} vs {got[1]['value']})")


def test_checks_reject_wrong_output() -> None:
    sys.path.insert(0, str(HERE))
    import checks
    import run

    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "selftest"
    b = run.Bench("paper-sparse", SEED, work, traced=False)
    try:
        d, ref = b.data[0], b.refs[0]
        y_hat = ref.y_test_hat
        expect(checks.prediction(y_hat, *y_hat.shape) == [], "correct prediction passes the shape check")
        expect(checks.prediction(y_hat[:, :-1], *y_hat.shape) != [], "wrong-shape prediction fails")
        bad = y_hat.copy()
        bad[0, 0] = np.nan
        expect(checks.prediction(bad, *y_hat.shape) != [], "non-finite prediction fails")
        expect(checks.agrees_with_regression_matrix(y_hat, d.x_test, ref.reg, ref.theta) == [],
               "library prediction agrees with the regression matrix")
        expect(checks.agrees_with_regression_matrix(y_hat * (1 + 1e-6), d.x_test, ref.reg, ref.theta) != [],
               "prediction off by 1e-6 relative fails the regression-matrix check")
        expect(checks.identical(np.nextafter(y_hat, np.inf), y_hat, "one ulp") != [],
               "prediction one ulp away fails the bit-identity check")

        # Through the benchmark's operations: failures are counted, not raised.
        ref.y_test_hat = y_hat + 1e-3
        b.op_cli()
        expect(b.failed == 2, f"wrong reference prediction fails rpls predict and rpls bench (failed={b.failed})")
        ref.y_test_hat = y_hat
        ref.theta = ref.theta * 1.01
        before = b.failed
        b.op_predict_row()
        expect(b.failed - before == run.ROWS_PER_OP,
               f"wrong regression matrix fails every one-row prediction (failed {b.failed - before})")
        ref.trace = ref.trace[::-1].copy()
        before = b.failed
        b.op_fit()
        expect(b.failed - before == 1, "a residual trace that differs fails the determinism check")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = work / "report.json"
    work.mkdir(parents=True)
    try:
        report.write_text(json.dumps({"methods": {"MLR": {"nmse": 0.1, "error": None},
                                                  "PCR": {"nmse": None, "error": "boom"}}}))
        expect(checks.bench_report(report) == ["rpls bench method PCR failed: boom"],
               "a method error in report.json fails the bench check")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_checks_reject_wrong_output()
    test_runs(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
