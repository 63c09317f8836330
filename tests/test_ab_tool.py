"""Smoke test of the paired A/B timing tool, ``tools/ab.py``."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_tool_reports_every_field(tmp_path):
    # Both arms are this checkout; the arm copies, the CSVs and the bench outputs go to a temporary
    # directory under tmp_path.
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--a", str(ROOT), "--b", str(ROOT),
         "--datasets", "2", "--repeats", "1", "-n", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["a"] == report["b"] == str(ROOT)
    assert sorted(report["workloads"]) == ["nir-lowtail", "paper-sparse"]
    for workload in report["workloads"].values():
        assert sorted(workload) == ["ab", "null"]
        for result in workload.values():
            # The same source on both sides fits and predicts to the same bits.
            assert result["iterations_equal"] is True and result["max_trace_rel_diff"] == 0.0
            assert result["max_prediction_rel_diff"] == 0.0
            assert result["reports_equal"] is True  # and the same rpls bench report.csv
            for kind in ("fit", "predict_row", "predict_batch", "cli_bench"):
                s = result[kind]
                assert s["pairs"] == 2 and 0 <= s["wins"] <= 2
                assert 0 < s["q1"] <= s["median"] <= s["q3"]
    assert list(tmp_path.iterdir()) == []  # the arm copies, CSVs and bench outputs are gone
