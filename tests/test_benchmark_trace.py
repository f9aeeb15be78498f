"""A traced benchmark run of each workload ends in a strict, complete summary.

A traced run still exits 0 when a hooked program function is gone or a
layer metric cannot be computed; it writes ``null`` in the summary instead.
This reads the run's last two lines as ``perfbench/run.py`` prints them and
fails on any such gap.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["tora_cli", "disk_large_m", "cwh_monitor"])
def test_traced_run_reports_every_metric_as_a_number(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    *_, record_line, summary_line = result.stdout.splitlines()
    record = json.loads(record_line, parse_constant=_reject_constant)["record"]
    (ROOT / record["spans_file"]).unlink()
    summary = json.loads(summary_line, parse_constant=_reject_constant)
    assert summary["correct"] is True, record["failures"]
    assert record["missing_functions"] == []
    not_numbers = {
        name: metric["value"] for name, metric in summary["metrics"].items()
        if isinstance(metric["value"], bool) or not isinstance(metric["value"], (int, float))
    }
    assert not_numbers == {}
