"""The experiment scripts run their shipped configs end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

from kernelreach import load_model, load_sample_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, cases", [
    ("cwh_experiment.py", [""]),
    ("tora_experiment.py", ["noiseless_", "beta_disturbed_"]),
])
def test_script_writes_its_outputs(tmp_path, script, cases):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    for case in cases:
        samples = load_sample_csv(tmp_path / f"{case}terminal_states.csv")
        model = load_model(tmp_path / f"{case}model.json")
        assert model.size == samples.size
        boundary = (tmp_path / f"{case}boundary.csv").read_text().splitlines()
        assert boundary[0] == "x1a,x2a,x1b,x2b" and len(boundary) > 1
