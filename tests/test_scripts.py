"""The experiment script runs the shipped configs end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

from kernelreach import load_model, load_sample_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def experiments(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("experiments")
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "experiments.py"), str(outdir)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return outdir, result.stdout.splitlines()


@pytest.mark.parametrize("name", ["cwh_rendezvous", "tora", "tora_beta"])
def test_experiment_writes_its_outputs_and_summary(experiments, name):
    outdir, printed = experiments
    samples = load_sample_csv(outdir / f"{name}_terminal_states.csv")
    model = load_model(outdir / f"{name}_model.json")
    assert model.size == samples.size
    boundary = (outdir / f"{name}_boundary.csv").read_text().splitlines()
    assert boundary[0] == "x1a,x2a,x1b,x2b" and len(boundary) > 1
    assert any(line.startswith(f"{name}: ") and "containment=" in line for line in printed)
