#!/usr/bin/env python3
"""TORA benchmark under the built-in feedback, with and without disturbance.

Runs configs/tora.json and configs/tora_beta.json: M = 50 closed-loop
trajectories over N = 200 control steps from the benchmark initial box,
fits the support classifier on the terminal states, and extracts the
(x1, x2) cross-section boundary on each config's grid.  The second pass
adds the 0.01 Beta(2, 0.5) per-coordinate disturbance, which visibly
inflates the estimated set.

Usage: python3 scripts/tora_experiment.py [outdir]
"""

import sys
import time
from pathlib import Path

import numpy as np

from kernelreach import (
    extract_contour,
    fit,
    grid_decision_values,
    sample_terminal_states,
    save_model,
    save_sample_csv,
    write_contour_csv,
)
from kernelreach.cli import load_run_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_case(name, config, outdir):
    run = load_run_config(CONFIGS / config)
    start = time.perf_counter()
    train = sample_terminal_states(run.system, run.sample_size, run.master_seed)
    model = fit(train, run.fit)
    elapsed = time.perf_counter() - start

    values = grid_decision_values(model, run.grid)
    contour = extract_contour(values, run.grid, 1.0 - model.tau)
    total = time.perf_counter() - start

    save_sample_csv(train, outdir / f"{name}_terminal_states.csv")
    save_model(model, outdir / f"{name}_model.json")
    write_contour_csv(contour, outdir / f"{name}_boundary.csv")

    spread = np.ptp(train.points[:, :2], axis=0)
    print(f"{name}: tau={model.tau:.4f} position spread={spread.round(4)} "
          f"segments={contour.segments.shape[0]} "
          f"(sample+fit {elapsed:.1f}s, total {total:.1f}s)")


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/tora")
    outdir.mkdir(parents=True, exist_ok=True)
    run_case("noiseless", "tora.json", outdir)
    run_case("beta_disturbed", "tora_beta.json", outdir)
    print(f"outputs in {outdir}/")


if __name__ == "__main__":
    main()
