#!/usr/bin/env python3
"""Spacecraft rendezvous benchmark: sample, fit, contour, validate.

Runs the in-plane CWH protocol of configs/cwh_rendezvous.json (M = 100
terminal states over N = 5 steps from (-0.75, -0.75, 0, 0) with a
millimeter-scale Gaussian disturbance), fits the support classifier with
sigma = 0.1 and lambda = 1/M, extracts the position cross-section boundary
on the config's 100x100 grid, and reports containment of 1,000 fresh draws.

Usage: python3 scripts/cwh_experiment.py [outdir]
"""

import sys
import time
from pathlib import Path

from kernelreach import (
    containment_rate,
    extract_contour,
    fit,
    grid_decision_values,
    hausdorff,
    sample_terminal_states,
    save_model,
    save_sample_csv,
    write_contour_csv,
)
from kernelreach.cli import load_run_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "cwh_rendezvous.json"
FRESH_SIZE = 1000
FRESH_SEED = 90210


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/cwh")
    outdir.mkdir(parents=True, exist_ok=True)
    run = load_run_config(CONFIG)

    start = time.perf_counter()
    train = sample_terminal_states(run.system, run.sample_size, run.master_seed)
    sample_time = time.perf_counter() - start
    save_sample_csv(train, outdir / "terminal_states.csv")
    print(f"sampled M={train.size} terminal states in {sample_time:.3f}s")

    start = time.perf_counter()
    model = fit(train, run.fit)
    fit_time = time.perf_counter() - start
    save_model(model, outdir / "model.json")
    print(f"fit: lambda={model.lam:g} tau={model.tau:.6f} in {fit_time:.3f}s")

    start = time.perf_counter()
    values = grid_decision_values(model, run.grid)
    contour = extract_contour(values, run.grid, 1.0 - model.tau)
    grid_time = time.perf_counter() - start
    write_contour_csv(contour, outdir / "boundary.csv")
    print(f"evaluated {values.size} grid nodes and extracted "
          f"{contour.segments.shape[0]} boundary segments in {grid_time:.3f}s")
    print(f"fit + grid evaluation total: {fit_time + grid_time:.3f}s")

    fresh = sample_terminal_states(run.system, FRESH_SIZE, FRESH_SEED)
    rate = containment_rate(model, fresh.points)
    distance = hausdorff(fresh.points, model.support, metric=model.kernel)
    print(f"fresh containment over {fresh.size} draws: {rate:.4f}")
    print(f"kernel-metric hausdorff (fresh vs support): {distance:.6f}")
    print(f"outputs in {outdir}/")


if __name__ == "__main__":
    main()
