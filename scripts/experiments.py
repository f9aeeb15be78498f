#!/usr/bin/env python3
"""The paper's examples: sample, fit, contour and validate each shipped config.

configs/cwh_rendezvous.json is the spacecraft rendezvous, configs/tora.json
TORA under the built-in feedback and configs/tora_beta.json the same with a
0.01 Beta(2, 0.5) disturbance per step.  Each run draws the config's M
terminal states, fits with its `fit`, extracts the boundary at level 1 - tau
on its `grid`, checks the estimate against 1,000 fresh draws, and writes
<config>_terminal_states.csv, <config>_model.json and <config>_boundary.csv.

Usage: python3 scripts/experiments.py [outdir]
"""

import sys
import time
from contextlib import contextmanager
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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NAMES = ("cwh_rendezvous", "tora", "tora_beta")
FRESH_SIZE = 1000
FRESH_SEED = 90210


@contextmanager
def stage(times, name):
    start = time.perf_counter()
    yield
    times[name] = time.perf_counter() - start


def run_config(name, outdir):
    run = load_run_config(CONFIGS / f"{name}.json")
    times = {}
    with stage(times, "sample"):
        train = sample_terminal_states(run.system, run.sample_size, run.master_seed)
    with stage(times, "fit"):
        model = fit(train, run.fit)
    with stage(times, "contour"):
        values = grid_decision_values(model, run.grid)
        contour = extract_contour(values, run.grid, 1.0 - model.tau)
    with stage(times, "validate"):
        fresh = sample_terminal_states(run.system, FRESH_SIZE, FRESH_SEED).points
        rate = containment_rate(model, fresh)
        distance = hausdorff(fresh, model.support, metric=model.kernel)

    save_sample_csv(train, outdir / f"{name}_terminal_states.csv")
    save_model(model, outdir / f"{name}_model.json")
    write_contour_csv(contour, outdir / f"{name}_boundary.csv")
    print(f"{name}: M={model.size} tau={model.tau:.6f} segments={contour.segments.shape[0]} "
          f"containment={rate:.4f} hausdorff={distance:.6f} "
          f"({', '.join(f'{key} {seconds:.3f}s' for key, seconds in times.items())})")


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/experiments")
    outdir.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        run_config(name, outdir)
    print(f"outputs in {outdir}/")


if __name__ == "__main__":
    main()
