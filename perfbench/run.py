#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload disk_large_m --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` of the checkout this file
sits in, in this one process.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and reports
the per-layer metrics.  BENCHMARK.json at the root names both sets.  stdout
ends with two JSON lines: the full record (environment, input sizes, every
stage metric, output digests, failures), then the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

_START = time.perf_counter()

# At most one BLAS thread per core this process may run on; set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))
# Compile the program's sources on every run instead of caching bytecode, so
# set-up time does not depend on whether an earlier run wrote a cache.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

# Units of every metric an untraced run computes.  BENCHMARK.json picks the
# end-to-end ones for the summary line; the record line has them all.  The
# stage metrics are not end-to-end metrics there: each applies to only some
# workloads, and on a shared 2-vCPU virtual machine their run-to-run spread
# exceeded 0.25 of the median.  error_rate reads 0 on a correct run; the
# summary line carries it as attempted and failed.
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "fit_s": "s",
    "grid_nodes_per_s": "nodes/s",
    "validate_s": "s",
    "simulate_s": "s",
    "classify_p50_us": "us",
    "classify_p99_us": "us",
    "classify_per_s": "1/s",
    "error_rate": "fraction",
}


def start_and_import_s() -> list:
    """Wall times of fresh interpreters that import the program.

    This is the start-up a CLI user pays on every call.  This process paid
    it once; fresh interpreters let it be timed SETUP_REPEATS times.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", "import numpy, scipy.linalg, kernelreach.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - began)
    return times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_metrics(iterations, workload, setup_s) -> dict:
    """Every metric of an untraced run.

    A stage's time is its median over the run's iterations, and ``run_s`` is
    the sum of those medians.  The workloads are sized so that a run holds
    some 20 to 50 iterations.
    """

    def stage(name):
        return statistics.median(it.times[name] for it in iterations)

    stages = iterations[0].times
    metrics = {
        "setup_s": setup_s,
        "run_s": sum(stage(name) for name in stages),
        "peak_rss_mb": peak_rss_mb(),
        "fit_s": stage("fit"),
    }
    if "simulate" in stages:
        metrics["simulate_s"] = stage("simulate")
    if "grid" in stages:
        metrics["grid_nodes_per_s"] = workload.grid_nodes / stage("grid")
    if "validate" in stages:
        metrics["validate_s"] = stage("validate")
    latencies = [lat for it in iterations for lat in it.latencies]
    if latencies:
        metrics["classify_p50_us"] = statistics.median(latencies) * 1e6
        metrics["classify_p99_us"] = statistics.quantiles(latencies, n=100)[98] * 1e6
        metrics["classify_per_s"] = len(latencies) / sum(latencies)
    return metrics


def measure(workload, seconds, tracer, ledger, probe):
    """Run iterations until another one would overrun ``seconds``.

    Untraced runs make at least one iteration; traced runs alternate
    untraced and traced iterations and make at least one of each.  Returns
    the completed (untraced, traced) iterations.
    """
    from workloads import Stages

    required = 1 if tracer is None else 2
    untraced, traced = [], []
    walls = []
    start = time.perf_counter()
    index = 0
    while True:
        trace_this = tracer is not None and index % 2 == 1
        stages = Stages(tracer if trace_this else None)
        ledger.iteration = index
        gc.collect()
        began = time.perf_counter()
        if trace_this:
            tracer.iteration = index
            tracer.install()
        try:
            workload.iteration(stages, ledger, probe)
        except Exception:  # a failed operation is counted, and the run goes on
            ledger.fail(ledger.current, traceback.format_exc(limit=3))
        else:
            (traced if trace_this else untraced).append(stages)
        finally:
            if trace_this:
                tracer.uninstall()
        walls.append(time.perf_counter() - began)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= required and elapsed + statistics.median(walls) > seconds:
            return untraced, traced


def run(args) -> int:
    package = ROOT / "src" / "kernelreach"
    if not (package / "__init__.py").is_file():
        print(f"error: no program sources at {package}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import kernelreach
    from checks import Ledger
    from envinfo import environment
    from layers import HOOKS, OWNERS
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS, GramProbe

    import_s = time.perf_counter() - _START
    if Path(kernelreach.__file__).resolve().parent != package.resolve():
        print(f"error: kernelreach was imported from {kernelreach.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, work)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            sizes = workload.setup()
            setup_times.append(time.perf_counter() - began)
        start_times = start_and_import_s()
        setup_s = statistics.median(start_times) + statistics.median(setup_times)

        ledger = Ledger()
        probe = GramProbe()
        tracer = Tracer(HOOKS) if args.trace else None
        untraced, traced = measure(workload, args.seconds, tracer, ledger, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not untraced or (tracer is not None and not traced):
        print("error: no iteration completed; failures:", file=sys.stderr)
        for failure in ledger.failures[:5]:
            print(f"  {failure}", file=sys.stderr)
        return 1

    record = {
        "environment": environment(ROOT, args.seed, args.workload, sizes),
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "stage_times": [it.times for it in untraced],
        "latency_samples": sum(len(it.latencies) for it in untraced),
        "setup": {"start_and_import_s": start_times, "input_s": setup_times,
                  "in_process_import_s": import_s},
        "digests": ledger.digests,
        "values": ledger.values,
        "failures": ledger.failures[:20],
    }
    if tracer is None:
        wanted = spec["end_to_end"]
        metrics = untraced_metrics(untraced, workload, setup_s)
        metrics["error_rate"] = ledger.failed / ledger.attempted
        record["metrics"] = {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        }
    else:
        wanted = spec["per_layer"]
        metrics = per_layer_metrics(
            tracer,
            [m["name"] for m in wanted],
            OWNERS,
            [sum(it.times.values()) for it in traced],
            [sum(it.times.values()) for it in untraced],
        )
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        spans_file.write_text(json.dumps([asdict(s) for s in tracer.spans]) + "\n",
                              encoding="utf-8")
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["missing_functions"] = tracer.missing
        record["per_layer"] = {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        }

    summary = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
