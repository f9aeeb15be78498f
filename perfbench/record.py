#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one BENCH record.

Usage, from the repository root:

    python3 perfbench/record.py --label seed --seeds 1-10 \\
        --out perfbench/records/BENCH_seed.json

Each workload runs once per seed untraced and once traced (on the first
seed), one run at a time.  For every metric the record keeps the values,
their median and quartiles, and the spread: the distance between the first
and third quartile as a share of the median, from
``statistics.quantiles(values, n=4)``.  The table printed at the end flags
each end-to-end metric whose spread exceeds a third of its bound.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def record_workload(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        record, summary = run_once(workload, seed, seconds, trace=0)
        runs.append((record, summary))
        print(f"{workload} seed={seed} correct={summary['correct']} "
              f"run_s={record['metrics']['run_s']['value']:.4f}", file=sys.stderr, flush=True)
    traced_record, traced_summary = run_once(workload, seeds[0], seconds, trace=1)
    first = runs[0][0]
    metrics = {}
    for name, entry in first["metrics"].items():
        metrics[name] = {"unit": entry["unit"],
                         **summarize([r["metrics"][name]["value"] for r, _ in runs])}
    return first["environment"], {
        "sizes": first["environment"]["sizes"],
        "seeds": seeds,
        "attempted": sum(s["attempted"] for _, s in runs),
        "failed": sum(s["failed"] for _, s in runs),
        "all_correct": all(s["correct"] for _, s in runs) and traced_summary["correct"],
        "metrics": metrics,
        "per_layer": {"seed": seeds[0], **traced_record["per_layer"]},
        "digests_first_seed": first["digests"],
        "values_first_seed": first["values"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    results = {}
    for name in names:
        env, results[name] = record_workload(name, seeds, spec["run_seconds"])
    environment = {k: v for k, v in env.items() if k not in ("workload", "seed", "sizes")}
    doc = {
        "label": args.label,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "run_seconds": spec["run_seconds"],
        "environment": environment,
        "workloads": results,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':14} {'metric':18} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name, result in results.items():
        for metric, bound in bounds.items():
            entry = result["metrics"][metric]
            flag = "" if metric == "setup_s" or entry["spread"] <= bound / 3 else "  WIDE"
            print(f"{name:14} {metric:18} {entry['median']:14.6g} {entry['spread']:8.4f} "
                  f"{bound / 3:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
