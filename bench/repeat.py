"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root)::

    python3 bench/repeat.py --workloads oracle8,dense3d,synth2d --seeds 1-10 \\
        --seconds 40 --out bench_summary.json

Each run is a separate ``bench/run.py`` process, one after another.  The
summary holds, per workload and metric, the value of every run, their
median and quartiles, and the spread (third minus first quartile, as a
share of the median), plus the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def machine():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '1,4,7'")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    summary = {"machine": machine(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            completed = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            runs.append({"seed": seed, "exit": completed.returncode, "report": lines[:-1],
                         "result": result})
            print(f"{workload} seed {seed}: exit {completed.returncode}", file=sys.stderr)
        metrics = {}
        for run in runs:
            for name, metric in (run["result"] or {}).get("metrics", {}).items():
                metrics.setdefault(name, []).append(metric["value"])
        summary["workloads"][workload] = {
            "runs": runs,
            "metrics": {name: summarize(values) for name, values in metrics.items()},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if all(run["exit"] == 0 for w in summary["workloads"].values() for run in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
