#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Usage:
    python3 perfbench/spread.py [--workloads W ...] [--seeds 1-10] [--seconds S]
                                [--out FILE]

Each run is one ``perfbench/run.py`` process, run one after another.  For
every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, which is what a metric's bound in BENCHMARK.json is
compared with.  --out writes the same summary, with every run's value, as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed", file=sys.stderr)
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
        summary[workload] = {
            name: {"unit": metric["unit"],
                   **summarise([run["metrics"][name]["value"] for run in runs])}
            for name, metric in runs[0]["metrics"].items()}
        summary[workload]["failed"] = sum(run["failed"] for run in runs)

    for workload, metrics in summary.items():
        print(f"\n{workload} (failed operations: {metrics['failed']})")
        for name, s in metrics.items():
            if name != "failed":
                print(f"  {name:<34} median {s['median']:>12.6g} {s['unit']:<6} "
                      f"q1 {s['q1']:>12.6g}  q3 {s['q3']:>12.6g}  spread {s['spread']:.3f}  "
                      f"(n={s['n']})")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
