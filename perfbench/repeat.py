"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload frontier [--runs 10] [--holdout]

Seeds 0.. are the tuning seeds; --holdout uses seeds 1000.., which a change
should not have been tuned on, to recheck a claim. Each run measures for
BENCHMARK.json's run_seconds, untraced. For each end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4), and the interquartile
distance as a share of the median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOLDOUT_BASE = 1000


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--holdout", action="store_true")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for k in range(args.runs):
        seed = (HOLDOUT_BASE if args.holdout else 0) + k
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}, result {result}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}"
                                           for n, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        print(f"{name:14} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / abs(med):.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
