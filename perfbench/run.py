"""The eulersym benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {frontier,matrix,numeric} --seed N \
        --seconds T --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`. Every pass goes in process through `eulersym.cli.main` in a fresh
child interpreter (see worker.py), so each pass starts with cold caches, as
a real command does. One process at a time, with no extra threads.

The host is shared and its speed drifts by a quarter or more over minutes.
So times are scaled to a reference host speed: a wall time times
REF_SAMPLE_S over the mean calibration sample (calibrate.py) taken during it
(a pass) or just before and after it (a setup probe). A change to the
program moves the scaled time as it moves the wall time; drift of the host
cancels. The unscaled times and the mean samples are kept in the result file,
and the unscaled medians are on the metadata line.

--trace 0 reports the end-to-end metrics:
  setup_s       median over fresh interpreters of the time to import
                eulersym.cli and build its parser, scaled
  pass_s        median wall time of one pass over the workload's argv list, scaled
  peak_rss_mb   median peak resident memory of the children that ran the passes
  success_rate  specs whose reports match expected.json over specs attempted
                (1 - error rate; a spec fails if it raises or a pinned field differs)
--trace 1 spends half the time on untraced passes for a base and half on
traced passes (at least two), and reports the per-layer metrics of tracer.py
plus trace.overhead (median traced pass_s over median untraced pass_s) and
host.sample_s (mean calibration sample over the traced passes; the layer
self times are not scaled, and include the sampler's time). The count
metrics of all traced passes must agree exactly. The self times of
substitute and evaluate are written to the result file only (run.layer_times).

The result is correct only if every report matches, the sign-flipped thm12
builder is caught in symbolic and numeric mode, and (traced) the traced
passes count the same work. Seeds 0-99 are for tuning; recheck a claim on a
held-out seed (1000 and up, see repeat.py --holdout). The last stdout line is
the result; the line before it holds the run metadata. Both are also written
under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from calibrate import REF_SAMPLE_S, sample  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 10  # probes before the passes, and again after them
PROBE_SAMPLES = 10  # calibration samples just before a setup probe, and again after it
DEADLINE_S = 170.0
# Per-layer times that are exactly 0.0 s on a workload that never calls them
# (substitute on frontier and numeric, evaluate on frontier and matrix): they
# go to the result file only, with their call counts on the metric line.
RESULT_FILE_ONLY = ("mpoly.substitute.self_s", "mpoly.evaluate.self_s")
# The child starts timing before eulersym or anything it imports is loaded.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from eulersym import cli\n"
    "cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class Child:
    """Runs child interpreters against one overall deadline."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def run(self, *args: str) -> str:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=self.env, capture_output=True,
            text=True, timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout.strip().splitlines()[-1]

    def worker(self, args: argparse.Namespace, *extra: str) -> dict:
        return json.loads(self.run(str(HERE / "worker.py"), "--workload", args.workload,
                                   "--seed", str(args.seed), "--out", str(OUT), *extra))


def setup_probes(child: Child) -> list[tuple[float, float]]:
    """(setup time, mean sample around it) of SETUP_RUNS fresh interpreters."""
    probes = []
    for _ in range(SETUP_RUNS):
        before = [sample() for _ in range(PROBE_SAMPLES)]
        seconds = float(child.run("-c", SETUP_PROBE, str(SRC)))
        after = [sample() for _ in range(PROBE_SAMPLES)]
        probes.append((seconds, statistics.mean(before + after)))
    return probes


def git_commit() -> str | None:
    """HEAD of the checkout; None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def passes(child: Child, args: argparse.Namespace, budget: float, minimum: int = 1,
           trace: bool = False) -> list[dict]:
    """Cold passes, one fresh worker each, while another as long as the last fits in budget.

    The first untraced worker also runs the negative control, after its pass.
    """
    runs: list[dict] = []
    start = time.monotonic()
    last = 0.0  # wall time of the last worker, interpreter start included
    while len(runs) < minimum or time.monotonic() - start + last <= budget:
        extra = ["--trace", "--index", str(len(runs))] if trace else []
        if not trace and not runs:
            extra.append("--control")
        began = time.monotonic()
        runs.append(child.worker(args, *extra))
        last = time.monotonic() - began
    return runs


def pass_seconds(runs: list[dict]) -> float:
    """Median pass time, each scaled to the reference host speed by its own samples."""
    return statistics.median(sum(run["call_s"]) * REF_SAMPLE_S / run["sample_s"]
                             for run in runs)


def checked(runs: list[dict]) -> dict:
    """Spec and control outcomes summed over the workers."""
    return {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "errors": [error for run in runs for error in run["errors"]][:20],
        "negative_control_ok": runs[0]["negative_control_ok"],
        "call_s": [run["call_s"] for run in runs],
        "sample_s": [run["sample_s"] for run in runs],
    }


def end_to_end(child: Child, args: argparse.Namespace) -> tuple[dict, dict]:
    child.run("-c", SETUP_PROBE, str(SRC))  # warm-up: compiles bytecode once per checkout
    # Probes before and after the passes, so one slow moment does not set the median.
    setup_s = setup_probes(child)
    runs = passes(child, args, args.seconds)
    setup_s += setup_probes(child)
    run = checked(runs)
    run["setup_s"] = setup_s
    run["wall_s"] = {"setup_s": statistics.median(s for s, _ in setup_s),
                     "pass_s": statistics.median(sum(r["call_s"]) for r in runs)}
    metrics = {
        "setup_s": (statistics.median(s * REF_SAMPLE_S / mean for s, mean in setup_s), "s"),
        "pass_s": (pass_seconds(runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "success_rate": (1.0 - run["failed"] / run["attempted"], "ratio"),
    }
    return metrics, run


def per_layer(child: Child, args: argparse.Namespace) -> tuple[dict, dict]:
    base = passes(child, args, args.seconds / 2)
    traced = passes(child, args, args.seconds / 2, minimum=2, trace=True)
    first = traced[0]["metrics"]
    counts_repeat = all(t["metrics"][name] == value for t in traced[1:]
                        for name, value in first.items() if value[1] == "count")
    # Counts are those of the first traced pass; times are medians over all of them.
    metrics = {name: (value, unit) if unit == "count" else
               (statistics.median(t["metrics"][name][0] for t in traced), unit)
               for name, (value, unit) in first.items()}
    file_only = {name: metrics.pop(name)[0] for name in RESULT_FILE_ONLY}
    metrics["trace.overhead"] = (pass_seconds(traced) / pass_seconds(base), "ratio")
    samples = sum(t["samples"] for t in traced)
    metrics["host.sample_s"] = (sum(t["sample_s"] * t["samples"] for t in traced) / samples, "s")
    run = checked(base + traced)
    run.update(counts_repeat=counts_repeat, layer_times=file_only,
               call_s=[r["call_s"] for r in base], sample_s=[r["sample_s"] for r in base],
               traced_call_s=[t["call_s"] for t in traced],
               traced_sample_s=[t["sample_s"] for t in traced])
    return metrics, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "eulersym" / "cli.py").is_file():
        print(f"error: no eulersym sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    child = Child()
    metrics, run = (per_layer if args.trace else end_to_end)(child, args)
    correct = (run["failed"] == 0 and run["negative_control_ok"]
               and run.get("counts_repeat", True))
    meta = metadata(args)
    meta["error_rate"] = run["failed"] / run["attempted"]
    if "wall_s" in run:  # the unscaled medians, for reading next to the scaled metrics
        meta["wall_s"] = run["wall_s"]
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "run": run, "result": result}, fh, indent=1)
    for error in run["errors"]:
        print(f"mismatch: {error}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
