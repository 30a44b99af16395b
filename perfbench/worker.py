"""Child process of the benchmark: one cold pass of one workload through `eulersym.cli.main`.

    python3 perfbench/worker.py --workload W --seed S --out DIR [--trace --index K] [--control]

Every pass runs in a fresh interpreter, so each one starts with cold caches,
as a real `eulersym` command does; the imports happen before the timed calls.
During the pass a calibration sampler (calibrate.py) measures the host's
speed; its time is taken off the timed calls, and the mean sample is
reported so the runner can scale the pass to a reference host speed.
With --trace the tracer is installed first, the spans go to
DIR/spans-W-K.jsonl and the per-layer metrics are reported. With --control the
sign-flipped thm12 builder is verified after the pass, outside the timed region,
in symbolic and in numeric mode. Prints one JSON object on stdout. Every report
the CLI writes is checked against perfbench/expected.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from calibrate import Sampler  # noqa: E402
from eulersym import cli, identities  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import argv_list  # noqa: E402

CONTROL_SEED = 20090812  # sample point of the numeric negative control


class Checker:
    """Compares CLI reports with the pinned answers and counts failed specs."""

    def __init__(self, workload: str) -> None:
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)[workload]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, index: int, out_path: Path, error: str | None) -> None:
        expected = self.expected[index]
        self.attempted += len(expected)
        if error is None:
            try:
                got = json.loads(out_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                error = f"unreadable report: {exc}"
        if error is None:
            got = got if isinstance(got, list) else [got]
            if len(got) != len(expected):
                error = f"{len(got)} reports, expected {len(expected)}"
        if error is not None:
            self.failed += len(expected)
            self.errors.append(f"argv {index}: {error}")
            return
        for want, report in zip(expected, got):
            seen = {key: report.get(key) for key in want}
            if seen != want:
                self.failed += 1
                self.errors.append(f"argv {index}: got {seen}, expected {want}")


def run_pass(argvs: list[list[str]], out_path: Path, checker: Checker, sampler: Sampler,
             tracer=None) -> list[float]:
    """One pass over the argv list; returns the wall time of each CLI call.

    The sampler is started here and runs to the end of the pass; its time is
    taken off each call.
    Reading and checking the reports happens between the timed calls.
    """
    times = []
    sampler.start()
    for index, argv in enumerate(argvs):
        out_path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.request = index
        error = None
        spent = sampler.spent_s
        start = time.perf_counter()
        try:
            cli.main(argv + ["--out", str(out_path)])
        except Exception as exc:  # a spec that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start - (sampler.spent_s - spent))
        checker.check(index, out_path, error)
    return times


def negative_control() -> bool:
    """A sign-flipped thm12 builder must be reported as not holding in both modes."""
    real = identities.thm12_sides

    def flipped(m, n):
        lhs, rhs = real(m, n)
        return lhs, -rhs

    identities.thm12_sides = flipped
    try:
        symbolic = identities.verify(identities.IdentitySpec("thm12", n=3, m=3))
        numeric = identities.verify(identities.IdentitySpec(
            "thm12", n=3, m=3, mode="numeric", seed=CONTROL_SEED))
    finally:
        identities.thm12_sides = real
    return (not symbolic.holds) and symbolic.residual_terms > 0 and not numeric.holds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for reports and spans")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--index", type=int, default=0, help="traced run number")
    parser.add_argument("--control", action="store_true")
    args = parser.parse_args()
    out_path = Path(args.out) / f"report-{os.getpid()}.json"
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    checker = Checker(args.workload)
    sampler = Sampler()
    try:
        call_s = run_pass(argv_list(args.workload, args.seed), out_path, checker, sampler, tracer)
    finally:
        sampler.stop()
        out_path.unlink(missing_ok=True)
    result = {
        "call_s": call_s,
        "sample_s": sum(sampler.samples) / len(sampler.samples),
        "samples": len(sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors[:20],
    }
    if tracer is not None:
        tracer.write_spans(Path(args.out) / f"spans-{args.workload}-{args.index}.jsonl")
        result["metrics"] = tracer.metrics()
    if args.control:
        result["negative_control_ok"] = negative_control()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
