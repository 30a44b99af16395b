"""Regenerate perfbench/expected.json, the answers every benchmark run is checked against.

    python3 perfbench/make_expected.py

Runs each workload's argv list once for two seeds and pins, per report, the
identity, m, n, mode and verdict, plus the lhs/rhs/residual term counts of
symbolic-mode reports. Numeric-mode term counts are not pinned: binding
constants before expanding legitimately changes them. Fails if a pinned
field depends on the seed. Run it only at a commit whose verdicts are
known good.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from eulersym import cli  # noqa: E402
from workloads import WORKLOADS, argv_list  # noqa: E402

PINNED = ("identity", "m", "n", "mode", "holds")
PINNED_SYMBOLIC = ("lhs_terms", "rhs_terms", "residual_terms")


def answers(workload: str, seed: int, out_path: Path) -> list[list[dict]]:
    result = []
    for argv in argv_list(workload, seed):
        cli.main(argv + ["--out", str(out_path)])
        reports = json.loads(out_path.read_text(encoding="utf-8"))
        reports = reports if isinstance(reports, list) else [reports]
        result.append([
            {key: r[key] for key in PINNED + (PINNED_SYMBOLIC if r["mode"] == "symbolic" else ())}
            for r in reports
        ])
    return result


def main() -> int:
    out_dir = HERE.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / "expected-report.json"
    expected = {}
    for workload in WORKLOADS:
        first, second = (answers(workload, seed, out_path) for seed in (0, 1))
        if first != second:
            print(f"pinned answers of {workload} depend on the seed", file=sys.stderr)
            return 1
        if not all(r["holds"] for reports in first for r in reports):
            print(f"{workload} has a spec that does not hold", file=sys.stderr)
            return 1
        expected[workload] = first
    out_path.unlink()
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
