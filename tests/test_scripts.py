import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_worker(tmp_path, workload, *flags):
    """One benchmark worker pass at seed 0 with the negative control, checked."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "0", "--control", "--out", str(tmp_path), *flags],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["failed"] == 0, payload["errors"]
    assert payload["attempted"] > 0
    assert payload["negative_control_ok"] is True


def test_benchmark_worker_traced_pass_with_control(tmp_path):
    # The tracer and the negative control look program names up by name; a
    # renamed one makes this pass fail or its control go unchecked.
    run_worker(tmp_path, "matrix", "--trace")


def test_benchmark_worker_frontier_answers(tmp_path):
    # The pinned reports of the largest symbolic thm12 specs.
    run_worker(tmp_path, "frontier")
