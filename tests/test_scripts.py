import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_term_growth_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "term_growth.py"), "--max-m", "2", "--max-n", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["m", "n", "lhs", "terms", "rhs", "terms", "seconds"]
    assert len(lines) == 1 + 2 * 2


def test_benchmark_worker_traced_pass_with_control(tmp_path):
    # The tracer and the negative control look program names up by name; a
    # renamed one makes this pass fail or its control go unchecked.
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", "matrix",
         "--seed", "0", "--trace", "--control", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["failed"] == 0, payload["errors"]
    assert payload["attempted"] > 0
    assert payload["negative_control_ok"] is True
