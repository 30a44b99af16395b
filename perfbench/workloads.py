"""The benchmark's workloads: fixed lists of `eulersym` argv vectors.

Each workload is built from the benchmark seed alone, so the same seed
gives the same inputs. The seed reaches the program only through the argv
it is given: the numeric sample points (`verify --seed`) and the lemma21
random tuples (`verify-all --seed`).

Why these three:
- frontier: the largest thm12 instances that verify symbolically in a few
  seconds; `MultiPoly` multiplication and addition dominate, so this is
  where composition-sum and kernel changes must show.
- matrix: many small specs across all nine identities; a per-polynomial or
  per-spec cost (substitute, binom_poly, polyfam, report formatting) shows
  here even when large products get faster.
- numeric: numeric-mode spot checks, which today expand both sides before
  evaluating; binding constants before expansion must show here, while
  frontier bypasses that mechanism.
"""

from __future__ import annotations

import random

WORKLOADS = ("frontier", "matrix", "numeric")

# Symbolic thm12 instances: one odd-branch (m=5) and two even-branch.
FRONTIER_MN = ((4, 5), (5, 4), (6, 4))

# Numeric-mode specs as (identity, m, n); m is None where the identity has none.
NUMERIC_SPECS = (
    ("thm12", 4, 5),
    ("thm12", 5, 4),
    ("thm11_part2", None, 8),
    ("lemma22_eq1", 3, 5),
    ("chu_vandermonde", None, 30),
)

MATRIX_MAX_M = 3
MATRIX_MAX_N = 4


def argv_list(workload: str, seed: int) -> list[list[str]]:
    """The argv vectors of one pass, without the `--out` the runner appends."""
    if workload == "frontier":
        return [
            ["verify", "--identity", "thm12", "--m", str(m), "--n", str(n), "--format", "json"]
            for m, n in FRONTIER_MN
        ]
    if workload == "matrix":
        return [
            ["verify-all", "--max-m", str(MATRIX_MAX_M), "--max-n", str(MATRIX_MAX_N),
             "--seed", str(seed), "--format", "json"]
        ]
    if workload == "numeric":
        rng = random.Random(seed)
        out = []
        for identity, m, n in NUMERIC_SPECS:
            argv = ["verify", "--identity", identity, "--n", str(n)]
            if m is not None:
                argv += ["--m", str(m)]
            out.append(argv + ["--mode", "numeric", "--seed", str(rng.randrange(2**31)),
                               "--format", "json"])
        return out
    raise ValueError(f"unknown workload {workload!r}")
