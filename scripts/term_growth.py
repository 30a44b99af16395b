#!/usr/bin/env python3
"""Measure how side sizes and build times grow with (m, n).

Prints, for the m-fold theorem, the number of terms of each expanded side
and the time to build both; exits 1 if the two sides differ. Building
them is where the summation kernel spends its time.

Usage: python scripts/term_growth.py [--max-m 4] [--max-n 5]
"""

import argparse
import sys
import time

from eulersym.identities import thm12_sides


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()

    print(f"{'m':>3} {'n':>3} {'lhs terms':>10} {'rhs terms':>10} {'seconds':>9}")
    for m in range(1, args.max_m + 1):
        for n in range(1, args.max_n + 1):
            start = time.perf_counter()
            lhs, rhs = thm12_sides(m, n)
            elapsed = time.perf_counter() - start
            print(f"{m:>3} {n:>3} {len(lhs):>10} {len(rhs):>10} {elapsed:>9.3f}")
            if not (lhs - rhs).is_zero():
                print(f"residual nonzero at m={m}, n={n}!", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
