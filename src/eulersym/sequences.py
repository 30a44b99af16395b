"""Bernoulli numbers from their recurrence, and the numbers built from them.

B_0 = 1 with sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1. Values are cached
in a monotonically growing table; extension is batched under a lock so
readers never observe a partially filled table. The Euler numbers are
values of the Euler polynomials, E_k = 2^k E_k(1/2), so they come from the
same recurrence through E_l(0).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

from eulersym.exact import binom_int


class SequenceTable:
    """Grow-only cache of the Bernoulli numbers, extended by their recurrence."""

    def __init__(self):
        self._values: list[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()

    @property
    def high_water(self) -> int:
        return len(self._values) - 1

    def value(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError(f"sequence index must be >= 0, got {k}")
        values = self._values
        if k < len(values):
            return values[k]
        with self._lock:
            if k >= len(self._values):
                # Extend into a fresh list and swap in atomically.
                extended = list(self._values)
                for n in range(len(extended), k + 1):
                    # sum_{j=0}^{n} C(n+1, j) B_j = 0, coefficient of B_n is n+1.
                    acc = sum((binom_int(n + 1, j) * extended[j] for j in range(n)), Fraction(0))
                    extended.append(-acc / (n + 1))
                self._values = extended
            return self._values[k]


_BERNOULLI = SequenceTable()


def bernoulli_number(k: int) -> Fraction:
    """Exact Bernoulli number B_k."""
    return _BERNOULLI.value(k)


@lru_cache(maxsize=None)
def euler_number(k: int) -> Fraction:
    """Exact Euler number E_k = 2^k E_k(1/2) = sum_l C(k,l) 2^l E_l(0) (always integral)."""
    if k < 0:  # the sum below would be empty, not an error
        raise ValueError(f"sequence index must be >= 0, got {k}")
    return sum((binom_int(k, l) * 2**l * euler_at_zero(l) for l in range(k + 1)), Fraction(0))


def b_tilde(k: int) -> Fraction:
    """Scaled Bernoulli number 2^k (2^k - 1) B_k / k, defined for k >= 1."""
    if k < 1:
        raise ValueError(f"b_tilde is undefined for k={k}; requires k >= 1")
    return Fraction(2**k * (2**k - 1), k) * bernoulli_number(k)


def euler_at_zero(k: int) -> Fraction:
    """E_k(0) = 2 (1 - 2^(k+1)) B_(k+1) / (k+1)."""
    if k < 0:
        raise ValueError(f"sequence index must be >= 0, got {k}")
    return Fraction(2 * (1 - 2 ** (k + 1)), k + 1) * bernoulli_number(k + 1)
