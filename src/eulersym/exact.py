"""Exact integer/rational kernel.

Python ints and fractions.Fraction already give unbounded, eagerly
normalized exact arithmetic, so this module only adds the binomial
coefficient with the k < 0 convention and a few fraction helpers shared
by the CLI and the numeric sampler.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def binom_int(a: int, k: int) -> int:
    """Binomial coefficient C(a, k) for a >= 0; zero when k < 0 or k > a."""
    if a < 0:
        raise ValueError(f"binom_int requires a >= 0, got a={a}")
    if k < 0 or k > a:
        return 0
    return math.comb(a, k)


def format_fraction(q: Fraction) -> str:
    """Render exactly as 'p' or 'p/q'; never a float."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


RANDOM_BOUND = 20  # bounds |numerator| and denominator of a random rational


def random_rational(rng: random.Random) -> Fraction:
    """Small random rational: |numerator| and denominator at most RANDOM_BOUND."""
    return Fraction(rng.randint(-RANDOM_BOUND, RANDOM_BOUND), rng.randint(1, RANDOM_BOUND))
