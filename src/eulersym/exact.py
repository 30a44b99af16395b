"""Exact integer/rational kernel.

Python ints and fractions.Fraction already give unbounded, eagerly
normalized exact arithmetic, and `str` of a Fraction already reads
'p' or 'p/q', so this module only adds the binomial coefficient with the
k < 0 convention and the random rationals of the numeric sampler.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def binom_int(a: int, k: int) -> int:
    """C(a, k) for a >= 0 (math.comb raises ValueError for a < 0); zero when k < 0 or k > a."""
    return math.comb(a, k) if k >= 0 else 0


RANDOM_BOUND = 20  # bounds |numerator| and denominator of a random rational


def random_rational(rng: random.Random) -> Fraction:
    """Small random rational: |numerator| and denominator at most RANDOM_BOUND."""
    return Fraction(rng.randint(-RANDOM_BOUND, RANDOM_BOUND), rng.randint(1, RANDOM_BOUND))
