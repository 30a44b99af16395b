from fractions import Fraction

import pytest
from hypothesis import given

from eulersym.exact import binom_int, random_rational
from tests.conftest import small_fractions


def test_binom_int_examples():
    assert binom_int(5, 2) == 10
    assert binom_int(5, -1) == 0
    assert binom_int(0, 0) == 1
    assert binom_int(5, 6) == 0


def test_binom_int_rejects_negative_upper():
    with pytest.raises(ValueError):
        binom_int(-1, 0)


def test_binom_symmetry():
    for a in range(31):
        for k in range(a + 1):
            assert binom_int(a, k) == binom_int(a, a - k)


def test_pascal_recurrence_exhaustive():
    for a in range(1, 31):
        for k in range(a + 1):
            assert binom_int(a, k) == binom_int(a - 1, k) + binom_int(a - 1, k - 1)


def test_fraction_arithmetic_examples():
    assert Fraction(1, 6) + Fraction(-1, 2) == Fraction(-1, 3)
    assert Fraction(2, 4) == Fraction(1, 2)  # normalized on construction
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / Fraction(0)


def test_fraction_normalization_invariants():
    q = Fraction(-6, -4)
    assert q.denominator > 0
    assert q == Fraction(3, 2)
    assert Fraction(0, 7) == Fraction(0, 1)


@given(small_fractions, small_fractions, small_fractions)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_random_rational_bounds(rng):
    for _ in range(200):
        q = random_rational(rng)
        assert abs(q.numerator) <= 20
        assert q.denominator <= 20


def test_random_rational_pinned_draws(rng):
    draws = [random_rational(rng) for _ in range(8)]
    assert draws == [Fraction(6), Fraction(-1, 12), Fraction(-8, 9), Fraction(8, 7),
                     Fraction(-5, 6), Fraction(-13, 14), Fraction(-2, 9), Fraction(10, 3)]
