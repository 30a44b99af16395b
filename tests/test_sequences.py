import sys
import threading
from fractions import Fraction

import pytest
import sympy

from eulersym.exact import binom_int
from eulersym.polyfam import bernoulli_poly_shifted, euler_poly
from eulersym.sequences import (
    SequenceTable,
    b_tilde,
    bernoulli_number,
    euler_at_zero,
    euler_number,
)


def test_bernoulli_first_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)


def test_euler_first_values():
    assert euler_number(0) == 1
    assert euler_number(2) == -1
    assert euler_number(4) == 5
    assert euler_number(6) == -61


def test_b_tilde_values():
    assert b_tilde(1) == -1
    assert b_tilde(2) == 1
    assert b_tilde(3) == 0
    with pytest.raises(ValueError):
        b_tilde(0)


def test_euler_at_zero_values():
    assert euler_at_zero(0) == 1
    assert euler_at_zero(1) == Fraction(-1, 2)
    assert euler_at_zero(2) == 0


def test_bernoulli_recurrence_residuals_vanish():
    for n in range(1, 61):
        acc = sum(binom_int(n + 1, k) * bernoulli_number(k) for k in range(n + 1))
        assert acc == 0, f"B-recurrence residual nonzero at n={n}"


def test_euler_recurrence_residuals_vanish():
    for n in range(1, 61):
        acc = sum(
            binom_int(n, k) * euler_number(k)
            for k in range(n + 1)
            if (n - k) % 2 == 0
        )
        assert acc == 0, f"E-recurrence residual nonzero at n={n}"


def test_odd_bernoulli_vanish():
    for k in range(3, 60, 2):
        assert bernoulli_number(k) == 0


def test_euler_integral_and_odd_zero():
    for k in range(61):
        assert euler_number(k).denominator == 1
    for k in range(1, 60, 2):
        assert euler_number(k) == 0


def test_against_sympy_oracle():
    # sympy.bernoulli(k, 0) pins the B_1 = -1/2 convention the recurrence uses.
    for k in range(41):
        b = bernoulli_number(k)
        assert sympy.Rational(b.numerator, b.denominator) == sympy.bernoulli(k, 0)
        assert int(euler_number(k)) == sympy.euler(k)


def test_euler_at_zero_matches_polynomial_constant_term():
    for k in range(31):
        assert euler_poly(k).constant_term() == euler_at_zero(k)


def test_bernoulli_poly_at_one_half_reduction():
    for k in range(31):
        value = bernoulli_poly_shifted(k, Fraction(1, 2)).constant_term()
        assert value == (Fraction(2) ** (1 - k) - 1) * bernoulli_number(k)


def test_table_monotone_extension():
    table = SequenceTable()
    assert table.high_water == 0
    table.value(10)
    assert table.high_water >= 10
    before = table.high_water
    table.value(3)  # lookups below high water never shrink the table
    assert table.high_water == before


def test_table_rejects_bad_index():
    with pytest.raises(ValueError):
        bernoulli_number(-1)
    with pytest.raises(ValueError):
        euler_number(-1)


def test_concurrent_extension_matches_sympy():
    table = SequenceTable()
    results: list[dict[int, Fraction]] = [{} for _ in range(8)]

    def work(t):
        # Each thread asks for every eighth index, so the extensions interleave.
        for k in range(t, 81, 8):
            results[t][k] = table.value(k)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside an extension too
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    values = {k: v for r in results for k, v in r.items()}
    assert sorted(values) == list(range(81))
    for k, b in values.items():
        assert sympy.Rational(b.numerator, b.denominator) == sympy.bernoulli(k, 0)
    assert table.high_water == 80
