from fractions import Fraction

import pytest

from eulersym.exact import binom_int
from eulersym.mpoly import MultiPoly, delta, delta_star
from eulersym.polyfam import (
    appell_poly_at,
    appell_row,
    bernoulli_poly,
    bernoulli_poly_shifted,
    bernoulli_row,
    euler_poly,
    euler_poly_shifted,
    euler_row,
)
from eulersym.sequences import bernoulli_number, euler_at_zero

X = MultiPoly.variable("x")


def test_bernoulli_poly_examples():
    assert bernoulli_poly(0) == MultiPoly.constant(1)
    assert bernoulli_poly(1) == X - Fraction(1, 2)
    assert bernoulli_poly(2) == X**2 - X + Fraction(1, 6)


def test_euler_poly_examples():
    assert euler_poly(0) == MultiPoly.constant(1)
    assert euler_poly(1) == X - Fraction(1, 2)
    assert euler_poly(2) == X**2 - X


def test_degree_and_leading_coefficient():
    for n in range(15):
        for family in (bernoulli_poly, euler_poly):
            p = family(n)
            assert p.degree_in("x") == n
            assert p.coefficient((("x", n),) if n else ()) == 1


def test_forward_difference_of_bernoulli():
    for n in range(31):
        expected = MultiPoly.zero() if n == 0 else n * X ** (n - 1)
        assert delta(bernoulli_poly(n), "x") == expected


def test_companion_operator_of_euler():
    for n in range(31):
        assert delta_star(euler_poly(n), "x") == 2 * X**n


def test_euler_shifted_examples():
    x1, x2 = MultiPoly.variable("x_1"), MultiPoly.variable("x_2")
    assert euler_poly_shifted(1, x2 - x1 + 1) == x2 - x1 + Fraction(1, 2)
    assert euler_poly_shifted(0, x2 * x1) == MultiPoly.constant(1)
    assert euler_poly_shifted(2, 1 - X) == X**2 - X


def test_euler_reflection():
    for k in range(21):
        assert euler_poly_shifted(k, 1 - X) == euler_poly(k) * ((-1) ** k)


def test_euler_from_bernoulli_halving():
    for k in range(21):
        halved = bernoulli_poly_shifted(k + 1, X / 2)
        combined = (bernoulli_poly(k + 1) - halved * 2 ** (k + 1)) * Fraction(2, k + 1)
        assert euler_poly(k) == combined


def symbolic_coeffs(l):
    return MultiPoly.variable(f"a_{l}")


def test_appell_specializations():
    # a_l = (-1)^l B_l gives A_k = B_k, and a_l = (-1)^l E_l(0) gives A_k = E_k.
    def b(l):
        return (-1) ** l * bernoulli_number(l)

    def e(l):
        return (-1) ** l * euler_at_zero(l)

    for k in range(8):
        assert appell_poly_at(b, k, X) == bernoulli_poly(k)
        assert appell_poly_at(e, k, X) == euler_poly(k)


def test_appell_symbolic_example():
    a0, a1 = MultiPoly.variable("a_0"), MultiPoly.variable("a_1")
    assert appell_poly_at(symbolic_coeffs, 1, X) == a0 * X - a1


def test_appell_out_of_range():
    with pytest.raises(ValueError):
        appell_poly_at(symbolic_coeffs, -1, X)


def test_appell_translation_property():
    # A_k(x + y) = sum_l C(k, l) x^(k-l) A_l(y), fully symbolic coefficients.
    y = MultiPoly.variable("y")
    for k in range(11):
        lhs = appell_poly_at(symbolic_coeffs, k, X + y)
        rhs = MultiPoly.zero()
        for l in range(k + 1):
            rhs = rhs + binom_int(k, l) * X ** (k - l) * appell_poly_at(symbolic_coeffs, l, y)
        assert lhs == rhs


def test_constant_terms_match_euler_at_zero():
    for k in range(31):
        assert euler_poly(k).constant_term() == euler_at_zero(k)


def test_negative_degree_rejected():
    for fn in (bernoulli_poly, euler_poly):
        with pytest.raises(ValueError):
            fn(-1)


# A multi-variable argument, a one-variable one, and constants.
ROW_ARGS = (
    MultiPoly.variable("x_2") - MultiPoly.variable("x_1") + 1,
    1 - X,
    MultiPoly.constant(Fraction(1, 2)),
    3,
)


def test_family_rows_match_their_entries():
    for arg in ROW_ARGS:
        for n in (0, 1, 7):
            for row, entry in ((euler_row, euler_poly_shifted),
                               (bernoulli_row, bernoulli_poly_shifted)):
                assert row(n, arg) == [entry(k, arg) for k in range(n + 1)]


def test_appell_row_matches_appell_poly_at_and_draws_each_coefficient_once():
    drawn = []

    def coeffs(l):
        drawn.append(l)
        return symbolic_coeffs(l)

    for arg in ROW_ARGS:
        for n in (0, 1, 6):
            drawn.clear()
            row = appell_row(coeffs, n, arg)
            assert drawn == list(range(n + 1))
            assert row == [appell_poly_at(symbolic_coeffs, k, arg) for k in range(n + 1)]


def test_rows_reject_a_negative_degree():
    for row in (euler_row, bernoulli_row):
        with pytest.raises(ValueError):
            row(-1, X)
    with pytest.raises(ValueError):
        appell_row(symbolic_coeffs, -1, X)
