import math
import sys
import threading
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersym.exact import binom_int
from eulersym.mpoly import (
    MultiPoly,
    binom_poly,
    binom_row,
    composition_sum,
    compositions,
    delta,
    delta_star,
    polyval,
    polyvals,
    power_row,
    shift_one,
    sum_of_products,
)
from eulersym.polyfam import bernoulli_poly, euler_poly, euler_poly_shifted
from tests.conftest import multipolys, one_var_polys, small_fractions, to_sympy

X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")


# -- arithmetic ------------------------------------------------------------


def test_arith_examples():
    assert (X + 1) * (X - 1) == X**2 - 1
    p = 3 * X * Y - Fraction(1, 2)
    assert p + MultiPoly.zero() == p
    assert (X * Y) * (X * Y) == X**2 * Y**2


def test_no_zero_coefficients_stored():
    p = (X + 1) * (X - 1) - X**2 + 1
    assert p.is_zero()
    assert len(p) == 0


@settings(max_examples=60)
@given(multipolys(), multipolys(), multipolys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40)
@given(multipolys(), multipolys())
def test_multiplication_against_sympy(p, q):
    assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))


@settings(max_examples=40)
@given(small_fractions, multipolys(), multipolys(), multipolys())
def test_sum_of_products_is_the_sum(c, p, q, r):
    # The same sums with and without a leading constant pair, which seeds the map.
    for pairs in ([(p, q), (q, r), (r, -p)],
                  [(MultiPoly.constant(c), q), (p, q), (q, r), (r, -p)]):
        expected = sympy.expand(sum(to_sympy(a) * to_sympy(b) for a, b in pairs))
        assert to_sympy(sum_of_products(pairs)) == expected


C = MultiPoly.constant
# name -> pairs whose sum checks one part of the kernel
KERNEL_CASES = {
    "unit seed": [(C(1), X + Y), (X, Y)],
    "scaled seed": [(C(Fraction(1, 2)), X + Y), (C(Fraction(1, 3)), X * Y)],
    "negative seed": [(C(Fraction(-1, 2)), X + Y), (X, Y / 3)],
    "some terms cancel": [(C(1), X + Y), (C(-1), Y + X * Y)],
    "every term cancels": [(C(2), X + Y), (X + Y, C(-2))],
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_sum_of_products_kernel_cases(case):
    pairs = KERNEL_CASES[case]
    before = [(dict(p._t), p._d, dict(q._t), q._d) for p, q in pairs]
    s = sum_of_products(pairs)
    assert to_sympy(s) == sympy.expand(sum(to_sympy(p) * to_sympy(q) for p, q in pairs))
    assert all(s._t.values()), "a cancelled term is stored"
    assert math.gcd(s._d, *s._t.values()) == 1
    assert [(p._t, p._d, q._t, q._d) for p, q in pairs] == before, "an operand changed"
    if case == "every term cancels":
        assert s == MultiPoly.zero()


def test_unsupported_operand_raises_type_error():
    for op in (lambda: 1.5 - X, lambda: X - 1.5, lambda: 1.5 + X, lambda: 1.5 * X):
        with pytest.raises(TypeError):
            op()


def test_constructor_canonicalizes_monomials():
    yx = MultiPoly({(("y", 1), ("x", 1)): 1})
    assert yx == X * Y
    assert (yx - X * Y).is_zero()
    assert MultiPoly({(("x", 0),): 3}) == 3
    assert MultiPoly({(("x", 1), ("x", 1)): 1}) == X**2
    assert (X**2 * Y).coefficient((("y", 1), ("x", 1), ("x", 1), ("z", 0))) == 1
    # Monomials that are equal once canonical add up, here to zero.
    assert MultiPoly({(("x", 2),): 1, (("x", 1), ("x", 1)): -1}).is_zero()
    with pytest.raises(ValueError):
        MultiPoly({(("x", -1),): 1})


def test_uncoercible_arguments_are_rejected_by_name():
    with pytest.raises(TypeError, match="polyval.*float"):
        X.substitute("y", 1.5)
    with pytest.raises(TypeError, match="polyval.*float"):
        X.substitute("x", 1.5)
    with pytest.raises(TypeError, match="polyval.*float"):
        polyval([1, 2.5], X)
    with pytest.raises(TypeError, match="binom_poly.*float"):
        binom_poly(1.5, 2)
    with pytest.raises(TypeError, match="polyval.*float"):
        euler_poly_shifted(2, 0.5)
    with pytest.raises(TypeError, match="composition_sum.*float"):
        composition_sum([[X, 1.5]], 1)
    with pytest.raises(TypeError, match="float"):
        MultiPoly({(): 0.1})
    with pytest.raises(TypeError, match="float"):
        MultiPoly({(("x", 1),): 1.5})
    with pytest.raises(TypeError, match="float"):
        MultiPoly.constant(0.5)
    with pytest.raises(TypeError, match="evaluate.*float"):
        X.evaluate({"x": 0.1})
    with pytest.raises(TypeError, match="evaluate.*str"):
        X.evaluate({"x": "1/3"})


# -- the integer kernel ------------------------------------------------------


def test_equality_sees_every_coefficient():
    assert X / 2 != X
    assert X + 2 * Y != X + Y


def test_equal_polynomials_share_one_reduced_form():
    m = (("x", 1),)
    assert MultiPoly({m: Fraction(2, 4)}) == MultiPoly({m: Fraction(1, 2)})
    assert hash(MultiPoly({m: Fraction(2, 4)})) == hash(MultiPoly({m: Fraction(1, 2)}))
    p = (X / 3 + Y / 6) * 6
    assert p == 2 * X + Y
    assert hash(p) == hash(2 * X + Y)


@settings(max_examples=60)
@given(multipolys(variables=("y", "x", "z")))
def test_terms_view_round_trip(p):
    assert MultiPoly(p.terms) == p
    for mono, coef in p.terms.items():
        assert mono == tuple(sorted(mono)) and all(e > 0 for _, e in mono)
        assert type(coef) is Fraction and coef
        assert p.terms[mono] == coef


def test_terms_view_is_read_only():
    p = X + 1
    with pytest.raises(TypeError):
        p.terms[(("y", 1),)] = Fraction(1)
    assert p == X + 1


def test_terms_lookups_see_only_canonical_monomials():
    assert (("x", 1), ("x", 1)) not in (X * X).terms
    assert X.terms.get((("x", 70000),)) is None
    assert X.terms.get((("x", -1),)) is None


def test_exponent_overflow_raises():
    top = X**65535
    assert top.degree_in("x") == 65535
    for factor in (X, Y):
        with pytest.raises(OverflowError):
            top * factor
    with pytest.raises(OverflowError):
        MultiPoly({(("x", 65536),): 1})
    with pytest.raises(OverflowError):
        MultiPoly({(("x", 40000), ("y", 40000)): 1})


def test_concurrent_interning_gives_one_slot_per_name():
    names = [f"fresh_{k}" for k in range(40)]
    results: list[list[tuple[str, str, MultiPoly]]] = [[] for _ in range(8)]

    def work(t):
        # Each thread interns an overlapping window of the names, in its own order.
        mine = names[5 * t : 5 * t + 12][:: 1 if t % 2 else -1]
        for a, b in zip(mine, mine[1:]):
            results[t].append((a, b, (MultiPoly.variable(a) + 1) * MultiPoly.variable(b) ** 2))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the interning too
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    products = {}
    for a, b, p in (r for rs in results for r in rs):
        assert p.terms == {tuple(sorted(((a, 1), (b, 2)))): 1, ((b, 2),): 1}
        assert products.setdefault((a, b), p) == p
    assert len({MultiPoly.variable(n) for n in names}) == len(names)


# -- substitution, shift, difference operators -----------------------------


def test_substitute_examples():
    p = MultiPoly.variable("r_0") ** 2
    # n = 2: replace r_0 by (n-1) - r_1 = 1 - r_1
    r1 = MultiPoly.variable("r_1")
    assert p.substitute("r_0", 1 - r1) == r1**2 - 2 * r1 + 1
    q = X**2 + 3 * X
    assert q.substitute("x", X) == q
    assert (X * Y).substitute("z", X + 5) == X * Y


@settings(max_examples=40)
@given(multipolys(), multipolys(variables=("x", "y", "z")))
def test_substitute_against_sympy(p, q):
    expected = sympy.expand(to_sympy(p).subs(sympy.Symbol("x"), to_sympy(q)))
    assert to_sympy(p.substitute("x", q)) == expected


def test_polyval_is_the_sum_of_powers():
    # Zero, scalar and MultiPoly coefficients, at a polynomial and a scalar.
    q = X * Y - Fraction(2, 3)
    coeffs = [Fraction(1, 2), 0, Y, -3, MultiPoly.zero(), X + 1]
    for arg in (q, Fraction(5, 7)):
        expected = sum((c * arg**e for e, c in enumerate(coeffs)), MultiPoly.zero())
        assert polyval(coeffs, arg) == expected
    assert polyval([], q) == MultiPoly.zero()
    assert polyval([0, 0], q) == MultiPoly.zero()
    assert polyval([4], q) == MultiPoly.constant(4)


# A multi-variable argument, a polynomial in one variable, and constants.
ROW_ARGS = (
    MultiPoly.variable("x_2") - MultiPoly.variable("x_1") + 1,
    X * Y - Fraction(2, 3),
    MultiPoly.constant(Fraction(-5, 3)),
    7,
)


def test_power_row_is_the_powers():
    for arg in ROW_ARGS:
        for n in (0, 1, 5):
            row = power_row(arg, n)
            assert len(row) == n + 1
            assert row == [arg**e for e in range(n + 1)]
    with pytest.raises(ValueError):
        power_row(X, -1)


def test_polyvals_is_polyval_per_row():
    # Rows of different lengths, empty and zero rows among them, at one argument.
    rows = [[], [3], [0, 0], [Fraction(1, 2), 0, Y, -3, MultiPoly.zero(), X + 1], [1, X]]
    for arg in ROW_ARGS:
        values = polyvals(rows, arg)
        assert len(values) == len(rows)
        for coeffs, value in zip(rows, values):
            expected = sum((c * arg**e for e, c in enumerate(coeffs)), MultiPoly.zero())
            assert value == expected
    assert polyvals([], X) == []


def test_shift_one_examples():
    assert shift_one(X**2, "x") == X**2 + 2 * X + 1
    assert shift_one(MultiPoly.constant(5), "x") == MultiPoly.constant(5)
    assert shift_one(X * Y, "y") == X * Y + X


def test_delta_examples():
    assert delta(bernoulli_poly(2), "x") == 2 * X
    assert delta(MultiPoly.constant(7), "x").is_zero()
    assert delta(X**3, "x") == 3 * X**2 + 3 * X + 1


def test_delta_star_examples():
    assert delta_star(euler_poly(2), "x") == 2 * X**2
    assert delta_star(MultiPoly.constant(3), "x") == MultiPoly.constant(6)
    assert delta_star(X, "x") == 2 * X + 1


@settings(max_examples=40)
@given(one_var_polys(max_degree=6), one_var_polys(max_degree=6), st.fractions(max_denominator=8))
def test_difference_operators_are_linear(p, q, c):
    for op in (delta, delta_star):
        assert op(p + q, "x") == op(p, "x") + op(q, "x")
        assert op(p * c, "x") == op(p, "x") * c


def test_delta_star_kernel_trivial_on_monomials():
    # Triangularity: delta_star(x^d) = 2 x^d + lower order, so the operator
    # matrix on the monomial basis is invertible and the kernel is {0}.
    for d in range(13):
        image = delta_star(X**d, "x")
        assert image.degree_in("x") == d
        assert image.coefficient((("x", d),) if d else ()) == 2


@settings(max_examples=80)
@given(one_var_polys(max_degree=12))
def test_delta_star_injective(p):
    assert delta_star(p, "x").is_zero() == p.is_zero()


# -- evaluation ------------------------------------------------------------


def test_evaluate_examples():
    assert (X**2 - X).evaluate({"x": 3}) == 6
    assert MultiPoly.zero().evaluate({}) == 0
    r = MultiPoly.variable("r")
    assert ((r**2 - r) / 2).evaluate({"r": Fraction(1, 2)}) == Fraction(-1, 8)
    assert (X**2 - X).evaluate({"x": MultiPoly.constant(3)}) == 6
    with pytest.raises(TypeError, match="evaluate.*'x' is not a constant"):
        X.evaluate({"x": Y})


def test_evaluate_missing_variable_is_named():
    with pytest.raises(KeyError, match="y"):
        (X * Y).evaluate({"x": 1})


@settings(max_examples=40)
@given(multipolys(), multipolys(), st.fractions(max_denominator=8), st.fractions(max_denominator=8))
def test_evaluate_is_ring_homomorphism(p, q, a, b):
    assign = {"x": a, "y": b}
    assert (p * q).evaluate(assign) == p.evaluate(assign) * q.evaluate(assign)
    assert (p + q).evaluate(assign) == p.evaluate(assign) + q.evaluate(assign)


# -- parameterized binomials ----------------------------------------------


def test_binom_poly_examples():
    r = MultiPoly.variable("r")
    assert binom_poly(r, 0) == MultiPoly.constant(1)
    assert binom_poly(r, 2) == (r**2 - r) / 2
    assert binom_poly(r, -1).is_zero()


def test_binom_row_is_the_falling_factorial():
    # Each entry is u (u - 1) ... (u - k + 1) / k!, formed here entry by entry.
    for u in ROW_ARGS:
        for n in (0, 1, 6):
            row = binom_row(u, n)
            assert len(row) == n + 1
            for k, entry in enumerate(row):
                falling = math.prod((u - i for i in range(k)), start=MultiPoly.constant(1))
                assert entry == falling / math.factorial(k)
                assert binom_poly(u, k) == entry
    with pytest.raises(ValueError):
        binom_row(X, -1)
    with pytest.raises(TypeError, match="binom_row.*float"):
        binom_row(1.5, 2)


def test_binom_row_against_sympy():
    r1, r2, r3 = (MultiPoly.variable(f"r_{j}") for j in (1, 2, 3))
    u = 4 - r1 - r2 - r3
    su = to_sympy(u)
    row = binom_row(u, 6)
    for k in range(7):
        expected = sympy.expand(sympy.expand_func(sympy.binomial(su, k)))
        assert to_sympy(row[k]) == expected


def test_binom_poly_matches_integer_binomial():
    r = MultiPoly.variable("r")
    for k in range(7):
        p = binom_poly(r, k)
        for a in range(12):
            assert p.evaluate({"r": a}) == binom_int(a, k)


def test_chu_vandermonde_polynomial_identity():
    a = MultiPoly.variable("A")
    b = MultiPoly.variable("B")
    for n in range(9):
        convolution = MultiPoly.zero()
        for k in range(n + 1):
            convolution = convolution + binom_poly(a, k) * binom_poly(b, n - k)
        assert convolution == binom_poly(a + b, n)


def test_upper_negation_identity():
    r = MultiPoly.variable("R")
    for ell in range(9):
        assert binom_poly((ell - 1) - r, ell) == binom_poly(r, ell) * ((-1) ** ell)


# -- compositions ----------------------------------------------------------


def test_compositions_examples():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert len(list(compositions(3, 2))) == 4


def test_compositions_count_and_order():
    for n in range(7):
        for m in range(1, 5):
            comps = list(compositions(n, m))
            assert len(comps) == binom_int(n + m - 1, m - 1)
            assert len(set(comps)) == len(comps)
            assert comps == sorted(comps)
            assert all(sum(c) == n and len(c) == m for c in comps)


def test_compositions_rejects_bad_args():
    with pytest.raises(ValueError):
        list(compositions(-1, 2))
    with pytest.raises(ValueError):
        list(compositions(2, 0))


def _factor_entry(j: int, k: int):
    """A polynomial, scalar or zero entry, by the position (j, k)."""
    kind = (2 * j + k) % 4
    if kind == 0:
        return (X + j) ** k * Fraction(k + 1, j + 2) - Y * k
    if kind == 1:
        return Fraction(k - 2, j + 1)
    if kind == 2:
        return MultiPoly.variable(f"z_{j}") ** k + 1
    return 0 if j % 2 else MultiPoly.zero()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_composition_sum_matches_brute_force(m, n):
    factors = [[_factor_entry(j, k) for k in range(n + 1)] for j in range(m)]
    expected = MultiPoly.zero()
    for ks in compositions(n, m):
        term = MultiPoly.constant(1)
        for j, k in enumerate(ks):
            term = term * factors[j][k]
        expected = expected + term
    assert composition_sum(factors, n).terms == expected.terms


def test_composition_sum_rejects_bad_args():
    with pytest.raises(ValueError):
        composition_sum([[X]], -1)
    with pytest.raises(ValueError):
        composition_sum([], 2)


# -- serialization ---------------------------------------------------------


def test_string_golden_values():
    assert str(bernoulli_poly(2)) == "x^2 - x + 1/6"
    assert str(euler_poly(2)) == "x^2 - x"
    assert str(bernoulli_poly(0)) == "1"
    assert str(MultiPoly.zero()) == "0"
    assert str(-X + Fraction(1, 2)) == "-x + 1/2"
    assert str(Fraction(3, 2) * X**2 * Y) == "3/2*x^2*y"


@settings(max_examples=40)
@given(multipolys())
def test_string_is_deterministic(p):
    q = MultiPoly(dict(reversed(list(p.terms.items()))))
    assert str(p) == str(q)


def test_hash_consistent_with_equality():
    p = (X + 1) * (X - 1)
    q = X**2 - 1
    assert p == q
    assert hash(p) == hash(q)


@pytest.mark.parametrize("c", [1, Fraction(1, 2), 0])
def test_constant_hashes_as_the_scalar_it_equals(c):
    for p in (MultiPoly.constant(c), (X + c) - X):
        assert p == c
        assert hash(p) == hash(c)
        assert len({p, c}) == 1
