import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import strategies as st

from eulersym.mpoly import MultiPoly

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def poly_from_pairs(pairs):
    """The sum of the terms coef * prod v^e over (exponent dict, coef) pairs."""
    out = MultiPoly.zero()
    for exps, coef in pairs:
        out = out + MultiPoly({tuple(exps.items()): coef})
    return out


@st.composite
def multipolys(draw, variables=("x", "y"), max_terms=4, max_exp=3):
    pairs = draw(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, max_exp) for _ in variables)),
                small_fractions,
            ),
            max_size=max_terms,
        )
    )
    return poly_from_pairs(
        [(dict(zip(variables, exps)), coef) for exps, coef in pairs]
    )


@st.composite
def one_var_polys(draw, v="x", max_degree=12):
    coeffs = draw(st.lists(small_fractions, max_size=max_degree + 1))
    return poly_from_pairs([({v: e}, c) for e, c in enumerate(coeffs)])


def to_sympy(p: MultiPoly):
    """Independent representation of a MultiPoly as a sympy expression."""
    expr = sympy.Integer(0)
    for mono, coef in p.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for var, e in mono:
            term *= sympy.Symbol(var) ** e
        expr += term
    return sympy.expand(expr)


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def half():
    return Fraction(1, 2)
