"""Bernoulli, Euler, and generic Appell-type polynomials as MultiPoly values.

All three are Appell sequences, A_k(t) = sum_l C(k,l) c_l t^(k-l) with
c_l = A_l(0): c_l = B_l for Bernoulli, c_l = E_l(0) for Euler, and
c_l = (-1)^l a_l for a coefficient sequence l -> a_l. `_appell_coeffs`
expands this rule into monomial-basis coefficients (cached per degree for
B and E); `mpoly.polyval` composes them with a polynomial argument. A row
[A_0(arg), ..., A_n(arg)] is composed by `mpoly.polyvals`, from one power
table of arg.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from eulersym.exact import binom_int
from eulersym.mpoly import MultiPoly, Scalar, polyval, polyvals
from eulersym.sequences import bernoulli_number, euler_at_zero


def _appell_coeffs(at_zero: Callable[[int], Fraction | MultiPoly], k: int) -> list:
    """Monomial-basis coefficients of A_k, index = power: C(k,l) A_l(0) at k - l."""
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    return [at_zero(k - e) * binom_int(k, e) for e in range(k + 1)]


@lru_cache(maxsize=None)
def _bernoulli_coeffs(n: int) -> tuple[Fraction, ...]:
    return tuple(_appell_coeffs(bernoulli_number, n))


@lru_cache(maxsize=None)
def _euler_coeffs(n: int) -> tuple[Fraction, ...]:
    return tuple(_appell_coeffs(euler_at_zero, n))


def bernoulli_poly(n: int, v: str = "x") -> MultiPoly:
    """The Bernoulli polynomial B_n in variable v."""
    return bernoulli_poly_shifted(n, MultiPoly.variable(v))


def euler_poly(n: int, v: str = "x") -> MultiPoly:
    """The Euler polynomial E_n in variable v."""
    return euler_poly_shifted(n, MultiPoly.variable(v))


def bernoulli_poly_shifted(n: int, arg: MultiPoly | Scalar) -> MultiPoly:
    """B_n composed with a polynomial argument, fully expanded."""
    return polyval(_bernoulli_coeffs(n), arg)


def euler_poly_shifted(n: int, arg: MultiPoly | Scalar) -> MultiPoly:
    """E_n composed with a polynomial argument, fully expanded."""
    return polyval(_euler_coeffs(n), arg)


def appell_poly_at(
    a: Callable[[int], MultiPoly | Scalar], k: int, arg: MultiPoly | Scalar
) -> MultiPoly:
    """A_k at a polynomial argument for the coefficient sequence l -> a_l, so
    A_k(t) = sum_l C(k,l) (-1)^l a_l t^(k-l). a_l = (-1)^l B_l gives B_k and
    a_l = (-1)^l E_l(0) gives E_k. `a` is called for l = k down to 0 only."""
    return polyval(_appell_coeffs(lambda l: a(l) * (-1) ** l, k), arg)


def _row(coeffs: Callable[[int], Sequence], n: int, arg: MultiPoly | Scalar) -> list[MultiPoly]:
    """[A_0(arg), ..., A_n(arg)] for the monomial-basis coefficients k -> coeffs(k)."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return polyvals([coeffs(k) for k in range(n + 1)], arg)


def bernoulli_row(n: int, arg: MultiPoly | Scalar) -> list[MultiPoly]:
    """[B_0(arg), ..., B_n(arg)], fully expanded."""
    return _row(_bernoulli_coeffs, n, arg)


def euler_row(n: int, arg: MultiPoly | Scalar) -> list[MultiPoly]:
    """[E_0(arg), ..., E_n(arg)], fully expanded."""
    return _row(_euler_coeffs, n, arg)


def appell_row(
    a: Callable[[int], MultiPoly | Scalar], n: int, arg: MultiPoly | Scalar
) -> list[MultiPoly]:
    """[A_0(arg), ..., A_n(arg)] for the coefficient sequence l -> a_l, as in
    `appell_poly_at`. `a` is called once for each l, from 0 up to n."""
    at_zero = [a(l) * (-1) ** l for l in range(n + 1)]
    return _row(lambda k: _appell_coeffs(at_zero.__getitem__, k), n, arg)
