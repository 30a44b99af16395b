"""Bernoulli, Euler, and generic Appell-type polynomials as MultiPoly values.

All three are Appell sequences, A_k(t) = sum_l C(k,l) c_l t^(k-l) with
c_l = A_l(0): c_l = B_l for Bernoulli, c_l = E_l(0) for Euler, and
c_l = (-1)^l a_l for a coefficient sequence a_l. `_appell_coeffs` expands
this rule into monomial-basis coefficients (cached per degree for B and E);
composition with a polynomial argument is then plain substitution of
powers, in `_from_coeffs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence, Union

from eulersym.exact import binom_int
from eulersym.mpoly import MultiPoly, Scalar, var
from eulersym.sequences import bernoulli_number, euler_at_zero

AppellCoeff = Union[Fraction, int, str]  # str means a symbolic variable name


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


def _from_coeffs(coeffs: Sequence[Fraction | MultiPoly], arg: MultiPoly) -> MultiPoly:
    out = MultiPoly.zero()
    power = MultiPoly.constant(1)
    for e, c in enumerate(coeffs):
        if c != 0:
            out = out + power * c
        if e < len(coeffs) - 1:
            power = power * arg
    return out


def bernoulli_poly(n: int, v: str = "x") -> MultiPoly:
    """The Bernoulli polynomial B_n in variable v."""
    return bernoulli_poly_shifted(n, MultiPoly.variable(v))


def euler_poly(n: int, v: str = "x") -> MultiPoly:
    """The Euler polynomial E_n in variable v."""
    return euler_poly_shifted(n, MultiPoly.variable(v))


def bernoulli_poly_shifted(n: int, arg: MultiPoly | Scalar) -> MultiPoly:
    """B_n composed with a polynomial argument, fully expanded."""
    return _from_coeffs(_bernoulli_coeffs(n), MultiPoly._coerce(arg))


def euler_poly_shifted(n: int, arg: MultiPoly | Scalar) -> MultiPoly:
    """E_n composed with a polynomial argument, fully expanded."""
    return _from_coeffs(_euler_coeffs(n), MultiPoly._coerce(arg))


@dataclass(frozen=True)
class AppellSpec:
    """Coefficient sequence a_0..a_n; entries are rationals or variable names."""

    coeffs: tuple[AppellCoeff, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("AppellSpec needs at least one coefficient")

    @classmethod
    def symbolic(cls, n: int, prefix: str = "a") -> "AppellSpec":
        """Fully symbolic sequence a_0..a_n in the given variable family."""
        return cls(tuple(f"{prefix}_{l}" for l in range(n + 1)))

    @classmethod
    def bernoulli(cls, n: int) -> "AppellSpec":
        """a_l = (-1)^l B_l, which makes A_k(t) = B_k(t)."""
        return cls(tuple((-1) ** l * bernoulli_number(l) for l in range(n + 1)))

    @classmethod
    def euler(cls, n: int) -> "AppellSpec":
        """a_l = (-1)^l E_l(0), which makes A_k(t) = E_k(t)."""
        return cls(tuple((-1) ** l * euler_at_zero(l) for l in range(n + 1)))

    def entry(self, l: int) -> MultiPoly | Fraction:
        """a_l: a named coefficient drawn through `var`, else a rational."""
        c = self.coeffs[l]
        return var(c) if isinstance(c, str) else Fraction(c)


def appell_poly_at(spec: AppellSpec, k: int, arg: MultiPoly | Scalar) -> MultiPoly:
    """A_k evaluated at a polynomial argument."""
    if not 0 <= k < len(spec.coeffs):
        raise ValueError(f"degree {k} outside the spec's range 0..{len(spec.coeffs) - 1}")
    coeffs = _appell_coeffs(lambda l: spec.entry(l) * (-1) ** l, k)
    return _from_coeffs(coeffs, MultiPoly._coerce(arg))


def appell_poly(spec: AppellSpec, k: int, v: str = "x") -> MultiPoly:
    """The polynomial A_k in variable v for the given coefficient sequence."""
    return appell_poly_at(spec, k, MultiPoly.variable(v))
