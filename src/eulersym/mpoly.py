"""Sparse multivariate polynomials over the rationals.

A polynomial is a map from monomials to nonzero Fraction coefficients,
where a monomial is a sorted tuple of (variable name, positive exponent)
pairs. The zero polynomial is the empty map and equality is structural,
so "identity holds" literally means "LHS - RHS has no terms".
"""

from __future__ import annotations

import math
from collections import ChainMap
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from eulersym.exact import format_fraction

Monomial = tuple[tuple[str, int], ...]
Composition = tuple[int, ...]
Scalar = Union[int, Fraction]


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _canonical(mono: Iterable[tuple[str, int]]) -> Monomial:
    """Sorted, with repeated variables merged and zero exponents dropped."""
    exps: dict[str, int] = {}
    for var, e in mono:
        if e < 0:
            raise ValueError(f"negative exponent {e} of {var!r} in a monomial")
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted((var, e) for var, e in exps.items() if e))


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        canon: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                key = _canonical(mono)
                s = canon.get(key, 0) + Fraction(coef)
                if s == 0:
                    canon.pop(key, None)
                else:
                    canon[key] = s
        self.terms = canon

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "MultiPoly":
        return cls._of({(): Fraction(c)} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def _of(cls, terms: dict[Monomial, Fraction]) -> "MultiPoly":
        """Wrap a term map that is already canonical, without copying it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @staticmethod
    def _coerce(other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(other)
        return NotImplemented  # type: ignore[return-value]

    # -- ring structure ----------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in q.terms.items():
            s = terms.get(mono, Fraction(0)) + c
            if s == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return MultiPoly._of(terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return q - self

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return MultiPoly.zero()
            return MultiPoly._of({m: k * c for m, k in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return sum_of_products([(self, other)])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MultiPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def variables(self) -> set[str]:
        return {var for mono in self.terms for var, _ in mono}

    def degree_in(self, v: str) -> int:
        deg = 0
        for mono in self.terms:
            for var, e in mono:
                if var == v:
                    deg = max(deg, e)
        return deg

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(_canonical(mono), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, v: str, replacement: "MultiPoly | Scalar") -> "MultiPoly":
        """Replace every occurrence of variable v by `replacement`, expanded."""
        # The terms grouped by their exponent of v, with v taken out.
        groups: list[dict[Monomial, Fraction]] = [{} for _ in range(self.degree_in(v) + 1)]
        for mono, c in self.terms.items():
            exps = dict(mono)
            groups[exps.pop(v, 0)][tuple(exps.items())] = c
        return polyval([MultiPoly._of(g) for g in groups], replacement)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a full rational assignment of the occurring variables."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for var, e in mono:
                if var not in assignment:
                    raise KeyError(f"no value assigned to variable {var!r}")
                val *= Fraction(assignment[var]) ** e
            total += val
        return total

    # -- serialization -----------------------------------------------------

    def _ordered_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(e for _, e in item[0]), item[0]),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for idx, (mono, coef) in enumerate(self._ordered_terms()):
            neg = coef < 0
            mag = -coef if neg else coef
            factors = [f"{var}^{e}" if e > 1 else var for var, e in mono]
            if not factors:
                body = format_fraction(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([format_fraction(mag)] + factors)
            if idx == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# -- free variables under an ambient binding --------------------------------

_binding: ContextVar[Mapping[str, MultiPoly]] = ContextVar("binding", default={})


def var(name: str) -> MultiPoly:
    """The free variable `name` of a builder: its value under the ambient
    binding, or the variable itself where the name is unbound."""
    try:
        return _binding.get()[name]
    except KeyError:
        return MultiPoly.variable(name)


@contextmanager
def bound(values: Mapping[str, MultiPoly]) -> Iterator[None]:
    """Bind names to ring elements for the builders called in the block;
    names not in `values` keep their outer binding."""
    token = _binding.set(ChainMap(values, _binding.get()))
    try:
        yield
    finally:
        _binding.reset(token)


# -- difference operators and binomials ------------------------------------


def shift_one(p: MultiPoly, v: str) -> MultiPoly:
    """p with v replaced by v + 1."""
    return p.substitute(v, MultiPoly.variable(v) + 1)


def delta(p: MultiPoly, v: str) -> MultiPoly:
    """Forward difference: p(v+1) - p(v)."""
    return shift_one(p, v) - p


def delta_star(p: MultiPoly, v: str) -> MultiPoly:
    """Companion operator: p(v+1) + p(v); injective on polynomials."""
    return shift_one(p, v) + p


def binom_poly(upper: MultiPoly | Scalar, k: int) -> MultiPoly:
    """Generalized binomial coefficient C(upper, k) as a polynomial.

    upper*(upper-1)*...*(upper-k+1)/k!; equals 1 for k = 0 and 0 for k < 0.
    """
    if k < 0:
        return MultiPoly.zero()
    up = MultiPoly._coerce(upper)
    prod = MultiPoly.constant(1)
    for i in range(k):
        prod = prod * (up - i)
    return prod * Fraction(1, math.factorial(k))


def compositions(n: int, m: int) -> Iterator[Composition]:
    """Weak compositions of n into m parts, lexicographically ascending.

    Yields exactly binom_int(n + m - 1, m - 1) tuples.
    """
    if n < 0 or m < 1:
        raise ValueError(f"compositions requires n >= 0 and m >= 1, got n={n}, m={m}")
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def sum_of_products(pairs: Iterable[tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """The sum of p * q over the pairs, collected into one term map."""
    terms: dict[Monomial, Fraction] = {}
    for p, q in pairs:
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                mono = _merge_monomials(m1, m2)
                s = terms.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = s
    return MultiPoly._of(terms)


def polyval(coeffs: Sequence[MultiPoly | Scalar], arg: MultiPoly | Scalar) -> MultiPoly:
    """sum_e coeffs[e] * arg^e, expanded: one power table and one
    sum_of_products, with the zero coefficients skipped."""
    arg = MultiPoly._coerce(arg)
    powers = [MultiPoly.constant(1)]
    for _ in range(len(coeffs) - 1):
        powers.append(powers[-1] * arg)
    return sum_of_products((MultiPoly._coerce(c), p) for c, p in zip(coeffs, powers) if c)


def composition_sum(factors: Sequence[Sequence[MultiPoly | Scalar]], n: int) -> MultiPoly:
    """The sum over the weak compositions k of n of prod_j factors[j][k_j].

    That is the coefficient of t^n in prod_j (sum_k factors[j][k] t^k), or
    sum_k factors[0][k] * composition_sum(factors[1:], n - k). Each inner sum
    is built once, from the last factor forwards, as one sum_of_products;
    zero entries are skipped. Every factor needs the entries 0..n.
    """
    if n < 0 or not factors:
        raise ValueError(f"composition_sum requires n >= 0 and a factor, got n={n}")
    series = dict(enumerate(MultiPoly._coerce(c) for c in factors[-1][: n + 1]))
    for j in range(len(factors) - 2, -1, -1):
        head = [MultiPoly._coerce(c) for c in factors[j][: n + 1]]
        # The outermost level needs only the coefficient of t^n.
        series = {
            t: sum_of_products((head[k], series[t - k]) for k in range(t + 1) if head[k])
            for t in (range(n + 1) if j else (n,))
        }
    return series[n]
