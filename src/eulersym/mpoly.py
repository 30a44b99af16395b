"""Sparse multivariate polynomials over the rationals.

A polynomial is stored as integer numerators over one positive common
denominator `_d`, reduced so that gcd(_d, every numerator) = 1; so the
representation is unique and equality is structural, and "identity holds"
literally means "LHS - RHS has no terms". The product loop of
`sum_of_products` runs on Python ints only.

A monomial is packed into one int: each variable name is interned once to a
slot i, whose exponent is the 16-bit field at bit 16*i, so the product of two
monomials is their sum. Each polynomial carries an upper bound on its total
degree; a product (the constructor forms one per term) whose bound would
reach 2^16 raises OverflowError rather than carry a field into its neighbour.

`terms` is a read-only snapshot of the same polynomial as a map from
canonical monomials, sorted tuples of (variable name, positive exponent)
pairs, to nonzero Fraction coefficients, built on each access.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import ChainMap
from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence, Union

Monomial = tuple[tuple[str, int], ...]
Composition = tuple[int, ...]
Scalar = Union[int, Fraction]

# -- packed monomials -------------------------------------------------------

_BITS = 16
_MASK = (1 << _BITS) - 1
_LIMIT = 1 << _BITS  # exponents and degree bounds stay below this
_offsets: dict[str, int] = {}  # variable name -> bit offset of its field
_names: list[str] = []  # slot -> variable name
_intern_lock = threading.Lock()


def _shift(name: str) -> int:
    """The bit offset of the field of `name`, interning the name on first use."""
    try:
        return _offsets[name]
    except KeyError:
        with _intern_lock:
            if name not in _offsets:
                _names.append(name)
                _offsets[name] = _BITS * (len(_names) - 1)
            return _offsets[name]


def _pack(mono: Iterable[tuple[str, int]]) -> tuple[int, int]:
    """A monomial given as (variable, exponent) pairs, in any order and with
    repeats, as its packed int and its total degree."""
    exps: dict[str, int] = {}
    for name, e in mono:
        if e < 0:
            raise ValueError(f"negative exponent {e} of {name!r} in a monomial")
        exps[name] = exps.get(name, 0) + e
    packed = 0
    for name, e in exps.items():
        if e >= _LIMIT:
            raise OverflowError(f"exponent {e} of {name!r} is not below {_LIMIT}")
        if e:
            packed += e << _shift(name)
    return packed, sum(exps.values())


def _unpack(packed: int) -> Monomial:
    out = []
    slot = 0
    while packed:
        if packed & _MASK:
            out.append((_names[slot], packed & _MASK))
        packed >>= _BITS
        slot += 1
    out.sort()
    return tuple(out)


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_t", "_d", "_deg")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        pairs = []
        for mono, coef in (terms or {}).items():
            key, deg = _pack(mono)
            pairs.append((MultiPoly.constant(coef), _raw({key: 1}, 1, deg)))
        p = sum_of_products(pairs)
        self._t, self._d, self._deg = p._t, p._d, p._deg

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _raw({}, 1, 0)

    @classmethod
    def constant(cls, c: Scalar) -> "MultiPoly":
        p = _coerce(c)
        if p is NotImplemented or isinstance(c, MultiPoly):
            raise TypeError(f"MultiPoly.constant: expected an int or a Fraction, "
                            f"got {type(c).__name__}")
        return p

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return _raw({1 << _shift(name): 1}, 1, 1)

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return MappingProxyType({_unpack(m): Fraction(c, self._d) for m, c in self._t.items()})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        q = _coerce(other)
        if q is NotImplemented:
            return NotImplemented
        d = math.lcm(self._d, q._d)
        sp, sq = d // self._d, d // q._d
        terms = {m: c * sp for m, c in self._t.items()}
        for m, c in q._t.items():
            s = terms.get(m, 0) + c * sq
            if s:
                terms[m] = s
            else:
                del terms[m]
        return _reduced(terms, d, max(self._deg, q._deg))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _raw({m: -c for m, c in self._t.items()}, self._d, self._deg)

    def __sub__(self, other) -> "MultiPoly":
        q = _coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "MultiPoly":
        return -self + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return sum_of_products([(self, other)])
        q = _coerce(other)  # a scalar scales the numerators, cheaper than a product
        if q is NotImplemented or not q._t:
            return q
        c = q._t[0]
        return _reduced({m: k * c for m, k in self._t.items()}, self._d * q._d, self._deg)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MultiPoly":
        q = _coerce(scalar)
        if q is NotImplemented or isinstance(scalar, MultiPoly):
            return NotImplemented
        if not q._t:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * Fraction(q._d, q._t[0])

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
        q = _coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self._d == q._d and self._t == q._t

    def __hash__(self) -> int:
        if self._t.keys() <= {0}:  # a constant hashes as its Fraction, which it equals
            return hash(self.constant_term())
        return hash((self._d, frozenset(self._t.items())))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def variables(self) -> set[str]:
        return {var for mono in self.terms for var, _ in mono}

    def degree_in(self, v: str) -> int:
        shift = _shift(v)
        return max(((m >> shift) & _MASK for m in self._t), default=0)

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self._t.get(_pack(mono)[0], 0), self._d)

    def constant_term(self) -> Fraction:
        return Fraction(self._t.get(0, 0), self._d)

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, v: str, replacement: "MultiPoly | Scalar") -> "MultiPoly":
        """Replace every occurrence of variable v by `replacement`, expanded."""
        # The terms grouped by their exponent of v, with v taken out.
        shift = _shift(v)
        groups: list[dict[int, int]] = [{} for _ in range(self.degree_in(v) + 1)]
        for m, c in self._t.items():
            e = (m >> shift) & _MASK
            groups[e][m - (e << shift)] = c
        return polyval([_reduced(g, self._d, self._deg) for g in groups], replacement)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a full rational assignment of the occurring variables."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for var, e in mono:
                if var not in assignment:
                    raise KeyError(f"no value assigned to variable {var!r}")
                x = _as_poly(assignment[var], "evaluate")
                if not x._t.keys() <= {0}:
                    raise TypeError(f"evaluate: the value of {var!r} is not a constant")
                val *= x.constant_term() ** e
            total += val
        return total

    # -- serialization -----------------------------------------------------

    def _ordered_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(e for _, e in item[0]), item[0]),
        )

    def __str__(self) -> str:
        if not self._t:
            return "0"
        pieces: list[str] = []
        for idx, (mono, coef) in enumerate(self._ordered_terms()):
            neg = coef < 0
            mag = -coef if neg else coef
            factors = [f"{var}^{e}" if e > 1 else var for var, e in mono]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if idx == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _raw(terms: dict[int, int], d: int, deg: int) -> MultiPoly:
    """Wrap numerators over d that are nonzero and already reduced, without
    copying them; deg bounds the total degree."""
    out = MultiPoly.__new__(MultiPoly)
    out._t, out._d, out._deg = terms, d, deg if terms else 0
    return out


def _reduced(terms: dict[int, int], d: int, deg: int) -> MultiPoly:
    """Nonzero numerators over d > 0, divided by their common factor with d."""
    g = math.gcd(d, *terms.values()) if terms else d
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
        d //= g
    return _raw(terms, d, deg)


def _coerce(x) -> MultiPoly:
    """The one scalar rule: an int, a Fraction or a MultiPoly as a
    MultiPoly, and NotImplemented for anything else (a float, say)."""
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)  # redundant, but faster passes trip perfbench fault (b), ROADMAP item 1
        return _raw({0: x.numerator} if x else {}, x.denominator, 0)
    return NotImplemented  # type: ignore[return-value]


def _as_poly(x, routine: str) -> MultiPoly:
    p = _coerce(x)
    if p is NotImplemented:
        raise TypeError(f"{routine}: expected an int, a Fraction or a MultiPoly, "
                        f"got {type(x).__name__}")
    return p


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
    """Generalized binomial coefficient C(upper, k) as a polynomial: the last
    entry of `binom_row`, so 1 for k = 0, and 0 for k < 0."""
    up = _as_poly(upper, "binom_poly")
    return binom_row(up, k)[k] if k >= 0 else MultiPoly.zero()


def binom_row(upper: MultiPoly | Scalar, n: int) -> list[MultiPoly]:
    """[C(upper, 0), ..., C(upper, n)] from one running falling factorial,
    C(upper, k) = C(upper, k-1) * (upper - k + 1) / k: n products in all."""
    up = _as_poly(upper, "binom_row")
    if n < 0:
        raise ValueError(f"binom_row requires n >= 0, got {n}")
    steps = ((up - k) * Fraction(1, k + 1) for k in range(n))
    return list(accumulate(steps, operator.mul, initial=MultiPoly.constant(1)))


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
    """The sum of p * q over the pairs, collected into one term map.

    Every product is taken over the lcm of the pairs' p._d * q._d, so the
    inner loop adds and multiplies ints only; the result is reduced once.
    A first pair that is a constant times a polynomial of several terms
    fills the empty map with a copy of the polynomial's scaled numerators."""
    pairs = [(p, q) for p, q in pairs if p._t and q._t]
    d, deg = 1, 0
    for p, q in pairs:
        bound = p._deg + q._deg
        if bound >= _LIMIT:
            raise OverflowError(f"a product of total degree up to {bound} is not below {_LIMIT}")
        d, deg = math.lcm(d, p._d * q._d), max(deg, bound)
    terms: dict[int, int] = {}
    for p, q in pairs:
        scale = d // (p._d * q._d)
        if not terms and len(q._t) > 1 and p._t.keys() == {0}:  # a constant times q: a copy
            c1 = p._t[0] * scale
            terms = dict(q._t) if c1 == 1 else {m: c1 * c2 for m, c2 in q._t.items()}
            continue
        get = terms.get
        right = q._t.items()
        for m1, c1 in p._t.items():
            c1 *= scale
            for m2, c2 in right:
                m = m1 + m2
                terms[m] = get(m, 0) + c1 * c2
    if 0 in terms.values():  # a scan is cheaper than a walk where nothing cancelled
        for m in [m for m, c in terms.items() if not c]:
            del terms[m]
    return _reduced(terms, d, deg)


def power_row(arg: MultiPoly | Scalar, n: int) -> list[MultiPoly]:
    """[arg^0, ..., arg^n], expanded: each power is one product from the last."""
    arg = _as_poly(arg, "power_row")
    if n < 0:
        raise ValueError(f"power_row requires n >= 0, got {n}")
    return list(accumulate([arg] * n, operator.mul, initial=MultiPoly.constant(1)))


def polyvals(
    rows: Sequence[Sequence[MultiPoly | Scalar]], arg: MultiPoly | Scalar
) -> list[MultiPoly]:
    """[sum_e coeffs[e] * arg^e for coeffs in rows], expanded: one power
    table shared by all rows, and one sum_of_products per row, which skips
    the zero coefficients. The top power goes first, so the largest product
    is the one that can seed the sum."""
    arg = _as_poly(arg, "polyval")
    rows = [[_as_poly(c, "polyval") for c in coeffs] for coeffs in rows]
    powers = power_row(arg, max([1, *map(len, rows)]) - 1)
    return [sum_of_products(zip(coeffs[::-1], powers[len(coeffs) - 1 :: -1])) for coeffs in rows]


def polyval(coeffs: Sequence[MultiPoly | Scalar], arg: MultiPoly | Scalar) -> MultiPoly:
    """sum_e coeffs[e] * arg^e, expanded: the one-row case of `polyvals`."""
    return polyvals([coeffs], arg)[0]


def composition_sum(factors: Sequence[Sequence[MultiPoly | Scalar]], n: int) -> MultiPoly:
    """The sum over the weak compositions k of n of prod_j factors[j][k_j].

    That is the coefficient of t^n in prod_j (sum_k factors[j][k] t^k), or
    sum_k factors[0][k] * composition_sum(factors[1:], n - k). Each inner sum
    is built once, from the last factor forwards, as one sum_of_products,
    which skips the zero entries. Every factor needs the entries 0..n.
    """
    if n < 0 or not factors:
        raise ValueError(f"composition_sum requires n >= 0 and a factor, got n={n}")
    series = dict(enumerate(_as_poly(c, "composition_sum") for c in factors[-1][: n + 1]))
    for j in range(len(factors) - 2, -1, -1):
        head = [_as_poly(c, "composition_sum") for c in factors[j][: n + 1]]
        # The outermost level needs only the coefficient of t^n.
        series = {
            t: sum_of_products((head[k], series[t - k]) for k in range(t + 1))
            for t in (range(n + 1) if j else (n,))
        }
    return series[n]
