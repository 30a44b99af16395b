"""Construct both sides of each identity and certify exact cancellation.

Every builder returns (lhs, rhs) as expanded MultiPoly values; the
verdict is whether lhs - rhs has an empty term map. The r_0 parameter,
constrained by r_0 + r_1 + ... + r_m = n - 1, is eliminated everywhere by
substituting r_0 = (n - 1) - (r_1 + ... + r_m), so each identity becomes a
polynomial statement in free variables over the rationals.

Builders draw their free variables through `var`, which reads an ambient
binding of names to ring elements: empty in symbolic mode, a sample point
in numeric mode (so each side is built as one rational number), and a
renaming where one identity is stated in another's variables (remark11).
lemma21 draws its x only after its difference operators have shifted it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from eulersym.exact import random_rational
from eulersym.mpoly import (
    MultiPoly,
    binom_poly,
    binom_row,
    bound,
    composition_sum,
    delta,
    delta_star,
    power_row,
    shift_one,
    var,
)
from eulersym.polyfam import appell_row, bernoulli_row, euler_row
from eulersym.sequences import b_tilde, bernoulli_number, euler_number


@dataclass(frozen=True)
class IdentitySpec:
    """One verification request."""

    identity: str
    n: int
    m: int | None = None
    i: int | None = None
    mode: str = "symbolic"
    params: dict[str, Fraction] | None = field(default=None, hash=False)
    seed: int | None = None

    def validate(self) -> None:
        """Reject a spec its identity cannot take, per the IDENTITIES schema."""
        entry = IDENTITIES.get(self.identity)
        if entry is None:
            raise ValueError(f"unknown identity {self.identity!r}")
        if self.n < entry.min_n:
            raise ValueError(f"n must be >= {entry.min_n}, got {self.n}")
        if self.mode not in ("symbolic", "numeric"):
            raise ValueError(f"mode must be symbolic or numeric, got {self.mode!r}")
        if entry.min_m is None:
            if self.m is not None:
                raise ValueError(f"{self.identity} takes no m")
        elif self.m is None or self.m < entry.min_m:
            raise ValueError(f"{self.identity} requires m >= {entry.min_m}")
        if not entry.takes_i:
            if self.i is not None:
                raise ValueError(f"{self.identity} takes no i")
        elif self.i is None or not 2 <= self.i <= self.m:
            raise ValueError(f"{self.identity} requires an index i in 2..m")
        if entry.needs_seed and self.seed is None:
            raise ValueError(f"{self.identity} verification needs a seed for the random tuple")
        if not entry.needs_seed and self.seed is not None and self.mode != "numeric":
            raise ValueError(f"{self.identity} takes a seed only in numeric mode")
        if self.params and self.mode != "numeric":
            raise ValueError("params are only used in numeric mode")


@dataclass
class IdentityReport:
    """Outcome of one verification run."""

    spec: IdentitySpec
    lhs_terms: int
    rhs_terms: int
    elapsed_ms: float
    residual: MultiPoly | None = None  # lhs - rhs, None if not built; numeric: a constant
    params_used: dict[str, Fraction] | None = None  # numeric mode: the sample point

    @property
    def holds(self) -> bool:
        """The verdict, read off the residual: it was built and has no terms."""
        return self.residual is not None and self.residual.is_zero()

    @property
    def residual_terms(self) -> int:
        """The number of terms of the residual; 0 when it was not built."""
        return len(self.residual or ())


# -- Theorem on products of Euler polynomials (m parameters) ----------------


def _times(row: list[MultiPoly], other: list) -> list[MultiPoly]:
    """The entrywise product of two rows indexed by k."""
    return [p * q for p, q in zip(row, other)]


def _r_variables(m: int, n: int) -> tuple[MultiPoly, list[MultiPoly], list[list[MultiPoly]]]:
    """The eliminated r_0, the binomials C(r_0, k), and C(r_j, k) at list
    index [j - 1][k], for j = 1..m and k = 0..n."""
    rs = [var(f"r_{j}") for j in range(1, m + 1)]
    r0 = MultiPoly.constant(n - 1)
    for r in rs:
        r0 = r0 - r
    return r0, binom_row(r0, n), [binom_row(r, n) for r in rs]


def thm12_sides(m: int, n: int) -> tuple[MultiPoly, MultiPoly]:
    """Both sides of the m-fold symmetric relation (odd m: all-Euler form,
    even m: mixed Bernoulli/Euler form with the r_0/2 prefactor)."""
    if m < 1 or n < 1:
        raise ValueError(f"thm12 requires m >= 1 and n >= 1, got m={m}, n={n}")
    xs = [var(f"x_{j}") for j in range(1, m + 1)]
    r0, binom_r0, binom_r = _r_variables(m, n)

    odd = m % 2 == 1
    lhs = composition_sum(
        [_times(binom_r[j], euler_row(n, xs[j])) for j in range(m)], n if odd else n - 1
    )
    if not odd:
        lhs = r0 * lhs / 2

    # Block i puts its pivot factor last and folds its sign into the pivot
    # entries. Keeping the pivot in place i and signing the block's sum
    # instead raised the peak memory of thm12 (4,5), (5,4), (6,4) by 5%.
    pivot_row = euler_row if odd else bernoulli_row
    rhs = MultiPoly.zero()
    for i in range(1, m + 1):
        xi, sign = xs[i - 1], (-1) ** (i + m)
        factors = [
            _times(binom_r[j], euler_row(n, xs[j] - xi + int(j >= i)))
            for j in range(m)
            if j != i - 1
        ]
        factors.append([b * p * sign for b, p in zip(binom_r0, pivot_row(n, 1 - xi))])
        rhs = rhs + composition_sum(factors, n)
    return lhs, rhs


def cor11_sides(m: int, n: int) -> tuple[MultiPoly, MultiPoly]:
    """Both sides of the Euler/Bernoulli-number corollary, in r_1..r_m only.

    The left side carries the prefactor (-1)^(n+1); with (-1)^n the stated
    identity fails whenever its left side is nonzero (checked independently
    against the parent theorem specialized at x_j = 1/2).
    """
    if m < 1 or n < 1:
        raise ValueError(f"cor11 requires m >= 1 and n >= 1, got m={m}, n={n}")
    r0, binom_r0, binom_r = _r_variables(m, n)
    ks = range(n + 1)

    odd = m % 2 == 1
    lhs = composition_sum(
        [[binom_r[j][k] * euler_number(k) for k in ks] for j in range(m)], n if odd else n - 1
    )
    lhs = lhs * Fraction((-1) ** (n + 1))
    if not odd:
        lhs = r0 * lhs

    # Block i carries (-1)^i on its pivot factor, put last as in thm12, and
    # (-1)^#{j > i : k_j > 0} as -1 on the nonzero entries of each factor j > i.
    # Each sign is folded into the scalar b~(k+1) before it meets C(r_j, k).
    pivot = [euler_number(k) if odd else (2**k - 2) * bernoulli_number(k) for k in ks]
    tilde = [b_tilde(k + 1) for k in ks]
    rhs = MultiPoly.zero()
    for i in range(1, m + 1):
        factors = [
            [binom_r[j][k] * (tilde[k] * (-1 if j >= i and k else 1)) for k in ks]
            for j in range(m)
            if j != i - 1
        ]
        factors.append([binom_r0[k] * (pivot[k] * (-1) ** i) for k in ks])
        rhs = rhs + composition_sum(factors, n)
    return lhs, rhs


# -- Three-parameter symmetric relations (x, y, r, s free) -----------------


Family = Callable[[int, MultiPoly], list[MultiPoly]]  # (n, argument) -> members 0..n there


def _pair_sum(
    n: int, s: MultiPoly, t: MultiPoly, x: MultiPoly, y: MultiPoly, p: Family, q: Family
) -> MultiPoly:
    """sum_k (-1)^k C(s,k) C(t,n-k) P_(n-k)(x) Q_k(y) for the families P = p, Q = q."""
    signed = [c * (-1) ** k for k, c in enumerate(q(n, y))]
    return composition_sum([_times(binom_row(s, n), signed), _times(binom_row(t, n), p(n, x))], n)


def thm11_part1_sides(n: int) -> tuple[MultiPoly, MultiPoly]:
    """Cyclic three-term Bernoulli relation; z = 1-x-y and t = n-r-s are
    eliminated, leaving a statement in x, y, r, s whose left side must be 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x, y, r, s = (var(v) for v in "xyrs")
    z = 1 - x - y
    t = MultiPoly.constant(n) - r - s
    b = bernoulli_row
    lhs = (
        r * _pair_sum(n, s, t, x, y, b, b)
        + s * _pair_sum(n, t, r, y, z, b, b)
        + t * _pair_sum(n, r, s, z, x, b, b)
    )
    return lhs, MultiPoly.zero()


def thm11_part2_sides(n: int) -> tuple[MultiPoly, MultiPoly]:
    """Mixed Bernoulli/Euler relation with r + s + t = n - 1; z and t eliminated."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x, y, r, s = (var(v) for v in "xyrs")
    z = 1 - x - y
    t = MultiPoly.constant(n - 1) - r - s

    b, e = bernoulli_row, euler_row
    lhs = r * _pair_sum(n - 1, s, t, x, y, e, e) / 2
    rhs = _pair_sum(n, r, s, z, x, e, b) - _pair_sum(n, r, t, z, y, e, b) * (-1) ** n
    return lhs, rhs


def remark11_sides(n: int) -> tuple[tuple[MultiPoly, MultiPoly], tuple[MultiPoly, MultiPoly]]:
    """The m=2 even-branch instance rewritten in the (x, y, r, s) variables,
    paired with the three-parameter mixed relation it must coincide with.

    The instance is built with x_1 = 1-y, x_2 = x, r_1 = s, r_2 = (n-1)-r-s
    bound, so that the eliminated r_0 becomes r.
    """
    x, y, r, s = (var(v) for v in "xyrs")
    with bound({"x_1": 1 - y, "x_2": x, "r_1": s, "r_2": (n - 1) - r - s}):
        sides12 = thm12_sides(2, n)
    return sides12, thm11_part2_sides(n)


# -- Telescoping lemma and Appell-sequence lemma ---------------------------


def lemma21_residual(polys: Sequence[MultiPoly]) -> MultiPoly:
    """LHS - RHS of the telescoping identity for P_1..P_m in x.

    LHS = P_1 * sum_(1<i<=m) (-1)^i D*(P_i) * prod_(1<j<=m, j!=i) P_j(x + [j<i])
    RHS = D*(P_1...P_m) - D*(P_1) * P_2(x+1)...P_m(x+1)   (odd m)
          D*(P_1...P_m) - D(P_1)  * P_2(x+1)...P_m(x+1)   (even m)
    """
    m = len(polys)
    if m < 2:
        raise ValueError(f"need at least 2 polynomials, got {m}")

    shifted = [shift_one(p, "x") for p in polys]
    lhs_sum = MultiPoly.zero()
    for i in range(2, m + 1):
        others = (shifted[j - 1] if j < i else polys[j - 1] for j in range(2, m + 1) if j != i)
        lhs_sum = lhs_sum + math.prod(others, start=delta_star(polys[i - 1], "x")) * (-1) ** i
    lhs = polys[0] * lhs_sum

    head = delta_star(polys[0], "x") if m % 2 == 1 else delta(polys[0], "x")
    rhs = delta_star(math.prod(polys, start=1), "x") - head * math.prod(shifted[1:], start=1)
    return lhs - rhs


def lemma22_sides(
    m: int, n: int, which: str, i: int | None = None
) -> tuple[MultiPoly, MultiPoly]:
    """Both sides of the Appell-sequence convolution lemma with fully
    symbolic coefficient sequences a_0..a_n (and abar_0..abar_n for eq2)."""
    if m < 2 or n < 1:
        raise ValueError(f"lemma22 requires m >= 2 and n >= 1, got m={m}, n={n}")
    if which not in ("eq1", "eq2"):
        raise ValueError(f"which must be eq1 or eq2, got {which!r}")
    if which == "eq2":
        if i is None or not 2 <= i <= m:
            raise ValueError(f"eq2 requires an index i in 2..{m}, got {i}")

    xs = [var(f"x_{j}") for j in range(1, m + 1)]
    _, binom_r0, binom_r = _r_variables(m, n)
    a = lambda l: var(f"a_{l}")

    def eq1_side(binom: list[MultiPoly], y: MultiPoly, shift: MultiPoly | int) -> MultiPoly:
        # Factor 1 carries C(b, k) y^k, every other factor j a(x_j - shift).
        factors = [_times(binom, power_row(y, n))]
        for j in range(1, m):
            factors.append(_times(binom_r[j], appell_row(a, n, xs[j] - shift)))
        return composition_sum(factors, n)

    if which == "eq1":
        return eq1_side(binom_r0, -xs[0], xs[0]), eq1_side(binom_r[0], xs[0], 0)

    abar = lambda l: var(f"abar_{l}")

    def eq2_side(p: int, q: int) -> MultiPoly:
        # Factor p carries r_0 and a(-x_p), factor q the gap (x_q - x_p)^k,
        # every other factor abar(x_j - x_p). The left side has factors
        # p = 1 and q = i; the right side swaps them.
        factors = []
        for j in range(m):
            if j == p:
                factors.append(_times(binom_r0, appell_row(a, n, -xs[p])))
            elif j == q:
                factors.append(_times(binom_r[q], power_row(xs[q] - xs[p], n)))
            else:
                factors.append(_times(binom_r[j], appell_row(abar, n, xs[j] - xs[p])))
        return composition_sum(factors, n)

    return eq2_side(0, i - 1), eq2_side(i - 1, 0)


def chu_vandermonde_sides(n: int) -> tuple[MultiPoly, MultiPoly]:
    """sum_k C(r,k) C(s,n-k) = C(r+s,n) as polynomials in r and s."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    r, s = var("r"), var("s")
    # Per-k binomials, not binom_row: on rows the numeric n = 30 spec does a
    # tenth of its work, and a numeric benchmark pass then ends before the
    # calibration sampler's first 25 ms tick, so the worker divides by zero
    # (benchmark fault (b), ROADMAP item 1). It moves to rows once that is mended.
    lhs = composition_sum([[binom_poly(v, k) for k in range(n + 1)] for v in (r, s)], n)
    return lhs, binom_poly(r + s, n)


# -- Verification driver ---------------------------------------------------


def random_one_var_poly(rng: random.Random, max_degree: int = 4) -> MultiPoly:
    """Random polynomial in x with small rational coefficients."""
    degree = rng.randint(0, max_degree)
    return MultiPoly({(("x", e),): random_rational(rng) for e in range(degree + 1)})


def _lemma21_sides(m: int, n: int, seed: int) -> tuple[MultiPoly, MultiPoly]:
    """The residual of a seeded random tuple against 0. Its x is drawn only
    after the difference operators have shifted it."""
    rng = random.Random(seed)
    polys = [random_one_var_poly(rng, min(n, 4)) for _ in range(m)]
    return lemma21_residual(polys).substitute("x", var("x")), MultiPoly.zero()


def _remark11_stacked(n: int) -> tuple[MultiPoly, MultiPoly]:
    """remark11's two equations l12 = l11 and r12 = r11 as the one statement
    l12 + w*r12 = l11 + w*r11, which holds exactly when both do. The fresh
    marker w keeps the two apart, so each term count is the sum of two."""
    (l12, r12), (l11, r11) = remark11_sides(n)
    w = var("w")
    return l12 + w * r12, l11 + w * r11


@dataclass(frozen=True)
class Identity:
    """One registry entry: how to build the sides, and which spec fields the
    identity takes."""

    build: Callable[[IdentitySpec], tuple[MultiPoly, MultiPoly]]
    min_n: int = 1
    min_m: int | None = None  # None: the identity takes no m
    takes_i: bool = False  # an index i in 2..m
    needs_seed: bool = False


# Every identity is declared here once. The entries look the builders up in
# this module's globals when they run, so a builder replaced by name (a
# negative control, a tracer) is the one that is verified.
IDENTITIES: dict[str, Identity] = {
    "thm11_part1": Identity(lambda s: thm11_part1_sides(s.n)),
    "thm11_part2": Identity(lambda s: thm11_part2_sides(s.n)),
    "thm12": Identity(lambda s: thm12_sides(s.m, s.n), min_m=1),
    "cor11": Identity(lambda s: cor11_sides(s.m, s.n), min_m=1),
    "lemma21": Identity(lambda s: _lemma21_sides(s.m, s.n, s.seed), min_m=2, needs_seed=True),
    "lemma22_eq1": Identity(lambda s: lemma22_sides(s.m, s.n, "eq1"), min_m=2),
    "lemma22_eq2": Identity(
        lambda s: lemma22_sides(s.m, s.n, "eq2", s.i), min_m=2, takes_i=True
    ),
    "remark11": Identity(lambda s: _remark11_stacked(s.n)),
    "chu_vandermonde": Identity(lambda s: chu_vandermonde_sides(s.n), min_n=0),
}


class _SamplePoint(dict):
    """A numeric-mode binding that fills itself: each name is bound the first
    time it is asked for, to its param value or else to a value sampled from
    the seed."""

    def __init__(self, spec: IdentitySpec):
        super().__init__()
        self.params = dict(spec.params or {})
        self.rng = None if spec.seed is None else random.Random(spec.seed)

    def __missing__(self, name: str) -> MultiPoly:
        if name in self.params:
            value = self.params[name]
        elif self.rng is None:
            raise ValueError(f"numeric mode needs a value for {name!r} or a seed to sample it")
        else:
            value = random_rational(self.rng)
        self[name] = MultiPoly.constant(value)
        return self[name]


def verify(spec: IdentitySpec) -> IdentityReport:
    """Build the requested identity under its mode's binding and certify it
    exactly. Numeric mode binds a sample point, so each side is one number."""
    spec.validate()
    start = time.perf_counter()
    point = _SamplePoint(spec) if spec.mode == "numeric" else {}
    with bound(point):
        lhs, rhs = IDENTITIES[spec.identity].build(spec)
    if spec.mode == "numeric":
        unknown = sorted(point.params.keys() - point.keys())
        if unknown:
            raise ValueError(f"params {unknown} are no variable of {spec.identity}")
    residual = lhs - rhs
    return IdentityReport(
        spec=spec,
        lhs_terms=len(lhs),
        rhs_terms=len(rhs),
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
        residual=residual,
        params_used={v: c.constant_term() for v, c in point.items()} or None,
    )


def enumerate_specs(max_m: int, max_n: int, seed: int = 0) -> Iterator[IdentitySpec]:
    """The verification matrix run by `verify-all`."""
    if max_m < 1 or max_n < 1:
        raise ValueError("bounds must be >= 1")
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            yield IdentitySpec("thm12", n=n, m=m)
            yield IdentitySpec("cor11", n=n, m=m)
    for n in range(1, max_n + 1):
        yield IdentitySpec("thm11_part1", n=n)
        yield IdentitySpec("thm11_part2", n=n)
        yield IdentitySpec("remark11", n=n)
    for m in range(2, min(max_m, 3) + 1):
        for n in range(1, min(max_n, 4) + 1):
            yield IdentitySpec("lemma22_eq1", n=n, m=m)
            for i in range(2, m + 1):
                yield IdentitySpec("lemma22_eq2", n=n, m=m, i=i)
    for m in range(2, max(2, min(max_m, 5)) + 1):
        yield IdentitySpec("lemma21", n=4, m=m, seed=seed * 1000 + m)
