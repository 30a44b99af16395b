import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

import eulersym.identities as identities
from eulersym.exact import random_rational
from eulersym.identities import (
    IDENTITIES,
    IdentitySpec,
    chu_vandermonde_sides,
    cor11_sides,
    enumerate_specs,
    lemma21_residual,
    lemma22_sides,
    random_one_var_poly,
    remark11_sides,
    thm11_part1_sides,
    thm11_part2_sides,
    thm12_sides,
    verify,
)
from eulersym.mpoly import MultiPoly, binom_poly, compositions, delta
from eulersym.polyfam import bernoulli_poly_shifted, euler_poly_shifted
from eulersym.sequences import bernoulli_number, euler_at_zero


def assert_sides_equal(lhs, rhs):
    residual = lhs - rhs
    assert residual.is_zero(), f"residual has {len(residual)} terms: {residual}"


# -- m-fold theorem --------------------------------------------------------


def test_thm12_m1_structure():
    # Degenerate case: the product over j != i is empty, so the right side
    # is a single reflected factor.
    lhs, rhs = thm12_sides(1, 2)
    r1 = MultiPoly.variable("r_1")
    x1 = MultiPoly.variable("x_1")
    assert lhs == binom_poly(r1, 2) * euler_poly_shifted(2, x1)
    assert rhs == binom_poly(1 - r1, 2) * euler_poly_shifted(2, 1 - x1)
    assert_sides_equal(lhs, rhs)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 1), (3, 2), (3, 3), (5, 1)])
def test_thm12_odd_branch(m, n):
    assert_sides_equal(*thm12_sides(m, n))


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (2, 4), (4, 1), (4, 2)])
def test_thm12_even_branch(m, n):
    assert_sides_equal(*thm12_sides(m, n))


def test_thm12_degree_bounds():
    lhs, rhs = thm12_sides(3, 3)
    for side in (lhs, rhs):
        x_degree = max(
            sum(e for var, e in mono if var.startswith("x_")) for mono in side.terms
        )
        assert x_degree <= 3
        for j in (1, 2, 3):
            assert side.degree_in(f"r_{j}") <= 3


def test_thm12_rejects_bad_args():
    with pytest.raises(ValueError):
        thm12_sides(0, 3)
    with pytest.raises(ValueError):
        thm12_sides(2, 0)


# -- corollary on numbers --------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (4, 1)])
def test_cor11_residual_zero(m, n):
    assert_sides_equal(*cor11_sides(m, n))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (3, 2), (4, 3)])
def test_cor11_cross_oracle_against_thm12(m, n):
    # Specializing the parent theorem at x_j = 1/2 must reproduce the
    # corollary sides up to the 2^n rescaling of E_k(1/2) = E_k / 2^k.
    tl, tr = thm12_sides(m, n)
    cl, cr = cor11_sides(m, n)
    rng = random.Random(20 * m + n)
    for _ in range(20):
        assign = {f"r_{j}": random_rational(rng) for j in range(1, m + 1)}
        assign.update({f"x_{j}": Fraction(1, 2) for j in range(1, m + 1)})
        scale = Fraction(2**n)
        assert cl.evaluate(assign) == (-1) ** (n + 1) * scale * tl.evaluate(assign)
        assert cr.evaluate(assign) == (-1) ** m * scale * tr.evaluate(assign)


def test_cor11_variables_are_r_only():
    lhs, rhs = cor11_sides(3, 3)
    assert (lhs.variables() | rhs.variables()) <= {"r_1", "r_2", "r_3"}


def test_cor11_sides_vanish_exactly_when_m_plus_n_is_even():
    # Those specs certify only 0 = 0, so a builder edit that moves a case into
    # or out of that set must fail here rather than pass unseen.
    for m in range(1, 5):
        for n in range(1, 6):
            lhs, rhs = cor11_sides(m, n)
            assert lhs.is_zero() == rhs.is_zero() == ((m + n) % 2 == 0), (m, n)


# -- three-parameter relations ---------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4])
def test_thm11_part1_residual_zero(n):
    lhs, rhs = thm11_part1_sides(n)
    assert rhs.is_zero()
    assert lhs.is_zero()


def test_thm11_part1_numeric_spot_check():
    lhs, _ = thm11_part1_sides(2)
    value = lhs.evaluate({"x": 0, "y": 0, "r": Fraction(1, 2), "s": Fraction(1, 2)})
    assert value == 0


@pytest.mark.parametrize("n", [1, 2, 4])
def test_thm11_part2_residual_zero(n):
    assert_sides_equal(*thm11_part2_sides(n))


def test_thm11_part2_vanishes_at_r_zero():
    lhs, rhs = thm11_part2_sides(3)
    rng = random.Random(9)
    for _ in range(10):
        assign = {
            "x": random_rational(rng),
            "y": random_rational(rng),
            "r": Fraction(0),
            "s": random_rational(rng),
        }
        assert lhs.evaluate(assign) == 0
        assert rhs.evaluate(assign) == 0  # the two RHS sums must cancel


@pytest.mark.parametrize("n", [1, 3, 5])
def test_remark11_equivalence(n):
    (l12, r12), (l11, r11) = remark11_sides(n)
    assert l12 == l11
    assert r12 == r11
    report = verify(IdentitySpec("remark11", n=n))
    assert report.holds
    assert report.residual_terms == 0


# -- telescoping lemma -----------------------------------------------------


def test_lemma21_hand_example():
    x = MultiPoly.variable("x")
    assert lemma21_residual([x, x]).is_zero()


def test_lemma21_constants():
    ones = [MultiPoly.constant(1)] * 3
    assert lemma21_residual(ones).is_zero()


def test_lemma21_randomized(rng):
    for trial in range(40):
        m = rng.randint(2, 5)
        polys = [random_one_var_poly(rng, max_degree=3) for _ in range(m)]
        assert lemma21_residual(polys).is_zero()


def test_lemma21_errors():
    x = MultiPoly.variable("x")
    with pytest.raises(ValueError):
        lemma21_residual([x])


# -- Appell convolution lemma ----------------------------------------------


@pytest.mark.parametrize("m,n", [(2, 1), (2, 3), (3, 2)])
def test_lemma22_eq1(m, n):
    assert_sides_equal(*lemma22_sides(m, n, "eq1"))


@pytest.mark.parametrize("m,n,i", [(2, 2, 2), (3, 2, 2), (3, 2, 3)])
def test_lemma22_eq2(m, n, i):
    assert_sides_equal(*lemma22_sides(m, n, "eq2", i))


def test_lemma22_symbolic_variables_present():
    # m = 2 has an empty abar-product, so use m = 3 to see both families.
    lhs, rhs = lemma22_sides(3, 2, "eq2", 2)
    variables = lhs.variables() | rhs.variables()
    assert {"a_0", "abar_0"} <= variables


def test_lemma22_specialization_coherence():
    # Substituting a_l = (-1)^l B_l turns the symbolic sides into the
    # concrete Bernoulli-instance sides, rebuilt here independently with
    # bernoulli_poly_shifted factors.
    for n in (1, 2, 3):
        m = 2
        lhs, rhs = lemma22_sides(m, n, "eq1")
        for l in range(n + 1):
            value = (-1) ** l * bernoulli_number(l)
            lhs = lhs.substitute(f"a_{l}", MultiPoly.constant(value))
            rhs = rhs.substitute(f"a_{l}", MultiPoly.constant(value))

        x1, x2 = MultiPoly.variable("x_1"), MultiPoly.variable("x_2")
        r1, r2 = MultiPoly.variable("r_1"), MultiPoly.variable("r_2")
        r0 = MultiPoly.constant(n - 1) - r1 - r2
        expected_lhs = MultiPoly.zero()
        expected_rhs = MultiPoly.zero()
        for k1, k2 in compositions(n, m):
            expected_lhs = expected_lhs + (
                binom_poly(r0, k1)
                * (-x1) ** k1
                * binom_poly(r2, k2)
                * bernoulli_poly_shifted(k2, x2 - x1)
            )
            expected_rhs = expected_rhs + (
                binom_poly(r1, k1)
                * x1**k1
                * binom_poly(r2, k2)
                * bernoulli_poly_shifted(k2, x2)
            )
        assert lhs == expected_lhs
        assert rhs == expected_rhs


def test_lemma22_euler_specialization():
    # abar_l = (-1)^l E_l(0) makes the abar-factors Euler polynomials.
    lhs, rhs = lemma22_sides(3, 2, "eq2", 2)
    subs = {}
    for l in range(3):
        subs[f"a_{l}"] = (-1) ** l * bernoulli_number(l)
        subs[f"abar_{l}"] = (-1) ** l * euler_at_zero(l)
    for var, value in subs.items():
        lhs = lhs.substitute(var, MultiPoly.constant(value))
        rhs = rhs.substitute(var, MultiPoly.constant(value))
    assert lhs == rhs
    assert not (lhs.variables() & {"a_0", "a_1", "a_2", "abar_0", "abar_1", "abar_2"})


def test_lemma22_errors():
    with pytest.raises(ValueError):
        lemma22_sides(1, 2, "eq1")
    with pytest.raises(ValueError):
        lemma22_sides(2, 2, "eq2")  # missing i
    with pytest.raises(ValueError):
        lemma22_sides(2, 2, "eq2", 3)  # i out of range
    with pytest.raises(ValueError):
        lemma22_sides(2, 2, "eq3", 2)


# -- convolution identity --------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 4, 8])
def test_chu_vandermonde_sides(n):
    assert_sides_equal(*chu_vandermonde_sides(n))


def test_verify_chu_vandermonde_n0():
    report = verify(IdentitySpec("chu_vandermonde", n=0))
    assert report.holds
    assert report.lhs_terms == report.rhs_terms == 1


# -- verification driver ---------------------------------------------------


def test_verify_symbolic_report():
    report = verify(IdentitySpec("thm12", n=3, m=3))
    assert report.holds
    assert report.residual_terms == 0
    assert report.lhs_terms > 0
    assert report.elapsed_ms >= 0


def test_verify_numeric_matches_symbolic():
    for spec_args in [
        {"identity": "thm12", "n": 3, "m": 2},
        {"identity": "cor11", "n": 4, "m": 2},
        {"identity": "thm11_part2", "n": 3},
        {"identity": "remark11", "n": 3},
        {"identity": "lemma21", "n": 4, "m": 3, "seed": 11},
    ]:
        symbolic = verify(IdentitySpec(mode="symbolic", **spec_args))
        numeric = verify(IdentitySpec(mode="numeric", **{"seed": 7, **spec_args}))
        assert symbolic.holds == numeric.holds is True
        assert numeric.params_used is not None


def test_verify_numeric_samples_all_variables():
    numeric = verify(IdentitySpec("cor11", n=3, m=2, mode="numeric", seed=7))
    assert numeric.holds
    assert set(numeric.params_used) == {"r_1", "r_2"}


def test_verify_numeric_lemma22_draws_only_used_coefficients():
    # Coefficients are drawn lazily: at m = 2 eq2 has no abar factor, so no
    # abar_l is sampled.
    for m, i in ((2, 2), (3, 3)):
        lhs, rhs = lemma22_sides(m, 3, "eq2", i)
        report = verify(IdentitySpec("lemma22_eq2", n=3, m=m, i=i, mode="numeric", seed=7))
        assert report.holds
        assert set(report.params_used) == lhs.variables() | rhs.variables()


# The sample point of a seeded numeric report, in the order its builder draws
# the variables. A builder edit that reorders the draws moves every seeded
# report's point, so it must show here.
SEED7_POINTS = {
    "thm11_part1": "x=0 y=5/2 r=-8/9 s=-7/6",
    "thm11_part2": "x=0 y=5/2 r=-8/9 s=-7/6",
    "thm12": "x_1=0 x_2=5/2 x_3=-8/9 r_1=-7/6 r_2=17/2 r_3=12/7",
    "cor11": "r_1=0 r_2=5/2 r_3=-8/9",
    "lemma21": "x=0",
    "lemma22_eq1": "x_1=0 x_2=5/2 x_3=-8/9 r_1=-7/6 r_2=17/2 r_3=12/7 a_0=-6 a_1=1/2 a_2=-2",
    "lemma22_eq2": "x_1=0 x_2=5/2 x_3=-8/9 r_1=-7/6 r_2=17/2 r_3=12/7 a_0=-6 a_1=1/2 a_2=-2"
                   " abar_0=-5/6 abar_1=7/2 abar_2=4",
    "remark11": "x=0 y=5/2 r=-8/9 s=-7/6 w=17/2",
    "chu_vandermonde": "r=0 s=5/2",
}


@pytest.mark.parametrize("identity", list(IDENTITIES))
def test_seeded_numeric_sample_point_is_pinned(identity):
    entry = IDENTITIES[identity]
    spec = IdentitySpec(identity, n=2, m=3 if entry.min_m else None,
                        i=3 if entry.takes_i else None, mode="numeric", seed=7)
    report = verify(spec)
    assert report.holds
    point = " ".join(f"{name}={value}" for name, value in report.params_used.items())
    assert point == SEED7_POINTS[identity]


def test_verify_numeric_with_explicit_params():
    params = {"r": Fraction(1, 3), "s": Fraction(2), "x": Fraction(-1, 2), "y": Fraction(5, 7)}
    report = verify(IdentitySpec("thm11_part2", n=2, mode="numeric", params=params))
    assert report.holds
    assert report.params_used == params


def test_verify_numeric_requires_seed_or_params():
    with pytest.raises(ValueError):
        verify(IdentitySpec("thm12", n=2, m=2, mode="numeric"))


def test_verify_rejects_bad_specs():
    with pytest.raises(ValueError):
        verify(IdentitySpec("nope", n=2))
    with pytest.raises(ValueError):
        verify(IdentitySpec("thm12", n=2))  # missing m
    with pytest.raises(ValueError):
        verify(IdentitySpec("lemma22_eq2", n=2, m=2))  # missing i
    with pytest.raises(ValueError):
        verify(IdentitySpec("thm12", n=0, m=1))
    with pytest.raises(ValueError):
        verify(IdentitySpec("thm12", n=2, m=2, mode="float"))


def test_verify_lemma21_seeded():
    report = verify(IdentitySpec("lemma21", n=4, m=4, seed=11))
    assert report.holds


def test_verify_numeric_accepts_param_of_a_cancelled_variable():
    # Both sides of cor11 (2, 2) expand to 0, yet the builder draws r_1.
    params = {"r_1": Fraction(1, 2)}
    report = verify(IdentitySpec("cor11", n=2, m=2, mode="numeric", seed=7, params=params))
    assert report.holds
    assert set(report.params_used) == {"r_1", "r_2"}
    assert report.params_used["r_1"] == Fraction(1, 2)


@pytest.mark.parametrize(
    "identity,m", [("thm12", 3), ("remark11", None), ("lemma22_eq1", 3), ("lemma22_eq2", 3)]
)
def test_numeric_mode_binds_before_expanding(monkeypatch, identity, m):
    def no_variable(name):
        raise AssertionError(f"variable {name!r} built in numeric mode")

    monkeypatch.setattr(MultiPoly, "variable", staticmethod(no_variable))
    i = 2 if IDENTITIES[identity].takes_i else None
    report = verify(IdentitySpec(identity, n=3, m=m, i=i, mode="numeric", seed=5))
    assert report.holds
    assert report.lhs_terms <= 1 and report.rhs_terms <= 1


def test_numeric_lemma21_evaluates_x_after_the_build(monkeypatch):
    # Were x bound before the operators shift it, delta_star would be 2*P and
    # the swapped operator would go unnoticed.
    monkeypatch.setattr(identities, "delta_star", delta)
    report = verify(IdentitySpec("lemma21", n=4, m=3, mode="numeric", seed=11))
    assert not report.holds
    assert "x" in report.params_used


def test_identity_spec_is_hashable():
    params = {"r": Fraction(1, 3)}
    spec = IdentitySpec("thm11_part2", n=2, mode="numeric", params=params, seed=3)
    assert hash(spec) == hash(dataclasses.replace(spec, params=dict(params)))
    assert len({spec, dataclasses.replace(spec)}) == 1


# Each implanted sign bug: the builder it replaces, how it corrupts the sides,
# and the m of the spec it is verified at.
SIGN_FLIPS = {
    "thm12": ("thm12_sides", lambda sides: (sides[0], -sides[1]), 3),
    "remark11": ("remark11_sides", lambda sides: ((sides[0][0], -sides[0][1]), sides[1]), None),
    "lemma22_eq1": ("lemma22_sides", lambda sides: (sides[0], -sides[1]), 3),
}


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
@pytest.mark.parametrize("identity", list(SIGN_FLIPS))
def test_negative_control_sign_flip(monkeypatch, identity, mode):
    builder, flip, m = SIGN_FLIPS[identity]
    real = getattr(identities, builder)
    monkeypatch.setattr(identities, builder, lambda *args: flip(real(*args)))
    spec = IdentitySpec(
        identity, n=3, m=m, mode=mode, seed=20090812 if mode == "numeric" else None
    )
    report = verify(spec)
    assert not report.holds
    assert report.residual_terms > 0
    assert str(report.residual) != "0"
    if mode == "numeric":
        lhs, rhs = IDENTITIES[identity].build(spec)
        assert set(report.params_used) == lhs.variables() | rhs.variables()


def test_numeric_residual_is_the_exact_value(monkeypatch):
    builder, flip, _ = SIGN_FLIPS["thm12"]
    real = getattr(identities, builder)
    monkeypatch.setattr(identities, builder, lambda *args: flip(real(*args)))
    report = verify(IdentitySpec("thm12", n=3, m=2, mode="numeric", seed=1))
    lhs, rhs = identities.thm12_sides(2, 3)
    point = report.params_used
    assert not report.holds
    assert str(report.residual) == str(lhs.evaluate(point) - rhs.evaluate(point))
    assert report.residual_terms == 1
    assert report.lhs_terms <= 1 and report.rhs_terms <= 1


def test_residual_terms_count_the_residual(monkeypatch):
    # Unlike a sign flip's 2*lhs, lhs - (rhs + 1) = -1 has fewer terms than lhs.
    real = identities.thm12_sides

    def off_by_one(m, n):
        lhs, rhs = real(m, n)
        return lhs, rhs + 1

    monkeypatch.setattr(identities, "thm12_sides", off_by_one)
    report = verify(IdentitySpec("thm12", n=3, m=2))
    lhs, rhs = off_by_one(2, 3)
    assert not report.holds
    assert report.residual == lhs - rhs
    assert report.residual_terms == len(lhs - rhs) == 1 < report.lhs_terms
    assert str(report.residual) == "-1"


@pytest.mark.parametrize("identity", list(IDENTITIES))
def test_registry_entry_verifies_at_smallest_spec(identity):
    entry = IDENTITIES[identity]
    spec = IdentitySpec(
        identity,
        n=entry.min_n,
        m=entry.min_m,
        i=2 if entry.takes_i else None,
        seed=0 if entry.needs_seed else None,
    )
    assert verify(spec).holds
    with pytest.raises(ValueError):
        verify(dataclasses.replace(spec, n=spec.n - 1))
    if spec.m is not None:
        with pytest.raises(ValueError):
            verify(dataclasses.replace(spec, m=spec.m - 1))


def test_enumerate_specs_matrix():
    specs = list(enumerate_specs(3, 3))
    assert all(isinstance(s, IdentitySpec) for s in specs)
    ids = {s.identity for s in specs}
    assert ids == {
        "thm12",
        "cor11",
        "thm11_part1",
        "thm11_part2",
        "remark11",
        "lemma22_eq1",
        "lemma22_eq2",
        "lemma21",
    }
    # thm12/cor11 cover the full m x n grid
    assert sum(1 for s in specs if s.identity == "thm12") == 9
    with pytest.raises(ValueError):
        list(enumerate_specs(0, 3))


def _digest_specs():
    """A fixed small instance of every identity with symbolic sides."""
    yield from (("thm12", n, m, None) for m in range(1, 13) for n in range(1, 12 // m + 1))
    yield from (("cor11", n, m, None) for m in range(1, 5) for n in range(1, 5))
    for identity in ("thm11_part1", "thm11_part2"):
        yield from ((identity, n, None, None) for n in range(1, 6))
    yield from (("remark11", n, None, None) for n in range(1, 5))
    yield from (("chu_vandermonde", n, None, None) for n in range(9))
    for m in (2, 3):
        for n in range(1, 5):
            yield ("lemma22_eq1", n, m, None)
            yield from (("lemma22_eq2", n, m, i) for i in range(2, m + 1))


# The sha256 of the side term maps of _digest_specs. A change to the kernel,
# the families or the builders that keeps every side the same polynomial keeps
# it; it was taken with Fraction term maps before the integer kernel.
SIDES_DIGEST = "71385cd35a1f7bab5984b0fd22dd225e97b88f896def93925fedf58590861b0c"


def test_side_term_maps_match_pinned_digest():
    digest = hashlib.sha256()
    for identity, n, m, i in _digest_specs():
        spec = IdentitySpec(identity, n=n, m=m, i=i)
        for side in IDENTITIES[identity].build(spec):
            digest.update(repr(sorted(side.terms.items())).encode())
    assert digest.hexdigest() == SIDES_DIGEST
