"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything is exact (zero tolerance); time limits are wall-clock
per instance as stated.
"""

import json
import random
import time
from fractions import Fraction

import eulersym.identities as identities
from eulersym import cli
from eulersym.exact import binom_int, random_rational
from eulersym.identities import (
    IdentitySpec,
    chu_vandermonde_sides,
    cor11_sides,
    lemma21_residual,
    lemma22_sides,
    random_one_var_poly,
    remark11_sides,
    thm11_part1_sides,
    thm11_part2_sides,
    thm12_sides,
    verify,
)
from eulersym.mpoly import MultiPoly, binom_poly, delta, delta_star
from eulersym.polyfam import (
    appell_poly_at,
    bernoulli_poly,
    bernoulli_poly_shifted,
    euler_poly,
)
from eulersym.sequences import bernoulli_number, euler_number

X = MultiPoly.variable("x")


def report(criterion, label, ok):
    print(f"ACCEPTANCE {criterion} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {criterion} failed: {label}"


def timed_residual_zero(builder, limit_s):
    start = time.perf_counter()
    lhs, rhs = builder()
    residual = lhs - rhs
    elapsed = time.perf_counter() - start
    return residual.is_zero() and elapsed < limit_s


def test_criterion_01_thm12_odd():
    ok = all(
        timed_residual_zero(lambda m=m, n=n: thm12_sides(m, n), 60.0)
        for m, n in [(1, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
    )
    report(1, "thm12 odd branch, m=1 n<=8 and m=3 n<=5", ok)


def test_criterion_02_thm12_even():
    ok = all(
        timed_residual_zero(lambda m=m, n=n: thm12_sides(m, n), 120.0)
        for m, n in [(2, n) for n in range(1, 7)] + [(4, n) for n in range(1, 5)]
    )
    report(2, "thm12 even branch, m=2 n<=6 and m=4 n<=4", ok)


def test_criterion_03_cor11():
    ok = True
    for m in (1, 2, 3, 4):
        for n in range(1, 6):
            cl, cr = cor11_sides(m, n)
            if not (cl - cr).is_zero():
                ok = False
                continue
            tl, tr = thm12_sides(m, n)
            rng = random.Random(1000 * m + n)
            scale = Fraction(2**n)
            for _ in range(20):
                assign = {f"r_{j}": random_rational(rng) for j in range(1, m + 1)}
                assign.update({f"x_{j}": Fraction(1, 2) for j in range(1, m + 1)})
                if cl.evaluate(assign) != (-1) ** (n + 1) * scale * tl.evaluate(assign):
                    ok = False
                if cr.evaluate(assign) != (-1) ** m * scale * tr.evaluate(assign):
                    ok = False
    report(3, "cor11 residual zero m<=4 n<=5 + x=1/2 cross-oracle", ok)


def test_criterion_04_thm11_part1():
    ok = True
    for n in range(1, 9):
        lhs, rhs = thm11_part1_sides(n)
        ok = ok and (lhs - rhs).is_zero()
    report(4, "thm11 part (i) residual zero n<=8", ok)


def test_criterion_05_thm11_part2():
    ok = True
    for n in range(1, 7):
        lhs, rhs = thm11_part2_sides(n)
        ok = ok and (lhs - rhs).is_zero()
    report(5, "thm11 part (ii) residual zero n<=6", ok)


def test_criterion_06_remark11():
    ok = True
    for n in range(1, 7):
        (l12, r12), (l11, r11) = remark11_sides(n)
        ok = ok and l12 == l11 and r12 == r11
    report(6, "remark11 m=2 transform equals thm11 part (ii), n<=6", ok)


def test_criterion_07_lemma21():
    ok = True
    parities_seen = set()
    for seed in range(200):
        rng = random.Random(seed)
        m = 2 + seed % 4  # m in 2..5, both parities
        polys = [random_one_var_poly(rng, max_degree=4) for _ in range(m)]
        parities_seen.add(m % 2)
        ok = ok and lemma21_residual(polys).is_zero()
    ok = ok and parities_seen == {0, 1}
    report(7, "lemma21 residual zero on 200 seeded random tuples", ok)


def test_criterion_08_lemma22():
    ok = True
    for m in (2, 3):
        for n in range(1, 5):
            lhs, rhs = lemma22_sides(m, n, "eq1")
            ok = ok and (lhs - rhs).is_zero()
            for i in range(2, m + 1):
                lhs, rhs = lemma22_sides(m, n, "eq2", i)
                ok = ok and (lhs - rhs).is_zero()
    report(8, "lemma22 eq1/eq2 symbolic sequences, m in {2,3}, n<=4", ok)


def test_criterion_09_sequences():
    ok = True
    for n in range(1, 61):
        ok = ok and sum(
            binom_int(n + 1, k) * bernoulli_number(k) for k in range(n + 1)
        ) == 0
        ok = ok and sum(
            binom_int(n, k) * euler_number(k)
            for k in range(n + 1)
            if (n - k) % 2 == 0
        ) == 0
    for k in range(3, 60, 2):
        ok = ok and bernoulli_number(k) == 0
    for k in range(60):
        ok = ok and euler_number(k).denominator == 1
    for k in range(1, 60, 2):
        ok = ok and euler_number(k) == 0
    for k in range(31):
        half_value = bernoulli_poly_shifted(k, Fraction(1, 2)).constant_term()
        ok = ok and half_value == (Fraction(2) ** (1 - k) - 1) * bernoulli_number(k)
        ok = ok and euler_poly(k).constant_term() == Fraction(
            2 * (1 - 2 ** (k + 1)), k + 1
        ) * bernoulli_number(k + 1)
    report(9, "sequence recurrences, parities, and closed-form reductions", ok)


def test_criterion_10_operators():
    ok = True
    for n in range(31):
        expected = MultiPoly.zero() if n == 0 else n * X ** (n - 1)
        ok = ok and delta(bernoulli_poly(n), "x") == expected
        ok = ok and delta_star(euler_poly(n), "x") == 2 * X**n
    for d in range(13):
        image = delta_star(X**d, "x")
        lead = image.coefficient((("x", d),) if d else ())
        ok = ok and image.degree_in("x") == d and lead == 2
    report(10, "difference-operator images and companion-kernel triviality", ok)


def test_criterion_11_appell_and_convolution():
    ok = True
    y = MultiPoly.variable("y")

    def a(l):
        return MultiPoly.variable(f"a_{l}")

    for k in range(11):
        lhs = appell_poly_at(a, k, X + y)
        rhs = MultiPoly.zero()
        for l in range(k + 1):
            rhs = rhs + binom_int(k, l) * X ** (k - l) * appell_poly_at(a, l, y)
        ok = ok and lhs == rhs
    for n in range(9):
        lhs, rhs = chu_vandermonde_sides(n)
        ok = ok and lhs == rhs
    r = MultiPoly.variable("R")
    for ell in range(9):
        ok = ok and binom_poly((ell - 1) - r, ell) == binom_poly(r, ell) * ((-1) ** ell)
    report(11, "Appell translation, Chu-Vandermonde, upper negation", ok)


def test_criterion_12_negative_control(monkeypatch, capsys):
    real = identities.thm12_sides

    def flipped(m, n):
        lhs, rhs = real(m, n)
        return lhs, -rhs  # implanted sign bug in the odd-branch builder

    monkeypatch.setattr(identities, "thm12_sides", flipped)
    rep = verify(IdentitySpec("thm12", n=3, m=3))
    code = cli.main(["verify", "--identity", "thm12", "--m", "3", "--n", "3"])
    capsys.readouterr()
    ok = (not rep.holds) and rep.residual_terms > 0 and code == 1
    monkeypatch.undo()
    report(12, "sign-flipped builder is detected and CLI exits 1", ok)


def test_criterion_13_end_to_end(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    start = time.perf_counter()
    code = cli.main(
        ["verify-all", "--max-m", "3", "--max-n", "3", "--format", "json",
         "--out", str(out_file)]
    )
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    reports = json.loads(out_file.read_text())
    schema_ok = isinstance(reports, list) and len(reports) > 0
    for entry in reports:
        schema_ok = schema_ok and set(entry) == {
            "identity", "m", "n", "mode", "holds", "lhs_terms", "rhs_terms",
            "residual_terms", "elapsed_ms", "params",
        }
        schema_ok = schema_ok and isinstance(entry["holds"], bool)
        schema_ok = schema_ok and isinstance(entry["n"], int)
        schema_ok = schema_ok and (entry["m"] is None or isinstance(entry["m"], int))
        schema_ok = schema_ok and isinstance(entry["elapsed_ms"], (int, float))
    ok = code == 0 and schema_ok and all(e["holds"] for e in reports) and elapsed < 300.0
    report(13, "verify-all --max-m 3 --max-n 3 --format json end to end", ok)
