"""A catalogue of source mutants of identities.py, each of which must verify
as not holding in symbolic mode.

Several specs pass with both sides empty (cor11 where both sides vanish,
thm11_part1 and lemma21 against 0), so a builder that returned zero would
pass them; a sign flip of the sides, the other negative control, cannot
show that each builder computes its own identity. Every mutant below is one
exact source edit, made in a copy of the module that is loaded afresh, and
the spec it is verified at must hold for the unmutated module.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import eulersym.identities as identities
from eulersym.identities import IdentitySpec, verify

SOURCE = Path(identities.__file__).read_text(encoding="utf-8")

# name -> (the text replaced, its mutant, the spec verified)
MUTANTS = {
    "thm12 shift j >= i -> j > i": (
        "int(j >= i)", "int(j > i)", IdentitySpec("thm12", n=2, m=2)),
    "thm12 sign (-1)^(i+m) -> (-1)^i": (
        "(-1) ** (i + m)", "(-1) ** i", IdentitySpec("thm12", n=2, m=3)),
    "thm12 even pivot B -> E": (
        "else bernoulli_row\n", "else euler_row\n", IdentitySpec("thm12", n=3, m=2)),
    "thm12 pivot row one entry off: C(r_0,k) B_(k+1)": (
        "pivot_row(n, 1 - xi)", "pivot_row(n + 1, 1 - xi)[1:]", IdentitySpec("thm12", n=3, m=2)),
    "thm12 prefactor r_0/2 -> r_0": (
        "lhs = r0 * lhs / 2", "lhs = r0 * lhs", IdentitySpec("thm12", n=2, m=2)),
    "_pair_sum without (-1)^k": (
        "c * (-1) ** k for k, c", "c for k, c", IdentitySpec("thm11_part2", n=2)),
    "thm11_part1 B -> E": (
        "    b = bernoulli_row\n", "    b = euler_row\n", IdentitySpec("thm11_part1", n=2)),
    "thm11_part1 t = n-r-s -> n-1-r-s": (
        "MultiPoly.constant(n) - r - s", "MultiPoly.constant(n - 1) - r - s",
        IdentitySpec("thm11_part1", n=2)),
    "cor11 tail sign dropped": (
        "(-1 if j >= i and k else 1)", "1", IdentitySpec("cor11", n=3, m=2)),
    # b~(k) itself is undefined at k = 0, so the index slips the other way.
    "cor11 b~(k+1) -> b~(k+2)": (
        "map(b_tilde, range(1, n + 2))", "map(b_tilde, range(2, n + 3))",
        IdentitySpec("cor11", n=3, m=2)),
    "cor11 b~ row read one entry off": (
        "[tilde[k] *", "[tilde[k - 1] *", IdentitySpec("cor11", n=3, m=2)),
    "cor11 prefactor (-1)^(n+1) -> (-1)^n": (
        "Fraction((-1) ** (n + 1))", "Fraction((-1) ** n)", IdentitySpec("cor11", n=3, m=2)),
    "lemma21 even branch D -> D*": (
        'else delta(polys[0], "x")', 'else delta_star(polys[0], "x")',
        IdentitySpec("lemma21", n=4, m=2, seed=2)),
    "lemma22_eq1 (-x_1)^k -> x_1^k": (
        "eq1_side(binom_r0, -xs[0], xs[0])", "eq1_side(binom_r0, xs[0], xs[0])",
        IdentitySpec("lemma22_eq1", n=2, m=2)),
    "lemma22_eq2 gap row one entry off: (x_q - x_p)^(k+1)": (
        "power_row(xs[q] - xs[p], n)", "power_row(xs[q] - xs[p], n + 1)[1:]",
        IdentitySpec("lemma22_eq2", n=2, m=2, i=2)),
    "_convolve binomial row one entry off: C(r_j,k-1) F_j(k)": (
        "map(mul, binom, row)", "map(mul, [0, *binom], row)", IdentitySpec("thm11_part2", n=2)),
    "_pivot_block skips factor 0 instead of the pivot's": (
        "if j != p]", "if j != 0]", IdentitySpec("lemma22_eq2", n=2, m=3, i=3)),
    "remark11 x_1 = 1-y -> y": (
        '{"x_1": 1 - y,', '{"x_1": y,', IdentitySpec("remark11", n=2)),
}


def load_mutant(monkeypatch, tmp_path, old, new):
    assert SOURCE.count(old) == 1, f"{old!r} must occur exactly once in identities.py"
    path = tmp_path / "identities_mutant.py"
    path.write_text(SOURCE.replace(old, new), encoding="utf-8")
    spec = importlib.util.spec_from_file_location("identities_mutant", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_does_not_hold(monkeypatch, tmp_path, name):
    old, new, spec = MUTANTS[name]
    assert verify(spec).holds
    mutant = load_mutant(monkeypatch, tmp_path, old, new)
    report = mutant.verify(
        mutant.IdentitySpec(spec.identity, spec.n, spec.m, spec.i, seed=spec.seed))
    assert not report.holds
    assert report.residual_terms > 0
