"""Symbolic expression algebra: construction, canonical forms, composition,
substitution, evaluation, rendering, parsing, and growth comparison."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pred import (
    Add,
    Comparison,
    Const,
    Exp,
    Expr,
    Mul,
    Pow,
    SymbolicError,
    Var,
    canonical,
    compare,
    compose,
    evaluate_expr,
    identity_overhead,
    is_polynomial,
    parse_expr,
    render,
    render_overhead,
    subst,
)


def test_const_rejects_negative():
    with pytest.raises(ValueError):
        Const(-1)
    assert Const(Fraction(3, 2)).value == Fraction(3, 2)


def test_var_rejects_bad_names():
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Var("a b")


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Pow(Var("n"), -1)


def test_exp_base_must_exceed_one():
    with pytest.raises(ValueError):
        Exp(Fraction(1), Var("n"))
    with pytest.raises(ValueError):
        Exp(Fraction(1, 2), Var("n"))
    Exp(Fraction(2), Var("n"))  # fine
    Exp("k", Var("V"))  # variable base


def test_operator_sugar_builds_trees():
    n = Var("n")
    expr = canonical(n * n + 2 * n + 1)
    assert render(expr) == "n^2 + 2*n + 1"
    assert render(canonical(n**3)) == "n^3"


def test_canonical_merges_and_orders():
    n, m = Var("n"), Var("m")
    left = canonical(Add((Mul((n, m)), Mul((m, n)), Const(3), Const(2))))
    assert render(left) == "2*m*n + 5"


def test_canonical_drops_zero_terms():
    n = Var("n")
    assert render(canonical(n + Const(0))) == "n"
    assert render(canonical(Mul((Const(0), n)))) == "0"
    assert render(canonical(Mul((Const(1), n)))) == "n"


def test_canonical_is_idempotent_on_random_polynomials():
    rng = random.Random(7)
    for _ in range(100):
        expr = _random_poly(rng, ("n", "m"))
        once = canonical(expr)
        assert canonical(once) == once


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("2^n + 2^m", "2^m + 2^n"),
        ("2^m + 2^n", "2^m + 2^n"),
        ("3^n + 2^n + n", "2^n + 3^n + n"),
        ("sqrt(V)*2^n", "2^n*V^(1/2)"),
        ("2^n*sqrt(V)", "2^n*V^(1/2)"),
        ("V^(1/2) + E^(1/2)", "E^(1/2) + V^(1/2)"),
        ("k^V + 2^V", "2^V + k^V"),
    ],
)
def test_canonical_orders_terms_that_are_not_polynomial(text, rendered):
    # the terms and factors that are not polynomial take one order whatever
    # order they came in, and a sum's polynomial part comes last
    once = canonical(parse_expr(text))
    assert render(once) == rendered
    assert canonical(once) == once


def test_render_examples():
    assert render(Exp(Fraction(11996, 10000), Var("V"))) == "1.1996^V"
    assert render(Exp(Fraction(2), Var("L"))) == "2^L"
    assert render(Exp("k", Var("V"))) == "k^V"
    assert render(canonical(Exp(Fraction(2), Pow(Var("L"), 2)))) == "2^(L^2)"
    assert render(Const(Fraction(1, 2))) == "0.5"
    assert render(Const(Fraction(1, 3))) == "1/3"


def test_parse_round_trips_rendered_expressions():
    rng = random.Random(11)
    samples = [
        Exp(Fraction(11996, 10000), Var("V")),
        Exp("k", Var("V")),
        canonical(Var("n") * Var("n") + Var("m") * 3 + 1),
        canonical(Exp(Fraction(2), Pow(Var("L"), 2))),
    ] + [_random_poly(rng, ("n", "L")) for _ in range(40)]
    for expr in samples:
        expr = canonical(expr)
        assert canonical(parse_expr(render(expr))) == expr


def test_parse_rejects_junk():
    for text in ("", "n +", "(n", "n ** 2", "2^^n", "1.2.3^n"):
        with pytest.raises(SymbolicError):
            parse_expr(text)


def test_is_polynomial():
    n = Var("n")
    assert is_polynomial(canonical(n * n + 3))
    assert not is_polynomial(Exp(Fraction(2), n))


def test_evaluate_basics():
    n, m = Var("n"), Var("m")
    expr = canonical(n * n + 2 * m + 1)
    assert evaluate_expr(expr, {"n": 3, "m": 4}) == 18
    assert evaluate_expr(Exp(Fraction(2), n), {"n": 5}) == 32


def test_evaluate_missing_binding_raises():
    with pytest.raises(SymbolicError):
        evaluate_expr(Var("n"), {})


def test_substitution_matches_numeric_composition():
    rng = random.Random(23)
    for _ in range(200):
        outer = _random_poly(rng, ("x", "y"))
        inner_x = _random_poly(rng, ("a", "b"))
        inner_y = _random_poly(rng, ("a", "b"))
        substituted = subst(outer, {"x": inner_x, "y": inner_y})
        point = {"a": rng.randint(0, 5), "b": rng.randint(0, 5)}
        via_subst = evaluate_expr(substituted, point)
        via_steps = evaluate_expr(
            outer,
            {"x": evaluate_expr(inner_x, point), "y": evaluate_expr(inner_y, point)},
        )
        assert via_subst == via_steps


def test_compose_overheads_known_case():
    outer = {"V": parse_expr("L"), "E": parse_expr("L^2")}
    inner = {"L": parse_expr("3*L"), "n": parse_expr("n + L"), "m": parse_expr("L")}
    composed = compose(outer, inner)
    assert render_overhead(composed) == "{V: 3*L, E: 9*L^2}"


def test_compose_requires_inner_coverage():
    with pytest.raises(SymbolicError):
        compose({"V": parse_expr("L")}, {"m": parse_expr("m")})


def test_compose_associativity_on_random_triples():
    rng = random.Random(41)
    names = ("u", "v")
    for _ in range(500):
        f = {n: _random_poly(rng, names) for n in names}
        g = {n: _random_poly(rng, names) for n in names}
        h = {n: _random_poly(rng, names) for n in names}
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert {k: canonical(v) for k, v in left.items()} == {
            k: canonical(v) for k, v in right.items()
        }


def test_compose_identity_laws():
    rng = random.Random(43)
    names = ("p", "q", "r")
    ident = identity_overhead(names)
    for _ in range(50):
        f = {n: _random_poly(rng, names) for n in names}
        assert compose(f, ident) == {k: canonical(v) for k, v in f.items()}
        assert compose(ident, f) == {k: canonical(v) for k, v in f.items()}


def test_compose_evaluation_coherence():
    rng = random.Random(47)
    names = ("s", "t")
    for _ in range(200):
        f = {n: _random_poly(rng, names) for n in names}
        g = {n: _random_poly(rng, names) for n in names}
        fg = compose(f, g)
        point = {n: rng.randint(0, 4) for n in names}
        mid = {n: evaluate_expr(g[n], point) for n in names}
        for n in names:
            assert evaluate_expr(fg[n], point) == evaluate_expr(f[n], mid)


def test_compose_monotonicity_on_nonnegative_points():
    # nonnegative-coefficient polynomials stay ordered under composition
    rng = random.Random(53)
    names = ("w",)
    for _ in range(100):
        f = {n: _random_poly(rng, names) for n in names}
        g = {n: _random_poly(rng, names) for n in names}
        fg = compose(f, g)
        lo = {"w": rng.randint(0, 3)}
        hi = {"w": lo["w"] + rng.randint(0, 3)}
        assert evaluate_expr(fg["w"], lo) <= evaluate_expr(fg["w"], hi)


def test_compare_constant_vs_growth():
    assert compare(Const(5), Var("n")) is Comparison.LOWER_GROWTH
    assert compare(Var("n"), Const(5)) is Comparison.HIGHER_GROWTH
    assert compare(Const(5), Const(9)) is Comparison.EQUIVALENT


def test_compare_polynomial_degrees():
    n = Var("n")
    assert compare(n, canonical(n * n)) is Comparison.LOWER_GROWTH
    assert compare(canonical(n * n * n), canonical(n * n)) is Comparison.HIGHER_GROWTH
    assert compare(canonical(3 * n + 7), canonical(n + 1)) is Comparison.EQUIVALENT


def test_compare_exponential_dominates_every_polynomial():
    growth = Exp(Fraction(11996, 10000), Var("n"))
    poly = Const(1)
    for degree in range(1, 11):
        poly = canonical(poly * (Var("n") + 1))
        assert compare(growth, poly) is Comparison.HIGHER_GROWTH
        assert compare(poly, growth) is Comparison.LOWER_GROWTH


def test_compare_exponential_bases():
    n = Var("n")
    assert compare(Exp(Fraction(11996, 10000), n), Exp(Fraction(2), n)) is Comparison.LOWER_GROWTH
    assert compare(Exp(Fraction(2), n), Exp(Fraction(2), n)) is Comparison.EQUIVALENT


def test_compare_exponent_structure():
    n = Var("n")
    two_n = Exp(Fraction(2), n)
    two_n2 = Exp(Fraction(2), canonical(n * n))
    assert compare(two_n2, two_n) is Comparison.HIGHER_GROWTH


def test_compare_incomparable_multivariate():
    a = canonical(Var("V") * Var("V") + Var("E"))
    b = canonical(Var("E") * Var("E") + Var("V"))
    assert compare(a, b) is Comparison.INCOMPARABLE


def test_compare_variable_base_above_fixed_base():
    # under a common scale, t^t grows faster than 2^t
    assert compare(Exp("k", Var("V")), Exp(Fraction(2), Var("V"))) is Comparison.HIGHER_GROWTH


def test_identity_overhead():
    ident = identity_overhead(("V", "E"))
    assert render_overhead(ident) == "{V: V, E: E}"


def test_render_overhead_preserves_declaration_order():
    over = {"n": parse_expr("V"), "c": parse_expr("E")}
    assert render_overhead(over) == "{n: V, c: E}"


def _random_poly(rng: random.Random, names: tuple[str, ...]) -> Expr:
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = Const(rng.randint(0, 3))
        factors: list[Expr] = [coeff]
        budget = 2  # cap the monomial degree to keep triple compositions fast
        for name in names:
            power = rng.randint(0, budget)
            budget -= power
            if power:
                factors.append(Pow(Var(name), power))
        terms.append(Mul(tuple(factors)))
    return canonical(Add(tuple(terms)))
