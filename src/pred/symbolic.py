"""Symbolic size expressions over named measures.

Reduction edges carry multivariate polynomials (how target sizes grow in
source sizes); problem nodes carry complexity expressions that may also use
exponential terms (``2^n``, ``1.1996^V``) and fractional powers. This module
provides the three operations the rest of the library needs:

* ``compose`` -- substitute one overhead map into another and expand to a
  canonical polynomial form (sum of products, merged like terms, sorted
  monomials, exact rational coefficients),
* ``evaluate_expr`` -- exact rational evaluation for polynomials, falling
  back to floats only where an exponential or fractional power forces it,
* ``compare`` -- asymptotic ordering of two expressions under a single-scale
  substitution scheme: every variable is replaced by one scale symbol ``t``
  and the resulting growth signatures are compared exactly (largest
  exponential rate first, then polynomial degree). Per-variable probe rays
  detect genuinely crossing multivariate expressions, which are reported as
  ``INCOMPARABLE``; constant factors are ignored throughout.

Expressions are immutable. Constants are non-negative rationals stored as
``fractions.Fraction`` so decimal literals like 1.1996 stay exact.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from typing import Mapping, Union

from .errors import (
    ExpressionSyntaxError,
    NotPolynomialError,
    Record,
    RegistrationError,
    UnboundVariableError,
    UnknownVariableError,
)

RationalLike = Union[int, Fraction]


def _frac(value: RationalLike) -> Fraction:
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational constant")
    return value if isinstance(value, Fraction) else Fraction(value)


class Expr(Record):
    """Base node. Operators build trees without canonicalizing."""

    def __add__(self, other: Expr | RationalLike) -> Expr:
        return Add((self, coerce(other)))

    __radd__ = __add__

    def __mul__(self, other: Expr | RationalLike) -> Expr:
        return Mul((self, coerce(other)))

    __rmul__ = __mul__

    def __pow__(self, exponent: RationalLike) -> Expr:
        return Pow(self, _frac(exponent))


def coerce(value: Expr | RationalLike) -> Expr:
    return value if isinstance(value, Expr) else Const(_frac(value))


# Expressions are built at every step of a composition or substitution, so
# each node class sets its fields in its own __init__ rather than through
# Record's generic one.

class Const(Expr):
    value: Fraction

    def __init__(self, value: RationalLike) -> None:
        value = _frac(value)
        if value < 0:
            raise ValueError(f"constants must be non-negative, got {value}")
        object.__setattr__(self, "value", value)


class Var(Expr):
    name: str

    def __init__(self, name: str) -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"bad variable name {name!r}")
        object.__setattr__(self, "name", name)


class Add(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, terms: tuple[Expr, ...]) -> None:
        object.__setattr__(self, "terms", terms)


class Mul(Expr):
    factors: tuple[Expr, ...]

    def __init__(self, factors: tuple[Expr, ...]) -> None:
        object.__setattr__(self, "factors", factors)


class Pow(Expr):
    """base ** exponent with a fixed non-negative rational exponent."""

    base: Expr
    exponent: Fraction

    def __init__(self, base: Expr, exponent: RationalLike) -> None:
        exponent = _frac(exponent)
        if exponent < 0:
            raise ValueError("Pow exponent must be non-negative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Exp(Expr):
    """base ** exponent-expression.

    The base is a rational > 1, or the name of a size measure (needed for
    complexities like k^V where the base itself is an instance parameter).
    """

    base: Union[Fraction, str]
    exponent: Expr

    def __init__(self, base: Union[RationalLike, str], exponent: Expr) -> None:
        if isinstance(base, str):
            if not base:
                raise ValueError("empty Exp base name")
        else:
            base = _frac(base)
            if base <= 1:
                raise ValueError("rational Exp base must exceed 1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


OverheadMap = Mapping[str, Expr]


# --- variable collection ----------------------------------------------------

def vars_of(expr: Expr) -> frozenset[str]:
    out: set[str] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            out.add(e.name)
        elif isinstance(e, Add):
            stack.extend(e.terms)
        elif isinstance(e, Mul):
            stack.extend(e.factors)
        elif isinstance(e, Pow):
            stack.append(e.base)
        elif isinstance(e, Exp):
            if isinstance(e.base, str):
                out.add(e.base)
            stack.append(e.exponent)
    return frozenset(out)


# --- polynomial form --------------------------------------------------------
#
# A polynomial is a dict mapping monomials to coefficients; a monomial is a
# sorted tuple of (variable, positive integer power) pairs. The empty tuple
# is the constant monomial.

Monomial = tuple[tuple[str, int], ...]
Poly = dict[Monomial, Fraction]


def _poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for mono, coeff in q.items():
        acc = out.get(mono, Fraction(0)) + coeff
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)
    return out


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    powers: dict[str, int] = dict(a)
    for name, k in b:
        powers[name] = powers.get(name, 0) + k
    return tuple(sorted(powers.items()))


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = _mono_mul(m1, m2)
            acc = out.get(mono, Fraction(0)) + c1 * c2
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
    return out


def _poly_pow(p: Poly, k: int) -> Poly:
    out: Poly = {(): Fraction(1)}
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def is_polynomial(expr: Expr) -> bool:
    if isinstance(expr, (Const, Var)):
        return True
    if isinstance(expr, Add):
        return all(is_polynomial(t) for t in expr.terms)
    if isinstance(expr, Mul):
        return all(is_polynomial(f) for f in expr.factors)
    if isinstance(expr, Pow):
        return expr.exponent.denominator == 1 and is_polynomial(expr.base)
    return False


def to_poly(expr: Expr) -> Poly:
    """Expand a polynomial expression. Raises NotPolynomialError otherwise."""
    if isinstance(expr, Const):
        return {(): expr.value} if expr.value else {}
    if isinstance(expr, Var):
        return {((expr.name, 1),): Fraction(1)}
    if isinstance(expr, Add):
        out: Poly = {}
        for t in expr.terms:
            out = _poly_add(out, to_poly(t))
        return out
    if isinstance(expr, Mul):
        out = {(): Fraction(1)}
        for f in expr.factors:
            out = _poly_mul(out, to_poly(f))
        return out
    if isinstance(expr, Pow):
        if expr.exponent.denominator != 1:
            raise NotPolynomialError(f"fractional power {expr.exponent} in polynomial context")
        return _poly_pow(to_poly(expr.base), int(expr.exponent))
    raise NotPolynomialError("exponential term in polynomial context")


def _mono_degree(mono: Monomial) -> int:
    return sum(k for _, k in mono)


def _mono_sort_key(mono: Monomial) -> tuple:
    # Highest total degree first, then lexicographic by variable powers.
    return (-_mono_degree(mono), mono)


def poly_to_expr(poly: Poly) -> Expr:
    """Render a polynomial dict as the canonical expression tree."""
    if not poly:
        return Const(Fraction(0))
    terms: list[Expr] = []
    for mono in sorted(poly, key=_mono_sort_key):
        coeff = poly[mono]
        factors: list[Expr] = []
        if coeff != 1 or not mono:
            factors.append(Const(coeff))
        for name, k in mono:
            factors.append(Var(name) if k == 1 else Pow(Var(name), Fraction(k)))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


# --- canonicalization -------------------------------------------------------

def _sort_key(expr: Expr) -> tuple:
    if isinstance(expr, Const):
        return (0, expr.value)
    if isinstance(expr, Var):
        return (1, expr.name)
    if isinstance(expr, Pow):
        return (2, _sort_key(expr.base), expr.exponent)
    if isinstance(expr, Exp):
        base = expr.base if isinstance(expr.base, str) else str(expr.base)
        return (3, base, _sort_key(expr.exponent))
    if isinstance(expr, Mul):
        return (4, tuple(_sort_key(f) for f in expr.factors))
    return (5, tuple(_sort_key(t) for t in expr.terms))  # type: ignore[union-attr]


def canonical(expr: Expr) -> Expr:
    """Normalize an expression; polynomials expand to sorted sums of products."""
    if is_polynomial(expr):
        return poly_to_expr(to_poly(expr))

    if isinstance(expr, Add):
        flat: list[Expr] = []
        for t in expr.terms:
            ct = canonical(t)
            flat.extend(ct.terms if isinstance(ct, Add) else [ct])
        poly: Poly = {}
        rest: list[Expr] = []
        for t in flat:
            if is_polynomial(t):
                poly = _poly_add(poly, to_poly(t))
            else:
                rest.append(t)
        terms = sorted(rest, key=_sort_key)
        if poly:
            ptail = poly_to_expr(poly)
            terms.extend(ptail.terms if isinstance(ptail, Add) else [ptail])
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    if isinstance(expr, Mul):
        flat = []
        for f in expr.factors:
            cf = canonical(f)
            flat.extend(cf.factors if isinstance(cf, Mul) else [cf])
        poly = {(): Fraction(1)}
        exps: dict[Union[Fraction, str], Expr] = {}
        rest = []
        for f in flat:
            if is_polynomial(f):
                poly = _poly_mul(poly, to_poly(f))
            elif isinstance(f, Exp):
                prev = exps.get(f.base)
                exps[f.base] = f.exponent if prev is None else Add((prev, f.exponent))
            else:
                rest.append(f)
        if not poly:
            return Const(Fraction(0))
        factors: list[Expr] = []
        pexpr = poly_to_expr(poly)
        if pexpr != Const(Fraction(1)):
            factors.append(pexpr)
        for base in sorted(exps, key=str):
            factors.append(Exp(base, canonical(exps[base])))
        factors.extend(sorted(rest, key=_sort_key))
        if not factors:
            return Const(Fraction(1))
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    if isinstance(expr, Pow):
        base = canonical(expr.base)
        if expr.exponent == 0:
            return Const(Fraction(1))
        if expr.exponent == 1:
            return base
        if isinstance(base, Pow):
            return canonical(Pow(base.base, base.exponent * expr.exponent))
        if isinstance(base, Const):
            if expr.exponent.denominator == 1:
                return Const(base.value ** int(expr.exponent))
        return Pow(base, expr.exponent)

    if isinstance(expr, Exp):
        exponent = canonical(expr.exponent)
        if isinstance(exponent, Const) and not isinstance(expr.base, str):
            if exponent.value.denominator == 1:
                return Const(expr.base ** int(exponent.value))
        return Exp(expr.base, exponent)

    return expr


# --- substitution and composition -------------------------------------------

def subst(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace every variable (including Exp bases) via ``mapping``."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        try:
            return mapping[expr.name]
        except KeyError:
            raise UnboundVariableError(f"no substitution for size measure {expr.name!r}") from None
    if isinstance(expr, Add):
        return Add(tuple(subst(t, mapping) for t in expr.terms))
    if isinstance(expr, Mul):
        return Mul(tuple(subst(f, mapping) for f in expr.factors))
    if isinstance(expr, Pow):
        return Pow(subst(expr.base, mapping), expr.exponent)
    base = expr.base
    if isinstance(base, str):
        try:
            replacement = mapping[base]
        except KeyError:
            raise UnboundVariableError(f"no substitution for size measure {base!r}") from None
        if isinstance(replacement, Var):
            base = replacement.name
        elif isinstance(replacement, Const):
            base = replacement.value
        else:
            raise NotPolynomialError("Exp base may only be renamed or fixed to a constant")
    return Exp(base, subst(expr.exponent, mapping))


def compose(outer: OverheadMap, inner: OverheadMap) -> dict[str, Expr]:
    """Overhead of the two-step reduction: apply ``inner`` first, then ``outer``.

    Every variable used by ``outer`` must be produced by ``inner``; the result
    maps outer's target measures to canonical polynomials over inner's source
    measures.
    """
    inner_polys = {name: to_poly(e) for name, e in inner.items()}
    out: dict[str, Expr] = {}
    for measure, expr in outer.items():
        acc: Poly = {}
        for mono, coeff in to_poly(expr).items():
            term: Poly = {(): coeff}
            for name, power in mono:
                if name not in inner_polys:
                    raise UnknownVariableError(
                        f"composition needs size measure {name!r}, "
                        f"inner map produces {sorted(inner_polys)}"
                    )
                term = _poly_mul(term, _poly_pow(inner_polys[name], power))
            acc = _poly_add(acc, term)
        out[measure] = poly_to_expr(acc)
    return out


def identity_overhead(measures: tuple[str, ...] | list[str]) -> dict[str, Expr]:
    return {m: Var(m) for m in measures}


# --- evaluation ---------------------------------------------------------------

Numeric = Union[int, Fraction, float]


def _eval(expr: Expr, bindings: Mapping[str, RationalLike]) -> Numeric:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise UnboundVariableError(f"size measure {expr.name!r} is unbound")
        value = _frac(bindings[expr.name])
        if value < 0:
            raise ValueError(f"size measure {expr.name!r} bound to negative value {value}")
        return value
    if isinstance(expr, Add):
        total: Numeric = Fraction(0)
        for t in expr.terms:
            total = total + _eval(t, bindings)
        return total
    if isinstance(expr, Mul):
        prod: Numeric = Fraction(1)
        for f in expr.factors:
            prod = prod * _eval(f, bindings)
        return prod
    if isinstance(expr, Pow):
        base = _eval(expr.base, bindings)
        if expr.exponent.denominator == 1:
            return base ** int(expr.exponent)
        return float(base) ** float(expr.exponent)
    base_val: Numeric
    if isinstance(expr.base, str):
        if expr.base not in bindings:
            raise UnboundVariableError(f"size measure {expr.base!r} is unbound")
        base_val = _frac(bindings[expr.base])
    else:
        base_val = expr.base
    exponent = _eval(expr.exponent, bindings)
    if isinstance(exponent, Fraction) and exponent.denominator == 1:
        return _frac(base_val) ** int(exponent)
    return float(base_val) ** float(exponent)


def evaluate_expr(expr: Expr, bindings: Mapping[str, RationalLike]) -> Numeric:
    """Evaluate with exact rational arithmetic wherever possible.

    Integer results come back as int; non-integral rationals as Fraction;
    float only when an exponential or fractional power forces it.
    """
    value = _eval(expr, bindings)
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


# --- asymptotic comparison ----------------------------------------------------

class Comparison(Enum):
    LOWER_GROWTH = "LowerGrowth"
    HIGHER_GROWTH = "HigherGrowth"
    EQUIVALENT = "Equivalent"
    INCOMPARABLE = "Incomparable"


# Growth of an expression along one probe ray (var -> t^deg): a polynomial
# degree plus exponential terms keyed by (exponent degree, var-base flag).
# A var-base key models t^t-style growth, which sits strictly between the
# rational-base exponentials of its degree and the next degree up.
_ExpKey = tuple[Fraction, bool]
_Rate = dict  # Fraction base -> Fraction coeff (rational keys), or {None: coeff}

_ZERO = Fraction(0)


class _Growth(Record):
    zero: bool
    poly_deg: Fraction
    exps: dict[_ExpKey, _Rate]


def _rate_cmp(r1: _Rate, r2: _Rate) -> int:
    """Compare products of rational powers exactly: prod b^c vs prod b'^c'."""
    if None in r1 or None in r2:
        c1, c2 = r1.get(None, _ZERO), r2.get(None, _ZERO)
        return (c1 > c2) - (c1 < c2)
    diffs = {b: r1.get(b, _ZERO) - r2.get(b, _ZERO) for b in set(r1) | set(r2)}
    diffs = {b: c for b, c in diffs.items() if c}
    if not diffs:
        return 0
    den = math.lcm(*(c.denominator for c in diffs.values()))
    left = Fraction(1)
    right = Fraction(1)
    for b, c in diffs.items():
        n = int(c * den)
        if n > 0:
            left *= Fraction(b) ** n
        else:
            right *= Fraction(b) ** (-n)
    return (left > right) - (left < right)


def _exps_cmp(e1: dict[_ExpKey, _Rate], e2: dict[_ExpKey, _Rate]) -> int:
    for key in sorted(set(e1) | set(e2), reverse=True):
        c = _rate_cmp(e1.get(key, {}), e2.get(key, {}))
        if c:
            return c
    return 0


def _growth_cmp(g1: _Growth, g2: _Growth) -> int:
    if g1.zero or g2.zero:
        return (not g1.zero) - (not g2.zero)
    c = _exps_cmp(g1.exps, g2.exps)
    if c:
        return c
    return (g1.poly_deg > g2.poly_deg) - (g1.poly_deg < g2.poly_deg)


def _merge_exps(a: dict[_ExpKey, _Rate], b: dict[_ExpKey, _Rate]) -> dict[_ExpKey, _Rate]:
    out = {k: dict(v) for k, v in a.items()}
    for key, rate in b.items():
        slot = out.setdefault(key, {})
        for base, coeff in rate.items():
            acc = slot.get(base, _ZERO) + coeff
            if acc:
                slot[base] = acc
            else:
                slot.pop(base, None)
    return {k: v for k, v in out.items() if v}


def _growth(expr: Expr, deg: Mapping[str, int]) -> _Growth:
    if isinstance(expr, Const):
        return _Growth(expr.value == 0, _ZERO, {})
    if isinstance(expr, Var):
        return _Growth(False, Fraction(deg[expr.name]), {})
    if isinstance(expr, Add):
        best: _Growth | None = None
        for t in expr.terms:
            g = _growth(t, deg)
            if g.zero:
                continue
            if best is None:
                best = g
                continue
            c = _exps_cmp(best.exps, g.exps)
            if c < 0:
                best = g
            elif c == 0:
                best = _Growth(False, max(best.poly_deg, g.poly_deg), best.exps)
        return best if best is not None else _Growth(True, _ZERO, {})
    if isinstance(expr, Mul):
        poly = _ZERO
        exps: dict[_ExpKey, _Rate] = {}
        for f in expr.factors:
            g = _growth(f, deg)
            if g.zero:
                return _Growth(True, _ZERO, {})
            poly += g.poly_deg
            exps = _merge_exps(exps, g.exps)
        return _Growth(False, poly, exps)
    if isinstance(expr, Pow):
        g = _growth(expr.base, deg)
        if g.zero:
            return _Growth(expr.exponent != 0, _ZERO, {})
        return _Growth(
            False,
            g.poly_deg * expr.exponent,
            {k: {b: c * expr.exponent for b, c in r.items()} for k, r in g.exps.items()},
        )
    # Exp node: exponent must be polynomial (nested exponentials unsupported).
    exps = {}
    poly = _ZERO
    for mono, coeff in to_poly(expr.exponent).items():
        if coeff == 0:
            continue
        mono_deg = Fraction(sum(k * deg[name] for name, k in mono))
        if isinstance(expr.base, str):
            base_deg = Fraction(deg[expr.base])
            if mono_deg == 0:
                poly += base_deg * coeff  # k^const is polynomial in k
            else:
                key = (mono_deg, True)
                slot = exps.setdefault(key, {})
                slot[None] = slot.get(None, _ZERO) + coeff * base_deg
        else:
            if mono_deg == 0:
                continue  # constant factor
            key = (mono_deg, False)
            slot = exps.setdefault(key, {})
            slot[expr.base] = slot.get(expr.base, _ZERO) + coeff
    return _Growth(False, poly, {k: v for k, v in exps.items() if v})


def compare(a: Expr, b: Expr) -> Comparison:
    """Order two size expressions by asymptotic growth.

    Single-scale verdict first (every variable -> t); per-variable rays
    (one variable -> t^2) only confirm it or flag a genuine crossing.
    """
    names = sorted(vars_of(a) | vars_of(b))
    base_ray = {n: 1 for n in names}

    def verdict(ray: Mapping[str, int]) -> int:
        return _growth_cmp(_growth(a, ray), _growth(b, ray))

    v0 = verdict(base_ray)
    side_verdicts = []
    for n in names:
        ray = dict(base_ray)
        ray[n] = 2
        side_verdicts.append(verdict(ray))
    if v0 != 0:
        if any(v == -v0 for v in side_verdicts):
            return Comparison.INCOMPARABLE
        return Comparison.HIGHER_GROWTH if v0 > 0 else Comparison.LOWER_GROWTH
    if 1 in side_verdicts and -1 in side_verdicts:
        return Comparison.INCOMPARABLE
    return Comparison.EQUIVALENT


# --- text form ----------------------------------------------------------------

def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    for digits in range(1, 13):
        scale = 10 ** digits
        if scale % q.denominator == 0:
            text = str(q.numerator * scale // q.denominator).rjust(digits + 1, "0")
            return f"{text[:-digits]}.{text[-digits:]}".rstrip("0")
    return f"{q.numerator}/{q.denominator}"


def _render_exponent(q: Fraction) -> str:
    return str(q) if q.denominator == 1 else f"({q.numerator}/{q.denominator})"


def _render_factor(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return format_rational(expr.value)
    if isinstance(expr, Pow):
        base = _render_factor(expr.base)
        if not isinstance(expr.base, (Var, Const)):
            base = f"({base})"
        return f"{base}^{_render_exponent(expr.exponent)}"
    if isinstance(expr, Exp):
        base = expr.base if isinstance(expr.base, str) else format_rational(expr.base)
        exponent = expr.exponent
        if isinstance(exponent, Var):
            return f"{base}^{exponent.name}"
        if isinstance(exponent, Const):
            return f"{base}^{format_rational(exponent.value)}"
        return f"{base}^({render(exponent)})"
    return f"({render(expr)})"


def render(expr: Expr) -> str:
    """Canonical text form, e.g. ``V^2 + 3*E``, ``1.1996^V``, ``V^(1/2)``."""
    expr = canonical(expr)
    if isinstance(expr, Add):
        return " + ".join(render(t) for t in expr.terms)
    if isinstance(expr, Mul):
        return "*".join(_render_factor(f) for f in expr.factors)
    return _render_factor(expr)


def render_overhead(overhead: OverheadMap) -> str:
    inner = ", ".join(f"{k}: {render(v)}" for k, v in overhead.items())
    return "{" + inner + "}"


_TOKEN = re.compile(r"\s*(\d+\.\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*^()/])")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExpressionSyntaxError(f"bad character at {text[pos:pos + 8]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ExpressionSyntaxError(f"expected {expected or 'a token'}, got {tok!r}")
        self.pos += 1
        return tok

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while self.peek() == "+":
            self.take("+")
            terms.append(self.parse_term())
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek() == "*":
            self.take("*")
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def parse_factor(self) -> Expr:
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        self.take("^")
        exponent = self.parse_atom()
        if isinstance(exponent, Const):
            if isinstance(base, Const):
                return canonical(Exp(base.value, exponent)) if base.value > 1 else canonical(
                    Pow(base, exponent.value)
                )
            return Pow(base, exponent.value)
        if isinstance(base, Const):
            return Exp(base.value, exponent)
        if isinstance(base, Var):
            return Exp(base.name, exponent)
        raise ExpressionSyntaxError("composite base with non-constant exponent")

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of expression")
        if tok == "(":
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            return inner
        if tok == "sqrt":
            self.take("sqrt")
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            return Pow(inner, Fraction(1, 2))
        if tok[0].isdigit():
            self.take()
            value = Fraction(tok)
            if self.peek() == "/":
                self.take("/")
                den = self.take()
                if not den.isdigit():
                    raise ExpressionSyntaxError(f"bad denominator {den!r}")
                value = value / int(den)
            return Const(value)
        if tok[0].isalpha() or tok[0] == "_":
            self.take()
            return Var(tok)
        raise ExpressionSyntaxError(f"unexpected token {tok!r}")


def parse_expr(text: str) -> Expr:
    """Parse the rendering grammar back into an expression."""
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    if parser.peek() is not None:
        raise ExpressionSyntaxError(f"trailing input at {parser.peek()!r}")
    return expr



# --- declared expressions ----------------------------------------------------
# The registry and the rule catalogue keep complexities and overheads as their
# declared text until one is first read; these parse and check that text.


def parse_complexity(type_name: str, declared: Expr | str, measures) -> Expr:
    """A problem type's declared complexity, parsed and checked against its size measures."""
    expr = parse_expr(declared) if isinstance(declared, str) else declared
    stray = set(vars_of(expr)) - set(measures)
    if stray:
        raise RegistrationError(
            f"{type_name}: complexity uses unknown size measure(s) {sorted(stray)}"
        )
    return expr


def parse_overhead(
    rule_name: str, declared: Mapping[str, Expr | str], source_measures, target_measures
) -> OverheadMap:
    """A rule's declared overhead, parsed and checked against its endpoints' size measures."""
    expected = set(target_measures)
    if set(declared) != expected:
        raise RegistrationError(
            f"rule {rule_name}: overhead covers {sorted(declared)}, "
            f"target measures are {sorted(expected)}"
        )
    overhead = {}
    for measure, expr in declared.items():
        if isinstance(expr, str):
            expr = parse_expr(expr)
        if not is_polynomial(expr):
            raise RegistrationError(f"rule {rule_name}: overhead for {measure} is not polynomial")
        used = vars_of(expr)
        if not used:
            raise RegistrationError(
                f"rule {rule_name}: overhead for {measure} depends on no source measure"
            )
        stray = used - set(source_measures)
        if stray:
            raise RegistrationError(
                f"rule {rule_name}: overhead for {measure} uses unknown measure(s) "
                f"{sorted(stray)}"
            )
        if any(coeff < 0 for coeff in to_poly(expr).values()):
            raise RegistrationError(
                f"rule {rule_name}: overhead for {measure} has a negative coefficient"
            )
        overhead[measure] = expr
    return overhead
