"""Exact weighted polynomial algebra and the degree-12 normal-form pipeline.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients over a fixed weight system; zero is the empty mapping. The
text grammar names each variable by its weight in the standard system
(3,4,5,6,7):

    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' nat)?
    var    := 'x' nat
    coeff  := nat | nat '/' nat
    nat    := [0-9]+

``parse`` reads the text in one pass over the tokens of one regular
expression, each a run of ASCII digits or one other non-space character;
whitespace (what str.isspace accepts) may stand between any two tokens. A
digit other than ASCII 0-9, such as a superscript or an Arabic-Indic digit,
is a ParseError with its position. A number literal has at most
MAX_LITERAL_DIGITS digits. Results are not bounded: a normal form may have
far longer coefficients than its input.

The normalization pipeline reduces any quasi-homogeneous degree-12
polynomial whose x5*x7, x4^3 and x6^2 coefficients are nonzero to support
inside {x5*x7, x4^3, x6^2, x3^4}. Its support lies inside the six
degree-12 monomials, so after scaling the equation by 1/c66 every step is
read off the coefficients c: x5 -> x5/c57; x4 -> x4/cbrt(c444) when the
cube root is rational; x7 -> x7 - t*x3*x4, which kills x3*x4*x5, with t
its coefficient after those scalings; and x6 -> x6 - (c336/2)*x3^2, which
completes the square and leaves lambda = c3333 - c336^2/4. The four rules
form one triangular Substitution, expanded by one ``substitute`` call, and
the expansion is checked against this closed form. The class is A when
lambda is nonzero and B when it vanishes; making lambda exactly 1 would
need a 4th root, so only rational scalings are performed and lambda is
reported.

``substitute`` expands on plain ints over one denominator. The polynomial
is written as integer numerators over D_poly, the lcm of its coefficient
denominators, and each moved variable's replacement R_i = c_i*x_i + g_i as
numerators over D_i. Only the variables the rules move are expanded; the
others keep their exponents. The powers (D_i*R_i)^k for k up to top_i, the
largest exponent of x_i in the polynomial, are built once per call. A term
with exponent a_i is scaled by the product of D_i^(top_i - a_i), so every
expanded term lies over D = D_poly * prod D_i^top_i, and one Fraction(v, D)
is built per output term.

A vertex passes ``corner_check`` when some term is x_i^n or x_i^n*x_j, read
off the support of a polynomial quasi-homogeneous of the given degree.
``edge_restriction_points`` counts the distinct zeros of a binary form over
the algebraic closure from the degrees of repeated gcds with the
derivative, without factoring.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, index
from typing import NamedTuple

from . import wps

STANDARD_WEIGHTS = (3, 4, 5, 6, 7)
MAX_LITERAL_DIGITS = 4300  # CPython's default int/str conversion limit
_TOKEN = re.compile(r"[0-9]+|\S")  # a run of ASCII digits or one other non-space character
_DIGITS = frozenset("0123456789")
_INDEX = {w: i for i, w in enumerate(STANDARD_WEIGHTS)}


class ParseError(ValueError):
    """Syntax error in the polynomial grammar; carries the position."""


class GradingError(ValueError):
    """A substitution rule does not preserve the weighted grading."""


class MissingCornerMonomial(ValueError):
    """A corner coefficient required by the normal-form pipeline vanishes."""

    def __init__(self, monomial: str):
        self.monomial = monomial
        super().__init__(f"required corner monomial {monomial} has zero coefficient")


Term = tuple[int, ...]
Coeffs = dict[Term, Fraction]


@dataclass
class WeightedPolynomial:
    """Finite Fraction combination of monomials over a weight system."""

    weights: tuple[int, ...]
    terms: Coeffs = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.weights = tuple(map(index, self.weights))
        if self.weights and min(self.weights) < 1:
            raise ValueError(f"weights must be positive, got {self.weights}")
        cleaned: Coeffs = {}
        for exp, c in self.terms.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c != 0:
                cleaned[tuple(exp)] = c
        self.terms = cleaned

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Term) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def degree_of(self, exp: Term) -> int:
        return sum(a * w for a, w in zip(exp, self.weights))

    def __str__(self) -> str:
        return poly_text(self)


def poly_text(poly: WeightedPolynomial) -> str:
    """Canonical text form: graded, then lexicographic from the top variable."""
    if poly.is_zero():
        return "0"
    items = sorted(
        poly.terms.items(), key=lambda kv: (poly.degree_of(kv[0]), kv[0][::-1]), reverse=True
    )
    pieces: list[str] = []
    for exp, coeff in items:
        factors = []
        for w, a in zip(poly.weights, exp):
            if a == 1:
                factors.append(f"x{w}")
            elif a > 1:
                factors.append(f"x{w}^{a}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _position(text: str, k: int, end: bool = False) -> int:
    """Where token k starts (ends, with ``end``) in text; len(text) past the last token."""
    for n, match in enumerate(_TOKEN.finditer(text)):
        if n == k:
            return match.end() if end else match.start()
    return len(text)


def _nat(text: str, tokens: list[str], k: int) -> int:
    tok = tokens[k]
    if tok[:1] not in _DIGITS:
        raise ParseError(f"expected a number at position {_position(text, k)}")
    if len(tok) > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"number of {len(tok)} digits at position {_position(text, k)} "
            f"exceeds {MAX_LITERAL_DIGITS} digits"
        )
    return int(tok)


def parse(text: str) -> WeightedPolynomial:
    """Parse the grammar above over STANDARD_WEIGHTS; variables are named by their weight."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty input")
    tokens.append("")  # end of input
    terms: Coeffs = {}
    k, sign = (1, -1) if tokens[0] == "-" else (0, 1)
    while True:
        exp = [0] * len(STANDARD_WEIGHTS)
        num = den = 1
        factors = True
        if tokens[k][:1] in _DIGITS:
            num = _nat(text, tokens, k)
            k += 1
            if tokens[k] == "/":
                den = _nat(text, tokens, k + 1)
                k += 2
                if den == 0:
                    raise ParseError(f"zero denominator at position {_position(text, k - 1, True)}")
            factors = tokens[k] == "*"
            k += factors  # past the '*'
        while factors:
            if tokens[k] != "x":
                raise ParseError(f"expected 'x' at position {_position(text, k)}")
            w = _nat(text, tokens, k + 1)
            if w not in _INDEX:
                raise ParseError(
                    f"unknown variable x{w} at position {_position(text, k + 1, True)}"
                )
            k += 2
            if tokens[k] == "^":
                exp[_INDEX[w]] += _nat(text, tokens, k + 1)
                k += 2
            else:
                exp[_INDEX[w]] += 1
            factors = tokens[k] == "*"
            k += factors  # past the '*'
        key = tuple(exp)
        coeff = Fraction(sign * num, den)
        if key in terms:
            coeff += terms[key]
        if coeff:
            terms[key] = coeff
        else:
            terms.pop(key, None)
        tok = tokens[k]
        if tok == "":
            return WeightedPolynomial(STANDARD_WEIGHTS, terms)
        if tok not in ("+", "-"):
            raise ParseError(f"unexpected {tok[0]!r} at position {_position(text, k)}")
        sign = 1 if tok == "+" else -1
        k += 1


def is_quasihomogeneous(poly: WeightedPolynomial, d: int) -> bool:
    """True iff every term has weighted degree d (vacuously true for 0)."""
    return all(poly.degree_of(exp) == d for exp in poly.terms)


def _times(a: dict[Term, int], b: dict[Term, int]) -> dict[Term, int]:
    out: dict[Term, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(map(add, e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return out


@dataclass
class Substitution:
    """Degree-preserving rules x_i -> c_i * x_i + g_i, triangular and invertible.

    ``rules`` maps a variable position to (c, g) with c a nonzero Fraction
    and g a polynomial of degree w_i in the other variables; unmentioned
    variables stay fixed.
    """

    weights: tuple[int, ...]
    rules: dict[int, tuple[Fraction, WeightedPolynomial]]

    def __post_init__(self) -> None:
        self.weights = tuple(map(index, self.weights))
        if self.weights and min(self.weights) < 1:
            raise ValueError(f"weights must be positive, got {self.weights}")
        n = len(self.weights)
        deps: dict[int, set[int]] = {}
        for i, (c, g) in self.rules.items():
            if not 0 <= i < n:
                raise ValueError(f"no variable at position {i}")
            if c == 0:
                raise GradingError(f"rule for position {i} has zero leading coefficient")
            if g.weights != self.weights:
                raise GradingError("shift polynomial lives over different weights")
            used = set()
            for exp in g.terms:
                if exp[i] != 0:
                    raise GradingError(
                        f"shift for position {i} may not involve the variable itself"
                    )
                if g.degree_of(exp) != self.weights[i]:
                    raise GradingError(
                        f"shift term of degree {g.degree_of(exp)} breaks the "
                        f"grading of weight-{self.weights[i]} variable"
                    )
                used |= {j for j, a in enumerate(exp) if a > 0}
            deps[i] = used
        # triangularity: peel off rules whose shifts use no variable still pending
        while deps:
            ready = [i for i, used in deps.items() if used.isdisjoint(deps)]
            if not ready:
                raise GradingError("substitution rules form a dependency cycle")
            for i in ready:
                del deps[i]


def substitute(poly: WeightedPolynomial, subst: Substitution) -> WeightedPolynomial:
    """Exact expansion of the substitution over one denominator D (see above)."""
    if poly.weights != subst.weights:
        raise GradingError("polynomial and substitution weights differ")
    n = len(poly.weights)
    zero = (0,) * n
    den_poly = math.lcm(*(c.denominator for c in poly.terms.values()))
    den = den_poly
    moved = []  # (i, D_i, top_i, [(D_i*R_i)^k for k = 0..top_i])
    for i, (c, g) in subst.rules.items():
        top = max((exp[i] for exp in poly.terms), default=0)
        if not top:
            continue
        lead = Fraction(c)
        d_i = math.lcm(lead.denominator, *(v.denominator for v in g.terms.values()))
        step = {zero[:i] + (1,) + zero[i + 1 :]: lead.numerator * (d_i // lead.denominator)}
        for exp, v in g.terms.items():
            step[exp] = v.numerator * (d_i // v.denominator)
        powers = [{zero: 1}]
        for _ in range(top):
            powers.append(_times(powers[-1], step))
        moved.append((i, d_i, top, powers))
        den *= d_i**top
    total: dict[Term, int] = {}
    for exp, coeff in poly.terms.items():
        kept = list(exp)
        value = coeff.numerator * (den_poly // coeff.denominator)
        for i, d_i, top, _ in moved:
            kept[i] = 0
            value *= d_i ** (top - exp[i])
        piece = {tuple(kept): value}
        for i, _, _, powers in moved:
            if exp[i]:
                piece = _times(piece, powers[exp[i]])
        for e, v in piece.items():
            total[e] = total.get(e, 0) + v
    return WeightedPolynomial(poly.weights, {e: Fraction(v, den) for e, v in total.items() if v})


def corner_check(poly: WeightedPolynomial, d: int) -> dict[int, bool]:
    """Per-vertex verdicts: is some term x_i^n or x_i^n*x_j, read off the support.

    That is, a term with x_i and at most one other variable, to the first
    power: the terms that keep the member quasi-smooth at vertex i.
    """
    if not is_quasihomogeneous(poly, d):
        raise ValueError(f"polynomial is not quasi-homogeneous of degree {d}")
    wps.HypersurfaceShape(poly.weights, d)  # five positive weights, d > 0, a nonempty shape
    return {
        i: any(exp[i] and sum(exp) - exp[i] <= 1 for exp in poly.terms)
        for i in range(len(poly.weights))
    }


# the six degree-12 monomials over (3,4,5,6,7)
E57, E444, E66, E336, E345, E3333 = (
    (0, 0, 1, 0, 1), (0, 3, 0, 0, 0), (0, 0, 0, 2, 0),
    (2, 0, 0, 1, 0), (1, 1, 1, 0, 0), (4, 0, 0, 0, 0),
)


@dataclass(frozen=True)
class NormalFormResult:
    """Outcome of the degree-12 pipeline: class, residual lambda, log, result."""

    form: str                       # "A" or "B"
    lam: Fraction
    steps: tuple[str, ...]
    final: WeightedPolynomial


def _rational_cbrt(x: Fraction) -> Fraction | None:
    """The rational cube root of x, or None when x is not the cube of a rational."""

    def icbrt(n: int) -> int | None:  # n >= 0; the root is below 2^ceil(bits/3)
        lo, hi = 0, 1 << -(-n.bit_length() // 3)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**3 < n:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo**3 == n else None

    p = icbrt(abs(x.numerator))
    q = icbrt(x.denominator)
    if p is None or q is None:
        return None
    return Fraction(p if x >= 0 else -p, q)


def normalize(poly: WeightedPolynomial) -> NormalFormResult:
    """Reduce a degree-12 polynomial over weights (3,4,5,6,7) to normal form.

    Requires nonzero coefficients on x5*x7, x4^3 and x6^2. The result has
    support inside {x5*x7, x4^3, x6^2, x3^4}; the class is A exactly when
    the final x3^4 coefficient (lambda) is nonzero.
    """
    ws = poly.weights
    if ws != STANDARD_WEIGHTS:
        raise ValueError(f"normalization is defined for weights {STANDARD_WEIGHTS}")
    if not is_quasihomogeneous(poly, 12):
        raise ValueError("normalization needs a quasi-homogeneous degree-12 polynomial")
    for exp, name in ((E57, "x5*x7"), (E444, "x4^3"), (E66, "x6^2")):
        if poly.coefficient(exp) == 0:
            raise MissingCornerMonomial(name)

    steps: list[str] = []
    scaled = poly
    c66 = poly.coefficient(E66)
    if c66 != 1:
        scaled = WeightedPolynomial(ws, {k: v / c66 for k, v in poly.terms.items()})
        steps.append(f"scale the equation by {1 / c66}")
    c = scaled.coefficient
    rules: dict[int, tuple[Fraction, WeightedPolynomial]] = {}
    # rational rescalings: x5*x7 always reaches 1, x4^3 when a cube
    s5 = s4 = Fraction(1)
    if c(E57) != 1:
        s5 = 1 / c(E57)
        rules[_INDEX[5]] = (s5, WeightedPolynomial(ws))
        steps.append(f"x5 -> {s5}*x5")
    c444 = c(E444)
    if c444 != 1:
        root = _rational_cbrt(c444)
        if root is not None:
            s4, c444 = 1 / root, Fraction(1)
            rules[_INDEX[4]] = (s4, WeightedPolynomial(ws))
            steps.append(f"x4 -> {s4}*x4")
        else:
            steps.append(f"x4^3 keeps unit {c444} (no rational cube root)")
    # x7 -> x7 - t*x3*x4 kills x3*x4*x5; completing the square in x6 kills x3^2*x6
    t = c(E345) * s5 * s4
    if t:
        rules[_INDEX[7]] = (Fraction(1), WeightedPolynomial(ws, {(1, 1, 0, 0, 0): -t}))
        steps.append(f"x7 -> x7 - {t}*x3*x4")
    u = c(E336) / 2
    if u:
        rules[_INDEX[6]] = (Fraction(1), WeightedPolynomial(ws, {(2, 0, 0, 0, 0): -u}))
        steps.append(f"x6 -> x6 - {u}*x3^2")

    final = substitute(scaled, Substitution(ws, rules))
    lam = c(E3333) - u * u
    expected = WeightedPolynomial(ws, {E57: 1, E444: c444, E66: 1, E3333: lam})
    if final != expected:
        raise AssertionError(f"pipeline left {final}, not the closed form {expected}")
    return NormalFormResult(
        form="A" if lam != 0 else "B",
        lam=lam,
        steps=tuple(steps),
        final=final,
    )


class EdgePoints(NamedTuple):
    count: int                      # distinct zeros on the edge line
    multiplicities: tuple[int, ...]
    reduced: bool


def _poly_normalize(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b) and _poly_normalize(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        _poly_normalize(a)
    return _poly_normalize(a)


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_normalize(list(a)), _poly_normalize(list(b))
    while b:
        a, b = b, _poly_rem(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _root_multiplicities(h: list[Fraction]) -> list[int]:
    """Multiplicities of the distinct roots of h over the algebraic closure, largest first.

    g_0 = h and g_k = gcd(g_{k-1}, g_{k-1}') has degree sum(max(m - k, 0))
    over the root multiplicities m, so deg g_{k-1} - deg g_k counts the
    roots of multiplicity >= k. The multiplicities are the conjugate
    partition of those counts.
    """
    at_least: list[int] = []
    g = _poly_normalize(list(h))
    while len(g) > 1:
        g_next = _poly_gcd(g, [i * c for i, c in enumerate(g)][1:])
        at_least.append(len(g) - len(g_next))
        g = g_next
    return [sum(n > j for n in at_least) for j in range(max(at_least, default=0))]


def edge_restriction_points(
    poly: WeightedPolynomial, i: int, j: int
) -> EdgePoints:
    """Distinct zeros of the restriction of poly to the (i, j) coordinate edge.

    The edge is a weighted projective line; after factoring out powers of
    the two coordinates, the remaining binary form is a polynomial in the
    degree-0 orbit coordinate u = x_i^{w_j/m} / x_j^{w_i/m} and distinct
    zeros over the algebraic closure are counted by ``_root_multiplicities``.
    Vertex zeros (leftover coordinate powers) are included with their
    multiplicities. Raises EdgeContained on a zero restriction.
    """
    ws = poly.weights
    restricted = {
        exp: c
        for exp, c in poly.terms.items()
        if all(a == 0 for k, a in enumerate(exp) if k not in (i, j))
    }
    if not restricted:
        raise wps.EdgeContained(
            f"restriction to the edge ({ws[i]},{ws[j]}) is identically zero"
        )
    degrees = {poly.degree_of(exp) for exp in restricted}
    if len(degrees) != 1:
        raise ValueError("edge restriction of a non-quasi-homogeneous polynomial")
    m = math.gcd(ws[i], ws[j])
    p = ws[j] // m  # step of the x_i exponent along the solution progression
    a_min = min(exp[i] for exp in restricted)
    b_min = min(exp[j] for exp in restricted)
    degree_h = (max(exp[i] for exp in restricted) - a_min) // p
    h = [Fraction(0)] * (degree_h + 1)
    for exp, c in restricted.items():
        h[(exp[i] - a_min) // p] = c
    multiplicities: list[int] = []
    if a_min > 0:
        multiplicities.append(a_min)   # zero at the x_j vertex
    if b_min > 0:
        multiplicities.append(b_min)   # zero at the x_i vertex
    multiplicities.extend(_root_multiplicities(h))
    multiplicities.sort(reverse=True)
    return EdgePoints(
        count=len(multiplicities),
        multiplicities=tuple(multiplicities),
        reduced=all(m_ == 1 for m_ in multiplicities),
    )
