"""Exact weighted polynomial algebra and the degree-12 normal-form pipeline.

A polynomial over a fixed weight system holds nonzero integer numerators,
one per exponent tuple, over one positive denominator in lowest terms with
them (zero is none over 1), so equal polynomials have equal fields. Its
``terms`` are the read-only Fraction view; the constructor takes int or
Fraction coefficients. The text grammar names each variable by its weight
in the standard system (3,4,5,6,7):

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
far longer coefficients than its input. Numbers are read and printed
_CHUNK digits at a time, whatever the interpreter's int/str digit limit.

The normalization pipeline reduces any quasi-homogeneous degree-12
polynomial whose x5*x7, x4^3 and x6^2 coefficients are nonzero to support
inside {x5*x7, x4^3, x6^2, x3^4}. Its support lies inside the six
degree-12 monomials, so after scaling the equation by 1/c66 every step is
read off its numerators n over its denominator s, c = n/s: x5 -> x5/c57;
x4 -> x4/cbrt(c444) when the cube root is rational; x7 -> x7 - t*x3*x4,
which kills x3*x4*x5, with t its coefficient after those scalings; and
x6 -> x6 - (c336/2)*x3^2, which completes the square and leaves
lambda = c3333 - c336^2/4. The four rules form one triangular Substitution,
expanded by one ``substitute`` call and checked against this closed form
over 4s^2. The class is A when lambda is nonzero and B when it vanishes;
scaling lambda to 1 needs a 4th root, so it is reported, not scaled.

``substitute`` expands on plain ints. It writes each moved variable's replacement
R_i = c_i*x_i + g_i over D_i and scales a term with exponent a_i by D_i^(top_i - a_i),
top_i the largest exponent of x_i, so every expanded term lies over den * prod D_i^top_i.
A rule with no shift (g_i = 0) only scales the term further, by (D_i*c_i)^a_i; for the others,
(D_i*R_i)^k / x_i^k is built once per k <= top_i. A term no shift touches goes straight into the
total; any other is multiplied, as a one-term polynomial, by that power of each shift that does.

A vertex passes ``corner_check`` when some term is x_i^n or x_i^n*x_j, read
off the support of a polynomial quasi-homogeneous of the given degree.
``edge_restriction_points`` counts the distinct zeros of a binary form over
the algebraic closure from the degrees of repeated gcds with the
derivative, without factoring; an edge the hypersurface contains gives None.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from itertools import compress
from operator import add, index, itemgetter, mul
from types import MappingProxyType

from . import _checked_make

STANDARD_WEIGHTS = (3, 4, 5, 6, 7)
MAX_LITERAL_DIGITS = 4300  # CPython's default int/str conversion limit
_CHUNK = 600  # digits per int/str conversion, below 640, the least limit CPython accepts
_BASE = 10**_CHUNK
_TOKEN = re.compile(r"[0-9]+|\S")  # a run of ASCII digits or one other non-space character
_DIGITS = frozenset("0123456789")
_INDEX = {w: i for i, w in enumerate(STANDARD_WEIGHTS)}
_NAMES = {str(w): i for w, i in _INDEX.items()}  # a variable's name -> its position


class ParseError(ValueError):
    """Syntax error in the polynomial grammar; carries the position."""


class GradingError(ValueError):
    """A substitution rule does not preserve the weighted grading."""


class MissingCornerMonomial(ValueError):
    """A corner coefficient required by the normal-form pipeline vanishes."""


Term = tuple[int, ...]


class WeightedPolynomial:
    """Finite rational combination of monomials over a weight system (module doc).

    A plain class, so that no command loads ``dataclasses`` for it.
    """

    __slots__ = ("weights", "nums", "den")
    weights: tuple[int, ...]
    nums: dict[Term, int]  # nonzero numerators
    den: int  # > 0, with gcd(den, *nums) == 1

    def __init__(self, weights, terms: dict[Term, int | Fraction] | None = None) -> None:
        self.weights = tuple(map(index, weights))
        if self.weights and min(self.weights) < 1:
            raise ValueError(f"weights must be positive, got {self.weights}")
        terms = {tuple(map(index, e)): c for e, c in dict(terms or {}).items()}
        for e, c in terms.items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
            if len(e) != len(self.weights) or min(e, default=0) < 0:
                raise ValueError(f"exponent {e} needs {len(self.weights)} entries, each >= 0")
        # the lcm of reduced denominators is already in lowest terms with the numerators
        self.den = den = math.lcm(*(c.denominator for c in terms.values()))
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in terms.items() if c}

    @property
    def terms(self) -> Mapping[Term, Fraction]:
        """Read-only exponent -> Fraction coefficient view."""
        return MappingProxyType({e: Fraction(v, self.den) for e, v in self.nums.items()})

    def is_zero(self) -> bool:
        return not self.nums

    def degree_of(self, exp: Term) -> int:
        return sum(map(mul, exp, self.weights))

    def __eq__(self, other) -> bool:
        if type(other) is not WeightedPolynomial:
            return NotImplemented
        return (self.weights, self.nums, self.den) == (other.weights, other.nums, other.den)

    def __repr__(self) -> str:
        return f"WeightedPolynomial(weights={self.weights!r}, nums={self.nums!r}, den={self.den!r})"

    def __str__(self) -> str:
        return poly_text(self)


def _poly(weights: tuple[int, ...], nums: dict[Term, int], den: int) -> WeightedPolynomial:
    """The polynomial with these numerators over den != 0, zeros dropped, in lowest terms."""
    g = math.gcd(den, *nums.values()) * (1 if den > 0 else -1)
    if g != 1 or 0 in nums.values():  # else it keeps nums: pass a dict nothing changes after
        nums = {e: v // g for e, v in nums.items() if v}
    poly = object.__new__(WeightedPolynomial)
    poly.weights, poly.nums, poly.den = weights, nums, den // g
    return poly


def _text(num: int, den: int = 1) -> str:
    """str(Fraction(num, den)), den != 0, at any int/str digit limit: _CHUNK digits at a time."""
    g = math.gcd(num, den) * (1 if den > 0 else -1)
    num, den = num // g, den // g
    if -_BASE < num < _BASE and den < _BASE:  # str() is within every int/str digit limit
        return f"{num}/{den}" if den != 1 else str(num)
    if den != 1:
        return f"{_text(num)}/{_text(den)}"
    low, rest = [], abs(num)
    while rest >= _BASE:
        rest, piece = divmod(rest, _BASE)
        low.append(f"{piece:0{_CHUNK}d}")
    return "-" * (num < 0) + str(rest) + "".join(reversed(low))


def poly_text(poly: WeightedPolynomial) -> str:
    """Canonical text form: graded, then lexicographic from the top variable."""
    if poly.is_zero():
        return "0"
    pieces: list[str] = []
    for exp in sorted(poly.nums, key=lambda e: (poly.degree_of(e), e[::-1]), reverse=True):
        coeff = poly.nums[exp]
        factors = [f"x{w}^{a}" if a > 1 else f"x{w}" for w, a in zip(poly.weights, exp) if a > 0]
        magnitude = _text(abs(coeff), poly.den)
        body = "*".join(factors if factors and magnitude == "1" else [magnitude] + factors)
        pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    text = " ".join(pieces)  # the leading sign is '-' or none, with no space after it
    return text[2:] if text[0] == "+" else f"-{text[2:]}"


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
    if len(tok) <= _CHUNK:  # within every int/str digit limit
        return int(tok)
    if len(tok) > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"number of {len(tok)} digits at position {_position(text, k)} "
            f"exceeds {MAX_LITERAL_DIGITS} digits"
        )
    value = int(tok[:_CHUNK])
    for start in range(_CHUNK, len(tok), _CHUNK):  # the rest at any int/str digit limit
        piece = tok[start : start + _CHUNK]
        value = value * 10 ** len(piece) + int(piece)
    return value


def parse(text: str) -> WeightedPolynomial:
    """Parse the grammar above over STANDARD_WEIGHTS; variables are named by their weight."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty input")
    tokens.append("")  # end of input
    found: list[tuple[Term, int, int]] = []  # (exponent, signed numerator, denominator)
    k, sign, common = (1, -1, 1) if tokens[0] == "-" else (0, 1, 1)  # common: lcm of the dens
    # _nat reads or refuses every number, whatever the int/str digit limit
    while True:
        exp = [0] * len(STANDARD_WEIGHTS)
        num, den, factors = 1, 1, True
        if tokens[k][:1] in _DIGITS:
            num = _nat(text, tokens, k)
            k += 1
            if tokens[k] == "/":
                den = _nat(text, tokens, k + 1)
                k += 2
                if den == 0:
                    raise ParseError(f"zero denominator at position {_position(text, k - 1, True)}")
                common = math.lcm(common, den)
            factors = tokens[k] == "*"
            k += factors  # past the '*'
        while factors:
            if tokens[k] != "x":
                raise ParseError(f"expected 'x' at position {_position(text, k)}")
            if (i := _NAMES.get(tokens[k + 1])) is None:  # a name such as x03, or no number
                w = _nat(text, tokens, k + 1)
                if (i := _INDEX.get(w)) is None:
                    raise ParseError(
                        f"unknown variable x{_text(w)} at position {_position(text, k + 1, True)}"
                    )
            k += 2
            if tokens[k] == "^":
                exp[i] += _nat(text, tokens, k + 1)
                k += 2
            else:
                exp[i] += 1
            factors = tokens[k] == "*"
            k += factors  # past the '*'
        found.append((tuple(exp), sign * num, den))
        tok = tokens[k]
        if tok == "":
            nums: dict[Term, int] = {}
            for key, v, d in found:
                nums[key] = nums.get(key, 0) + v * (common // d)
            return _poly(STANDARD_WEIGHTS, nums, common)
        if tok not in ("+", "-"):
            raise ParseError(f"unexpected {tok[0]!r} at position {_position(text, k)}")
        sign = 1 if tok == "+" else -1
        k += 1


def is_quasihomogeneous(poly: WeightedPolynomial, d: int) -> bool:
    """True iff every term has weighted degree d (vacuously true for 0)."""
    return {sum(map(mul, exp, poly.weights)) for exp in poly.nums} <= {index(d)}


def _times(a: dict[Term, int], b: dict[Term, int]) -> dict[Term, int]:
    out: dict[Term, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(map(add, e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return out


class Substitution(namedtuple("Substitution", "weights rules")):
    """Degree-preserving rules x_i -> c_i * x_i + g_i, triangular and invertible.

    ``rules`` maps a variable position to (c, g) with c a nonzero int or
    Fraction and g a polynomial of degree w_i in the other variables;
    unmentioned variables stay fixed.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, weights, rules: dict[int, tuple[int | Fraction, WeightedPolynomial]]):
        weights = tuple(map(index, weights))
        if weights and min(weights) < 1:
            raise ValueError(f"weights must be positive, got {weights}")
        n, bits = len(weights), [1 << j for j in range(len(weights))]
        rules = {index(i): rule for i, rule in dict(rules).items()}
        deps: dict[int, int] = {}  # position -> the variables its shift uses, as bits
        for i, (c, g) in rules.items():
            if not 0 <= i < n:
                raise ValueError(f"no variable at position {i}")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"rule {i}: coefficient {c!r} is not an int or a Fraction")
            if not isinstance(g, WeightedPolynomial):
                raise TypeError(f"rule {i}: shift {g!r} is not a WeightedPolynomial")
            if c == 0:
                raise GradingError(f"rule for position {i} has zero leading coefficient")
            if g.weights != weights:
                raise GradingError("shift polynomial lives over different weights")
            for exp in g.nums:  # a rule without a shift gets no entry in deps
                if exp[i]:
                    raise GradingError(
                        f"shift for position {i} may not involve the variable itself"
                    )
                if (degree := sum(map(mul, exp, weights))) != weights[i]:
                    raise GradingError(
                        f"shift term of degree {degree} breaks the "
                        f"grading of weight-{weights[i]} variable"
                    )
                deps[i] = deps.get(i, 0) | sum(compress(bits, exp))
        # triangularity: peel off rules whose shifts use no variable still pending
        while deps:
            pending = sum(bits[i] for i in deps)
            ready = [i for i, used in deps.items() if not used & pending]
            if not ready:
                raise GradingError("substitution rules form a dependency cycle")
            for i in ready:
                del deps[i]
        return super().__new__(cls, weights, rules)


def substitute(poly: WeightedPolynomial, subst: Substitution) -> WeightedPolynomial:
    """Exact expansion of the substitution over one denominator D (see above)."""
    if poly.weights != subst.weights:
        raise GradingError("polynomial and substitution weights differ")
    den, scales, shifts = poly.den, [], []  # (i, [term factor at a_i = 0..top_i]), (i, powers)
    exps = poly.nums or ((0,) * len(poly.weights),)  # the zero polynomial: no exponent above 0
    for i, (c, g) in subst.rules.items():
        if not (top := max(map(itemgetter(i), exps))):  # top_i, the largest exponent of x_i
            continue
        d_i = math.lcm(c.denominator, g.den)
        lead = c.numerator * (d_i // c.denominator)
        base = 1 if g.nums else lead  # with no shift, the term's factor per power of x_i
        scales.append((i, [base**a * d_i ** (top - a) for a in range(top + 1)]))
        den *= d_i**top
        if g.nums:  # powers[k] = (D_i*R_i)^k / x_i^k, so a term with a_i = k times it is in place
            step = {e[:i] + (-1,) + e[i + 1 :]: v * (d_i // g.den) for e, v in g.nums.items()}
            step[(0,) * len(poly.weights)] = lead
            powers = [None, step]  # a term with a_i = 0 reads none
            while len(powers) <= top:
                powers.append(_times(powers[-1], step))
            shifts.append((i, powers))
    total: dict[Term, int] = {}
    for exp, value in poly.nums.items():
        for i, factors in scales:
            value *= factors[exp[i]]
        piece = None  # the term's expansion, once a shift touches it
        for i, powers in shifts:
            if exp[i]:
                piece = _times({exp: value} if piece is None else piece, powers[exp[i]])
        if piece is None:  # no shift touches it: the term itself, scaled
            total[exp] = total.get(exp, 0) + value
            continue
        for e, v in piece.items():
            total[e] = total.get(e, 0) + v
    return _poly(poly.weights, total, den)


def corner_check(poly: WeightedPolynomial, d: int) -> dict[int, bool]:
    """Per-vertex verdicts: is some term x_i^n or x_i^n*x_j, read off the support.

    That is, a term with x_i and at most one other variable, to the first
    power: the terms that keep the member quasi-smooth at vertex i.
    """
    from . import wps  # not at the top: normalize alone loads neither wps nor series
    if not is_quasihomogeneous(poly, d):
        raise ValueError(f"polynomial is not quasi-homogeneous of degree {d}")
    wps.HypersurfaceShape(poly.weights, d)  # five positive weights, d > 0, a nonempty shape
    return {
        i: any(exp[i] and sum(exp) - exp[i] <= 1 for exp in poly.nums)
        for i in range(len(poly.weights))
    }


# the six degree-12 monomials over (3,4,5,6,7)
E57, E444, E66 = (0, 0, 1, 0, 1), (0, 3, 0, 0, 0), (0, 0, 0, 2, 0)
E336, E345, E3333 = (2, 0, 0, 1, 0), (1, 1, 1, 0, 0), (4, 0, 0, 0, 0)
DEGREE_12 = frozenset((E57, E444, E66, E336, E345, E3333))  # every degree-12 exponent
_NO_SHIFT = WeightedPolynomial(STANDARD_WEIGHTS)  # the shift of each rescaling rule


class NormalFormResult(namedtuple("NormalFormResult", "form lam steps final")):
    """Outcome of the degree-12 pipeline: class ("A" or "B"), residual lambda, log, result."""

    __slots__ = ()


def _rational_cbrt(num: int, den: int) -> tuple[int, int] | None:
    """The cube root of num/den (den > 0) in lowest terms, or None when it is not rational."""

    def icbrt(n: int) -> int | None:  # n >= 0: integer Newton down from 2^ceil(bits/3) > root
        x = 1 << -(-n.bit_length() // 3)
        while x and (y := (2 * x + n // (x * x)) // 3) < x:
            x = y  # stays at or above the floor of the root, and stops on it
        return x if x * x * x == n else None

    g = math.gcd(num, den)
    p = icbrt(abs(num) // g)
    return None if p is None or (q := icbrt(den // g)) is None else (p if num >= 0 else -p, q)


def normalize(poly: WeightedPolynomial) -> NormalFormResult:
    """Reduce a degree-12 polynomial over weights (3,4,5,6,7) to normal form.

    Requires nonzero coefficients on x5*x7, x4^3 and x6^2. The result has
    support inside {x5*x7, x4^3, x6^2, x3^4}; the class is A exactly when
    the final x3^4 coefficient (lambda) is nonzero.
    """
    ws = poly.weights
    if ws != STANDARD_WEIGHTS:
        raise ValueError(f"normalization is defined for weights {STANDARD_WEIGHTS}")
    if not poly.nums.keys() <= DEGREE_12:  # quasi-homogeneous of degree 12
        raise ValueError("normalization needs a quasi-homogeneous degree-12 polynomial")
    for exp, name in ((E57, "x5*x7"), (E444, "x4^3"), (E66, "x6^2")):
        if exp not in poly.nums:
            raise MissingCornerMonomial(f"required corner monomial {name} has zero coefficient")

    steps: list[str] = []
    n66 = poly.nums[E66]
    scaled = _poly(ws, poly.nums, n66)  # the equation times 1/c66 = den/n66
    if n66 != poly.den:
        steps.append(f"scale the equation by {_text(poly.den, n66)}")
    n, s = scaled.nums.get, scaled.den  # each coefficient is n(exp, 0)/s
    n57, unit = n(E57), n(E444)  # unit/s: the x4^3 coefficient left by the rules
    rules: dict[int, tuple[int | Fraction, WeightedPolynomial]] = {}
    # rational rescalings: x5*x7 always reaches 1, x4^3 when a cube
    if n57 != s:
        rules[_INDEX[5]] = (Fraction(s, n57), _NO_SHIFT)
        steps.append(f"x5 -> {_text(s, n57)}*x5")
    p4 = q4 = 1  # x4 -> (q4/p4)*x4
    if unit != s:
        root = _rational_cbrt(unit, s)
        if root is not None:
            (p4, q4), unit = root, s
            rules[_INDEX[4]] = (Fraction(q4, p4), _NO_SHIFT)
            steps.append(f"x4 -> {_text(q4, p4)}*x4")
        else:
            steps.append(f"x4^3 keeps unit {_text(unit, s)} (no rational cube root)")
    # x7 -> x7 - t*x3*x4 kills x3*x4*x5; completing the square in x6 kills x3^2*x6
    n345, n336 = n(E345, 0), n(E336, 0)
    if n345:  # t = c345 * (s/n57) * (q4/p4)
        rules[_INDEX[7]] = (1, _poly(ws, {(1, 1, 0, 0, 0): -n345 * q4}, n57 * p4))
        steps.append(f"x7 -> x7 - {_text(n345 * q4, n57 * p4)}*x3*x4")
    if n336:  # u = c336/2
        rules[_INDEX[6]] = (1, _poly(ws, {(2, 0, 0, 0, 0): -n336}, 2 * s))
        steps.append(f"x6 -> x6 - {_text(n336, 2 * s)}*x3^2")

    final = substitute(scaled, Substitution(ws, rules))
    square = 4 * s * s  # lambda = c3333 - u^2 = lam/square
    lam = 4 * s * n(E3333, 0) - n336 * n336
    # final's numerators over d, cross-multiplied with x5*x7 + unit/s*x4^3 + x6^2 + lam/square*x3^4
    c, d = (final.nums.get, final.den) if type(final) is WeightedPolynomial else ({}.get, 0)
    if not (c(E57) == d == c(E66) and final.weights == ws and c(E444, 0) * s == unit * d
            and c(E3333, 0) * square == lam * d and len(final.nums) == 3 + (lam != 0)):
        expected = _poly(ws, {E57: square, E444: 4 * s * unit, E66: square, E3333: lam}, square)
        raise AssertionError(f"pipeline left {final}, not the closed form {expected}")
    return NormalFormResult("A" if lam else "B", Fraction(lam, square), tuple(steps), final)


# count is the distinct zeros on the edge line
EdgePoints = namedtuple("EdgePoints", "count multiplicities reduced")


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def _root_multiplicities(h: list[Fraction]) -> list[int]:
    """Multiplicities of the distinct roots of h over the algebraic closure, largest first.

    h's top coefficient must be nonzero; then so is each derivative's, (len - 1) * top.
    g_0 = h and g_k = gcd(g_{k-1}, g_{k-1}') has degree sum(max(m - k, 0))
    over the root multiplicities m, so deg g_{k-1} - deg g_k counts the
    roots of multiplicity >= k. The multiplicities are the conjugate
    partition of those counts.
    """
    at_least: list[int] = []
    g = h
    while len(g) > 1:
        g_next = _poly_gcd(g, [i * c for i, c in enumerate(g)][1:])
        at_least.append(len(g) - len(g_next))
        g = g_next
    return [sum(n > j for n in at_least) for j in range(max(at_least, default=0))]


def edge_restriction_points(poly: WeightedPolynomial, i: int, j: int) -> EdgePoints | None:
    """Distinct zeros of the restriction of poly to the (i, j) coordinate edge.

    The edge is a weighted projective line; after factoring out powers of
    the two coordinates, the remaining binary form is a polynomial in the
    degree-0 orbit coordinate u = x_i^{w_j/m} / x_j^{w_i/m} and distinct
    zeros over the algebraic closure are counted by ``_root_multiplicities``.
    Vertex zeros (leftover coordinate powers) are included with their
    multiplicities. None when the restriction is zero: the edge is contained.
    Raises ValueError for two indices that are equal or outside 0..n-1.
    """
    ws, i, j = poly.weights, index(i), index(j)
    if i == j or not (0 <= i < len(ws) and 0 <= j < len(ws)):
        raise ValueError(f"edge ({i}, {j}) needs two distinct indices in 0..{len(ws) - 1}")
    restricted = {exp: c for exp, c in poly.terms.items() if exp[i] + exp[j] == sum(exp)}
    if not restricted:
        return None
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
    # a leftover power of x_i (of x_j) is a zero of that order at the x_j (the x_i) vertex
    vertices = [a for a in (a_min, b_min) if a > 0]
    multiplicities = sorted(vertices + _root_multiplicities(h), reverse=True)
    reduced = all(m_ == 1 for m_ in multiplicities)
    return EdgePoints(len(multiplicities), tuple(multiplicities), reduced)
