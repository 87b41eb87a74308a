"""Weighted polynomial algebra and the degree-12 normal-form pipeline."""

import itertools
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import WS, digit_limit, random_degree12_poly, random_substitution
from oracles import (
    ParseFailure, monomials, rational_cube_root, reference_corner_requirements, reference_normalize,
    reference_parse, reference_substitute, small_shapes,
)
from qfano import normal_form as nf
from qfano import riemann_roch as rr
from qfano import wps
from qfano.fixtures import FORM_A, FORM_B, X12_SHAPE
from qfano.series import TruncationError


PARSERS = ((lambda t: nf.parse(t).terms, nf.ParseError), (reference_parse, ParseFailure))


def parse_outcomes(text, parsers=PARSERS):
    """What parse and the reference parser give for text: terms, or the error message."""
    outcomes = []
    for parser, error in parsers:
        try:
            outcomes.append(dict(parser(text)))
        except error as err:
            outcomes.append(f"ParseError: {err}")
    return outcomes


def test_parse_forms():
    assert len(nf.parse(FORM_A).terms) == 4
    assert len(nf.parse(FORM_B).terms) == 3
    assert nf.parse("0").is_zero()


def test_parse_coefficients():
    poly = nf.parse("2*x3^4 - 1/2*x5*x7 + x6^2")
    assert poly.terms == {(4, 0, 0, 0, 0): 2, (0, 0, 1, 0, 1): Fraction(-1, 2), (0, 0, 0, 2, 0): 1}


def test_parse_errors():
    with pytest.raises(nf.ParseError):
        nf.parse("x5*x7 +")
    with pytest.raises(nf.ParseError):
        nf.parse("x9^2")          # unknown variable
    with pytest.raises(nf.ParseError):
        nf.parse("x5 ** 2")
    with pytest.raises(nf.ParseError):
        nf.parse("")
    # digits that str.isdigit accepts but int does not: superscripts and the like
    for text, message in (
        ("x5\u00b2", "unexpected '\u00b2' at position 2"),
        ("x\u00b2", "expected a number at position 1"),
        ("x3^\u00b2", "expected a number at position 3"),
        ("\u00b2*x3^4", "expected 'x' at position 0"),
        ("x3^4 + \u2460*x6^2", "expected 'x' at position 7"),
        # digits are ASCII: Arabic-Indic five and seven are not numbers
        ("x\u0665*x\u0667", "expected a number at position 1"),
        ("\u0665", "expected 'x' at position 0"),
        ("x5*x7 + \u0665/2*x3^4", "expected 'x' at position 8"),
        ("x3\u0665", "unexpected '\u0665' at position 2"),
    ):
        with pytest.raises(nf.ParseError, match=message):
            nf.parse(text)


def test_parse_bounds_literal_length():
    longest = "7" * nf.MAX_LITERAL_DIGITS
    assert nf.parse(f"{longest}/{longest}*x3^4").terms == {(4, 0, 0, 0, 0): 1}
    for text, position in (
        ("x5*x7 + " + "7" * (nf.MAX_LITERAL_DIGITS + 1) + "*x3^4", 8),
        ("x5*x7 + 1/" + "3" * 5000 + "*x3^4", 10),
        ("x" + "1" * 5000, 1),
    ):
        with pytest.raises(nf.ParseError, match=f"digits at position {position} exceeds"):
            nf.parse(text)


def test_whitespace_is_what_str_isspace_says():
    # the tokenizer skips exactly the characters that str.isspace calls whitespace
    assert all((nf._TOKEN.match(chr(c)) is None) == chr(c).isspace() for c in range(0x110000))


ODD_SPACE = ("", " ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\x85")


@st.composite
def grammar_texts(draw):
    """Text in the grammar, with odd whitespace, repeated factors, cancelling terms and 0.

    Half the texts may also name unknown variables and divide by zero.
    """
    space = st.sampled_from(ODD_SPACE)
    nat = st.one_of(st.integers(0, 12).map(str), st.integers(0, 10**30).map(str), st.just("007"))
    names = ("3", "4", "5", "6", "7", "03")
    den = nat.filter(lambda n: int(n) != 0)
    if draw(st.booleans()):
        names, den = names + ("9", "12"), st.one_of(nat, st.just("0"))
    variable = st.sampled_from(names)

    def factor():
        text = "x" + draw(space) + draw(variable)
        if draw(st.booleans()):
            text += draw(space) + "^" + draw(space) + draw(nat)
        return text

    def term():
        pieces = []
        if draw(st.booleans()):
            coeff = draw(nat)
            if draw(st.booleans()):
                coeff += draw(space) + "/" + draw(space) + draw(den)
            pieces.append(coeff)
        pieces += [factor() for _ in range(draw(st.integers(0 if pieces else 1, 3)))]
        glue = draw(space) + "*" + draw(space)
        return glue.join(pieces)

    terms = [term() for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        terms.append(terms[0])  # the same term again, added or cancelled
    text = draw(space) + ("-" if draw(st.booleans()) else "")
    for k, t in enumerate(terms):
        if k:
            text += draw(space) + draw(st.sampled_from("+-")) + draw(space)
        text += draw(space) + t
    return text + draw(space)


@st.composite
def mutated_texts(draw):
    """Grammar text with ASCII characters inserted, deleted or replaced, or cut short."""
    text = draw(grammar_texts())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "replace", "truncate")))
        char = draw(st.sampled_from("x0123456789^*/+- \t.y("))
        if kind == "insert":
            text = text[:at] + char + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "replace":
            text = text[:at] + char + text[at + 1 :]
        else:
            text = text[:at]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(grammar_texts(), mutated_texts()))
def test_parse_matches_reference_parser(text):
    parsed, expected = parse_outcomes(text)
    assert parsed == expected


@pytest.mark.parametrize(
    "text",
    ["", "  ", "-", "0", "-0", "x3", "x3 - x3", "1/0", "x5*x7 +", "x5 ** 2", "3x5", "x3^",
     "x 3 ^ 2 * 1", "1 2", "x03^007", "2/4*x3 + 1/2*x3", "x9^2", "x12", "x3 + +x4", "x3)"],
)
def test_parse_matches_reference_parser_on_edge_cases(text):
    parsed, expected = parse_outcomes(text)
    assert parsed == expected


def test_parse_matches_reference_parser_past_the_digit_limit():
    for text in ("x3 + 2/ " + "3" * 4301, "9" * 4301 + "*x3", "x" + "1" * 4301):
        parsed, expected = parse_outcomes(text)
        assert parsed == expected


# each number position of the grammar, as a template with the number's place marked
NUMBER_PLACES = {
    "coefficient": "x5*x7 - {}*x3^4",
    "denominator": "x5*x7 + 3/{}*x3^4",
    "variable index": "x5*x{}",
    "exponent": "x5*x7 + x3^{}",
}
LITERAL_LENGTHS = (1, nf._CHUNK, nf._CHUNK + 1, 2 * nf._CHUNK + 1, nf.MAX_LITERAL_DIGITS)


@pytest.mark.parametrize("length", LITERAL_LENGTHS)
@pytest.mark.parametrize("place", NUMBER_PLACES)
def test_parse_reads_numbers_of_every_length_in_every_place(place, length):
    # _nat reads a literal of every length, _CHUNK digits at a time past _CHUNK, also
    # under the least int/str digit limit; a padded name (x006) is a variable, and a
    # name of sevens or a power of ten one that does not exist
    template = NUMBER_PLACES[place]
    for number in ("7" * length, "0" * (length - 1) + "6", "1" + "0" * (length - 1)):
        [expected] = parse_outcomes(template.format(number), PARSERS[1:])
        with digit_limit(640):
            [parsed] = parse_outcomes(template.format(number), PARSERS[:1])
        assert parsed == expected
        assert not isinstance(parsed, str) or place == "variable index"


@pytest.mark.parametrize("place", NUMBER_PLACES)
def test_parse_refuses_a_literal_past_the_limit_in_every_place(place):
    template = NUMBER_PLACES[place]
    text = template.format("7" * (nf.MAX_LITERAL_DIGITS + 1))
    position = template.index("{")
    with digit_limit(640):
        [parsed] = parse_outcomes(text, PARSERS[:1])
    [expected] = parse_outcomes(text, PARSERS[1:])
    assert parsed == expected == (
        f"ParseError: number of {nf.MAX_LITERAL_DIGITS + 1} digits at position {position} "
        f"exceeds {nf.MAX_LITERAL_DIGITS} digits"
    )


def test_print_parse_roundtrip_fixed():
    for text in (FORM_A, FORM_B, "0", "x3^4 - 2*x6^2 + 5/3*x3^2*x6"):
        poly = nf.parse(text)
        assert nf.parse(nf.poly_text(poly)) == poly


def test_a_constant_term_prints_as_a_number():
    assert str(nf.parse("x3 + 2*x3^0")) == "x3 + 2"
    assert str(nf.parse("-x3^0")) == "-1"


def test_is_quasihomogeneous():
    assert nf.is_quasihomogeneous(nf.parse(FORM_A), 12)
    assert nf.is_quasihomogeneous(nf.parse("0"), 0)
    assert nf.is_quasihomogeneous(nf.parse("7"), 0)
    assert not nf.is_quasihomogeneous(nf.parse("x3 + x4"), 3)


def test_substitute_completing_square_example():
    poly = nf.parse("x6^2 + 2*x3^2*x6")
    g = nf.WeightedPolynomial(WS, {(2, 0, 0, 0, 0): Fraction(-1)})
    sub = nf.Substitution(WS, {WS.index(6): (Fraction(1), g)})
    assert nf.substitute(poly, sub) == nf.parse("x6^2 - x3^4")


def test_substitute_identity():
    poly = nf.parse(FORM_A)
    assert nf.substitute(poly, nf.Substitution(WS, {})) == poly


def test_substitute_x7_shift():
    poly = nf.parse("x5*x7 + x3*x4*x5")
    g = nf.WeightedPolynomial(WS, {(1, 1, 0, 0, 0): Fraction(-1)})
    sub = nf.Substitution(WS, {WS.index(7): (Fraction(1), g)})
    assert nf.substitute(poly, sub) == nf.parse("x5*x7")


def test_substitution_grading_errors():
    bad = nf.WeightedPolynomial(WS, {(1, 0, 0, 0, 0): Fraction(1)})  # degree 3
    with pytest.raises(nf.GradingError):
        nf.Substitution(WS, {WS.index(6): (Fraction(1), bad)})
    with pytest.raises(nf.GradingError):
        nf.Substitution(WS, {0: (Fraction(0), nf.WeightedPolynomial(WS))})
    self_ref = nf.WeightedPolynomial(WS, {(0, 0, 0, 1, 0): Fraction(1)})
    with pytest.raises(nf.GradingError):
        nf.Substitution(WS, {WS.index(6): (Fraction(1), self_ref)})
    elsewhere = nf.WeightedPolynomial((1, 2, 3, 4, 5))
    with pytest.raises(nf.GradingError, match="shift polynomial lives over different weights"):
        nf.Substitution(WS, {WS.index(6): (Fraction(1), elsewhere)})
    with pytest.raises(nf.GradingError, match="polynomial and substitution weights differ"):
        nf.substitute(elsewhere, nf.Substitution(WS, {}))


def test_polynomials_and_substitutions_refuse_non_positive_weights():
    with pytest.raises(ValueError, match=r"weights must be positive, got \(0, -3, 5\)"):
        nf.WeightedPolynomial((0, -3, 5), {(1, 1, 1): Fraction(2)})
    with pytest.raises(ValueError, match="weights must be positive"):
        nf.Substitution((0, 4, 5, 6, 7), {})


@pytest.mark.parametrize(
    "exponent", [(4, 0, 0, 0, 0, 0), (4, 0, 0, 0), (-2, 0, 0, 3, 0)], ids=str
)
def test_exponents_have_one_entry_per_weight_each_non_negative(exponent):
    # (-2,0,0,3,0) has degree 12 and a 6-entry tuple zips down to 12 too: both
    # would pass is_quasihomogeneous and fail inside normalize
    with pytest.raises(ValueError, match="needs 5 entries, each >= 0"):
        nf.WeightedPolynomial(WS, {(0, 0, 1, 0, 1): 1, exponent: 1})


@pytest.mark.parametrize("bad", [4.0, "4", Fraction(4), None], ids=repr)
def test_exponent_entries_are_ints(bad):
    # (4.0, 0, 0, 0, 0) was accepted and kept a float key in nums
    with pytest.raises(TypeError):
        nf.WeightedPolynomial(WS, {(bad, 0, 0, 0, 0): 1})
    assert list(nf.WeightedPolynomial(WS, {(True, 0, 0, 3, 0): 1}).nums) == [(1, 0, 0, 3, 0)]


def test_polynomial_equality_compares_weights_numerators_and_denominator():
    x3_4 = (4, 0, 0, 0, 0)
    poly = nf.WeightedPolynomial(WS, {x3_4: 1})
    assert poly == nf.WeightedPolynomial(list(WS), {x3_4: Fraction(2, 2)})
    assert poly != nf.WeightedPolynomial((3, 4, 5, 6, 8), {x3_4: 1})  # weights differ
    assert poly != nf.WeightedPolynomial(WS, {x3_4: 2})  # numerators differ
    assert poly != nf.WeightedPolynomial(WS, {x3_4: Fraction(1, 2)})  # denominators differ
    assert poly != poly.nums


def test_a_replaced_substitution_field_is_checked_again():
    g = nf.WeightedPolynomial(WS, {(2, 0, 0, 0, 0): Fraction(-1)})
    sub = nf.Substitution(WS, {WS.index(6): (Fraction(1), g)})
    assert sub._replace(weights=list(WS)).weights == WS
    assert sub._replace(rules={}) == nf.Substitution(WS, {})
    with pytest.raises(nf.GradingError, match="breaks the grading of weight-7 variable"):
        sub._replace(rules={WS.index(7): (1, g)})
    with pytest.raises(nf.GradingError, match="shift polynomial lives over different weights"):
        sub._replace(weights=(3, 4, 5, 6, 8))


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/3", Decimal("0.5"), None], ids=repr)
def test_coefficients_are_ints_or_fractions(bad):
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        nf.WeightedPolynomial(WS, {(4, 0, 0, 0, 0): bad})
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        nf.Substitution(WS, {0: (bad, nf.WeightedPolynomial(WS))})


def test_polynomial_equality_is_by_value():
    x3_4, x6_2 = (4, 0, 0, 0, 0), (0, 0, 0, 2, 0)
    half = nf.WeightedPolynomial(WS, {x3_4: Fraction(1, 2)})
    assert (half.nums, half.den) == ({x3_4: 1}, 2)
    assert nf.parse("2/4*x3^4") == half
    assert nf.parse("x3^4 - 1/2*x3^4 + 0*x6^2") == half
    # zero coefficients are dropped, whatever their type
    assert nf.WeightedPolynomial(WS, {x3_4: Fraction(1, 2), x6_2: 0}) == half
    assert nf.WeightedPolynomial(WS, {x6_2: Fraction(0)}) == nf.WeightedPolynomial(WS)
    assert nf.parse("x6^2 - x6^2").den == 1
    # numerators over a negative or unreduced denominator are stored in lowest terms
    assert nf._poly(WS, {x3_4: -3, x6_2: 0}, -6) == half
    assert nf._poly(WS, {x3_4: 6, x6_2: -12}, 12) == nf.parse("1/2*x3^4 - x6^2")
    assert nf._poly(WS, {x3_4: 5}, 5) == nf.WeightedPolynomial(WS, {x3_4: 1}) != half
    # the Fraction view is read-only
    with pytest.raises(TypeError):
        half.terms[x6_2] = Fraction(1)
    # what the self-test checks: the normal forms are their own normal forms
    for text in (FORM_A, FORM_B):
        poly = nf.parse(text)
        assert nf.normalize(poly).final == poly


def test_substitution_dependency_cycles():
    # only variables of equal weight can shift into each other, so cycles need repeats
    ws = (1, 1, 1, 2, 3)

    def shift(*exp):
        return (Fraction(1), nf.WeightedPolynomial(ws, {exp: Fraction(1)}))

    x0, x1, x2 = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)
    cycles = [
        {0: shift(*x1), 1: shift(*x0)},
        {0: shift(*x1), 1: shift(*x2), 2: shift(*x0)},
        {3: shift(1, 1, 0, 0, 0), 4: shift(1, 0, 0, 1, 0), 1: shift(*x2), 2: shift(*x1)},
    ]
    for rules in cycles:
        with pytest.raises(nf.GradingError, match="substitution rules form a dependency cycle"):
            nf.Substitution(ws, rules)
    # x4 -> x0*x3, x3 -> x0*x1, x0 -> x1 -> x2, listed against the dependency order
    chain = nf.Substitution(
        ws, {4: shift(1, 0, 0, 1, 0), 3: shift(1, 1, 0, 0, 0), 0: shift(*x1), 1: shift(*x2)}
    )
    poly = nf.WeightedPolynomial(ws, {(0, 0, 0, 0, 1): Fraction(1), (3, 0, 0, 0, 0): Fraction(2)})
    assert nf.substitute(poly, chain).terms == expected_image(poly, chain)


def rational_cbrt(x):
    """nf._rational_cbrt on a Fraction, its root as a Fraction."""
    root = nf._rational_cbrt(x.numerator, x.denominator)
    return None if root is None else Fraction(*root)


def test_rational_cbrt():
    for p in range(-60, 61):
        for q in range(1, 31):
            x = Fraction(p, q)
            assert nf._rational_cbrt(x.numerator**3, x.denominator**3) == (x.numerator, x.denominator)
            # any numerator/denominator pair of the cube, not only the reduced one
            assert nf._rational_cbrt(7 * p**3, 7 * q**3) == (x.numerator, x.denominator)
            assert rational_cube_root(x**3) == x  # the oracle reference_normalize uses
            if x != 0:
                for no_cube in (2 * x**3, x**3 / 3):
                    assert rational_cbrt(no_cube) is None is rational_cube_root(no_cube)
    big = Fraction(-(10**40 + 7), 3**50)
    assert rational_cbrt(big**3) == big == rational_cube_root(big**3)
    assert rational_cbrt(big**3 + 1) is None is rational_cube_root(big**3 + 1)


@pytest.mark.parametrize("digits", [300, 1500])
def test_rational_cbrt_on_long_cubes(digits):
    rng = random.Random(digits)
    for _ in range(2):
        x = Fraction(rng.randrange(10 ** (digits - 1), 10**digits), rng.randrange(1, 10**digits))
        num, den = x.numerator**3, x.denominator**3
        assert nf._rational_cbrt(num, den) == (x.numerator, x.denominator)
        assert nf._rational_cbrt(-num, den) == (-x.numerator, x.denominator)
        assert rational_cbrt(x**3) == x == rational_cube_root(x**3)
        # the integers next to a cube are not cubes, above and below, on either side
        for near in (Fraction(num - 1, den), Fraction(num + 1, den), Fraction(num, den + 1)):
            for y in (near, -near):
                assert rational_cbrt(y) is None
        assert rational_cube_root(Fraction(num + 1, den)) is None  # the oracle bisects: slow


@pytest.mark.parametrize(
    "num,den",
    [(0, 1), (0, 8), (0, 10**30 + 1), (-27, 8), (-2, 1), (-16, 2), (-1, 10**300),
     # denominators with cube factors: a cube only when what is left of them is one
     (1, 8 * 3), (5**3, 2**3 * 7**3), (3, 3**4), (7**3 * 2, 2**4 * 5**3), (4, 2**3 * 4)],
)
def test_rational_cbrt_on_zero_negatives_and_cube_factors(num, den):
    expected = rational_cube_root(Fraction(num, den))
    root = nf._rational_cbrt(num, den)
    assert (root if root is None else Fraction(*root)) == expected
    if root is not None:
        assert math.gcd(*root) == 1 and root[1] > 0


def expected_image(poly, subst):
    """reference_substitute on the plain values of a polynomial and a substitution."""
    rules = {i: (c, dict(g.terms)) for i, (c, g) in subst.rules.items()}
    return reference_substitute(len(poly.weights), dict(poly.terms), rules)


# Weight systems with chains of graded shifts (x2 -> x2 + x1^2, x3 -> x3 +
# x1*x2, ...), repeated weights, and the standard system.
SUBSTITUTION_WEIGHTS = (WS, (1, 2, 3, 4, 5), (1, 1, 2, 3), (2, 3, 4, 6, 9), (1, 2, 2, 5))

coefficients = st.builds(
    Fraction,
    st.integers(-(10**6), 10**6),
    st.one_of(st.integers(1, 12), st.integers(1, 10**40)),
)


@st.composite
def polys_and_substitutions(draw):
    """A graded polynomial and a triangular substitution, shifts chained.

    Variables are shifted in a drawn order; each shift may use any variable
    earlier in that order, itself shifted or not.
    """
    weights = draw(st.sampled_from(SUBSTITUTION_WEIGHTS))
    monos = monomials(weights, draw(st.integers(0, 14)))
    terms = {}
    for exp in draw(st.lists(st.sampled_from(monos))) if monos else ():
        terms[exp] = terms.get(exp, 0) + draw(coefficients)
    order = draw(st.permutations(range(len(weights))))
    rules = {}
    for k, i in enumerate(order):
        if draw(st.booleans()):
            earlier = set(order[:k])
            shifts = [
                e for e in monomials(weights, weights[i])
                if all(j in earlier for j, a in enumerate(e) if a)
            ]
            chosen = draw(st.lists(st.sampled_from(shifts))) if shifts else ()
            shift = {e: draw(coefficients) for e in chosen}
            rules[i] = (draw(coefficients.filter(bool)), nf.WeightedPolynomial(weights, shift))
    return nf.WeightedPolynomial(weights, terms), nf.Substitution(weights, rules)


def _rule(c, **shift):
    """(c, g) with g's terms named like x3_x4=Fraction(-1, 2), over the standard weights."""
    exps = {name: tuple(name.split("_").count(f"x{w}") for w in WS) for name in shift}
    return c, nf.WeightedPolynomial(WS, {exps[name]: v for name, v in shift.items()})


# substitute's branches: a term that no shift touches goes straight into the total, the
# first shift on a term multiplies its monomial and a second one that expansion
NO_SHIFT_TOUCHES = (nf.parse("2*x3^4 - x5*x7"), nf.Substitution(WS, {4: _rule(3, x3_x4=-1)}))
TWO_SHIFTS_TOUCH = (
    nf.parse("x6*x7 - 1/5*x6^2*x7 + x3^2*x7"),
    nf.Substitution(WS, {3: _rule(1, x3_x3=Fraction(1, 4)), 4: _rule(Fraction(2, 3), x3_x4=-7)}),
)
INT_AND_FRACTION_LEADS = (
    nf.parse("x3^4 + 3*x4^3 + x3*x4*x5"),
    nf.Substitution(WS, {0: _rule(2), 1: _rule(Fraction(-3, 7)), 2: _rule(-1)}),
)
ABSENT_VARIABLE = (  # x7 and x5 have top 0: their rules scale nothing
    nf.parse("x3^4 + 5/2*x6^2"),
    nf.Substitution(WS, {4: _rule(Fraction(5, 2), x3_x4=3), 2: _rule(7), 3: _rule(2)}),
)


@settings(max_examples=300, deadline=None)
@given(polys_and_substitutions())
@example(NO_SHIFT_TOUCHES)
@example(TWO_SHIFTS_TOUCH)
@example(INT_AND_FRACTION_LEADS)
@example(ABSENT_VARIABLE)
def test_substitute_matches_fraction_reference(case):
    poly, sub = case
    image = nf.substitute(poly, sub)
    assert image.terms == expected_image(poly, sub)
    assert all(type(c) is Fraction for c in image.terms.values())


# rules as {position: (c, shift terms)}: x5 -> 2/3*x5, x4 -> -1/2*x4, x7 -> x7 - 3*x3*x4
# and x6 -> x6 + 1/4*x3^2
SCALE_5, SCALE_4 = (2, (Fraction(2, 3), {})), (1, (Fraction(-1, 2), {}))
SHIFT_7 = (4, (1, {(1, 1, 0, 0, 0): Fraction(-3)}))
SHIFT_6 = (3, (1, {(2, 0, 0, 0, 0): Fraction(1, 4)}))


@pytest.mark.parametrize(
    "rules,order_matters",
    [
        ((SCALE_5, SCALE_4), False),
        ((SHIFT_7, SHIFT_6), False),
        ((SCALE_4, SHIFT_7), True),  # normalize's case: x7's shift uses the scaled x4
        ((SCALE_5, SCALE_4, SHIFT_7, SHIFT_6), True),
    ],
    ids=["no shift", "only shifts", "a scaled variable in a shift", "all four"],
)
def test_substitute_applies_every_rule_at_once(rules, order_matters):
    poly = nf.parse("2*x5*x7 + 3*x4^3 + x6^2 + 5*x3*x4*x5 - x3^2*x6 + 7*x3^4")
    rules = dict(rules)
    sub = nf.Substitution(WS, {i: (c, nf.WeightedPolynomial(WS, g)) for i, (c, g) in rules.items()})
    image = nf.substitute(poly, sub)
    assert image.terms == expected_image(poly, sub)
    # one rule at a time, x7's shift before x4's scaling, is another coordinate change
    one_at_a_time = dict(poly.terms)
    for i in sorted(rules, reverse=True):
        one_at_a_time = reference_substitute(len(WS), one_at_a_time, {i: rules[i]})
    assert (one_at_a_time != image.terms) is order_matters


def test_substitute_chained_shifts_and_cancellation():
    ws = (1, 2, 3, 4, 5)
    # x2 -> x2 - 10^-30*x1^2, x3 -> x3 + 5*x1*x2 (x2 itself shifted),
    # x5 -> x5 - 2/9*x2*x3 (both shifted), x1 -> 3/7*x1
    sub = nf.Substitution(ws, {
        0: (Fraction(3, 7), nf.WeightedPolynomial(ws)),
        1: (Fraction(1), nf.WeightedPolynomial(ws, {(2, 0, 0, 0, 0): Fraction(-1, 10**30)})),
        2: (Fraction(1), nf.WeightedPolynomial(ws, {(1, 1, 0, 0, 0): Fraction(5)})),
        4: (Fraction(1), nf.WeightedPolynomial(ws, {(0, 1, 1, 0, 0): Fraction(-2, 9)})),
    })
    poly = nf.WeightedPolynomial(ws, {
        (0, 1, 1, 0, 0): Fraction(2, 9), (0, 0, 0, 0, 1): Fraction(1), (1, 0, 0, 1, 0): Fraction(4),
    })
    image = nf.substitute(poly, sub)
    assert image.terms == expected_image(poly, sub)
    assert (0, 1, 1, 0, 0) not in image.terms  # cancels against the x5 shift
    assert nf.substitute(nf.WeightedPolynomial(ws), sub).is_zero()


def test_corner_check():
    assert all(nf.corner_check(nf.parse(FORM_A), 12).values())
    missing57 = nf.parse("x4^3 + x6^2 + x3^4")
    verdicts = nf.corner_check(missing57, 12)
    assert verdicts[WS.index(7)] is False
    assert verdicts[WS.index(5)] is False
    form_b = nf.corner_check(nf.parse(FORM_B), 12)
    assert form_b[WS.index(3)] is False
    assert all(form_b[i] for i in range(1, 5))
    with pytest.raises(ValueError, match="polynomial is not quasi-homogeneous of degree 3"):
        nf.corner_check(nf.parse("x3 + x4"), 3)
    with pytest.raises(ValueError, match="4 weights"):
        nf.corner_check(nf.WeightedPolynomial(WS), 0)


def test_corner_check_x12():
    # the degree-12 monomials that keep a vertex quasi-smooth on their own
    passing = {
        w: {
            exp
            for exp in monomials(WS, 12)
            if nf.corner_check(nf.WeightedPolynomial(WS, {exp: 1}), 12)[i]
        }
        for i, w in enumerate(WS)
    }
    assert passing[7] == {(0, 0, 1, 0, 1)}                      # x5*x7
    assert passing[6] == {(0, 0, 0, 2, 0)}                      # x6^2
    assert passing[3] == {(4, 0, 0, 0, 0), (2, 0, 0, 1, 0)}     # x3^4, x3^2*x6
    assert passing[4] == {(0, 3, 0, 0, 0)}
    assert passing[5] == {(0, 0, 1, 0, 1)}


def test_corner_check_in_any_weight_order():
    # form (b) with its variables listed as (7,3,4,5,6): the verdicts move with them
    order = (4, 0, 1, 2, 3)
    form_b = nf.parse(FORM_B)
    moved = nf.WeightedPolynomial(
        tuple(WS[k] for k in order),
        {tuple(exp[k] for k in order): c for exp, c in form_b.terms.items()},
    )
    expected = nf.corner_check(form_b, 12)
    assert nf.corner_check(moved, 12) == {i: expected[k] for i, k in enumerate(order)}


@st.composite
def quasihomogeneous_polys(draw):
    """A degree-d polynomial over five weights in any order, repeats allowed."""
    weights = tuple(draw(st.lists(st.integers(1, 9), min_size=5, max_size=5)))
    d = draw(st.integers(1, 30))
    monos = monomials(weights, d)
    assume(monos)
    table = [m for ms in reference_corner_requirements(weights, d).values() for m in ms]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=4))
    chosen += draw(st.lists(st.sampled_from(table), max_size=2)) if table else []
    terms = {exp: draw(st.integers(1, 5)) for exp in chosen}
    return nf.WeightedPolynomial(weights, terms), d


@settings(max_examples=300, deadline=None)
@given(quasihomogeneous_polys())
def test_corner_check_matches_corner_table(case):
    poly, d = case
    table = reference_corner_requirements(poly.weights, d)
    support = set(poly.terms)
    expected = {i: any(m in support for m in monos) for i, monos in table.items()}
    assert nf.corner_check(poly, d) == expected


def assert_matches_reference_normalize(poly):
    result = nf.normalize(poly)
    assert (*result[:3], result.final.terms) == reference_normalize(dict(poly.terms))
    return result


def test_normalize_matches_reference_on_random_polys():
    rng = random.Random(2024)
    for _ in range(300):
        assert_matches_reference_normalize(random_degree12_poly(rng))


def test_normalize_matches_reference_on_changed_forms():
    rng = random.Random(13)
    for text in (FORM_A, FORM_B) * 60:
        assert_matches_reference_normalize(nf.substitute(nf.parse(text), random_substitution(rng)))


@pytest.mark.parametrize(
    "text,steps",
    [
        (   # c57 = 1, a cube c444
            "x5*x7 + 8*x4^3 + x6^2 + x3*x4*x5 + 2*x3^2*x6",
            ("x4 -> 1/2*x4", "x7 -> x7 - 1/2*x3*x4", "x6 -> x6 - 1*x3^2"),
        ),
        (   # c57 = 1 after the scaling, no c336
            "2*x5*x7 + 3*x4^3 + 2*x6^2 + x3*x4*x5",
            ("scale the equation by 1/2", "x4^3 keeps unit 3/2 (no rational cube root)",
             "x7 -> x7 - 1/2*x3*x4"),
        ),
        (   # no rational cube root
            "x5*x7 + 2*x4^3 + x6^2 + x3*x4*x5 + x3^2*x6",
            ("x4^3 keeps unit 2 (no rational cube root)", "x7 -> x7 - 1*x3*x4",
             "x6 -> x6 - 1/2*x3^2"),
        ),
        (   # no c345
            "3*x5*x7 - 27/8*x4^3 + x6^2 + x3^2*x6 + x3^4",
            ("x5 -> 1/3*x5", "x4 -> -2/3*x4", "x6 -> x6 - 1/2*x3^2"),
        ),
        (   # no c336
            "3*x5*x7 + 5*x4^3 + x6^2 + x3*x4*x5 + x3^4",
            ("x5 -> 1/3*x5", "x4^3 keeps unit 5 (no rational cube root)", "x7 -> x7 - 1/3*x3*x4"),
        ),
        (   # completing the square cancels lambda: class B
            "-x5*x7 + 4*x4^3 + 9*x6^2 + 6*x3^2*x6 + x3^4",
            ("scale the equation by 1/9", "x5 -> -9*x5", "x4^3 keeps unit 4/9 (no rational cube root)",
             "x6 -> x6 - 1/3*x3^2"),
        ),
    ],
)
def test_normalize_matches_reference_on_each_branch(text, steps):
    assert assert_matches_reference_normalize(nf.parse(text)).steps == steps


def test_normalize_substitutes_once(monkeypatch):
    calls = []
    real = nf.substitute

    def counted(poly, subst):
        calls.append(sorted(subst.rules))
        return real(poly, subst)

    monkeypatch.setattr(nf, "substitute", counted)
    rng = random.Random(3)
    for poly in [nf.parse(FORM_A), nf.parse(FORM_B)] + [random_degree12_poly(rng) for _ in range(20)]:
        calls.clear()
        nf.normalize(poly)
        assert len(calls) == 1
    assert calls[0]  # a random equation moves some coordinate


def _off_by_one(final):
    """final with each of its numerators in turn one more, and with one term added."""
    for exp in final.nums:
        yield nf._poly(final.weights, {**final.nums, exp: final.nums[exp] + 1}, final.den)
    yield nf._poly(final.weights, {**final.nums, (1, 1, 1, 0, 0): 1}, final.den)


@pytest.mark.parametrize(
    "corrupt",
    [
        _off_by_one,
        lambda final: [nf._poly(final.weights, final.nums, 2 * final.den)],
        lambda final: [nf._poly((3, 4, 5, 6, 8), final.nums, final.den)],
    ],
    ids=["a numerator off by one", "twice the denominator", "other weights"],
)
def test_the_closed_form_check_refuses_a_wrong_final(monkeypatch, corrupt):
    # the check compares final with the closed form without building it: every way
    # of being wrong must still raise, with the closed form in the message
    real = nf.substitute
    rng = random.Random(5)
    for poly in [nf.parse(FORM_A), nf.parse(FORM_B)] + [random_degree12_poly(rng) for _ in range(5)]:
        right = nf.normalize(poly).final
        for wrong in corrupt(right):
            monkeypatch.setattr(nf, "substitute", lambda *args: wrong)
            with pytest.raises(AssertionError, match=re.escape(f"not the closed form {right}")):
                nf.normalize(poly)
            monkeypatch.setattr(nf, "substitute", real)


def test_normalize_completing_square():
    result = nf.normalize(nf.parse("x5*x7 + x4^3 + x6^2 + x3^2*x6 + x3^4"))
    assert result.form == "A"
    assert result.lam == Fraction(3, 4)
    assert result.final == nf.parse("x5*x7 + x4^3 + x6^2 + 3/4*x3^4")


def test_normalize_to_form_b():
    result = nf.normalize(nf.parse("x5*x7 + x4^3 + x6^2 + x3*x4*x5"))
    assert result.form == "B"
    assert result.lam == 0
    assert result.final == nf.parse(FORM_B)


def test_normalize_fixed_points():
    for text, expected in ((FORM_A, "A"), (FORM_B, "B")):
        result = nf.normalize(nf.parse(text))
        assert result.form == expected
        assert result.steps == ()
        assert result.final == nf.parse(text)


def test_normalize_idempotent_random():
    rng = random.Random(11)
    for _ in range(30):
        first = nf.normalize(random_degree12_poly(rng))
        second = nf.normalize(first.final)
        assert second.form == first.form
        assert second.lam == first.lam
        assert second.final == first.final


def test_normalize_missing_corner():
    with pytest.raises(nf.MissingCornerMonomial) as err:
        nf.normalize(nf.parse("x5*x7 + x4^3 + x3^4"))
    assert str(err.value) == "required corner monomial x6^2 has zero coefficient"
    with pytest.raises(nf.MissingCornerMonomial):
        nf.normalize(nf.parse("x4^3 + x6^2"))


def test_normalize_refuses_any_term_off_degree_12():
    # quasi-homogeneity of degree 12 is read off the support: inside the six exponents
    assert nf.DEGREE_12 == set(monomials(WS, 12))
    for text in ("x5*x7 + x4^3 + x6^2 + x3", "x5*x7 + x4^3 + x6^2 + 2", "x5*x7 + x4^3 + x6^2*x3"):
        with pytest.raises(ValueError, match="needs a quasi-homogeneous degree-12 polynomial"):
            nf.normalize(nf.parse(text))


def test_normalize_refuses_other_weights():
    poly = nf.WeightedPolynomial((1, 2, 3, 4, 5), {(0, 0, 0, 0, 2): 1})
    with pytest.raises(ValueError, match=r"defined for weights \(3, 4, 5, 6, 7\)"):
        nf.normalize(poly)


def test_normalize_final_support_100_random():
    rng = random.Random(7)
    allowed = {(0, 0, 1, 0, 1), (0, 3, 0, 0, 0), (0, 0, 0, 2, 0), (4, 0, 0, 0, 0)}
    for _ in range(100):
        result = nf.normalize(random_degree12_poly(rng))
        assert set(result.final.terms) <= allowed


def test_normalize_class_invariant_100_changes():
    rng = random.Random(42)
    for _ in range(100):
        poly = random_degree12_poly(rng)
        baseline = nf.normalize(poly).form
        changed = nf.substitute(poly, random_substitution(rng))
        assert nf.normalize(changed).form == baseline


@pytest.mark.parametrize(
    "d,expected",
    [(12, (6, 5, 1)), (6, (2, 2, 0)), (0, (1, 1, 0))]
    + [(d, None) for d in range(3, 12)],
)
def test_relation_profile(d, expected):
    series = wps.hilbert(X12_SHAPE, 12)
    profile = rr.relation_profile(WS, d, series)
    if expected is not None:
        assert profile == expected
    else:
        assert profile.relations == 0


def test_relation_profile_exceeds():
    from qfano.series import PowerSeries

    fat = PowerSeries(tuple(100 if m == 6 else 1 for m in range(13)))
    with pytest.raises(rr.InconsistentSeries, match="coefficient 100 exceeds the 2 monomials"):
        rr.relation_profile(WS, 6, fat)


@pytest.mark.parametrize("d", [31, 10**6])
def test_relation_profile_reads_the_series_before_counting_monomials(monkeypatch, d):
    # the count is O(n*d): a degree past the series must be refused before it is made
    def refuse(weights, degree):
        raise AssertionError(f"monomial_count({weights}, {degree}) called")

    series = wps.hilbert(X12_SHAPE, 30)
    monkeypatch.setattr(wps, "monomial_count", refuse)
    with pytest.raises(TruncationError, match=f"t\\^{d} requested"):
        rr.relation_profile(WS, d, series)


def test_edge_restriction_points_form_a():
    form_a = nf.parse(FORM_A)
    at = {w: i for i, w in enumerate(WS)}
    pts36 = nf.edge_restriction_points(form_a, at[3], at[6])
    assert (pts36.count, pts36.reduced) == (2, True)
    pts46 = nf.edge_restriction_points(form_a, at[4], at[6])
    assert (pts46.count, pts46.reduced) == (1, True)


def test_edge_restriction_points_form_b_nonreduced():
    form_b = nf.parse(FORM_B)
    at = {w: i for i, w in enumerate(WS)}
    pts = nf.edge_restriction_points(form_b, at[3], at[6])
    assert pts.count == 1
    assert pts.multiplicities == (2,)
    assert not pts.reduced


def test_edge_restriction_contained():
    poly = nf.parse("x3*x4*x5")
    assert nf.edge_restriction_points(poly, 0, 3) is None


def test_a_contained_edge_gives_none_in_a_new_interpreter_with_neither_wps_nor_series_loaded():
    # a new interpreter, so that no other test has loaded wps or series before the call
    script = (
        "import sys\n"
        "from qfano import normal_form as nf\n"
        "print(nf.edge_restriction_points(nf.parse('x3*x4*x5'), 0, 3))\n"
        "print(sorted({'qfano.wps', 'qfano.series'} & sys.modules.keys()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nf.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "None\n[]\n")


def test_edge_restriction_repeated_root():
    # (x6 + x3^2)^2 restricted to the (3,6)-edge: one doubled non-vertex zero
    poly = nf.parse("x6^2 + 2*x3^2*x6 + x3^4")
    pts = nf.edge_restriction_points(poly, 0, 3)
    assert pts.count == 1
    assert pts.multiplicities == (2,)
    assert not pts.reduced


def test_edge_restriction_mixed_multiplicities():
    # x3^2 * (x6 + x3^2) * (x6 - x3^2): vertex zero of order 2 plus two
    # simple zeros; h(u) = u^2 - 1 after stripping x3^2... exponents:
    # x3^2*x6^2 - x3^6 has degree 12... use degree-18 instead for room
    poly = nf.WeightedPolynomial(
        nf.STANDARD_WEIGHTS,
        {
            (2, 0, 0, 2, 0): Fraction(1),   # x3^2 x6^2, degree 18
            (6, 0, 0, 0, 0): Fraction(-1),  # -x3^6, degree 18
        },
    )
    pts = nf.edge_restriction_points(poly, 0, 3)
    assert pts.count == 3
    assert pts.multiplicities == (2, 1, 1)
    assert not pts.reduced


def test_edge_restriction_rejects_mixed_degrees():
    poly = nf.parse("x6^2 + x3^2")
    with pytest.raises(ValueError):
        nf.edge_restriction_points(poly, 0, 3)


def _poly_product(factors):
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


# x^2 + 1, x^2 - 2, x^2 + x + 1, 3x^2 - x + 5: irreducible over Q, pairwise coprime
QUADRATICS = (
    [Fraction(1), Fraction(0), Fraction(1)],
    [Fraction(-2), Fraction(0), Fraction(1)],
    [Fraction(1), Fraction(1), Fraction(1)],
    [Fraction(5), Fraction(-1), Fraction(3)],
)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool),
        st.integers(1, 4),
        max_size=4,
    ),
    st.lists(st.integers(0, 3), min_size=len(QUADRATICS), max_size=len(QUADRATICS)),
    st.integers(0, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool),
)
def test_root_multiplicities_of_known_factors(roots, quadratic_powers, zero_power, lead):
    # rational roots r with multiplicity m, each quadratic's two conjugate
    # roots with its power, and a root at 0 (a vertex zero) of zero_power
    factors = [[-r, Fraction(1)] for r, m in roots.items() for _ in range(m)]
    factors += [q for q, m in zip(QUADRATICS, quadratic_powers) for _ in range(m)]
    factors += [[Fraction(0), Fraction(1)]] * zero_power + [[lead]]
    expected = list(roots.values()) + [m for m in quadratic_powers if m for _ in range(2)]
    expected += [zero_power] if zero_power else []
    assert nf._root_multiplicities(_poly_product(factors)) == sorted(expected, reverse=True)


def member_points_off_the_vertices(rng, weights, i, j, d):
    """Zeros off the vertices of a member's restriction to the (i, j) edge:
    its degree-d monomials in x_i, x_j, coefficients drawn from 1..10^6."""
    exponents = [
        tuple(a if k == i else c if k == j else 0 for k in range(len(weights)))
        for a, c in monomials((weights[i], weights[j]), d)
    ]
    poly = nf.WeightedPolynomial(weights, {e: rng.randint(1, 10**6) for e in exponents})
    # a leftover power of x_i (of x_j) is a zero at the x_j (the x_i) vertex
    at_vertices = sum(min(e[k] for e in exponents) > 0 for k in (i, j))
    return nf.edge_restriction_points(poly, i, j).count - at_vertices


def test_edge_counts_match_general_member_formula():
    form_a = nf.parse(FORM_A)
    at = {w: i for i, w in enumerate(WS)}
    for i, j in ((at[3], at[6]), (at[4], at[6])):
        count, _ = wps.edge_singularities(X12_SHAPE, i, j)
        assert nf.edge_restriction_points(form_a, i, j).count == count
    # every census edge whose weights share a factor and that the member does
    # not contain: the walk's count (no verdict read as 0), terminal type or
    # not, against the zeros of a seeded member's restriction.
    # Coefficients in +-7 repeat a root on dozens of edges; 1..10^6 on none.
    rng = random.Random(31)
    mismatched, edges = [], 0
    for weights, d in small_shapes()[0]:
        if d == 0:
            continue
        counts = {v.stratum: v.count for v, _ in wps._walk(wps.HypersurfaceShape(weights, d))}
        for i, j in itertools.combinations(range(5), 2):
            wi, wj = weights[i], weights[j]
            if math.gcd(wi, wj) == 1 or not wps.has_monomial((wi, wj), d):
                continue
            edges += 1
            zeros = member_points_off_the_vertices(rng, weights, i, j, d)
            if counts.get((i, j), 0) != zeros:
                mismatched.append((weights, d, i, j))
    assert edges == 21_015
    assert mismatched == []


small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[small_coeffs.filter(lambda x: x != 0)] * 3),
    st.tuples(*[small_coeffs] * 3),
)
def test_normalize_support_property(corners, others):
    terms = {
        (0, 0, 1, 0, 1): corners[0],
        (0, 3, 0, 0, 0): corners[1],
        (0, 0, 0, 2, 0): corners[2],
        (2, 0, 0, 1, 0): others[0],
        (1, 1, 1, 0, 0): others[1],
        (4, 0, 0, 0, 0): others[2],
    }
    poly = nf.WeightedPolynomial(WS, terms)
    result = nf.normalize(poly)
    allowed = {(0, 0, 1, 0, 1), (0, 3, 0, 0, 0), (0, 0, 0, 2, 0), (4, 0, 0, 0, 0)}
    assert set(result.final.terms) <= allowed
    assert (result.form == "A") == (result.lam != 0)
