"""Shared generators for randomized exact-arithmetic tests, and shared fixtures."""

from __future__ import annotations

import contextlib
import random
import sys
import warnings
from fractions import Fraction

import pytest

from qfano import normal_form as nf
from qfano import riemann_roch, series

# Hypothesis imports its patch writer, and through it libcst, while it reports a
# falsifying example. Under -W error, as CI runs, libcst's mypy_extensions.TypedDict
# DeprecationWarning would then become an INTERNALERROR in pytest's report hook in
# place of the failure. Imported once here with that one warning ignored, the
# module is already loaded when the report needs it.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis writes no patch, and warns of nothing
        pass

WS = nf.STANDARD_WEIGHTS


@contextlib.contextmanager
def digit_limit(n):
    """Set the interpreter's int/str digit limit to n (0: none), where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


DEGREE_12_MONOMIALS = {
    "x5*x7": (0, 0, 1, 0, 1),
    "x4^3": (0, 3, 0, 0, 0),
    "x6^2": (0, 0, 0, 2, 0),
    "x3^2*x6": (2, 0, 0, 1, 0),
    "x3*x4*x5": (1, 1, 1, 0, 0),
    "x3^4": (4, 0, 0, 0, 0),
}
CORNERS = ("x5*x7", "x4^3", "x6^2")


def small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        f = small_fraction(rng)
        if f != 0:
            return f


def random_degree12_poly(rng: random.Random) -> nf.WeightedPolynomial:
    """Random quasi-homogeneous degree-12 polynomial with nonzero corners."""
    terms = {}
    for name, exp in DEGREE_12_MONOMIALS.items():
        coeff = nonzero_fraction(rng) if name in CORNERS else small_fraction(rng)
        if coeff != 0:
            terms[exp] = coeff
    return nf.WeightedPolynomial(WS, terms)


def random_substitution(rng: random.Random) -> nf.Substitution:
    """Random admissible coordinate change of the (3,4,5,6,7) system."""
    rules = {}
    for i in range(5):
        rules[i] = (nonzero_fraction(rng), nf.WeightedPolynomial(WS))
    shift6 = small_fraction(rng)
    if shift6 != 0:
        rules[3] = (
            rules[3][0],
            nf.WeightedPolynomial(WS, {(2, 0, 0, 0, 0): shift6}),
        )
    shift7 = small_fraction(rng)
    if shift7 != 0:
        rules[4] = (
            rules[4][0],
            nf.WeightedPolynomial(WS, {(1, 1, 0, 0, 0): shift7}),
        )
    return nf.Substitution(WS, rules)


def empty_every_memo():
    for memo in series.MEMOS:
        memo.clear()


@pytest.fixture
def empty_memos():
    """Every process memo in ``series.MEMOS`` empty for one test and after it, so that each
    series, basket, calibration and link case the test asks for is computed again, with
    whatever the test has patched, and nothing the test kept reaches a later test."""
    empty_every_memo()
    yield
    empty_every_memo()


@pytest.fixture
def expansions(monkeypatch, empty_memos):
    """Empty memos for one test, and the order of each series that a prefix memo
    (``series.product_coefficients``, ``riemann_roch.hilbert_rr``) expands for it."""
    orders = []
    kept_prefix = series.kept_prefix

    def counted(memo, key, order, expand):
        return kept_prefix(memo, key, order, lambda k, n: orders.append(n) or expand(k, n))

    for module in (series, riemann_roch):
        monkeypatch.setattr(module, "kept_prefix", counted)
    return orders
