"""Exact series expansion against the brute-force partition oracle."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfano import fixtures, riemann_roch, wps
from qfano.series import (
    PowerSeries,
    TruncationError,
    expand_product,
    partition_count,
    product_coefficients,
    series_equal_upto,
)

X12_EXPONENTS = ((12,), (3, 4, 5, 6, 7))


def test_degree_12_hypersurface_series_prefix():
    series = expand_product(*X12_EXPONENTS, 10)
    assert series.coefficients == (1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 4)


def test_geometric_series():
    series = expand_product((), (1,), 5)
    assert series.coefficients == (1, 1, 1, 1, 1, 1)


def test_coefficient_thirteen_from_partition_oracle():
    # shifted-partition identity evaluated by the independent oracle
    expected = partition_count((3, 4, 5, 6, 7), 13) - partition_count((3, 4, 5, 6, 7), 1)
    assert expected == 6
    assert expand_product(*X12_EXPONENTS, 13)[13] == expected


def _enumerate_multisets(parts, n):
    """Independent exhaustive multiset listing (checks the oracle itself)."""
    parts = sorted(parts)

    def rec(smallest, rem):
        if rem == 0:
            yield ()
            return
        for p in parts:
            if p < smallest or p > rem:
                continue
            for rest in rec(p, rem - p):
                yield (p,) + rest

    return {tuple(sorted(m)) for m in rec(0, n)}


@pytest.mark.parametrize(
    "parts,n,expected",
    [((3, 4, 5, 6, 7), 12, 6), ((3, 4, 5, 6, 7), 0, 1), ((3, 4, 5, 6, 7), 13, 6)],
)
def test_partition_count_examples(parts, n, expected):
    assert partition_count(parts, n) == expected
    assert len(_enumerate_multisets(parts, n)) == expected


def test_partition_count_matches_listing_through_30():
    for n in range(31):
        assert partition_count((3, 4, 5, 6, 7), n) == len(
            _enumerate_multisets((3, 4, 5, 6, 7), n)
        )


def test_partition_count_refuses_a_negative_n_or_a_part_below_1():
    with pytest.raises(ValueError, match="n must be >= 0"):
        partition_count((3, 4), -1)
    with pytest.raises(ValueError, match="part 0 must be >= 1"):
        partition_count((3, 0), 5)


def test_series_equal_upto_reflexive():
    series = expand_product(*X12_EXPONENTS, 10)
    assert series_equal_upto(series, series, 10) == (True, None)


def test_series_equal_upto_first_mismatch():
    # degree-6 relation would already change the coefficient of t^6
    a = expand_product(*X12_EXPONENTS, 10)
    b = expand_product((6,), (3, 4, 5, 6, 7), 10)
    equal, at = series_equal_upto(a, b, 10)
    assert not equal and at == 6
    assert (a[6], b[6]) == (Fraction(2), Fraction(1))


def test_series_equal_upto_truncation_error():
    a = expand_product(*X12_EXPONENTS, 5)
    b = expand_product(*X12_EXPONENTS, 10)
    with pytest.raises(TruncationError):
        series_equal_upto(a, b, 8)


def test_series_equal_upto_refuses_when_only_the_second_series_is_short():
    a = expand_product(*X12_EXPONENTS, 5)
    b = expand_product(*X12_EXPONENTS, 3)
    with pytest.raises(TruncationError, match=r"through t\^4 .* \(have 5 and 3\)"):
        series_equal_upto(a, b, 4)


def test_series_equal_upto_refuses_a_negative_order():
    # an empty comparison would report equality having compared nothing
    series = expand_product(*X12_EXPONENTS, 5)
    with pytest.raises(ValueError, match="comparison order must be >= 0"):
        series_equal_upto(series, series, -1)


def test_power_series_validation():
    with pytest.raises(ValueError):
        PowerSeries(())
    with pytest.raises(TruncationError):
        expand_product(*X12_EXPONENTS, 3)[4]
    with pytest.raises(TruncationError, match="cannot extend a series of order 2 to order 5"):
        PowerSeries((1, 2, 3)).truncate(5)
    with pytest.raises(ValueError):
        PowerSeries((Fraction(1, 2),))


def test_power_series_is_a_read_only_value():
    a, b = PowerSeries((1, 0, 1)), expand_product((), (2,), 2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != PowerSeries((1, 0, 1, 0)) and a != (1, 0, 1)
    with pytest.raises(AttributeError):
        a.coefficients = (2,)
    assert a.coefficients == (1, 0, 1) and repr(a) == "PowerSeries(coefficients=(1, 0, 1))"


def test_hilbert_and_riemann_roch_coefficients_are_ints():
    for f in fixtures.FIXTURES:
        data = riemann_roch.calibrated_data(f.shape)
        for series in (wps.hilbert(f.shape, 60), riemann_roch.hilbert_rr(data, 60)):
            assert {type(c) for c in series.coefficients} == {int}
            assert {type(c) for c in series.truncate(10).coefficients} == {int}


def test_non_int_coefficients_are_refused():
    for bad in (Fraction(-7, 3), Fraction(4), 2.5, 2.0, True, "3", None):
        message = f"coefficient of t^2 is {bad!r}, not an int"
        with pytest.raises(ValueError, match=re.escape(message)):
            PowerSeries((1, 0, bad, 5))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=40), st.data())
def test_int_series_truncate_and_compare(coeffs, data):
    series = PowerSeries(tuple(coeffs))
    assert series.coefficients == tuple(coeffs)
    order = data.draw(st.integers(0, series.order))
    cut = series.truncate(order)
    assert cut.coefficients == tuple(coeffs[: order + 1])
    assert {type(c) for c in cut.coefficients} == {int}
    assert series_equal_upto(series, cut, order) == (True, None)
    m = data.draw(st.integers(0, series.order))
    bumped = PowerSeries(tuple(c + (i == m) for i, c in enumerate(coeffs)))
    assert series_equal_upto(series, bumped, series.order) == (False, m)


def test_product_exponent_validation():
    for kernel in (product_coefficients, expand_product):
        for bad in (0, -2):
            with pytest.raises(ValueError, match=f"factor exponent {bad} must be >= 1"):
                kernel((bad,), (1,), 5)
            with pytest.raises(ValueError, match=f"factor exponent {bad} must be >= 1"):
                kernel((), (3, bad), 5)
        for bad in (2.0, Fraction(2)):
            with pytest.raises(TypeError):
                kernel((bad,), (1,), 5)
            with pytest.raises(TypeError):
                kernel((), (3, bad), 5)
        with pytest.raises(ValueError, match="truncation order must be >= 0"):
            kernel(*X12_EXPONENTS, -1)


weights_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(weights_lists)
def test_pure_denominator_matches_partition_oracle(weights):
    series = expand_product((), weights, 30)
    for m in range(31):
        assert series[m] == partition_count(weights, m)


@settings(max_examples=60, deadline=None)
@given(weights_lists, st.integers(min_value=1, max_value=15))
def test_single_numerator_shift_identity(weights, d):
    series = expand_product((d,), weights, 30)
    for m in range(31):
        expected = partition_count(weights, m)
        if m >= d:
            expected -= partition_count(weights, m - d)
        assert series[m] == expected


def _fraction_expand(numerator, denominator, order):
    """The Fraction recurrence product_coefficients replaced, kept as its reference."""
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for a in numerator:
        for m in range(order, a - 1, -1):
            coeffs[m] -= coeffs[m - a]
    for b in denominator:
        for m in range(b, order + 1):
            coeffs[m] += coeffs[m - b]
    return tuple(coeffs)


exponent_lists = st.lists(st.integers(min_value=1, max_value=40), max_size=5)


@settings(max_examples=100, deadline=None)
@given(exponent_lists, exponent_lists, st.integers(min_value=0, max_value=120))
def test_integer_kernel_matches_fraction_recurrence(numerator, denominator, order):
    coeffs = product_coefficients(numerator, denominator, order)
    assert all(type(c) is int for c in coeffs)
    assert coeffs == _fraction_expand(numerator, denominator, order)
    # expand_product and truncate wrap the kernel's tuple without re-checking it
    series = expand_product(numerator, denominator, order)
    for got in (series, series.truncate(order // 2)):
        assert type(got.coefficients) is tuple and {type(c) for c in got.coefficients} == {int}
        assert got.coefficients == coeffs[: got.order + 1]


def test_integer_kernel_rejects_negative_order():
    with pytest.raises(ValueError):
        product_coefficients(*X12_EXPONENTS, -1)
    with pytest.raises(ValueError):
        expand_product(*X12_EXPONENTS, 10).truncate(-1)


fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(fractions, fractions, fractions)
def test_rational_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(fractions.filter(lambda x: x != 0))
def test_rational_multiplicative_inverse(a):
    assert a * (1 / a) == 1
