"""Riemann-Roch evaluation against the closed-form series oracles."""

import collections
import dataclasses
import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    flip_search, fraction_expand, local_c, mismatches, reference_a_c2, reference_chi
)
from qfano import fixtures, series, wps
from qfano import riemann_roch as rr
from qfano.series import PowerSeries, expand_product, series_equal_upto

X12 = wps.HypersurfaceShape((3, 4, 5, 6, 7), 12)

FIXTURE_SHAPES = {f.name: f.shape for f in fixtures.FIXTURES}


@pytest.fixture(scope="module")
def calibrated():
    return {name: rr.calibrated_data(shape) for name, shape in FIXTURE_SHAPES.items()}


def test_a_c2_x12(calibrated):
    assert rr.a_c2(calibrated["X12"]) == Fraction(89, 210)


def test_a_c2_ordinary_p3():
    data = rr.FanoData(4, Fraction(1), ())
    assert rr.a_c2(data) == 6


def test_a_c2_p1123(calibrated):
    assert rr.a_c2(calibrated["P(1,1,2,3)"]) == Fraction(17, 6)


@pytest.mark.parametrize(
    "r,b,i,expected",
    [
        (2, 1, 0, Fraction(0)),
        (2, 1, 1, Fraction(-1, 8)),
        (5, 3, 2, Fraction(-1, 5)),
    ],
)
def test_local_c_values(r, b, i, expected):
    assert local_c(r, b, i) == expected


def test_local_c_symmetric_in_b():
    for r in (3, 5, 7, 11):
        for b in range(1, r):
            if math.gcd(b, r) != 1:
                continue
            for i in range(r):
                assert local_c(r, b, i) == local_c(r, r - b, i)


def test_local_c_period_sum_independent_of_b():
    for r in (2, 3, 5, 7, 11, 12):
        sums = {
            b: sum(local_c(r, b, i) for i in range(r))
            for b in range(1, r)
            if math.gcd(b, r) == 1
        }
        assert len(set(sums.values())) == 1


def test_chi_basics(calibrated):
    data = calibrated["X12"]
    assert rr.chi(data, 0) == 1
    assert rr.chi(data, 1) == 0 and rr.chi(data, 2) == 0
    assert rr.chi(data, 3) == 1
    assert rr.chi(data, 13) == 6  # genus 4 = h^0(-K) - 2


def test_chi_integrality_all_fixtures(calibrated):
    for data in calibrated.values():
        for m in range(31):
            assert isinstance(rr.chi(data, m), int)


def test_chi_convention_error(calibrated):
    # one wA flipped on X12 breaks the orientation, which FanoData refuses itself
    good = calibrated["X12"]
    entries = tuple(rr.RRBasketEntry(5, e.b, 5 - e.wa) if e.r == 5 else e for e in good.entries)
    with pytest.raises(rr.ConventionError, match="inconsistent orientation signs"):
        rr.FanoData(good.q, good.a3, entries)
    # P(1,1,2,3)'s 1/3 point flipped keeps the signs consistent, and chi refuses chi(A)
    good = calibrated["P(1,1,2,3)"]
    entries = tuple(rr.RRBasketEntry(3, e.b, 3 - e.wa) if e.r == 3 else e for e in good.entries)
    data = rr.FanoData(good.q, good.a3, entries)
    with pytest.raises(rr.ConventionError) as raised:
        rr.chi(data, 1)
    assert str(raised.value) == "chi(1A) = 17/9 is not an integer: wrong (b, wA) assignment"


def test_fano_data_refuses_an_entry_off_the_wa_convention():
    # 13 * 1 = 3 mod 5: neither +1 nor -1
    message = "entry (r=5, b=2, wA=1) violates q*wA = +-1 (mod r) for q=13"
    with pytest.raises(rr.ConventionError, match=re.escape(message)):
        rr.FanoData(13, Fraction(1, 210), (rr.RRBasketEntry(5, 2, 1),))


def test_hilbert_rr_matches_closed_form(calibrated):
    # 24 as calibrated_data uses it; 500, the longest series request of the x12_session benchmark
    for name, shape in FIXTURE_SHAPES.items():
        for order in (24, 500):
            assert rr.hilbert_rr(calibrated[name], order) == wps.hilbert(shape, order)
    # the cross-module comparison through the comparison helper
    x12 = rr.hilbert_rr(calibrated["X12"], 24)
    assert series_equal_upto(x12, expand_product((12,), (3, 4, 5, 6, 7), 24), 24) == (True, None)


# 3 + the sum of the distinct basket indices + the sum of the weights
CALIBRATION_DEPTHS = {
    "X12": 45, "P(3,4,5,7)": 41, "P(2,3,5,7)": 37, "P(1,3,4,5)": 28, "P(1,2,3,5)": 24, "P(1,1,2,3)": 15,
}


@pytest.fixture
def calibrations(monkeypatch, empty_memos):
    """Empty memos for the test, and the order of each oracle that calibrate compares with."""
    depths = []
    calibrate = rr.calibrate

    def recording(data, oracle):
        depths.append(oracle.order)
        return calibrate(data, oracle)

    monkeypatch.setattr(rr, "calibrate", recording)
    return depths


@pytest.mark.parametrize("name", FIXTURE_SHAPES)
def test_calibrated_data_compares_through_the_numerator_bound(calibrated, calibrations, name):
    shape = FIXTURE_SHAPES[name]
    data = rr.calibrated_data(shape)
    bound = 3 + sum(set(wps.basket(shape).indices())) + sum(shape.weights)
    # one comparison per shape: any order, below the bound or past it, returns the kept data,
    # equal to the data calibrated before this test emptied the memos
    for order in (0, 24, 45, 60, 1000, bound, bound + 7):
        assert rr.calibrated_data(shape, order) is data == calibrated[name]
    assert calibrations == [bound] == [CALIBRATION_DEPTHS[name]]


def test_a_repeat_calibrated_data_returns_the_kept_data(calibrations):
    data = rr.calibrated_data(X12)
    for order in (0, 24, 45, 60, 1000):
        assert rr.calibrated_data(X12, order) is data
    # a float or negative order is refused, kept data or not, as kept_prefix refuses one
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        rr.calibrated_data(X12, 45.0)
    with pytest.raises(ValueError, match="^truncation order must be >= 0$"):
        rr.calibrated_data(X12, -1)
    assert calibrations == [45] and rr._CALIBRATED == {X12: data}


def test_a_longer_order_compares_through_the_bound_alone(calibrations):
    # a first request past the bound compares through the bound; the data meet every order
    data = rr.calibrated_data(X12, 1000)
    for order in (0, 24, 45, 60, 1000):
        assert rr.calibrated_data(X12, order) is data
    assert calibrations == [45] and rr._CALIBRATED == {X12: data}


def test_calibrated_data_sees_an_oracle_changed_past_t24(monkeypatch, empty_memos):
    # X12's oracle with only t^30 changed agrees through t^24; the derived depth 45 reaches it
    hilbert = wps.hilbert

    def changed_at_30(shape, order):
        coeffs = list(hilbert(shape, order).coefficients)
        if order >= 30:
            coeffs[30] += 1
        return PowerSeries(tuple(coeffs))

    monkeypatch.setattr(wps, "hilbert", changed_at_30)
    for order in (0, 24):
        with pytest.raises(rr.CalibrationError, match=r"differs from the oracle at t\^30$"):
            rr.calibrated_data(X12, order)
    assert rr._CALIBRATED == {}  # so each call compares, and raises, again


def test_calibrated_series_equal_the_closed_form_over_four_periods():
    # both coefficient sequences are quasi-polynomials of degree <= 3 with the
    # common period P = lcm(weights, r), so agreeing for m < 4P is equality
    checked = 0
    for shape in [*FIXTURE_SHAPES.values(), *clean_shapes(10)]:
        data = rr.calibrated_data(shape)
        period = math.lcm(*shape.weights, *(e.r for e in data.entries))
        if period > 1000:
            continue
        assert rr.hilbert_rr(data, 4 * period) == wps.hilbert(shape, 4 * period), shape
        checked += 1
    assert checked == 134


@st.composite
def fano_data(draw):
    q = draw(st.sampled_from(rr.ALLOWED_FANO_INDICES))
    sign = draw(st.sampled_from((1, -1)))  # q * wA = sign (mod r) at every point
    indices = [r for r in range(2, 41) if math.gcd(r, q) == 1]
    entries = []
    for r in draw(st.lists(st.sampled_from(indices), max_size=4)):
        b = draw(st.sampled_from([b for b in range(1, r) if math.gcd(b, r) == 1]))
        entries.append(rr.RRBasketEntry(r, b, sign * pow(q, -1, r) % r))
    lead = Fraction((1 + q) * (2 + q), 12)  # coefficient of A^3 in chi(A)
    if draw(st.booleans()):
        # pick A^3 so that chi(A) is integral; any failure then comes later
        rest = reference_chi(rr.FanoData(q, Fraction(1), tuple(entries)), 1) - lead
        a3 = (math.floor(rest) + draw(st.integers(min_value=1, max_value=4)) - rest) / lead
    else:
        den = math.prod(e.r for e in entries)
        a3 = Fraction(draw(st.integers(min_value=1, max_value=3 * den)), den)
    return rr.FanoData(q, a3, tuple(entries))


def expected_chi(data, ms):
    """reference_chi over ms as ints, then the ConventionError text at the first fractional one."""
    values = []
    for m in ms:
        value = reference_chi(data, m)
        if value.denominator != 1:
            return values, f"chi({m}A) = {value} is not an integer: wrong (b, wA) assignment"
        values.append(int(value))
    return values, None


@settings(max_examples=300, deadline=None)
@given(fano_data(), st.integers(min_value=0, max_value=60))
def test_integer_kernel_matches_fraction_reference(data, order):
    expected, message = expected_chi(data, range(order + 1))
    if message is None:
        series = rr.hilbert_rr(data, order)
        assert series.coefficients == tuple(expected)
        assert [rr.chi(data, m) for m in range(order + 1)] == expected
        return
    with pytest.raises(rr.ConventionError) as raised:
        rr.hilbert_rr(data, order)
    assert str(raised.value) == message
    assert [rr.chi(data, m) for m in range(len(expected))] == expected
    with pytest.raises(rr.ConventionError) as raised:
        rr.chi(data, len(expected))
    assert str(raised.value) == message


@functools.cache
def clean_data():
    """Calibrated data of the fixtures and the clean shapes: integral at every m."""
    return [rr.calibrated_data(shape) for shape in [*FIXTURE_SHAPES.values(), *clean_shapes(10)]]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(fano_data(), st.deferred(lambda: st.sampled_from(clean_data()))),
    st.integers(min_value=60, max_value=400),
)
def test_long_series_match_the_fraction_reference(data, order):
    # orders spanning several periods of every point (r <= 40); drawn data is
    # mostly fractional early, calibrated data integral throughout
    expected, message = expected_chi(data, range(order + 1))
    if message is None:
        # hilbert_rr wraps its tuple without re-checking it: every entry must be an int
        coeffs = rr.hilbert_rr(data, order).coefficients
        assert type(coeffs) is tuple and coeffs == tuple(expected)
        assert {type(c) for c in coeffs} == {int}
        return
    with pytest.raises(rr.ConventionError) as raised:
        rr.hilbert_rr(data, order)
    assert str(raised.value) == message


@settings(max_examples=100, deadline=None)
@given(fano_data(), st.integers(min_value=10**5, max_value=10**6))
def test_chi_far_out_matches_the_fraction_reference(data, m):
    expected, message = expected_chi(data, [m])
    if message is None:
        assert rr.chi(data, m) == expected[0]
        return
    with pytest.raises(rr.ConventionError) as raised:
        rr.chi(data, m)
    assert str(raised.value) == message


# the values the evaluator reads, in a plain record that FanoData's refusals do not reach
RRValues = collections.namedtuple("RRValues", "q a3 entries")


@settings(max_examples=200, deadline=None)
@given(fano_data(), st.integers(min_value=-60, max_value=0), st.integers(min_value=0, max_value=120))
def test_the_evaluator_matches_the_fraction_reference_at_negative_m_and_a3_zero(data, start, n):
    # either orientation sign, integral or not; A^3 = 0 leaves the basket part alone
    for values in (data, RRValues(data.q, Fraction(0), data.entries)):
        den, totals = rr._chi_totals(values, start, start + n)
        expected = [reference_chi(values, m) for m in range(start, start + n)]
        assert [Fraction(total, den) for total in totals] == expected


def test_serre_duality_on_calibrated_data():
    # K = -qA, so chi(mA) = -chi(-(m+q)A); one range -60-q <= m <= 60 holds both sides
    for data in clean_data():
        low = -60 - data.q
        den, totals = rr._chi_totals(data, low, 61)
        assert all(total % den == 0 for total in totals), data
        chis = dict(zip(range(low, 61), totals))
        assert all(chis[m] == -chis[-(m + data.q)] for m in range(-60, 61)), data


def test_a3_comes_back_from_the_basket_part_at_minus_one():
    # chi(-A) = 0 for q >= 3, and there the cubic is -(q-1)(q-2) A^3 / 12
    checked = 0
    for data in clean_data():
        if data.q >= 3:
            den, (basket,) = rr._chi_totals(RRValues(data.q, Fraction(0), data.entries), -1, 0)
            assert Fraction(12 * basket, den * (data.q - 1) * (data.q - 2)) == data.a3, data
            checked += 1
    assert checked == 75


@settings(max_examples=300, deadline=None)
@given(fano_data())
def test_a_c2_matches_the_stated_form(data):
    assert rr.a_c2(data) == reference_a_c2(data)


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", None], ids=repr)
def test_a3_is_an_int_or_a_fraction(bad):
    with pytest.raises(TypeError, match="A\\^3 must be an int or a Fraction"):
        rr.FanoData(13, bad, ())
    assert rr.FanoData(13, 2, ()).a3 == Fraction(2)


@pytest.mark.parametrize("bad", [13.0, Fraction(13), "13"], ids=repr)
def test_fano_index_is_an_int(bad):
    # 13.0 == 13 is in the allowed set, so only operator.index refuses it at construction
    with pytest.raises(TypeError):
        rr.FanoData(bad, Fraction(1, 210), ())


def test_chi_rejects_negative_m(calibrated):
    with pytest.raises(ValueError, match="^m must be >= 0$"):
        rr.chi(calibrated["X12"], -1)
    for order in (-1, -2):
        with pytest.raises(ValueError, match="truncation order must be >= 0"):
            rr.hilbert_rr(calibrated["X12"], order)


CHI_VALUES = rr._chi_values


@pytest.fixture
def evaluations(monkeypatch, empty_memos):
    """Empty memos for the test, and the (start, stop) of each _chi_values call."""
    calls = []

    def counted(data, start, stop):
        calls.append((start, stop))
        return CHI_VALUES(data, start, stop)

    monkeypatch.setattr(rr, "_chi_values", counted)
    return calls


# the two prefix memos: a key's coefficients through t^n, and the memo as it is now
PREFIX_MEMOS = {
    "hilbert_rr": (lambda data, n: rr.hilbert_rr(data, n).coefficients, lambda: rr._SERIES_MEMO),
    "product_coefficients": (
        lambda pair, n: series.product_coefficients(*pair, n), lambda: series._PRODUCTS
    ),
}


def prefix_key(memo, name, calibrated):
    """A fixture's key in the memo; for calibrated data both memos give its Hilbert series."""
    shape = FIXTURE_SHAPES[name]
    pair = ((shape.degree,) if shape.degree else (), shape.weights)
    return calibrated[name] if memo == "hilbert_rr" else pair


@pytest.mark.parametrize("memo", PREFIX_MEMOS)
@pytest.mark.parametrize("name", FIXTURE_SHAPES)
def test_a_prefix_memo_answers_any_order_sequence_as_a_fresh_evaluation(
    calibrated, expansions, memo, name
):
    (ask, kept), key = PREFIX_MEMOS[memo], prefix_key(memo, name, calibrated)
    data = calibrated[name]
    rng = random.Random(name)
    rising = sorted(rng.sample(range(1, 300), 4))
    falling = sorted(rng.sample(range(1, 400), 4), reverse=True)
    orders = [*rising, *falling, falling[0], falling[0], rising[1], 0]
    longest, expanded = -1, []
    for order in orders:
        if order > longest:
            longest = order
            expanded.append(order)
        assert ask(key, order) == tuple(CHI_VALUES(data, 0, order + 1))
    assert expansions == expanded
    assert len(kept()[key]) == longest + 1


def test_hilbert_rr_stores_no_failed_evaluation(calibrated, evaluations):
    # P(1,1,2,3) with its 1/3 point's wA flipped: both signs agree, chi(A) = 17/9
    good = calibrated["P(1,1,2,3)"]
    entries = tuple(rr.RRBasketEntry(e.r, e.b, e.r - e.wa) if e.r == 3 else e for e in good.entries)
    bad = rr.FanoData(good.q, good.a3, entries)
    message = "chi(1A) = 17/9 is not an integer: wrong (b, wA) assignment"
    assert rr.hilbert_rr(bad, 0).coefficients == (1,)
    for _ in range(2):
        with pytest.raises(rr.ConventionError) as raised:
            rr.hilbert_rr(bad, 30)
        assert str(raised.value) == message
        assert rr._SERIES_MEMO == {bad: (1,)}
    assert evaluations == [(0, 1), (0, 31), (0, 31)]


def test_equal_fano_data_share_one_memo_entry(calibrated, evaluations):
    data = calibrated["X12"]
    entries = tuple(rr.RRBasketEntry(*dataclasses.astuple(e)) for e in data.entries)
    twin = rr.FanoData(data.q, data.a3, entries)
    assert twin == data and twin is not data
    assert rr.hilbert_rr(data, 50).truncate(40) == rr.hilbert_rr(twin, 40)
    assert evaluations == [(0, 51)]
    assert list(rr._SERIES_MEMO) == [data]


@pytest.mark.parametrize("memo", PREFIX_MEMOS)
def test_the_memo_holds_its_bound_and_drops_the_oldest(expansions, memo):
    ask, memo_now = PREFIX_MEMOS[memo]
    size = series.MEMO_KEYS
    # q = 4, no basket and A^3 odd: chi(0A) = 1 and chi(A) = (3 + 5 A^3) / 2 are integers
    data = [rr.FanoData(4, Fraction(2 * k + 1), ()) for k in range(size + 3)]
    if memo == "product_coefficients":
        data = [((), (k + 1,)) for k in range(size + 3)]
    for d in data:
        assert ask(d, 0) == (1,)
    kept = data[-size:]
    assert list(memo_now()) == kept
    # a longer series replaces its entry, which becomes the newest; nothing is dropped
    ask(kept[1], 1)
    assert list(memo_now()) == [kept[0], *kept[2:], kept[1]]
    ask(data[0], 0)  # dropped, so evaluated again
    assert list(memo_now()) == [*kept[2:], kept[1], data[0]]
    assert len(expansions) == size + 5


def test_a_ten_thousand_shape_scan_leaves_at_most_the_bound_in_each_memo(empty_memos):
    shapes = []
    for weights in itertools.combinations_with_replacement(range(1, 30), 5):
        for q in (1, 2, 3):
            if len(shapes) < 10_000 and wps.has_monomial(weights, sum(weights) - q):
                shapes.append(wps.HypersurfaceShape(weights, sum(weights) - q))
    baskets, calibrated = {}, []
    for shape in shapes:
        wps.genus(shape)
        try:
            baskets[shape] = wps.basket(shape)
            calibrated.append((shape, rr.calibrated_data(shape)))
        except ValueError:  # a stratum fails, or the data do not calibrate
            pass
    assert len(calibrated) > series.MEMO_KEYS
    assert len(series._PRODUCTS) == len(rr._SERIES_MEMO) == series.MEMO_KEYS
    # the newest baskets and calibrated data, oldest first
    assert list(wps._BASKETS.items()) == list(baskets.items())[-series.MEMO_KEYS :]
    assert list(rr._CALIBRATED.items()) == calibrated[-series.MEMO_KEYS :]
    # and every memo of the registry, whichever entry points fill it
    assert all(len(memo) <= series.MEMO_KEYS for memo in series.MEMOS)


@pytest.mark.parametrize("memo", PREFIX_MEMOS)
def test_a_series_past_the_memo_order_is_returned_but_not_kept(calibrated, expansions, memo):
    (ask, kept), key = PREFIX_MEMOS[memo], prefix_key(memo, "P(1,1,2,3)", calibrated)
    data, top = calibrated["P(1,1,2,3)"], series.MEMO_ORDER
    for order in (top + 1, top + 1, top, top + 1, top):
        assert ask(key, order) == tuple(CHI_VALUES(data, 0, order + 1))
    assert expansions == [top + 1, top + 1, top, top + 1]
    assert kept() == {key: tuple(CHI_VALUES(data, 0, top + 1))}


def test_a_refused_order_leaves_the_memo_alone(calibrated, evaluations):
    data = calibrated["X12"]
    rr.hilbert_rr(data, 10)
    with pytest.raises(ValueError, match="^truncation order must be >= 0$"):
        rr.hilbert_rr(data, -1)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        rr.hilbert_rr(data, 5.0)
    assert evaluations == [(0, 11)] and len(rr._SERIES_MEMO[data]) == 11


def test_orientation_sign_is_global_minus(calibrated):
    for data in calibrated.values():
        assert rr.orientation_sign(data.q, data.entries) in (-1, None)
    # at least one fixture pins the sign
    assert rr.orientation_sign(
        calibrated["X12"].q, calibrated["X12"].entries
    ) == -1


def test_calibrate_unique_and_trivial():
    # empty basket calibrates trivially
    oracle = expand_product((), (1, 1, 1, 1), 10)
    assert rr.calibrate(rr.FanoData(4, Fraction(1), ()), oracle) is None

    with pytest.raises(rr.CalibrationError):
        # wrong A^3 cannot match
        rr.calibrate(rr.FanoData(4, Fraction(2), ()), oracle)


@functools.cache
def clean_shapes(max_weight: int, indices=rr.ALLOWED_FANO_INDICES) -> list[wps.HypersurfaceShape]:
    """Spaces and hypersurfaces of the given indices, weights <= max_weight,
    that are well formed and analyze to a basket with no warning."""
    shapes = []
    for n in (4, 5):
        for weights in itertools.combinations_with_replacement(range(1, max_weight + 1), n):
            for q in indices:
                d = sum(weights) - q
                if d < 0 or (n == 4) != (d == 0):
                    continue
                # a vertex without a degree-d monomial x_i^a or x_i^a x_j is a
                # warning anyway; skipping it here keeps the test fast
                if d and any(
                    d % w and not any(d - v >= w and (d - v) % w == 0 for v in weights[:i] + weights[i + 1:])
                    for i, w in enumerate(weights)
                ):
                    continue
                try:
                    shape = wps.HypersurfaceShape(weights, d)
                except ValueError:
                    continue
                if not wps.well_formed(weights):
                    continue
                report = wps.analyze(shape)
                if report.basket is not None and not report.warnings:
                    shapes.append(shape)
    return shapes


def test_index_one_gives_the_95_families():
    # the 95 families of quasi-smooth terminal anticanonical hypersurfaces
    # (Iano-Fletcher 2000), complete by Johnson and Kollar (2001); the largest
    # weight among them is 33, of X66 in P(1,5,6,22,33)
    shapes = clean_shapes(33, (1,))
    assert len(shapes) == 95
    found = {(shape.weights, shape.degree) for shape in shapes}
    for family in [
        ((1, 5, 6, 22, 33), 66),
        # three that a fractional edge count d*m/(w_i*w_j) once left out
        ((1, 3, 4, 14, 21), 42),
        ((1, 4, 5, 18, 27), 54),
        ((1, 7, 8, 10, 25), 50),
    ]:
        assert family in found
    for shape in shapes:
        assert rr.calibrated_data(shape).q == 1, shape
        assert mismatches(wps.analyze(shape)) == [], shape


def test_flip_search_finds_exactly_the_calibrated_data():
    # the stdlib flip search asserts that exactly one orientation matches the closed form;
    # fed either orientation of the calibrated entries, it must land on those entries
    corpus = clean_shapes(10)
    assert len(corpus) == 129
    for shape in list(FIXTURE_SHAPES.values()) + corpus:
        closed_form = fraction_expand((shape.degree,) if shape.degree else (), shape.weights, 24)
        data = rr.calibrated_data(shape)
        triples = tuple((e.r, e.b, e.wa) for e in data.entries)
        flipped = tuple((r, b, -wa % r) for r, b, wa in triples)
        for fed in (triples, flipped):
            assert flip_search(data.q, data.a3, fed, closed_form) == triples, shape


@pytest.mark.parametrize(
    "name,expected",
    [
        ("X12", [(2, 1, 1), (3, 1, 2), (3, 1, 2), (5, 2, 3), (7, 2, 1)]),
        ("P(3,4,5,7)", [(3, 1, 2), (4, 1, 1), (5, 2, 1), (7, 3, 4)]),
        ("P(2,3,5,7)", [(2, 1, 1), (3, 1, 1), (5, 1, 2), (7, 2, 2)]),
        ("P(1,3,4,5)", [(3, 1, 2), (4, 1, 3), (5, 2, 3)]),
        ("P(1,2,3,5)", [(2, 1, 1), (3, 1, 1), (5, 2, 4)]),
        ("P(1,1,2,3)", [(2, 1, 1), (3, 1, 2)]),
    ],
)
def test_calibrated_entries_pinned(calibrated, name, expected):
    assert [(e.r, e.b, e.wa) for e in calibrated[name].entries] == expected


def test_calibrate_rejects_wrong_data(calibrated):
    data = calibrated["X12"]
    oracle = wps.hilbert(X12, 24)
    # m(m+q)(2m+q) is divisible by 6, so A^3 + 2 keeps chi(mA) integral:
    # a plain series mismatch, reported at its first coefficient
    with pytest.raises(rr.CalibrationError, match=r"at t\^1$") as raised:
        rr.calibrate(dataclasses.replace(data, a3=data.a3 + 2), oracle)
    assert raised.value.__cause__ is None
    # X12's basket against P(1,3,4,5)'s series (same index q = 13)
    with pytest.raises(rr.CalibrationError) as raised:
        rr.calibrate(data, wps.hilbert(FIXTURE_SHAPES["P(1,3,4,5)"], 24))
    assert raised.value.__cause__ is None
    # a non-integral chi(mA) surfaces as CalibrationError, not ConventionError
    flipped = tuple(dataclasses.replace(e, wa=-e.wa % e.r) for e in data.entries)
    for bad in (
        dataclasses.replace(data, a3=2 * data.a3),
        dataclasses.replace(data, entries=flipped),
    ):
        with pytest.raises(rr.CalibrationError) as raised:
            rr.calibrate(bad, oracle)
        assert not isinstance(raised.value, rr.ConventionError)
        assert isinstance(raised.value.__cause__, rr.ConventionError)


def test_calibrate_resolves_wa_signs(calibrated):
    # of the two global orientations, calibration accepts wA = -q^{-1} mod r
    # and rejects its flip wherever an entry of index >= 3 pins the sign
    for name, shape in FIXTURE_SHAPES.items():
        data = calibrated[name]
        for e in data.entries:
            assert (data.q * e.wa + 1) % e.r == 0
        flipped = tuple(dataclasses.replace(e, wa=-e.wa % e.r) for e in data.entries)
        with pytest.raises(rr.CalibrationError):
            rr.calibrate(dataclasses.replace(data, entries=flipped), wps.hilbert(shape, 24))


def test_fano_data_validation():
    with pytest.raises(ValueError, match="^Fano index 10 outside the allowed set$"):
        rr.FanoData(10, Fraction(1), ())
    with pytest.raises(ValueError, match="^A\\^3 must be positive$"):
        rr.FanoData(13, Fraction(-1), ())
    with pytest.raises(rr.ConventionError):
        # mixed wA signs across entries of index >= 3
        rr.FanoData(
            13,
            Fraction(1, 210),
            (rr.RRBasketEntry(5, 2, 3), rr.RRBasketEntry(7, 2, 6)),
        )


@pytest.mark.parametrize(
    "spec,expected_gens,expected_rel",
    [
        (((12,), (3, 4, 5, 6, 7)), (3, 4, 5, 6, 7), 12),
        (((), (1, 1, 1, 1)), (1, 1, 1, 1), None),
        (((6,), (1, 1, 2, 3)), (1, 1, 2, 3), 6),
    ],
)
def test_infer_generators(spec, expected_gens, expected_rel):
    series = expand_product(*spec, 30)
    gens, rel = rr.infer_generators(series)
    assert gens == expected_gens
    assert rel == expected_rel


@pytest.mark.parametrize("shape", FIXTURE_SHAPES.values(), ids=FIXTURE_SHAPES.keys())
def test_relation_profile_agrees_with_infer_generators(shape):
    series = wps.hilbert(shape, 30)
    generators, first = rr.infer_generators(series)
    # the greedy generators leave no relation below the first relation degree
    for d in range(first or series.order + 1):
        assert rr.relation_profile(generators, d, series).relations == 0
    if first is not None:
        assert rr.relation_profile(generators, first, series).relations >= 1
    if shape.degree:
        assert (generators, first) == ((3, 4, 5, 6, 7), 12)
        assert rr.relation_profile(generators, first, series) == (6, 5, 1)
    else:
        # a weighted projective space is free on its weights through t^30
        assert (generators, first) == (shape.weights, None)


def test_infer_generators_degreewise_detail():
    series = wps.hilbert(X12, 30)
    gens, rel = rr.infer_generators(series)
    assert gens.count(1) == 0 and gens.count(2) == 0
    for degree in (3, 4, 5, 6, 7):
        assert gens.count(degree) == 1
    assert rel == 12


def test_infer_generators_inconsistent():
    with pytest.raises(rr.InconsistentSeries):
        rr.infer_generators(PowerSeries((2, 1)))
    with pytest.raises(rr.InconsistentSeries):
        rr.infer_generators(PowerSeries((1, -1)))
