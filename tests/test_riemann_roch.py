"""Riemann-Roch evaluation against the closed-form series oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfano import riemann_roch as rr
from qfano import wps
from qfano.series import PowerSeries, ProductSpec, expand_product

X12 = wps.HypersurfaceShape((3, 4, 5, 6, 7), 12)

FIXTURE_SHAPES = {
    "X12": X12,
    "P(3,4,5,7)": wps.HypersurfaceShape((3, 4, 5, 7)),
    "P(2,3,5,7)": wps.HypersurfaceShape((2, 3, 5, 7)),
    "P(1,3,4,5)": wps.HypersurfaceShape((1, 3, 4, 5)),
    "P(1,2,3,5)": wps.HypersurfaceShape((1, 2, 3, 5)),
    "P(1,1,2,3)": wps.HypersurfaceShape((1, 1, 2, 3)),
}


@pytest.fixture(scope="module")
def calibrated():
    return {name: rr.calibrated_data(shape, 24) for name, shape in FIXTURE_SHAPES.items()}


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
    assert rr.local_c(r, b, i) == expected


def test_local_c_symmetric_in_b():
    for r in (3, 5, 7, 11):
        for b in range(1, r):
            if math.gcd(b, r) != 1:
                continue
            for i in range(r):
                assert rr.local_c(r, b, i) == rr.local_c(r, r - b, i)


def test_local_c_period_sum_independent_of_b():
    for r in (2, 3, 5, 7, 11, 12):
        sums = {
            b: sum(rr.local_c(r, b, i) for i in range(r))
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


def test_chi_convention_error():
    # flip one wA on the X12 data: integrality must break somewhere early
    good = rr.calibrated_data(X12, 24)
    entries = list(good.entries)
    idx = next(i for i, e in enumerate(entries) if e.r == 5)
    bad5 = entries[idx]
    entries[idx] = rr.RRBasketEntry(5, bad5.b, (5 - bad5.wa) % 5)
    with pytest.raises(rr.ConventionError):
        data = rr.FanoData(good.q, good.a3, tuple(entries))
        for m in range(25):
            rr.chi(data, m)


def test_hilbert_rr_matches_closed_form(calibrated):
    from qfano.series import series_equal_upto

    for name, shape in FIXTURE_SHAPES.items():
        assert rr.hilbert_rr(calibrated[name], 24) == wps.hilbert(shape, 24)
    # the cross-module comparison through the comparison helper
    equal, mismatch = series_equal_upto(
        rr.hilbert_rr(calibrated["X12"], 24),
        expand_product(ProductSpec((12,), (3, 4, 5, 6, 7)), 24),
        24,
    )
    assert equal and mismatch is None


def reference_chi(data, m):
    """chi(mA) summed in Fraction arithmetic straight from the stated formula."""
    q = data.q
    total = (
        Fraction(data.chi0)
        + Fraction(m * (m + q) * (2 * m + q), 12) * data.a3
        + Fraction(m, 12) * rr.a_c2(data)
    )
    for e in data.entries:
        total += rr.local_c(e.r, e.b, (m * e.wa) % e.r)
    return total


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


@settings(max_examples=300, deadline=None)
@given(fano_data(), st.integers(min_value=0, max_value=60))
def test_integer_kernel_matches_fraction_reference(data, order):
    expected = [reference_chi(data, m) for m in range(order + 1)]
    bad = next((m for m, v in enumerate(expected) if v.denominator != 1), None)
    if bad is None:
        series = rr.hilbert_rr(data, order)
        assert series.coefficients == tuple(expected)
        for m in range(order + 1):
            assert rr.chi(data, m) == series[m]
        return
    message = f"chi({bad}A) = {expected[bad]} is not an integer: wrong (b, wA) assignment"
    with pytest.raises(rr.ConventionError) as raised:
        rr.hilbert_rr(data, order)
    assert str(raised.value) == message
    for m in range(bad):
        assert rr.chi(data, m) == expected[m]
    with pytest.raises(rr.ConventionError) as raised:
        rr.chi(data, bad)
    assert str(raised.value) == message


def test_chi_rejects_negative_m(calibrated):
    with pytest.raises(ValueError):
        rr.chi(calibrated["X12"], -1)


def test_orientation_sign_is_global_minus(calibrated):
    for data in calibrated.values():
        assert rr.orientation_sign(data.q, data.entries) in (-1, None)
    # at least one fixture pins the sign
    assert rr.orientation_sign(
        calibrated["X12"].q, calibrated["X12"].entries
    ) == -1


def test_calibrate_unique_and_trivial():
    # empty basket calibrates trivially
    oracle = expand_product(ProductSpec((), (1, 1, 1, 1)), 10)
    data = rr.calibrate(4, Fraction(1), (), oracle)
    assert data.entries == ()

    with pytest.raises(rr.CalibrationError):
        # wrong A^3 cannot match any assignment
        rr.calibrate(4, Fraction(2), (), oracle)


def test_calibrate_resolves_wa_signs():
    q, a3, triples = rr.rr_candidates(X12)
    oracle = wps.hilbert(X12, 24)
    data = rr.calibrate(q, a3, triples, oracle)
    resolved = sorted((e.r, e.b, e.wa) for e in data.entries)
    assert resolved == [(2, 1, 1), (3, 1, 2), (3, 1, 2), (5, 2, 3), (7, 2, 1)]
    for e in data.entries:
        assert (q * e.wa + 1) % e.r == 0  # wA = -q^{-1} mod r


def test_fano_data_validation():
    with pytest.raises(ValueError):
        rr.FanoData(10, Fraction(1), ())  # index outside the admissible set
    with pytest.raises(ValueError):
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
        ((ProductSpec((12,), (3, 4, 5, 6, 7))), (3, 4, 5, 6, 7), 12),
        ((ProductSpec((), (1, 1, 1, 1))), (1, 1, 1, 1), None),
        ((ProductSpec((6,), (1, 1, 2, 3))), (1, 1, 2, 3), 6),
    ],
)
def test_infer_generators(spec, expected_gens, expected_rel):
    series = expand_product(spec, 30)
    gens, rel = rr.infer_generators(series)
    assert gens == expected_gens
    assert rel == expected_rel


def test_infer_generators_degreewise_detail():
    series = wps.hilbert(X12, 30)
    gens, rel = rr.infer_generators(series)
    assert gens.count(1) == 0 and gens.count(2) == 0
    for degree in (3, 4, 5, 6, 7):
        assert gens.count(degree) == 1
    assert rel == 12


def test_infer_generators_inconsistent():
    with pytest.raises(rr.InconsistentSeries):
        rr.infer_generators(PowerSeries((Fraction(2), Fraction(1))))
    with pytest.raises(rr.InconsistentSeries):
        rr.infer_generators(PowerSeries((Fraction(1), Fraction(-1))))
