"""Acceptance suite: every release criterion with an explicit pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. All comparisons are exact (zero tolerance); nothing is floating
point.
"""

import random
from fractions import Fraction

from conftest import WS, random_degree12_poly, random_substitution
from oracles import partition_count
from qfano import normal_form as nf
from qfano import riemann_roch as rr
from qfano import sarkisov as sk
from qfano import wps
from qfano.fixtures import FIXTURES, FORM_A, FORM_B, X12_SHAPE
from qfano.series import expand_product


def _criterion(n, label):
    def decorate(fn):
        def wrapper():
            try:
                fn()
            except AssertionError:
                print(f"FAIL criterion {n}: {label}")
                raise
            print(f"PASS criterion {n}: {label}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@_criterion(1, "Hilbert series of the degree-12 hypersurface, exact")
def test_criterion_1_hilbert_series():
    series = expand_product((12,), (3, 4, 5, 6, 7), 13)
    assert series.coefficients[:11] == (1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 4)
    assert series[13] == 6
    assert wps.genus(X12_SHAPE) == 4


@_criterion(2, "X12 analysis: index 13, A^3 = 1/210, basket {2,3,3,5,7}, genus 4")
def test_criterion_2_analyze_x12():
    report = wps.analyze(X12_SHAPE)
    assert report.fano_index == 13
    assert report.a3 == Fraction(1, 210)
    assert report.basket is not None
    assert report.basket.indices() == (2, 3, 3, 5, 7)
    assert report.genus == 4


@_criterion(3, "Riemann-Roch equals the closed forms through t^24; chi integral to 30")
def test_criterion_3_rr_oracle_equivalence():
    for fixture in FIXTURES:
        data = rr.calibrated_data(fixture.shape, order=24)
        assert rr.hilbert_rr(data, 24) == wps.hilbert(fixture.shape, 24)
        for m in range(31):
            assert isinstance(rr.chi(data, m), int)


@_criterion(4, "link transcripts match the expected case analysis")
def test_criterion_4_link_transcripts():
    ng = sk.run_case("NG")
    assert ng.final == ()
    assert {(c.qhat, c.alpha * c.e) for c in ng.bare} == {(11, Fraction(2))}

    p3 = sk.run_case("P3")
    p3_keys = {(c.alpha, c.qhat, c.e) for c in p3.bare}
    assert {
        (Fraction(2, 3), 8, 1),
        (Fraction(1, 3), 4, 1),
        (Fraction(1, 3), 8, 2),
    } <= p3_keys
    assert p3.final == ()

    p7 = sk.run_case("P7")
    assert {(c.qhat, c.e) for c in p7.bare} == {(9, 2), (11, 1)}
    assert p7.final == ()

    p2 = sk.run_case("P2")
    assert len(p2.final) == 1
    survivor2 = p2.final[0]
    split6 = survivor2.admissible[6]
    assert (survivor2.qhat, survivor2.e, split6[0].s, split6[0].beta) == (
        11, 4, 2, Fraction(1),
    )
    assert survivor2.target == "P(1,2,3,5)"

    p5 = sk.run_case("P5")
    assert len(p5.final) == 1
    survivor5 = p5.final[0]
    assert (survivor5.qhat, survivor5.e) == (7, 4)
    assert survivor5.target == "P(1,1,2,3)"
    s_values = {k: survivor5.admissible[k][0].s for k in (3, 5, 6, 7)}
    assert s_values == {3: 1, 7: 1, 6: 2, 5: 3}

    for transcript in (p2, p5):
        assert dict(transcript.thresholds)[transcript.final[0].key()] == Fraction(1, 2)

    extra = [c for c in p5.bare if (c.qhat, c.e) == (19, 9)]
    assert len(extra) == 1
    assert extra[0].extra
    assert extra[0].status == "eliminated" and extra[0].filter_id == "F3"


@_criterion(5, "second-contraction systems: minimal delta and integrality classes")
def test_criterion_5_second_contraction():
    sol = sk.second_contraction(4, 7, {3: 1, 5: 3, 6: 2, 7: 1})
    assert sol.delta == 7
    assert sol.b == 9
    assert dict(sol.gammas) == {3: 1, 5: 4, 6: 2, 7: 0}
    sol17 = sk.second_contraction(6, 17, {3: 3, 4: 2, 7: 5})
    assert sol17.delta % 6 == 5 and sol17.period == 6


@_criterion(6, "graded-ring profile: one relation at 12, generators {3,4,5,6,7}")
def test_criterion_6_graded_ring_profile():
    series = wps.hilbert(X12_SHAPE, 30)
    assert rr.relation_profile(WS, 12, series) == (6, 5, 1)
    for d in range(3, 12):
        assert rr.relation_profile(WS, d, series).relations == 0
    generators, first_relation = rr.infer_generators(series)
    assert generators == (3, 4, 5, 6, 7)
    assert first_relation == 12


@_criterion(7, "normalization: support, class invariance, fixed points")
def test_criterion_7_normalization():
    allowed = {(0, 0, 1, 0, 1), (0, 3, 0, 0, 0), (0, 0, 0, 2, 0), (4, 0, 0, 0, 0)}
    rng = random.Random(20260810)
    for _ in range(100):
        result = nf.normalize(random_degree12_poly(rng))
        assert set(result.final.terms) <= allowed
    rng = random.Random(513)
    for _ in range(100):
        poly = random_degree12_poly(rng)
        baseline = nf.normalize(poly).form
        moved = nf.substitute(poly, random_substitution(rng))
        assert nf.normalize(moved).form == baseline
    for text, expected in ((FORM_A, "A"), (FORM_B, "B")):
        result = nf.normalize(nf.parse(text))
        assert result.form == expected
        assert result.final == nf.parse(text)
        assert result.steps == ()


@_criterion(8, "oracle suite: partition counts and edge point counts")
def test_criterion_8_oracles():
    for fixture in FIXTURES:
        shape = fixture.shape
        series = wps.hilbert(shape, 30)
        for m in range(31):
            expected = partition_count(shape.weights, m)
            if shape.degree and m >= shape.degree:
                expected -= partition_count(shape.weights, m - shape.degree)
            assert series[m] == expected
    form_a = nf.parse(FORM_A)
    at = {w: i for i, w in enumerate(WS)}
    assert nf.edge_restriction_points(form_a, at[3], at[6]).count == 2
    assert nf.edge_restriction_points(form_a, at[4], at[6]).count == 1
    for i, j in ((at[3], at[6]), (at[4], at[6])):
        count, _ = wps.edge_singularities(X12_SHAPE, i, j)
        assert nf.edge_restriction_points(form_a, i, j).count == count
