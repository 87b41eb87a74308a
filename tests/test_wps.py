"""Weighted projective shapes: indices, monomials, singularity baskets."""

import itertools
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import mismatches, point_type, small_shapes, stratum_analysis
from qfano import fixtures, wps
from qfano import riemann_roch as rr
from qfano import sarkisov as sk
from qfano import series
from qfano.series import MAX_ORDER

X12 = wps.HypersurfaceShape((3, 4, 5, 6, 7), 12)

FIXTURE_SHAPES = [f.shape for f in fixtures.FIXTURES]


@pytest.mark.parametrize(
    "weights,expected",
    [
        ((3, 4, 5, 6, 7), True),
        ((1, 1, 1, 1), True),
        ((2, 4, 6, 3), False),  # {2, 4, 6} share the factor 2
    ],
)
def test_well_formed(weights, expected):
    assert wps.well_formed(weights) is expected


def test_fano_index():
    assert wps.fano_index(X12) == 13
    assert wps.fano_index(wps.HypersurfaceShape((3, 4, 5, 7))) == 19
    assert wps.fano_index(wps.HypersurfaceShape((1, 1, 2, 3))) == 7
    with pytest.raises(wps.NotFano):
        wps.fano_index(wps.HypersurfaceShape((1, 1, 1, 1, 1), 12))


def test_degree_a3():
    assert wps.degree_a3(X12) == Fraction(1, 210)
    assert wps.degree_a3(wps.HypersurfaceShape((1, 1, 1, 1))) == 1
    assert wps.degree_a3(wps.HypersurfaceShape((1, 3, 4, 5))) == Fraction(1, 60)


def test_monomials_degree_twelve():
    vectors = wps.monomials((3, 4, 5, 6, 7), 12)
    assert vectors == (
        (4, 0, 0, 0, 0),   # x3^4
        (2, 0, 0, 1, 0),   # x3^2*x6
        (1, 1, 1, 0, 0),   # x3*x4*x5
        (0, 3, 0, 0, 0),   # x4^3
        (0, 0, 1, 0, 1),   # x5*x7
        (0, 0, 0, 2, 0),   # x6^2
    )


def test_monomials_corner_cases():
    assert wps.monomials((3, 4, 5, 6, 7), 0) == ((0, 0, 0, 0, 0),)
    assert wps.monomials((2, 3, 5, 7), 4) == ((2, 0, 0, 0),)
    assert wps.monomials((), 0) == ((),)
    assert wps.monomials((), 3) == ()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=5),
    st.integers(min_value=0, max_value=30),
)
def test_monomials_match_brute_force(weights, d):
    assert wps.monomials(weights, d) == oracles.monomials(weights, d)


def test_monomials_refuse_non_positive_weights():
    # the enumerator once divided by zero, dropped a negative first weight's
    # monomials and listed negative exponents for a negative last weight
    for weights in ((0, 3), (-2, 3), (3, -2), (0,)):
        with pytest.raises(ValueError, match="weights must be positive"):
            wps.monomials(weights, 5)


def test_monomial_count_matches_listing_oracle():
    for shape in FIXTURE_SHAPES:
        series = wps.hilbert(shape, 30)
        for m in range(31):
            count = len(oracles.monomials(shape.weights, m))
            if shape.degree and m >= shape.degree:
                count -= len(oracles.monomials(shape.weights, m - shape.degree))
            assert series[m] == count


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=33), min_size=5, max_size=5),
    st.integers(min_value=0, max_value=200),
)
def test_monomial_count_matches_partitions(weights, d):
    assert wps.monomial_count(weights, d) == oracles.partition_count(weights, d)


def test_monomial_count_examples():
    assert wps.monomial_count((3, 4, 5, 6, 7), 12) == 6
    assert wps.monomial_count((3, 4, 5, 6, 7), 1) == 0
    assert wps.monomial_count((3, 4, 5, 6, 7), 0) == 1
    with pytest.raises(ValueError):
        wps.monomial_count((3, 4, 5, 6, 7), -1)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=5, max_size=5),
    st.integers(min_value=0, max_value=300),
)
def test_has_monomial_matches_count(weights, d):
    assert wps.has_monomial(weights, d) == (oracles.partition_count(weights, d) > 0)


def test_has_monomial_with_no_weights_reaches_only_degree_0():
    assert wps.has_monomial((), 0)
    assert not wps.has_monomial((), 3)


def test_the_existence_oracle_and_its_residue_classes_match_the_count_oracle():
    # has_monomial reads its copy of wps's residue-class table only past what it counts
    for weights in itertools.combinations_with_replacement(range(1, 13), 3):
        least = oracles._least_degrees(list(weights))
        for d in range(weights[0] * weights[-1] + weights[-1]):
            exists = oracles.partition_count(weights, d) > 0
            assert oracles.has_monomial(weights, d) == (least[d % weights[0]] <= d) == exists


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    st.sampled_from([1, 1, 2, 3, 6, 7]),
    st.sampled_from(["schur", "run", "frobenius", "huge", "any"]),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=300),
)
def test_has_monomial_matches_the_oracle_near_its_bounds(base, factor, near, offset, scaled, any_d):
    # weights with a common factor g; d near the bounds of their reduced system
    weights = [factor * w for w in base]
    g = math.gcd(*weights)
    reduced = sorted(w // g for w in weights)
    run = next(k for k in range(1, len(reduced) + 1) if math.gcd(*reduced[:k]) == 1)
    schur = (reduced[0] - 1) * (reduced[-1] - 1)
    unreached = [n for n in range(schur) if not oracles.has_monomial(reduced, n)]
    target = {
        "schur": schur,
        "run": (reduced[0] - 1) * (reduced[run - 1] - 1),
        "frobenius": max([-1, *unreached]),  # the largest degree no monomial reaches
        "huge": (10**12 + 1) // g,
        "any": any_d // g,
    }[near]
    d = g * (target + offset) if scaled else g * target + offset
    if d < 0:
        return
    assert wps.has_monomial(weights, d) == oracles.has_monomial(weights, d)
    assert wps.has_monomial(weights, 10**12 + 1) == oracles.has_monomial(weights, 10**12 + 1)


def test_has_monomial_matches_the_oracle_on_small_systems():
    # every degree up to past the Schur bound (a - 1)(b - 1) of each system
    for n in (1, 2, 3):
        for weights in itertools.combinations_with_replacement(range(1, 13), n):
            for d in range(weights[0] * weights[-1] + weights[-1]):
                assert wps.has_monomial(weights, d) == oracles.has_monomial(weights, d), (weights, d)


def test_has_monomial_cost_is_independent_of_degree():
    start = time.perf_counter()
    for d in (10**8, 10**12, 10**30):
        assert wps.HypersurfaceShape((1,) * 5, d).degree == d
    assert wps.has_monomial((6, 10, 15, 15, 15), 10**12 + 1)
    assert not wps.has_monomial((6, 10, 15, 15, 15), 29)  # 29 is the Frobenius number
    assert not wps.has_monomial((4, 6, 8, 10, 12), 10**12 + 1)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError):
        wps.has_monomial((3, 4, 5, 6, 7), -1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
    st.sampled_from([1, 1, 2, 3]),
    st.integers(min_value=3, max_value=30),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_has_monomial_matches_the_oracle_past_a_large_weight(base, factor, exponent, where):
    # a weight B far above the rest and B <= d below the Schur bound: the
    # bitset would need d bits, so the residue-class table decides
    big = 10**exponent + 1
    weights = [factor * w for w in base] + [big]
    lo = big
    hi = max(lo, (min(weights) - 1) * (big - 1))
    for d in (lo, lo + int(where * (hi - lo)), hi - 1, hi):
        assert wps.has_monomial(weights, d) == oracles.has_monomial(weights, d), (weights, d)


def test_has_monomial_cost_is_bounded_by_the_weights():
    # 1 << (d + 1) here would be ~190 GB; the residue table needs three steps
    start = time.perf_counter()
    assert wps.has_monomial((3, 3, 3, 3, 10**12 + 1), 15 * 10**11)
    assert not wps.has_monomial((3, 6, 9, 12, 10**12 + 1), 15 * 10**11 + 1)  # 1 mod 3 needs 2B
    for exponent in (7, 12, 30):
        big = 10**exponent + 1
        d = 3 * big // 2
        assert wps.has_monomial((3, 6, 9, 12, big), d) == oracles.has_monomial((3, 6, 9, 12, big), d)
    assert wps.HypersurfaceShape((3, 3, 3, 3, 10**12 + 1), 15 * 10**11 + 3).degree == 15 * 10**11 + 3
    assert time.perf_counter() - start < 0.1


def test_has_monomial_refuses_a_residue_table_past_the_cap():
    # d // a = 300 makes the exponent search longer than the table, whose
    # MAX_ORDER + 1 entries are refused before one is built
    weights = (MAX_ORDER + 1, 1300007, 1700003, 1900011, 2300001)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"a table of more than {MAX_ORDER} entries"):
        wps.has_monomial(weights, 300 * MAX_ORDER + 3)
    assert time.perf_counter() - start < 0.1


def test_has_monomial_refuses_a_bitset_past_the_cap():
    # d = 45a + 12345 is below 16 * n * a, where the bitset used to decide:
    # 225,012,346 bits, 1.6 s and 174 MB; the least weight alone now refuses it
    a = 5 * 10**6
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"a table of more than {MAX_ORDER} entries"):
        wps.has_monomial((a, a + 1, a + 3, a + 7, a + 9), 45 * a + 12345)
    assert time.perf_counter() - start < 0.1


def test_has_monomial_near_a_large_least_weight_is_a_short_search():
    # the bitset would hold 5 * 10^8 bits and the residue table 10^8 entries;
    # the exponents of the four larger weights sum to at most 5
    weights = tuple(10**8 + i for i in range(5))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert wps.has_monomial(weights, 5 * 10**8 + 10)  # the product of all five
        assert wps.has_monomial(weights, 5 * 10**8 + 11)
        assert not wps.has_monomial(weights, 4 * 10**8 + 17)  # four exponents add at most 16
        assert not wps.has_monomial(weights, 10**8 + 5)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2**20


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=8),
)
def test_each_decision_of_has_monomial_matches_partition_count(weights, d, quotient):
    """Bitset, residue table and exponent search each agree with the partition oracle.

    The search is checked where has_monomial may take it, at d // min(w) <= 8.
    """
    ws = sorted(weights)
    near = quotient * ws[0] + d % ws[0]
    for degree in (d, near):
        expected = oracles.partition_count(ws, degree) > 0
        assert wps._by_bitset(ws, degree) == expected, (ws, degree)
        assert (wps._least_degrees(ws)[degree % ws[0]] <= degree) == expected, (ws, degree)
    assert wps._by_search(ws, near) == (oracles.partition_count(ws, near) > 0), (ws, near)


def test_has_monomial_refuses_non_positive_weights():
    # a zero or negative weight would never leave the bitset's doubling loop
    for weights in ((0, 3), (-2, 3, 5)):
        with pytest.raises(ValueError, match="weights must be positive"):
            wps.has_monomial(weights, 7)


@pytest.mark.parametrize("bad", [3.9, 3.0, Fraction(5, 2), Fraction(3)], ids=repr)
def test_non_integer_weights_and_degrees_are_refused(bad):
    from qfano import normal_form as nf
    from qfano.series import expand_product, product_coefficients

    weights = (bad, 4, 5, 6, 7)
    calls = [
        lambda: wps.weight_system(weights),
        lambda: wps.well_formed(weights),
        lambda: wps.HypersurfaceShape(weights, 12),
        lambda: wps.HypersurfaceShape((3, 4, 5, 6, 7), bad + 9),
        lambda: wps.monomials(weights, 12),
        lambda: wps.has_monomial(weights, 12),
        lambda: product_coefficients((bad,), (2,), 12),
        lambda: expand_product((12,), weights, 12),
        lambda: nf.WeightedPolynomial(weights),
        lambda: nf.Substitution(weights, {}),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_large_degree_shape_is_counted_not_listed():
    start = time.perf_counter()
    shape = wps.HypersurfaceShape((1,) * 5, 400)
    assert wps.monomial_count(shape.weights, shape.degree) == math.comb(404, 4)
    assert time.perf_counter() - start < 1.0


def test_vertex_singularities_x12():
    # vertices indexed by position in the sorted weights (3,4,5,6,7)
    assert wps.vertex_singularity(X12, 0) is None   # pure power x3^4
    assert wps.vertex_singularity(X12, 1) is None   # x4^3
    assert wps.vertex_singularity(X12, 3) is None   # x6^2
    p5 = wps.vertex_singularity(X12, 2)
    assert (p5.r, p5.b) == (5, 2)
    p7 = wps.vertex_singularity(X12, 4)
    assert (p7.r, p7.b) == (7, 2)


def test_vertex_singularity_not_quasi_smooth():
    # degree 12 in (2,3,5,7,8): the weight-8 vertex admits no x8^n or
    # x8^n*x_j monomial of degree 12
    shape = wps.HypersurfaceShape((2, 3, 5, 7, 8), 12)
    with pytest.raises(wps.NotQuasiSmoothAtVertex):
        wps.vertex_singularity(shape, shape.weights.index(8))


def test_edge_singularities_x12():
    weights = X12.weights
    at = {w: i for i, w in enumerate(weights)}
    count36, type36 = wps.edge_singularities(X12, at[3], at[6])
    assert count36 == 2 and (type36.r, type36.b) == (3, 1)
    count46, type46 = wps.edge_singularities(X12, at[4], at[6])
    assert count46 == 1 and (type46.r, type46.b) == (2, 1)
    assert wps.edge_singularities(X12, at[3], at[4]) is None
    # either order of the two positions names the same edge
    for i, j in itertools.permutations(range(5), 2):
        assert wps.edge_singularities(X12, i, j) == wps.edge_singularities(X12, j, i)


def test_contained_edge_of_weights_with_a_shared_factor_is_a_curve_of_singularities():
    # no pure {x4, x6} monomial of odd degree 11 over (3,4,5,6,7): the member contains
    # the edge, whose points all have the stabilizer Z/2, as on the space itself
    shape = wps.HypersurfaceShape((3, 4, 5, 6, 7), 11)
    with pytest.raises(wps.NotTerminalIsolated, match="weights 4, 6 share a factor: singular locus"):
        wps.edge_singularities(shape, 1, 3)


def test_edge_points_are_its_monomials_less_one():
    # degree 18, edge (4,6): x4^3*x6 and x6^3 leave one point 1/2(other weights)
    # off the vertices, where 18*2/(4*6) counted 3/2
    assert oracles.monomials((4, 6), 18) == ((3, 1), (0, 3))
    shape = wps.HypersurfaceShape((3, 4, 5, 6, 7), 18)
    assert wps.edge_singularities(shape, 1, 3) == (1, wps.QuotientType(2, 1))
    # over (2,3,4,6,7) the point is 1/2(2,3,7): a zero residue, refused as a type but counted
    shape = wps.HypersurfaceShape((2, 3, 4, 6, 7), 18)
    verdict, _ = wps._edge(shape.weights, 18, 2, 3)
    assert (verdict.status, verdict.quotient, verdict.count) == ("not-terminal-isolated", None, 1)
    with pytest.raises(wps.NotTerminalIsolated, match=r"residues \(0, 1, 1\) mod 2"):
        wps.edge_singularities(shape, 2, 3)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=5, max_size=5),
    st.integers(min_value=1, max_value=200),
    st.sampled_from(list(itertools.combinations(range(5), 2))),
)
def test_a_contained_edge_is_decided_by_the_variables_outside_it(weights, d, edge):
    # any index q, non-Fano shapes (q <= 0) too: the walk gives the oracle's verdicts
    if not wps.has_monomial(weights, d):
        return
    shape = wps.HypersurfaceShape(weights, d)
    assert [v for v, _ in wps._walk(shape)] == stratum_analysis(weights, d).strata
    try:
        outcome = wps.edge_singularities(shape, *edge)
    except ValueError as exc:
        outcome = exc
    pair = tuple(shape.weights[k] for k in edge)
    if oracles.has_monomial(pair, d):
        assert not isinstance(outcome, wps.NotQuasiSmoothAtVertex)
        assert "share a factor" not in str(outcome)
    elif math.gcd(*pair) > 1:
        assert isinstance(outcome, wps.NotTerminalIsolated) and "share a factor" in str(outcome)
    else:
        # Thm 8.1 for |I| = 2: two distinct x_e outside with a degree-d x_i^a*x_j^c*x_e
        outside = [w for k, w in enumerate(shape.weights) if k not in edge]
        qualify = sum(d > w and oracles.has_monomial(pair, d - w) for w in outside)
        assert outcome is None if qualify >= 2 else isinstance(outcome, wps.NotQuasiSmoothAtVertex)


def test_hilbert_low_degree_coefficients():
    # P(1,2,3,5): two sections of degree 2 (the square of the degree-1
    # coordinate and the degree-2 coordinate)
    series = wps.hilbert(wps.HypersurfaceShape((1, 2, 3, 5)), 2)
    assert series.coefficients == (1, 1, 2)
    assert wps.hilbert(X12, 0).coefficients == (1,)


def test_basket_x12():
    basket = wps.basket(X12)
    assert basket.indices() == (2, 3, 3, 5, 7)
    entries = {(p.r, p.b): count for p, count in basket.entries}
    assert entries == {(2, 1): 1, (3, 1): 2, (5, 2): 1, (7, 2): 1}


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", Fraction(2)], ids=repr)
def test_basket_multiplicities_are_ints(bad):
    # 1.5 was accepted and printed as 1/5(1,4,2)x1.5
    with pytest.raises(TypeError):
        wps.Basket(((wps.QuotientType(5, 2), bad),))
    assert str(wps.Basket(((wps.QuotientType(5, 2), 2),))) == "1/5(1,4,2)x2"


def test_a_bool_weight_or_degree_counts_as_an_int():
    # operator.index(True) is 1, as the README says: True is the weight 1
    shape = wps.HypersurfaceShape((True, 1, 1, 1, 1), 4)
    assert shape == wps.HypersurfaceShape((1, 1, 1, 1, 1), 4)
    assert type(shape.weights[0]) is int
    degree = wps.HypersurfaceShape((1, 1, 1, 1, 2), True).degree
    assert type(degree) is int and degree == 1


def curvature_sum(basket):
    """sum over points of (r - 1/r); < 24 for every terminal Fano basket."""
    return sum((count * (Fraction(q.r) - Fraction(1, q.r)) for q, count in basket.entries), Fraction(0))


def test_basket_curvature_bound():
    for shape in FIXTURE_SHAPES:
        assert curvature_sum(wps.basket(shape)) < 24


def test_series_to_an_index_above_the_cap_is_refused_before_expanding():
    from qfano.series import MAX_ORDER

    shape = wps.HypersurfaceShape((3, 4, 5, 6, 10**4400), 12)
    for compute in (wps.genus, wps.analyze):
        with pytest.raises(ValueError, match=f"Fano index above {MAX_ORDER}"):
            compute(shape)
    just_above = wps.HypersurfaceShape((1, 1, 1, 1, MAX_ORDER + 9), 12)  # q = MAX_ORDER + 1
    with pytest.raises(ValueError, match="Fano index above"):
        wps.genus(just_above)


def test_normalize_type_not_terminal():
    # the rule returns its failure instead of raising it
    assert isinstance(wps._normalize_type(4, (1, 1, 2)), wps.NotTerminalIsolated)  # 2 | 4
    for r, raw in ((6, (1, 5, 0)), (9, (3, 6, 1))):
        failure = wps._normalize_type(r, raw)
        assert isinstance(failure, wps.NotTerminalIsolated)
        assert re.search("not coprime units", str(failure))
    # units, but no two of them sum to 0 mod 5
    failure = wps._normalize_type(5, (1, 6, 2))
    assert isinstance(failure, wps.NotTerminalIsolated)
    assert re.search(r"no unit carries \(1, 1, 2\) mod 5", str(failure))


def _kernel_type_or_none(r, residues):
    """``wps._normalize_type``, with the failure it returns read as None."""
    b = wps._normalize_type(r, residues)
    return None if isinstance(b, wps.NotTerminalIsolated) else b


def test_normalize_type_matches_unit_search():
    # every ordered triple of units mod r for 2 <= r <= 40; the unit search
    # sorts its triple, so it runs once per sorted triple
    checked = 0
    for r in range(2, 41):
        units = [u for u in range(1, r) if math.gcd(u, r) == 1]
        for triple in itertools.combinations_with_replacement(units, 3):
            expected = point_type(r, triple)
            for ordered in set(itertools.permutations(triple)):
                assert _kernel_type_or_none(r, ordered) == expected, (r, ordered)
                checked += 1
    assert checked == sum(sum(math.gcd(u, r) == 1 for u in range(1, r)) ** 3 for r in range(2, 41))


def test_vertex_type_independent_of_eliminator():
    # x_i^n*x_j and x_i^m*x_k of degree d give w_j = d = w_k mod w_i, so
    # every eliminating variable leaves the same residues and the same type;
    # checked at every vertex of every Fano 5-weight shape with weights <= 10
    checked = 0
    for ws in itertools.combinations_with_replacement(range(1, 11), 5):
        for d in range(1, sum(ws)):
            for i, wi in enumerate(ws):
                if d % wi == 0:
                    continue
                rest = ws[:i] + ws[i + 1 :]
                eliminators = [
                    j for j, wj in enumerate(rest) if d - wj >= wi and (d - wj) % wi == 0
                ]
                if len(eliminators) < 2:
                    continue
                checked += 1
                choices = {_kernel_type_or_none(wi, rest[:j] + rest[j + 1 :]) for j in eliminators}
                assert len(choices) == 1, (ws, d, wi)
                (b,) = choices
                shape = wps.HypersurfaceShape(ws, d)
                if b is None:
                    with pytest.raises(wps.NotTerminalIsolated):
                        wps.vertex_singularity(shape, i)
                else:
                    assert wps.vertex_singularity(shape, i) == wps.QuotientType(wi, b)
    assert checked > 10_000


def basket_points_obey_the_unit_lemma(shape) -> int:
    """The lemma in ``wps.basket``'s docstring, on each point of an accepted basket.

    The residues are read off the weights: those off the point's stratum, less
    one that is d mod r at a vertex of a member. They sum to q mod r, two sum
    to 0, and the third is q, a unit mod r. Returns the number of points.
    """
    q, d = wps.fano_index(shape), shape.degree
    basket = wps.basket(shape)
    points = 0
    for verdict, _ in wps._walk(shape):
        if verdict.quotient is None:
            continue
        r = verdict.quotient.r
        residues = [w % r for k, w in enumerate(shape.weights) if k not in verdict.stratum]
        if d and len(verdict.stratum) == 1:
            residues.remove(d % r)
        assert wps._normalize_type(r, tuple(residues)) == verdict.quotient.b
        assert sum(residues) % r == q % r
        assert any(
            (x + y) % r == 0 and z == q % r for x, y, z in itertools.permutations(residues)
        )
        assert math.gcd(q, r) == 1
        points += verdict.count
    assert points == sum(count for _, count in basket.entries)
    return points


def test_q_is_a_unit_mod_every_index_of_an_accepted_basket():
    baskets = points = 0
    for weights, d in small_shapes()[0]:
        shape = wps.HypersurfaceShape(weights, d)
        try:
            if not wps.basket(shape).entries:
                continue
        except ValueError:
            continue
        baskets += 1
        points += basket_points_obey_the_unit_lemma(shape)
    assert (baskets, points) == (91, 285)
    for fixture in fixtures.FIXTURES:
        assert basket_points_obey_the_unit_lemma(fixture.shape) >= 1
    # the link's centres are points of X12's basket, where q = sarkisov.Q = 13
    assert all(math.gcd(sk.Q, case.r) == 1 for case in sk.CASES.values() if case.r)


def test_index_degree_consistency():
    for shape in FIXTURE_SHAPES:
        q = wps.fano_index(shape)
        a3 = wps.degree_a3(shape)
        prod = math.prod(shape.weights)
        if shape.degree:
            assert a3 * prod == shape.degree
            assert q == sum(shape.weights) - shape.degree
        else:
            assert a3 * prod == 1
            assert q == sum(shape.weights)


def test_analyze_report_x12():
    report = wps.analyze(X12)
    assert report.fano_index == 13
    assert report.a3 == Fraction(1, 210)
    assert report.basket is not None and report.basket.indices() == (2, 3, 3, 5, 7)
    assert report.genus == 4
    assert report.warnings == ()
    statuses = {v.stratum: v.status for v in report.strata}
    assert statuses[(2,)] == "quotient" and statuses[(0,)] == "off-member"


@pytest.mark.parametrize("fixture", fixtures.FIXTURES, ids=lambda f: f.name)
@pytest.mark.parametrize("order", [None, 0, 5, 60])
def test_analyze_genus_matches_genus(fixture, order):
    report = wps.analyze(fixture.shape, order)
    assert report.genus == wps.genus(fixture.shape) == fixture.genus
    expected_order = max(fixture.fano_index, 30) if order is None else order
    assert report.hilbert == wps.hilbert(fixture.shape, expected_order)


@pytest.mark.parametrize("fixture", fixtures.FIXTURES, ids=lambda f: f.name)
def test_the_stratum_oracle_gives_each_fixture_its_recorded_invariants(fixture):
    # the oracle's own anchor, as it shares no code with wps: X12's 1/2 + 2x1/3 + 1/5 + 1/7
    oracle = stratum_analysis(fixture.shape.weights, fixture.shape.degree)
    indices = tuple(r for (r, _), n in oracle.basket for _ in range(n))
    assert (oracle.fano_index, oracle.a3, indices, oracle.genus) == fixture[2:]


def test_fixture_lookup_and_each_verify_mismatch():
    f = fixtures.fixture("X12")
    assert f is fixtures.FIXTURES[0] and fixtures.verify(f) == []
    with pytest.raises(KeyError, match="unknown fixture 'X13'"):
        fixtures.fixture("X13")
    wrong = f._replace(fano_index=12, a3=Fraction(1, 209), basket_indices=(2, 3, 5, 7), genus=5)
    assert fixtures.verify(wrong) == [
        "X12: fano index 13 != expected 12",
        "X12: A^3 1/210 != expected 1/209",
        "X12: basket (2, 3, 3, 5, 7) != expected (2, 3, 5, 7)",
        "X12: genus 4 != expected 5",
    ]


# linear cones whose general member contains a coprime coordinate edge with two
# qualifying variables outside it, and has no other defect
CONTAINED_COPRIME_EDGES = [
    ((1, 2, 3, 5, 7), 7, (3, 5)),
    ((1, 3, 4, 5, 11), 11, (4, 5)),
    ((2, 3, 5, 7, 23), 23, (5, 7)),
    ((3, 4, 5, 7, 17), 17, (4, 7)),
]


@pytest.mark.parametrize("weights,d,edge", CONTAINED_COPRIME_EDGES)
def test_a_contained_coprime_edge_that_passes_adds_no_point(weights, d, edge):
    shape = wps.HypersurfaceShape(weights, d)
    i, j = (shape.weights.index(w) for w in edge)
    assert math.gcd(*edge) == 1 and not oracles.has_monomial(edge, d)
    assert wps._edge(shape.weights, d, i, j) == ()
    assert wps.edge_singularities(shape, i, j) is None
    report = wps.analyze(shape)
    assert report.warnings == () and (i, j) not in [v.stratum for v in report.strata]
    assert mismatches(report) == []
    # the member is the space of its first four weights: the same basket and A^3
    space = wps.HypersurfaceShape(weights[:4])
    assert report.basket == wps.basket(shape) == wps.analyze(space).basket
    assert report.a3 == wps.degree_a3(space)


def test_index_9_and_11_hypersurfaces_with_a_contained_edge_get_their_baskets():
    # X6 in P(1,2,3,4,5) contains the coprime edge (4,5), X10 in P(2,3,4,5,7) the edge (3,7)
    for weights, d, basket in [
        ((1, 2, 3, 4, 5), 6, "1/2(1,1,1) 1/4(1,3,1) 1/5(1,4,2)"),
        ((2, 3, 4, 5, 7), 10, "1/2(1,1,1)x2 1/3(1,2,1) 1/4(1,3,1) 1/7(1,6,2)"),
    ]:
        shape = wps.HypersurfaceShape(weights, d)
        report = wps.analyze(shape)
        assert report.warnings == () and str(report.basket) == basket
        assert mismatches(report) == []
        assert () in [wps._edge(shape.weights, d, i, j) for i, j in itertools.combinations(range(5), 2)]
        data = rr.calibrated_data(shape)
        assert (data.q, data.a3) == (sum(weights) - d, report.a3)


@pytest.mark.parametrize(
    "weights,d",
    [((1, 1, 3, 7, 10), 11), ((1, 1, 5, 8, 11), 17), ((1, 1, 7, 9, 11), 19),
     ((2, 2, 4, 5, 9), 11), ((3, 3, 5, 6, 11), 14)],
)
def test_the_walk_tests_a_plane_whose_three_edges_are_contained_and_pass(weights, d):
    # e.g. X11 in P(1,1,3,7,10): the edges of (3,7,10) are contained and pass, through the two
    # weight-1 variables, with no degree-11 monomial in x3, x7, x10 alone; no census shape has one
    shape = wps.HypersurfaceShape(weights, d)
    planes = [(v, failure) for v, failure in wps._walk(shape) if len(v.stratum) == 3]
    plane = shape.weights[2:]
    assert planes == [
        (wps.StratumVerdict((2, 3, 4), plane, "not-quasi-smooth"), wps.NotQuasiSmoothAtVertex)
    ]
    report = wps.analyze(shape)
    warning = "not quasi-smooth at plane w=({},{},{})".format(*plane)
    assert report.warnings[-1] == str(wps._worded(*planes[0], d)) == warning
    assert mismatches(report) == []


@pytest.mark.parametrize(
    "weights,d,expected",
    [
        (
            (4, 8, 19, 21, 21),
            71,
            (
                "residues (0, 1, 1) mod 4 are not coprime units: not an isolated terminal cyclic quotient",
                "not quasi-smooth at vertex w=8",
                "not quasi-smooth at vertex w=19",
                "residues (4, 19, 0) mod 21 are not coprime units: not an isolated terminal cyclic quotient",
                "weights 4, 8 share a factor: singular locus along the edge",
                "not quasi-smooth at edge w=(8,19)",
                "not quasi-smooth at edge w=(19,21)",
                "weights 21, 21 share a factor: singular locus along the edge",
            ),
        ),
        (
            (12, 24, 24, 26, 27),
            108,
            (
                "weights (12, 24, 24, 26, 27) are not well-formed",
                "residues (0, 2, 3) mod 24 are not coprime units: not an isolated terminal cyclic quotient",
                "not quasi-smooth at vertex w=26",
                # edge (12,24) carries 4 points 1/12(24,26,27); (12,26) and (24,27) none
                "residues (0, 2, 3) mod 12 are not coprime units: not an isolated terminal cyclic quotient",
                "residues (0, 0, 2) mod 3 are not coprime units: not an isolated terminal cyclic quotient",
                "weights 24, 24 share a factor: singular locus along the edge",
                "weights 24, 26 share a factor: singular locus along the edge",
            ),
        ),
    ],
)
def test_analyze_gives_each_warning_once(weights, d, expected):
    # coordinates of equal weight fail with equal messages; each is given once
    report = wps.analyze(wps.HypersurfaceShape(weights, d))
    assert report.warnings == expected
    assert mismatches(report) == []


@pytest.fixture
def walks(monkeypatch, empty_memos):
    """Empty memos for the test, and the shape of each walk over the strata."""
    shapes = []
    walk = wps._walk
    monkeypatch.setattr(wps, "_walk", lambda shape: shapes.append(shape) or walk(shape))
    return shapes


def test_a_second_basket_request_reads_the_kept_basket(walks):
    first = wps.basket(X12)
    assert first.indices() == (2, 3, 3, 5, 7)
    # an equal shape, whatever order its weights came in, shares the entry
    assert wps.basket(wps.HypersurfaceShape((7, 6, 5, 4, 3), 12)) is first
    assert walks == [X12] and wps._BASKETS == {X12: first}


def test_a_basket_that_raises_stores_nothing(walks):
    shape = wps.HypersurfaceShape((2, 3, 4, 5, 7), 4)
    for _ in range(2):
        with pytest.raises(wps.NotQuasiSmoothAtVertex, match="^vertex w=3 lies on the member"):
            wps.basket(shape)
    assert walks == [shape, shape] and wps._BASKETS == {}
    wps.basket(X12)
    assert walks == [shape, shape, X12] and list(wps._BASKETS) == [X12]


def test_analyze_walks_each_stratum_once(monkeypatch):
    calls = {"_vertex": 0, "_edge": 0}
    for name in calls:
        def counted(*args, _rule=getattr(wps, name), _name=name):
            calls[_name] += 1
            return _rule(*args)

        monkeypatch.setattr(wps, name, counted)
    report = wps.analyze(X12)
    assert report.basket is not None and report.basket.indices() == (2, 3, 3, 5, 7)
    assert calls == {"_vertex": 5, "_edge": 10}


def test_analyze_builds_no_exception_for_a_stratum_that_is_not_quasi_smooth(monkeypatch):
    # each exception class replaced by a subclass that records every instance built
    built = []
    for name in ("NotQuasiSmoothAtVertex", "NotTerminalIsolated"):
        def init(self, *args, _base=getattr(wps, name)):
            built.append(type(self).__name__)
            _base.__init__(self, *args)

        monkeypatch.setattr(wps, name, type(name, (getattr(wps, name),), {"__init__": init}))
    # nor for an edge on the member whose weights share a factor
    shape = wps.HypersurfaceShape((1, 1, 1, 2, 4), 1)
    assert wps.analyze(shape).warnings == (
        "not quasi-smooth at vertex w=2",
        "not quasi-smooth at vertex w=4",
        "weights 2, 4 share a factor: singular locus along the edge",
    )
    with pytest.raises(wps.NotTerminalIsolated, match="^weights 4, 2 share a factor"):
        wps.edge_singularities(shape, 4, 3)
    assert built == ["NotTerminalIsolated"]
    built.clear()
    shape = wps.HypersurfaceShape((2, 3, 4, 5, 7), 4)
    report = wps.analyze(shape)
    assert report.warnings == (
        "not quasi-smooth at vertex w=3",
        "not quasi-smooth at vertex w=5",
        "not quasi-smooth at vertex w=7",
        "not quasi-smooth at edge w=(3,5)",
        "not quasi-smooth at edge w=(3,7)",
        "not quasi-smooth at edge w=(5,7)",
    )
    assert built == []
    # the public rules raise the first failure, worded when raised
    message = "vertex w=3 lies on the member but no monomial x_3^n or x_3^n*x_j of degree 4 exists"
    with pytest.raises(wps.NotQuasiSmoothAtVertex) as raised:
        wps.basket(shape)
    assert str(raised.value) == message
    with pytest.raises(wps.NotQuasiSmoothAtVertex) as raised:
        wps.edge_singularities(shape, 3, 1)
    # no variable outside the edge has a degree-4 monomial x_3^a*x_5^c*x_e with a + c > 0
    assert str(raised.value) == "not quasi-smooth at edge w=(5,3)"
    assert built == ["NotQuasiSmoothAtVertex"] * 2


def test_quotient_type_stores_the_least_b():
    # 1/5(1,4,3) is 1/5(1,4,2) with its first two coordinates swapped
    assert wps.QuotientType(5, 3) == wps.QuotientType(5, 2) == (5, 2)
    assert str(wps.QuotientType(5, 3)) == "1/5(1,4,2)"
    for r in range(2, 30):
        for b in range(1, r):
            if math.gcd(b, r) == 1:
                assert wps.QuotientType(r, b).b == min(b, r - b)
    assert wps.QuotientType(5, 2)._replace(b=3).b == 2


def test_basket_merges_equal_points():
    point = wps.QuotientType(5, 2)
    merged = wps.Basket(((wps.QuotientType(5, 3), 1), (point, 1)))
    assert merged.entries == ((point, 2),)
    assert str(merged) == "1/5(1,4,2)x2" and merged.indices() == (5, 5)
    half = wps.QuotientType(2, 1)
    entries = ((point, 1), (half, 2), (wps.QuotientType(5, 3), 3), (half, 1))
    assert wps.Basket(entries).entries == ((half, 3), (point, 4))
    assert wps.Basket(entries[::-1]) == wps.Basket(((point, 4), (half, 3)))


def test_stratum_verdict_is_a_named_tuple():
    verdict = wps.StratumVerdict((2,), (5,), "quotient", wps.QuotientType(5, 2), 1)
    assert wps.StratumVerdict._fields == ("stratum", "weights", "status", "quotient", "count")
    assert repr(verdict) == (
        "StratumVerdict(stratum=(2,), weights=(5,), status='quotient', "
        "quotient=QuotientType(r=5, b=2), count=1)"
    )
    assert wps.StratumVerdict((0,), (3,), "off-member") == ((0,), (3,), "off-member", None, 0)
    # what changed with the NamedTuple: a verdict now equals the plain tuple of its fields
    assert verdict == ((2,), (5,), "quotient", wps.QuotientType(5, 2), 1)
    assert hash(verdict) == hash(tuple(verdict))


def test_validated_records_check_a_replaced_field():
    # a namedtuple's _replace builds through _make, which skips __new__ unless overridden
    with pytest.raises(ValueError, match="degree must be >= 0"):
        fixtures.X12_SHAPE._replace(degree=-1)
    with pytest.raises(ValueError, match="b=5 invalid for index 5"):
        wps.QuotientType(5, 2)._replace(b=5)
    with pytest.raises(ValueError, match="multiplicities must be >= 1"):
        wps.basket(X12)._replace(entries=((wps.QuotientType(2, 1), 0),))
    # a replaced field is normalized as a constructed one is
    assert X12._replace(weights=[7, 6, 5, 4, 3]) == ((3, 4, 5, 6, 7), 12)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=4, max_size=5),
    st.integers(min_value=1, max_value=60),
)
def test_analyze_basket_and_the_stratum_oracle_agree(weights, q):
    # beyond the census: weights up to 40, where most edges lie on the member
    d = 0 if len(weights) == 4 else sum(weights) - q
    if len(weights) == 5 and (d <= 0 or not wps.has_monomial(weights, d)):
        return
    shape = wps.HypersurfaceShape(weights, d)
    report = wps.analyze(shape)
    assert mismatches(report) == []
    if report.basket is None:
        with pytest.raises((wps.NotQuasiSmoothAtVertex, wps.NotTerminalIsolated)):
            wps.basket(shape)
    else:
        assert report.basket == wps.basket(shape)


def test_analyze_flags_ill_formed():
    report = wps.analyze(wps.HypersurfaceShape((1, 2, 2, 2)))
    assert any("not well-formed" in w for w in report.warnings)


def test_shape_validation():
    with pytest.raises(ValueError):
        wps.HypersurfaceShape((1, 2, 3), 0)         # needs 4 weights
    with pytest.raises(ValueError):
        wps.HypersurfaceShape((1, 2, 3, 4), 5)      # d > 0 needs 5 weights
    with pytest.raises(ValueError):
        wps.HypersurfaceShape((3, 4, 5, 6, 7), 1)   # empty shape


def test_the_walk_matches_the_oracle_on_inputs_drawn_as_a_scan_draws_them():
    # five sorted weights <= 33 and q among the allowed indices: unlike the census
    # (weights <= 8), coprime edges here often sit near Sylvester's bound (a - 1)(b - 1)
    rng = random.Random("scan-shaped")
    shapes = 0
    while shapes < 2000:
        weights = tuple(sorted(rng.choices(range(1, 34), k=5)))
        d = sum(weights) - rng.choice(wps.ALLOWED_FANO_INDICES)
        if d <= 0 or not oracles.has_monomial(weights, d):
            continue
        shapes += 1
        report = wps.analyze(wps.HypersurfaceShape(weights, d))
        assert mismatches(report) == [], (weights, d)


@pytest.mark.parametrize(
    "weights,d,edge,expected",
    [
        # the coprime edge (3,5) at its Frobenius number 7 = (3-1)(5-1) - 1 is contained: it
        # fails where no two x_e carry a monomial x_3^a*x_5^c*x_e of degree 7, else it passes
        ((2, 3, 5, 7, 11), 7, (1, 2), "not-quasi-smooth"),
        ((1, 1, 1, 3, 5), 7, (3, 4), ()),
        # at Sylvester's bound 8 = (3-1)(5-1), x_3*x_5 lies on it: not contained, no point
        ((2, 3, 5, 7, 11), 8, (1, 2), None),
        ((1, 1, 1, 3, 5), 8, (3, 4), None),
        ((1, 2, 3, 6, 10), 14, (2, 3), "singular-edge"),  # 3 | 3, 6 but not 14
        ((1, 2, 3, 6, 10), 14, (3, 4), "singular-edge"),  # 2 | 14, but no 6a + 10c = 14
        ((1, 2, 3, 6, 10), 14, (1, 3), "not-terminal-isolated"),  # 2a + 6c = 14 three times
    ],
)
def test_each_edge_shortcut_holds_at_its_bound(weights, d, edge, expected):
    result = wps._edge(weights, d, *edge)
    assert (result[0].status if result else result) == expected
    assert mismatches(wps.analyze(wps.HypersurfaceShape(weights, d))) == []


def test_a_vertex_is_decided_by_the_least_weight_that_eliminates_it():
    # at w=5 of X12, d = 2 mod 5: x_5^n*x_7 eliminates x_7, the last weight, not x_3;
    # 1/5(3, 4, 6) = 1/5(1, 4, 2)
    assert wps._vertex(X12.weights, 12, 2) == (
        wps.StratumVerdict((2,), (5,), "quotient", wps.QuotientType(5, 2), 1), None
    )
    # at w=7, x_5 comes before it: 1/7(3, 4, 6) = 1/7(1, 6, 2)
    assert wps.vertex_singularity(X12, 4) == wps.QuotientType(7, 2)
    # at w=3 of degree 7, 7 = 1 mod 3 but 7 > 7 - 3: no weight eliminates x_3, as 10 does not
    verdict, failure = wps._vertex((2, 3, 5, 7, 10), 7, 1)
    assert verdict.status == "not-quasi-smooth" and failure is wps.NotQuasiSmoothAtVertex


def test_a_weight_dividing_d_answers_at_once_but_turns_no_refusal_into_an_answer():
    start = time.perf_counter()
    weights = (MAX_ORDER, 1300007, 1700003, 1900011, 2300001)
    assert wps.has_monomial(weights, 300 * MAX_ORDER)  # the residue table had 10^6 entries
    assert wps.HypersurfaceShape(weights, 300 * MAX_ORDER).degree == 300 * MAX_ORDER
    assert wps.has_monomial((4, 6, 9), 18) and not wps.has_monomial((4, 6, 9), 11)
    # a least weight one above: x^300 of that weight has degree d, but the refusal stays
    weights = (MAX_ORDER + 1, *weights[1:])
    for decide in (wps.has_monomial, wps.HypersurfaceShape):
        with pytest.raises(ValueError, match=f"a table of more than {MAX_ORDER} entries"):
            decide(weights, 300 * (MAX_ORDER + 1))
    assert time.perf_counter() - start < 0.1


def test_analyze_keeps_no_series_in_the_memo(empty_memos):
    shape = wps.HypersurfaceShape((2, 3, 5, 7, 11), 8)
    report = wps.analyze(shape)
    assert series._PRODUCTS == {}
    # with the pair kept, and longer than the report's, the report is the same
    wps.hilbert(shape, 40)
    assert list(series._PRODUCTS) == [((8,), (2, 3, 5, 7, 11))]
    assert wps.analyze(shape) == report
