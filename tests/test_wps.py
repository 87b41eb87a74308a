"""Weighted projective shapes: indices, monomials, singularity baskets."""

import itertools
import math
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfano import fixtures, wps
from qfano.series import MAX_ORDER
from qfano.series import partition_count

X12 = wps.HypersurfaceShape((3, 4, 5, 6, 7), 12)

FIXTURE_SHAPES = [
    X12,
    wps.HypersurfaceShape((3, 4, 5, 7)),
    wps.HypersurfaceShape((2, 3, 5, 7)),
    wps.HypersurfaceShape((1, 3, 4, 5)),
    wps.HypersurfaceShape((1, 2, 3, 5)),
    wps.HypersurfaceShape((1, 1, 2, 3)),
]


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
    ranges = [range(d // w + 1) for w in weights]
    assume(math.prod(map(len, ranges)) <= 20_000)
    vectors = itertools.product(*ranges)
    expected = sorted(
        (v for v in vectors if sum(a * w for a, w in zip(v, weights)) == d), reverse=True
    )
    assert wps.monomials(weights, d) == tuple(expected)


def test_monomials_refuse_non_positive_weights():
    # the enumerator once divided by zero, dropped a negative first weight's
    # monomials and listed negative exponents for a negative last weight
    for weights in ((0, 3), (-2, 3), (3, -2), (0,)):
        with pytest.raises(ValueError, match="weights must be positive"):
            wps.monomials(weights, 5)


def test_monomial_count_matches_partition_oracle():
    for shape in FIXTURE_SHAPES:
        series = wps.hilbert(shape, 30)
        for m in range(31):
            count = len(wps.monomials(shape.weights, m))
            if shape.degree and m >= shape.degree:
                count -= len(wps.monomials(shape.weights, m - shape.degree))
            assert series[m] == count


# the enumerator is the oracle wherever its output is small enough to list
LISTABLE = 20_000


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=33), min_size=5, max_size=5),
    st.integers(min_value=0, max_value=200),
)
def test_monomial_count_matches_enumeration_and_partitions(weights, d):
    count = wps.monomial_count(weights, d)
    assert count == partition_count(weights, d)
    if count <= LISTABLE:
        assert count == len(wps.monomials(weights, d))


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
    assert wps.has_monomial(weights, d) == (wps.monomial_count(weights, d) > 0)


def least_degrees(weights) -> list:
    """least[k]: the least degree of a monomial congruent to k mod the smallest weight a.

    Round-robin shortest paths over residues (Boecker and Liptak 2007): each
    further weight w walks the cycles k -> k + w mod a once, from the least
    degree reached on the cycle. math.inf marks a class no monomial reaches.
    """
    ws = sorted(weights)
    a = ws[0]
    least = [0] + [math.inf] * (a - 1)
    for w in ws[1:]:
        g = math.gcd(a, w)
        for start in range(g):
            n = min(least[start::g])
            if n == math.inf:
                continue
            for _ in range(a // g - 1):
                n += w
                k = n % a
                n = least[k] = min(n, least[k])
    return least


def reference_has_monomial(weights, d) -> bool:
    """The residue-class test has_monomial replaced, kept as its oracle.

    Adding powers of the weight-a variable reaches every larger degree in a
    residue class, so a degree-d monomial exists iff least[d mod a] <= d.
    """
    least = least_degrees(weights)
    return least[d % len(least)] <= d


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    st.sampled_from([1, 1, 2, 3, 6, 7]),
    st.sampled_from(["schur", "run", "frobenius", "huge", "any"]),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=300),
)
def test_has_monomial_matches_residue_classes(base, factor, near, offset, scaled, any_d):
    # weights with a common factor g; d near the bounds of their reduced system
    weights = [factor * w for w in base]
    g = math.gcd(*weights)
    reduced = sorted(w // g for w in weights)
    run = next(k for k in range(1, len(reduced) + 1) if math.gcd(*reduced[:k]) == 1)
    target = {
        "schur": (reduced[0] - 1) * (reduced[-1] - 1),
        "run": (reduced[0] - 1) * (reduced[run - 1] - 1),
        "frobenius": max(least_degrees(reduced)) - reduced[0],
        "huge": (10**12 + 1) // g,
        "any": any_d // g,
    }[near]
    d = g * (target + offset) if scaled else g * target + offset
    if d < 0:
        return
    assert wps.has_monomial(weights, d) == reference_has_monomial(weights, d)
    assert wps.has_monomial(weights, 10**12 + 1) == reference_has_monomial(weights, 10**12 + 1)


def test_has_monomial_matches_residue_classes_on_small_systems():
    # every degree up to past the Schur bound (a - 1)(b - 1) of each system
    for n in (1, 2, 3):
        for weights in itertools.combinations_with_replacement(range(1, 13), n):
            for d in range(weights[0] * weights[-1] + weights[-1]):
                assert wps.has_monomial(weights, d) == reference_has_monomial(weights, d), (weights, d)


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
def test_has_monomial_matches_residue_classes_past_a_large_weight(base, factor, exponent, where):
    # a weight B far above the rest and B <= d below the Schur bound: the
    # bitset would need d bits, so the residue-class table decides
    big = 10**exponent + 1
    weights = [factor * w for w in base] + [big]
    lo = big
    hi = max(lo, (min(weights) - 1) * (big - 1))
    for d in (lo, lo + int(where * (hi - lo)), hi - 1, hi):
        assert wps.has_monomial(weights, d) == reference_has_monomial(weights, d), (weights, d)


def test_has_monomial_cost_is_bounded_by_the_weights():
    # 1 << (d + 1) here would be ~190 GB; the residue table needs three steps
    start = time.perf_counter()
    assert wps.has_monomial((3, 3, 3, 3, 10**12 + 1), 15 * 10**11)
    assert not wps.has_monomial((3, 6, 9, 12, 10**12 + 1), 15 * 10**11 + 1)  # 1 mod 3 needs 2B
    for exponent in (7, 12, 30):
        big = 10**exponent + 1
        d = 3 * big // 2
        assert wps.has_monomial((3, 6, 9, 12, big), d) == reference_has_monomial((3, 6, 9, 12, big), d)
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
        expected = partition_count(ws, degree) > 0
        assert wps._by_bitset(ws, degree) == expected, (ws, degree)
        assert (wps._least_degrees(ws)[degree % ws[0]] <= degree) == expected, (ws, degree)
    assert wps._by_search(ws, near) == (partition_count(ws, near) > 0), (ws, near)


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


def test_edge_contained_error():
    # no pure {x4, x6} monomial of odd degree 11 over (3,4,5,6,7)
    shape = wps.HypersurfaceShape((3, 4, 5, 6, 7), 11)
    with pytest.raises(wps.EdgeContained):
        wps.edge_singularities(shape, 1, 3)


def test_edge_not_general_error():
    # (2,3,4,6,7) degree 18, edge (4,6): gcd 2 but 18*2/24 = 3/2 points
    shape = wps.HypersurfaceShape((2, 3, 4, 6, 7), 18)
    ws = shape.weights
    with pytest.raises(wps.NotGeneral):
        wps.edge_singularities(shape, ws.index(4), ws.index(6))


def test_rules_on_the_space_itself():
    space = wps.HypersurfaceShape((1, 2, 3, 5))
    assert wps.vertex_singularity(space, 0) is None  # weight 1: smooth
    types = [wps.vertex_singularity(space, i) for i in (1, 2, 3)]
    assert [(t.r, t.b) for t in types] == [(2, 1), (3, 1), (5, 2)]
    assert wps.edge_singularities(space, 1, 3) is None  # coprime weights
    with pytest.raises(wps.NotTerminalIsolated, match="share a factor"):
        wps.edge_singularities(wps.HypersurfaceShape((1, 2, 2, 3)), 1, 2)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=5, max_size=5),
    st.integers(min_value=1, max_value=200),
    st.sampled_from(list(itertools.combinations(range(5), 2))),
)
def test_edge_contained_iff_no_monomial_in_its_two_variables(weights, d, edge):
    if not wps.has_monomial(weights, d):
        return
    shape = wps.HypersurfaceShape(weights, d)
    contained = False
    try:
        wps.edge_singularities(shape, *edge)
    except wps.EdgeContained:
        contained = True
    except (wps.NotGeneral, wps.NotTerminalIsolated):
        pass
    pair = tuple(shape.weights[k] for k in edge)
    assert contained == (not wps.has_monomial(pair, d))


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


@pytest.mark.parametrize(
    "weights,expected_indices",
    [
        ((1, 1, 1, 2), (2,)),
        ((1, 2, 3, 5), (2, 3, 5)),
        ((1, 1, 2, 3), (2, 3)),
    ],
)
def test_basket_spaces(weights, expected_indices):
    basket = wps.basket(wps.HypersurfaceShape(weights))
    assert basket.indices() == expected_indices


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


def test_genus():
    assert wps.genus(X12) == 4
    assert wps.genus(wps.HypersurfaceShape((1, 1, 1, 1))) == 33  # C(7,3) - 2
    # oracle: h^0(13A) on P(1,3,4,5) counted by partitions
    expected = partition_count((1, 3, 4, 5), 13) - 2
    assert wps.genus(wps.HypersurfaceShape((1, 3, 4, 5))) == expected
    assert expected > 4


@pytest.mark.parametrize(
    "r,raw,expected",
    [(5, (3, 4, 1), 2), (3, (1, 2, 1), 1), (7, (3, 4, 6), 2)],
)
def test_normalize_type(r, raw, expected):
    assert wps._normalize_type(r, raw) == expected


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


def test_normalize_type_exhausts_units():
    # brute check: for every unit triple that normalizes, the reported b is
    # reproduced by some unit transport
    for r in (5, 7, 11):
        for b in range(1, r):
            if math.gcd(b, r) != 1:
                continue
            raw = (1, r - 1, b)
            assert wps._normalize_type(r, raw) == min(b, r - b)


def reference_normalize_type(r, raw):
    """The unit search _normalize_type replaced, kept as its oracle.

    Tries every unit u mod r for one that carries the residues to
    {1, r-1, b}; the least min(b, r-b) found wins.
    """
    residues = tuple(x % r for x in raw)
    if any(x == 0 or math.gcd(x, r) != 1 for x in residues):
        raise wps.NotTerminalIsolated(residues)
    best = None
    for u in range(1, r):
        if math.gcd(u, r) != 1:
            continue
        rest = sorted((u * x) % r for x in residues)
        if 1 in rest:
            rest.remove(1)
            if (r - 1) % r in rest:
                rest.remove((r - 1) % r)
                b = min(rest[0], r - rest[0])
                if best is None or b < best:
                    best = b
    if best is None:
        raise wps.NotTerminalIsolated(residues)
    return best


def _type_or_none(rule, r, residues):
    try:
        return rule(r, residues)
    except wps.NotTerminalIsolated:
        return None


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
            expected = _type_or_none(reference_normalize_type, r, triple)
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


# shapes whose general member contains a coprime coordinate edge and has no
# other defect, so that basket() is reached
CONTAINED_COPRIME_EDGES = [
    ((1, 2, 3, 5, 7), 7, (3, 5)),
    ((1, 3, 4, 5, 11), 11, (4, 5)),
    ((2, 3, 5, 7, 23), 23, (5, 7)),
    ((3, 4, 5, 7, 17), 17, (4, 7)),
]


@pytest.mark.parametrize("weights,d,edge", CONTAINED_COPRIME_EDGES)
def test_analyze_warns_on_contained_coprime_edge(weights, d, edge):
    shape = wps.HypersurfaceShape(weights, d)
    report = wps.analyze(shape)
    assert report.basket is None
    assert report.warnings == (
        f"member contains the edge w=({edge[0]},{edge[1]}); analysis out of scope",
    )
    contained = [v for v in report.strata if v.status == "edge-contained"]
    assert [v.weights for v in contained] == [edge]
    assert math.gcd(*edge) == 1
    with pytest.raises(wps.EdgeContained):
        wps.basket(shape)


def test_analyze_merges_contained_edges_of_equal_weights():
    # the two weight-21 coordinates give two contained (19, 21) edges
    report = wps.analyze(wps.HypersurfaceShape((4, 8, 19, 21, 21), 71))
    contained = [v.weights for v in report.strata if v.status == "edge-contained"]
    assert contained == [(4, 8), (8, 19), (19, 21), (19, 21), (21, 21)]
    edge_warnings = [w for w in report.warnings if w.startswith("member contains")]
    assert edge_warnings == [
        "member contains the edge w=(4,8); analysis out of scope",
        "member contains the edge w=(8,19); analysis out of scope",
        "member contains 2 edges w=(19,21); analysis out of scope",
        "member contains the edge w=(21,21); analysis out of scope",
    ]
    assert report.basket is None


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
                "member contains the edge w=(4,8); analysis out of scope",
                "member contains the edge w=(8,19); analysis out of scope",
                "member contains 2 edges w=(19,21); analysis out of scope",
                "member contains the edge w=(21,21); analysis out of scope",
            ),
        ),
        (
            (12, 24, 24, 26, 27),
            108,
            (
                "weights (12, 24, 24, 26, 27) are not well-formed",
                "residues (0, 2, 3) mod 24 are not coprime units: not an isolated terminal cyclic quotient",
                "not quasi-smooth at vertex w=26",
                "edge (12,24): point count 9/2 is not an integer",
                "edge (12,26): point count 9/13 is not an integer",
                "residues (0, 0, 2) mod 3 are not coprime units: not an isolated terminal cyclic quotient",
                "member contains the edge w=(24,24); analysis out of scope",
                "member contains 2 edges w=(24,26); analysis out of scope",
                "edge (24,27): point count 1/2 is not an integer",
            ),
        ),
    ],
)
def test_analyze_gives_each_warning_once(weights, d, expected):
    # coordinates of equal weight fail with equal messages; each is given once
    report = wps.analyze(wps.HypersurfaceShape(weights, d))
    assert report.warnings == expected


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


SINGULARITY_ERRORS = (
    wps.NotQuasiSmoothAtVertex,
    wps.EdgeContained,
    wps.NotGeneral,
    wps.NotTerminalIsolated,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=4, max_size=5),
    st.integers(min_value=1, max_value=19),
)
def test_analyze_and_basket_agree(weights, q):
    d = 0 if len(weights) == 4 else sum(weights) - q
    if len(weights) == 5 and (d <= 0 or not wps.has_monomial(weights, d)):
        return
    shape = wps.HypersurfaceShape(weights, d)
    report = wps.analyze(shape)
    failed = any(v.status not in ("smooth", "off-member", "quotient") for v in report.strata)
    assert (report.basket is None) == failed
    if failed:
        with pytest.raises(SINGULARITY_ERRORS):
            wps.basket(shape)
    else:
        assert report.basket == wps.basket(shape)
    assert len(set(report.warnings)) == len(report.warnings)
    vertices = [v.stratum for v in report.strata if len(v.stratum) == 1]
    assert vertices == [(i,) for i in range(len(weights))]


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
