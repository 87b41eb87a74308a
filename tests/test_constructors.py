"""Every public constructor and kernel entry point refuses a bad argument at the call.

Each slot that holds an int is fed a float, a str and a ``Fraction`` of the
int that belongs there, and its negative where a negative is not a legitimate
value. Each entry point is also fed wrong-length and wrong-type elements.
Every one must raise ``TypeError`` or ``ValueError`` right there, never be
accepted and fail later. A stratum index outside 0..n-1, or an edge that
names one index twice, is refused with a plain ``ValueError`` naming it,
and a degree or truncation order that is not an int with the
``TypeError`` of ``operator.index``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from qfano import normal_form as nf
from qfano import riemann_roch as rr
from qfano import sarkisov as sk
from qfano import series, wps
from qfano.fixtures import FORM_A, X12_SHAPE

WS = (3, 4, 5, 6, 7)
POINT = wps.QuotientType(5, 2)
ENTRY = rr.RRBasketEntry(5, 2, 2)
ZERO = nf.WeightedPolynomial(WS)
ALPHA = Fraction(1, 5)
P5 = sk.CASES["P5"]
CANDIDATE = sk.LinkCandidate(P5, ALPHA, 7, 4, True)
X3_4 = (4, 0, 0, 0, 0)  # the exponent of x3^4
POLY = nf.parse(FORM_A)

# slot: (call with the value in that slot, the int that belongs there, whether
# its negative is refused; a series coefficient may be negative)
INT_SLOTS = {
    "HypersurfaceShape weight": (lambda v: wps.HypersurfaceShape((v, 4, 5, 6, 7), 12), 3, True),
    "HypersurfaceShape degree": (lambda v: wps.HypersurfaceShape(WS, v), 12, True),
    "QuotientType r": (lambda v: wps.QuotientType(v, 2), 5, True),
    "QuotientType b": (lambda v: wps.QuotientType(5, v), 2, True),
    "Basket multiplicity": (lambda v: wps.Basket(((POINT, v),)), 1, True),
    "FanoData q": (lambda v: rr.FanoData(v, Fraction(1, 210), (ENTRY,)), 13, True),
    "calibrated_data order": (lambda v: rr.calibrated_data(X12_SHAPE, v), 24, True),
    "RRBasketEntry r": (lambda v: rr.RRBasketEntry(v, 2, 2), 5, True),
    "RRBasketEntry b": (lambda v: rr.RRBasketEntry(5, v, 2), 2, True),
    "RRBasketEntry wa": (lambda v: rr.RRBasketEntry(5, 2, v), 2, True),
    "PowerSeries coefficient": (lambda v: series.PowerSeries((1, v)), 1, False),
    "WeightedPolynomial weight": (lambda v: nf.WeightedPolynomial((v, 4, 5, 6, 7)), 3, True),
    "WeightedPolynomial exponent": (
        lambda v: nf.WeightedPolynomial(WS, {(v, 0, 0, 0, 0): 1}), 4, True
    ),
    "Substitution weight": (lambda v: nf.Substitution((v, 4, 5, 6, 7), {}), 3, True),
    "Substitution position": (lambda v: nf.Substitution(WS, {v: (2, ZERO)}), 1, True),
    "LinkCandidate qhat": (lambda v: sk.LinkCandidate(P5, ALPHA, v, 4, True), 7, True),
    "LinkCandidate e": (lambda v: sk.LinkCandidate(P5, ALPHA, 7, v, True), 4, True),
    "LinkCandidate qhat by _replace": (lambda v: CANDIDATE._replace(qhat=v), 7, True),
    "LinkCandidate e by _replace": (lambda v: CANDIDATE._replace(e=v), 4, True),
    "torsion_table qhat": (lambda v: sk.torsion_table(v), 5, True),
    "product_coefficients numerator": (
        lambda v: series.product_coefficients((v,), (1,), 5), 2, True
    ),
    "product_coefficients denominator": (
        lambda v: series.product_coefficients((), (v,), 5), 1, True
    ),
    "product_coefficients order": (lambda v: series.product_coefficients((), (1,), v), 5, True),
    "expand_product numerator": (lambda v: series.expand_product((v,), (1,), 5), 2, True),
    "expand_product denominator": (lambda v: series.expand_product((), (v,), 5), 1, True),
    "expand_product order": (lambda v: series.expand_product((), (1,), v), 5, True),
    "partition_count part": (lambda v: series.partition_count((v, 4), 12), 3, True),
    "partition_count n": (lambda v: series.partition_count((3, 4), v), 12, True),
    "has_monomial weight": (lambda v: wps.has_monomial((v, 4), 12), 3, True),
    "has_monomial degree": (lambda v: wps.has_monomial((3, 4), v), 12, True),
    "monomial_count weight": (lambda v: wps.monomial_count((v, 4), 12), 3, True),
    "monomial_count degree": (lambda v: wps.monomial_count((3, 4), v), 12, True),
    "monomials degree": (lambda v: wps.monomials((3, 4), v), 12, True),
    "vertex_singularity index": (lambda v: wps.vertex_singularity(X12_SHAPE, v), 2, True),
    "edge_singularities i": (lambda v: wps.edge_singularities(X12_SHAPE, v, 3), 1, True),
    "edge_singularities j": (lambda v: wps.edge_singularities(X12_SHAPE, 1, v), 3, True),
    "edge_restriction_points i": (lambda v: nf.edge_restriction_points(POLY, v, 3), 1, True),
    "edge_restriction_points j": (lambda v: nf.edge_restriction_points(POLY, 1, v), 3, True),
    "is_quasihomogeneous degree": (lambda v: nf.is_quasihomogeneous(POLY, v), 12, False),
}

BAD_INTS = [
    (f"{slot} {kind}", call, bad)
    for slot, (call, good, negative) in INT_SLOTS.items()
    for kind, bad in (
        ("float", float(good)),
        ("str", str(good)),
        ("Fraction", Fraction(good)),
        ("negative", -good),
    )
    if negative or kind != "negative"
]

BAD_ELEMENTS = {
    "HypersurfaceShape four weights": lambda: wps.HypersurfaceShape((3, 4, 5, 6), 12),
    "HypersurfaceShape tuple weight": lambda: wps.HypersurfaceShape(((3,), 4, 5, 6, 7), 12),
    "HypersurfaceShape int weights": lambda: wps.HypersurfaceShape(3, 12),
    "basket plain tuple shape": lambda: wps.basket(tuple(X12_SHAPE)),
    "calibrated_data plain tuple shape": lambda: rr.calibrated_data(tuple(X12_SHAPE)),
    "run_case int name": lambda: sk.run_case(5),
    "weight_system one weight": lambda: wps.weight_system((3,)),
    "QuotientType None": lambda: wps.QuotientType(None, 2),
    "Basket short entry": lambda: wps.Basket(((POINT,),)),
    "Basket long entry": lambda: wps.Basket(((POINT, 1, 1),)),
    "Basket int point": lambda: wps.Basket(((5, 1),)),
    "Basket str entry": lambda: wps.Basket(("ab",)),
    "FanoData tuple entry": lambda: rr.FanoData(13, Fraction(1, 210), ((5, 2, 3),)),
    "FanoData QuotientType entry": lambda: rr.FanoData(13, Fraction(1, 210), (POINT,)),
    "FanoData float A3": lambda: rr.FanoData(13, 0.5, ()),
    "FanoData str A3": lambda: rr.FanoData(13, "1/210", ()),
    "FanoData negative A3": lambda: rr.FanoData(13, Fraction(-1, 210), ()),
    "RRBasketEntry None": lambda: rr.RRBasketEntry(5, None, 2),
    "PowerSeries empty": lambda: series.PowerSeries(()),
    "PowerSeries int": lambda: series.PowerSeries(5),
    "PowerSeries None coefficient": lambda: series.PowerSeries((1, None)),
    "WeightedPolynomial four-entry exponent": lambda: nf.WeightedPolynomial(WS, {(4, 0, 0, 0): 1}),
    "WeightedPolynomial int exponent": lambda: nf.WeightedPolynomial(WS, {4: 1}),
    "WeightedPolynomial float coefficient": lambda: nf.WeightedPolynomial(WS, {X3_4: 1.0}),
    "WeightedPolynomial str coefficient": lambda: nf.WeightedPolynomial(WS, {X3_4: "1"}),
    "WeightedPolynomial list of exponents": lambda: nf.WeightedPolynomial(WS, [X3_4]),
    "Substitution str shift": lambda: nf.Substitution((3, 4), {0: (2, "x")}),
    "Substitution short rule": lambda: nf.Substitution(WS, {0: (2,)}),
    "Substitution long rule": lambda: nf.Substitution(WS, {0: (2, ZERO, 1)}),
    "Substitution float coefficient": lambda: nf.Substitution(WS, {0: (2.0, ZERO)}),
    "Substitution str coefficient": lambda: nf.Substitution(WS, {0: ("2", ZERO)}),
    "product_coefficients tuple exponent": lambda: series.product_coefficients(((2,),), (1,), 5),
    "product_coefficients int numerator": lambda: series.product_coefficients(2, (1,), 5),
    "expand_product tuple exponent": lambda: series.expand_product((), ((1,),), 5),
    "has_monomial tuple weight": lambda: wps.has_monomial(((3,), 4), 12),
    "has_monomial int weights": lambda: wps.has_monomial(3, 12),
    "monomial_count tuple weight": lambda: wps.monomial_count(((3,), 4), 12),
}

# each LinkCandidate refusal as (field, value), made at the constructor and again by _replace
BAD_CANDIDATE_FIELDS = {
    "unknown case": ("case", "P9"),
    "int case": ("case", 5),
    "case name": ("case", "P5"),
    "str birational": ("birational", "yes"),
    "None birational": ("birational", None),
    "float alpha": ("alpha", 0.2),
    "str alpha": ("alpha", "1/5"),
    "negative alpha": ("alpha", -ALPHA),
    "zero alpha": ("alpha", Fraction(0)),
    "inadmissible qhat": ("qhat", 10),
}
for kind, (field, bad) in BAD_CANDIDATE_FIELDS.items():
    fields = CANDIDATE._asdict() | {field: bad}
    BAD_ELEMENTS[f"LinkCandidate {kind}"] = lambda fields=fields: sk.LinkCandidate(**fields)
    BAD_ELEMENTS[f"LinkCandidate {kind} by _replace"] = (
        lambda field=field, bad=bad: CANDIDATE._replace(**{field: bad})
    )

# call: the indices as its refusal names them
BAD_INDICES = {
    "vertex_singularity -1": (lambda: wps.vertex_singularity(X12_SHAPE, -1), "vertex index -1"),
    "vertex_singularity 5": (lambda: wps.vertex_singularity(X12_SHAPE, 5), "vertex index 5"),
    "edge_singularities (1, 1)": (lambda: wps.edge_singularities(X12_SHAPE, 1, 1), "edge (1, 1)"),
    "edge_singularities (0, 0) of P(1,3,4,5)": (
        lambda: wps.edge_singularities(wps.HypersurfaceShape((1, 3, 4, 5)), 0, 0), "edge (0, 0)"
    ),
    "edge_restriction_points (1, 1)": (
        lambda: nf.edge_restriction_points(POLY, 1, 1), "edge (1, 1)"
    ),
    "edge_restriction_points (-1, 2)": (
        lambda: nf.edge_restriction_points(POLY, -1, 2), "edge (-1, 2)"
    ),
}

# call: its refusal; in range, but sharing a factor with the index r = 4
NOT_UNITS = {
    "QuotientType b=2": (lambda: wps.QuotientType(4, 2), "b=2 invalid for index 4"),
    "RRBasketEntry wa=2": (lambda: rr.RRBasketEntry(4, 1, 2), "wA=2 must be a unit mod 4"),
}

# a degree or truncation order that is not an int; each is read through operator.index
NOT_INT_ORDERS = {
    "is_quasihomogeneous 12.0": lambda: nf.is_quasihomogeneous(POLY, 12.0),
    "corner_check '12'": lambda: nf.corner_check(POLY, "12"),
    "analyze 5.0": lambda: wps.analyze(X12_SHAPE, 5.0),
    "hilbert 5.0": lambda: wps.hilbert(X12_SHAPE, 5.0),
    "monomial_count 12.0": lambda: wps.monomial_count((3, 4), 12.0),
    "calibrated_data 50.0": lambda: rr.calibrated_data(X12_SHAPE, 50.0),
    "hilbert_rr 5.0": lambda: rr.hilbert_rr(rr.FanoData(13, Fraction(1, 210), (ENTRY,)), 5.0),
    "product_coefficients 5.0": lambda: series.product_coefficients((), (1,), 5.0),
    "expand_product Fraction(5)": lambda: series.expand_product((), (1,), Fraction(5)),
    "partition_count Fraction(12)": lambda: series.partition_count((3, 4), Fraction(12)),
}


@pytest.mark.parametrize("slot", list(INT_SLOTS))
def test_the_int_that_belongs_in_each_slot_is_accepted(slot):
    call, good, _ = INT_SLOTS[slot]
    call(good)


@pytest.mark.parametrize("call,bad", [c[1:] for c in BAD_INTS], ids=[c[0] for c in BAD_INTS])
def test_a_float_str_fraction_or_negative_int_is_refused_at_the_call(call, bad):
    with pytest.raises((TypeError, ValueError)):
        call(bad)


@pytest.mark.parametrize("call", list(BAD_ELEMENTS.values()), ids=list(BAD_ELEMENTS))
def test_a_wrong_length_or_wrong_type_element_is_refused_at_the_call(call):
    with pytest.raises((TypeError, ValueError)):
        call()


@pytest.mark.parametrize("call,named", list(BAD_INDICES.values()), ids=list(BAD_INDICES))
def test_a_stratum_index_out_of_range_or_repeated_is_refused_by_name(call, named):
    with pytest.raises(ValueError) as refused:
        call()
    # a plain ValueError, not a stratum failure such as NotQuasiSmoothAtVertex
    assert refused.type is ValueError and named in str(refused.value)


@pytest.mark.parametrize("call,refusal", list(NOT_UNITS.values()), ids=list(NOT_UNITS))
def test_a_residue_sharing_a_factor_with_the_index_is_refused(call, refusal):
    with pytest.raises(ValueError, match=refusal):
        call()


@pytest.mark.parametrize("call", list(NOT_INT_ORDERS.values()), ids=list(NOT_INT_ORDERS))
def test_a_degree_or_order_that_is_not_an_int_is_refused_as_one(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()
