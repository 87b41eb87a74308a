"""Oracles for the stratum analysis, on the standard library alone.

An oracle that imported qfano could share the fault it is meant to catch
(``test_source_layout.py`` checks the imports). Everything here is read off one
table of monomial counts, and a point's type off a search over units.
"""

import collections
import functools
import itertools
import math
import re
from fractions import Fraction

MAX_WEIGHT = 8  # the census: every shape with weights <= MAX_WEIGHT
ORDER = 30  # the least series order of an analyze report built with no order given
NOT_WELL_FORMED = "not well-formed"
Analysis = collections.namedtuple("Analysis", "strata basket fano_index a3 genus hilbert warnings")


@functools.cache
def monomial_counts(weights: tuple[int, ...], top: int) -> tuple[int, ...]:
    """counts[n]: the monomials of degree n in variables of these weights, for n <= top."""
    counts = [1] + [0] * top
    for w in weights:
        for n in range(w, top + 1):
            counts[n] += counts[n - w]
    return tuple(counts)


@functools.cache
def small_shapes() -> tuple[list, list]:
    """(weights, degree) of the census shapes, and of the empty 5-weight shapes left out."""
    shapes = [(ws, 0) for ws in itertools.combinations_with_replacement(range(1, MAX_WEIGHT + 1), 4)]
    empty = []
    for ws in itertools.combinations_with_replacement(range(1, MAX_WEIGHT + 1), 5):
        counts = monomial_counts(ws, sum(ws))
        for d in range(1, sum(ws)):
            (shapes if counts[d] else empty).append((ws, d))
    return shapes, empty


def point_type(r: int, residues) -> int | None:
    """The least b with 1/r(residues) = 1/r(1, r-1, b) up to b -> r - b, by trying every
    unit u mod r; None where none gives that form (not an isolated terminal point)."""
    residues, best = [x % r for x in residues], None
    if all(math.gcd(x, r) == 1 for x in residues):
        for u in (u for u in range(1, r) if math.gcd(u, r) == 1):
            rest = sorted(u * x % r for x in residues)
            if 1 in rest:
                rest.remove(1)
                if r - 1 in rest:
                    rest.remove(r - 1)
                    best = min(rest[0], r - rest[0], best or r)
    return best


def _counts(ws: tuple[int, ...], stratum, d: int) -> tuple[int, ...]:
    """The monomial counts in the stratum's variables, through d and the report's series."""
    return monomial_counts(tuple(ws[k] for k in stratum), max(d, sum(ws) - d, ORDER))


def qualifiers(ws: tuple[int, ...], d: int, stratum: tuple[int, ...]) -> list[int]:
    """The positions e off the stratum I with a degree-d monomial x_I^M*x_e, M != 0.

    M != 0 is the linear-cone convention, and every verdict here reads it from this one
    rule: an x_e of weight d does not qualify, as in ``wps._walk``, although d/dx_e = 1
    makes such a cone quasi-smooth. CHANGES.md's FOUND line on linear cones counts what it
    costs, and ROADMAP item 1's linear-cone bullet changes it, here in one place.
    """
    counts = _counts(ws, stratum, d)
    return [e for e, w in enumerate(ws) if e not in stratum and d > w and counts[d - w]]


def fails_theorem_8_1(ws: tuple[int, ...], d: int, stratum: tuple[int, ...]) -> bool:
    """Iano-Fletcher's Thm 8.1 ("Working with weighted complete intersections", 2000) fails
    on the set I: no degree-d monomial in x_I alone, and fewer than |I| ``qualifiers``."""
    return not _counts(ws, stratum, d)[d] and len(qualifiers(ws, d, stratum)) < len(stratum)


def theorem_8_1_failures(weights, d: int) -> set[tuple[int, ...]]:
    """Every set of variables, as a position tuple, on which Thm 8.1 fails."""
    ws = tuple(weights)
    subsets = (s for n in range(1, len(ws) + 1) for s in itertools.combinations(range(len(ws)), n))
    return {s for s in subsets if fails_theorem_8_1(ws, d, s)}


def stratum_analysis(weights, d: int) -> Analysis:
    """What ``wps.analyze`` reports for the shape, with no order given.

    ``strata`` lists (stratum, weights, status, (r, b) or None, count) in the walk's order:
    every vertex, every edge, then every plane whose three edges are coprime, lie on the
    member and pass. Thm 8.1 decides, with the linear-cone convention of ``qualifiers``
    (M != 0). A vertex on a member eliminates its first qualifier. An edge whose weights
    share a factor m is a curve of singularities if the member contains it; else its points
    1/m(other weights) number its degree-d monomials less one. ``warnings`` holds
    NOT_WELL_FORMED if the weights are not well formed, then, in the walk's order, the
    numbers each distinct failure quotes: the stratum's weights, or a point's residues and r.
    """
    ws, strata, failures = tuple(sorted(weights)), [], {}

    def verdict(stratum, status, count=0, r=0, off=()):
        point = key = None
        if r:  # count points 1/r(the weights off the stratum and the eliminated variable)
            residues = tuple(w % r for k, w in enumerate(ws) if k not in off)
            b = point_type(r, residues)
            status, point, key = ("quotient", (r, b), None) if b else (status, None, (*residues, r))
        strata.append((stratum, tuple(ws[k] for k in stratum), status, point, count))
        if status not in ("smooth", "off-member", "quotient"):
            failures[status, key or strata[-1][1]] = None

    for i, w in enumerate(ws):
        if not d and w == 1:
            verdict((i,), "smooth")
        elif not d:
            verdict((i,), "not-terminal-isolated", 1, w, (i,))
        elif _counts(ws, (i,), d)[d]:
            verdict((i,), "off-member")
        elif eliminated := qualifiers(ws, d, (i,)):
            verdict((i,), "not-terminal-isolated", 1, w, (i, eliminated[0]))
        else:
            verdict((i,), "not-quasi-smooth")
    passed = set()  # the coprime edges on the member that pass
    for edge in itertools.combinations(range(len(ws)), 2):
        m, monomials = math.gcd(*(ws[k] for k in edge)), _counts(ws, edge, d)[d]
        if m > 1 and not (d and monomials):
            verdict(edge, "singular-edge")
        elif not monomials and fails_theorem_8_1(ws, d, edge):
            verdict(edge, "not-quasi-smooth")
        elif not monomials:
            passed.add(edge)
        elif m > 1 and monomials > 1:
            verdict(edge, "not-terminal-isolated", monomials - 1, m, edge)
    for plane in itertools.combinations(range(len(ws)), 3):
        if passed.issuperset(itertools.combinations(plane, 2)) and fails_theorem_8_1(ws, d, plane):
            verdict(plane, "not-quasi-smooth")
    q, counts = sum(ws) - d, _counts(ws, range(len(ws)), d)
    hilbert = tuple(counts[n] - (d and n >= d and counts[n - d]) for n in range(max(q, ORDER) + 1))
    basket = sum((collections.Counter({p: n}) for *_, p, n in strata if p), collections.Counter())
    basket = None if failures else tuple(sorted(basket.items()))
    genus = hilbert[q] - 2 if q > 0 else None  # analyze refuses q <= 0: NotFano
    well_formed = all(math.gcd(*ws[:k], *ws[k + 1 :]) == 1 for k in range(len(ws)))
    warnings = [NOT_WELL_FORMED] * (not well_formed) + [numbers for _, numbers in failures]
    return Analysis(strata, basket, q, Fraction(d or 1, math.prod(ws)), genus, hilbert, warnings)


def mismatches(report) -> list[str]:
    """The fields of an ``analyze`` report built with no order given that differ from the
    oracle's. A warning matches where it is the well-formedness one, or where it quotes the
    oracle's numbers for that place before any other number; its wording is not compared."""
    expected = stratum_analysis(report.shape.weights, report.shape.degree)
    basket = None if report.basket is None else report.basket.entries
    quoted = []  # each warning's numbers, cut to the length of the oracle's in its place
    for w, key in itertools.zip_longest(report.warnings, expected.warnings, fillvalue=""):
        numbers = tuple(map(int, re.findall(r"\d+", w)))
        quoted.append(NOT_WELL_FORMED if w.endswith(NOT_WELL_FORMED) else numbers[: len(key)])
    found = Analysis(list(report.strata), basket, report.fano_index, report.a3, report.genus,
                     report.hilbert.coefficients, quoted)
    return [field for field, a, b in zip(Analysis._fields, found, expected) if a != b]
