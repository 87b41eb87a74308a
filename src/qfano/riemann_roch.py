"""Orbifold Riemann-Roch over a terminal Fano threefold, driven by calibration.

For numerical data (q, A^3, basket with local A-weights, chi(O) = 1) the
Euler characteristic of mA is

    chi(mA) = 1 + m(m+q)(2m+q) A^3 / 12 + m (A.c2) / 12
                + sum over basket points of c_{r,b}((m wA) mod r),

with the periodic per-point correction

    c_{r,b}(i) = -i (r^2 - 1) / (12 r)
                 + sum_{j=1}^{i-1} (jb mod r)(r - jb mod r) / (2 r)

and A.c2 fixed by 24 chi(O) = q (A.c2) + sum (r - 1/r).

Evaluation is in plain integers over one common denominator

    D = lcm(12 den(A^3), 12 den(A.c2), 12 r for each basket point),

so that every term of D chi(mA) is an integer:

    D chi(mA) = D chi(O) + C m(m+q)(2m+q) + L m + sum T_P[(m wA) mod r],

with C = D A^3 / 12, L = D (A.c2) / 12 and, per point P, the table
T_P[i] = D c_{r,b}(i) filled by the prefix recurrence
T_P[i+1] = T_P[i] - D (r^2 - 1) / (12 r) + (ib mod r)(r - ib mod r) D / (2 r).
``_chi_totals`` gives D and D chi(mA) over a range start <= m < stop at once (its comments
say how), for any integer m and any A^3; A^3 = 0 leaves the basket part D + L m + sum T_P.
``_chi_values``, its one caller, divides by D and alone refuses a non-integral chi(mA).
``chi`` and ``hilbert_rr`` are its ranges [m, m+1) and [0, order]; ``hilbert_rr`` keeps the
longest per ``FanoData`` in a ``series.memo``, by ``series.kept_prefix``; a shorter one slices it.
``a_c2`` is one Fraction over L = lcm(r), (24 L - sum (r^2-1) L/r) / (q L);
the tests keep A.c2 and c_{r,b} in their stated forms as the oracles.

The correction is symmetric in b <-> r-b, so the type parameter can be fed
in either orientation; the local weight wA of the class A is what carries
orientation. Since qA = -K, the class of A against the canonical-class
trivialization is determined up to one global sign: wA = (+-q)^{-1} mod r.
That sign is the classic bug source. The convention is q * wA = -1 mod r
at every point (``orientation_sign`` is -1); wA exists, as q is a unit mod each r
that ``wps.basket`` accepts (see there). ``calibrated_data`` is the one place
that builds it, and ``calibrate`` confirms it instead of trusting it:
the Riemann-Roch series of the data must equal a closed-form oracle, and
finitely many terms decide that. chi(mA) is a cubic in m plus a term of period
r per point, so that series is N / ((1-t)^4 prod(1-t^r)) over the distinct r,
deg N <= 3 + sum r; the oracle prod(1-t^d) / prod(1-t^w) has d < sum w. Their
difference is a numerator of degree <= 3 + sum r + sum w over a denominator
with constant term 1, so its first nonzero coefficient is the numerator's
lowest: agreement through t^(3 + sum r + sum w) (X12: t^45) is equality.
``calibrated_data`` compares each shape once, that far, and keeps its data in a
``series.memo``: every order is then met, so ``order`` only has to be an int >= 0.

Higher cohomology of mA is assumed to vanish for m >= 0, so Hilbert series
coefficients are identified with chi(mA); that is not verified here.

``infer_generators`` and ``relation_profile`` read a Hilbert series as a
graded ring: each compares a coefficient with the free-algebra count on
generator degrees, ``wps.monomial_count``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, cycle, islice, repeat

from . import wps
from .series import PowerSeries, keep, kept_prefix, memo, series_equal_upto
from .wps import ALLOWED_FANO_INDICES


class ConventionError(ValueError):
    """Basket data that breaks the wA convention or gives a non-integral chi(mA)."""


class CalibrationError(ValueError):
    """``calibrate`` found the data's series non-integral or off the oracle."""


class InconsistentSeries(ValueError):
    """A series that no graded domain with R_0 = k, or none on the given generators, has."""


@dataclass(frozen=True)  # bench/test_bench.py calls dataclasses.replace on it
class RRBasketEntry:
    """One basket point 1/r(1, r-1, b) with the residue wA of the class A.

    wA is measured against the trivialization in which the correction
    formula lives; since qA = -K it satisfies q * wA = +-1 (mod r) with a
    single global sign shared by the whole basket.
    """

    r: int
    b: int
    wa: int

    def __post_init__(self) -> None:
        wps.QuotientType(self.r, self.b)  # the rule for (r, b) is the quotient point's
        if not (1 <= self.wa < self.r and math.gcd(self.wa, self.r) == 1):
            raise ValueError(f"wA={self.wa} must be a unit mod {self.r}")


def orientation_sign(q: int, entries: tuple[RRBasketEntry, ...]) -> int | None:
    """The global sign s with q*wA = s (mod r) across all entries.

    Entries of index 2 carry no sign information. Returns None when nothing
    pins the sign, raises ConventionError when entries disagree or some
    entry satisfies neither sign. Calibrated data always comes out with
    sign -1, i.e. wA = -q^{-1} mod r.
    """
    sign: int | None = None
    for entry in entries:
        if entry.r <= 2:
            continue
        plus = (q * entry.wa - 1) % entry.r == 0
        minus = (q * entry.wa + 1) % entry.r == 0
        if not plus and not minus:
            raise ConventionError(
                f"entry (r={entry.r}, b={entry.b}, wA={entry.wa}) violates "
                f"q*wA = +-1 (mod r) for q={q}"
            )
        this = 1 if plus else -1
        if sign is None:
            sign = this
        elif sign != this:
            raise ConventionError(
                f"inconsistent orientation signs across basket entries for q={q}"
            )
    return sign


@dataclass(frozen=True)  # bench/test_bench.py calls dataclasses.replace on it
class FanoData:
    """Input to the Riemann-Roch evaluation; chi(O) is fixed at 1."""

    q: int
    a3: Fraction
    entries: tuple[RRBasketEntry, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.a3, (int, Fraction)):
            raise TypeError(f"A^3 must be an int or a Fraction, got {self.a3!r}")
        object.__setattr__(self, "q", operator.index(self.q))
        object.__setattr__(self, "a3", Fraction(self.a3))
        object.__setattr__(self, "entries", tuple(self.entries))
        if not all(isinstance(entry, RRBasketEntry) for entry in self.entries):
            raise TypeError(f"basket entries must be RRBasketEntry, got {self.entries!r}")
        if self.q not in ALLOWED_FANO_INDICES:
            raise ValueError(f"Fano index {self.q} outside the allowed set")
        if self.a3 <= 0:
            raise ValueError("A^3 must be positive")
        orientation_sign(self.q, self.entries)  # raises when inconsistent


def a_c2(data: FanoData) -> Fraction:
    """A.c2 from 24 chi(O) = q (A.c2) + sum over points of (r - 1/r), over lcm(r)."""
    lcm = math.lcm(*(e.r for e in data.entries))
    return Fraction(24 * lcm - sum((e.r**2 - 1) * (lcm // e.r) for e in data.entries), data.q * lcm)


def _chi_totals(data, start: int, stop: int) -> tuple[int, list[int]]:
    """D and the integers D chi(mA) for start <= m < stop (module doc); data is read for q,
    a3 and the entries' r, b and wa, so a plain record with A^3 = 0 gives the basket part."""
    q, a3, ac2 = data.q, data.a3, a_c2(data)
    den = math.lcm(12 * a3.denominator, 12 * ac2.denominator, *(12 * e.r for e in data.entries))
    cubic = den // (12 * a3.denominator) * a3.numerator
    linear = den // (12 * ac2.denominator) * ac2.numerator
    v0, v1, v2, v3 = (
        den + cubic * m * (m + q) * (2 * m + q) + linear * m for m in range(start, start + 4)
    )
    # a cubic's third difference is constant: three running sums rebuild it
    rises = accumulate(repeat(v3 - 3 * v2 + 3 * v1 - v0), initial=v2 - 2 * v1 + v0)
    cubics = islice(accumulate(accumulate(rises, initial=v1 - v0), initial=v0), stop - start)
    # the corrections repeat with the basket's period lcm(r): one period, or the whole
    # range where that is shorter, is summed point by point and cycled along the range
    corrections = repeat(0, min(math.lcm(*(e.r for e in data.entries)), stop - start))
    for e in data.entries:
        r, b = e.r, e.b
        step = (r * r - 1) * (den // (12 * r))
        half = den // (2 * r)
        table = [0]
        for i in range(r - 1):
            ib = (i * b) % r
            table.append(table[-1] - step + ib * (r - ib) * half)
        period = [table[(m * e.wa) % r] for m in range(start, start + r)]
        corrections = map(operator.add, corrections, cycle(period))
    return den, list(map(operator.add, cubics, cycle(corrections)))


def _chi_values(data: FanoData, start: int, stop: int) -> tuple[int, ...]:
    """chi(mA) for start <= m < stop; ConventionError at the first non-integral one."""
    den, totals = _chi_totals(data, start, stop)
    values = tuple(map(operator.floordiv, totals, repeat(den)))
    # every remainder is in [0, D), so the sums agree only when each remainder is 0
    if sum(totals) != den * sum(values):
        m, total = next((m, t) for m, t in enumerate(totals, start) if t % den)
        raise ConventionError(
            f"chi({m}A) = {Fraction(total, den)} is not an integer: wrong (b, wA) assignment"
        )
    return values


def chi(data: FanoData, m: int) -> int:
    """chi(X, mA) as an integer; ConventionError when the total is fractional."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _chi_values(data, m, m + 1)[0]


_SERIES_MEMO: dict[FanoData, tuple[int, ...]] = memo()  # chi(0A), chi(1A), ... per data


def hilbert_rr(data: FanoData, order: int) -> PowerSeries:
    """Termwise chi as a power series through t^order."""
    chis = kept_prefix(_SERIES_MEMO, data, order, lambda fano, n: _chi_values(fano, 0, n + 1))
    return PowerSeries._of_ints(chis)


def calibrate(data: FanoData, oracle: PowerSeries) -> None:
    """Check the data's Riemann-Roch series against a closed-form one, through its order.

    A non-integral chi(mA), or a mismatch at its first t^m, raises CalibrationError.
    """
    try:
        series = hilbert_rr(data, oracle.order)
    except ConventionError as exc:
        raise CalibrationError(f"Riemann-Roch data rejected: {exc}") from exc
    equal, m = series_equal_upto(series, oracle, oracle.order)
    if not equal:
        raise CalibrationError(f"Riemann-Roch series differs from the oracle at t^{m}")


_CALIBRATED: dict[wps.HypersurfaceShape, FanoData] = memo()  # one per shape, compared once


def calibrated_data(shape: wps.HypersurfaceShape, order: int = 0) -> FanoData:
    """A shape's Riemann-Roch data, proved equal to its closed-form series.

    Each basket point 1/r(1, r-1, b) gets wA = -q^{-1} mod r (module doc). The basket
    stores b = min(b, r-b) sorted by (r, b), and wA depends on r alone, so the entries
    come out canonical and sorted. Agreement through t^(3 + sum of the distinct r + sum w)
    is equality (module doc), so each shape is compared once and its data kept.
    ``order`` is the least order the caller needs. Every order is met. Must be an int >= 0.
    """
    if not isinstance(shape, wps.HypersurfaceShape):  # as wps.basket refuses one
        raise TypeError(f"a shape is a HypersurfaceShape, not a {type(shape).__name__}")
    if operator.index(order) < 0:  # refused before the lookup, as kept_prefix refuses it
        raise ValueError("truncation order must be >= 0")
    if kept := _CALIBRATED.get(shape):
        return kept
    q = wps.fano_index(shape)
    entries = tuple(RRBasketEntry(p.r, p.b, pow(-q, -1, p.r)) for p in wps.basket(shape).points())
    data = FanoData(q, wps.degree_a3(shape), entries)
    calibrate(data, wps.hilbert(shape, 3 + sum({e.r for e in entries}) + sum(shape.weights)))
    return keep(_CALIBRATED, shape, data)


def infer_generators(series: PowerSeries) -> tuple[tuple[int, ...], int | None]:
    """Greedy generator degrees from a Hilbert series, plus first relation degree.

    Generators of degree m are added while the coefficient exceeds the
    free-algebra count on the generators found so far; the first m where
    the free count exceeds the coefficient is the first relation degree
    (None if no relation shows up within the truncation).
    """
    coeffs = series.coefficients
    if coeffs[0] != 1:
        raise InconsistentSeries(f"series starts with {coeffs[0]}, expected 1")
    if any(c < 0 for c in coeffs):
        raise InconsistentSeries("negative coefficient in a Hilbert series")
    generators: list[int] = []
    for m in range(1, series.order + 1):
        deficit = coeffs[m] - wps.monomial_count(generators, m)
        if deficit < 0:
            return tuple(generators), m
        generators += [m] * deficit
    return tuple(generators), None


# at one degree: the free monomial count, the Hilbert series coefficient, their difference
RelationProfile = namedtuple("RelationProfile", "monomials dimension relations")


def relation_profile(weights, d: int, series: PowerSeries) -> RelationProfile:
    """Free monomial count on generators of these weights vs the series at degree d."""
    dim = series[d]  # first, so that a degree past the series costs no monomial count
    count = wps.monomial_count(weights, d)
    if count < dim:
        raise InconsistentSeries(
            f"degree {d}: series coefficient {dim} exceeds the {count} monomials"
        )
    return RelationProfile(count, dim, count - dim)
