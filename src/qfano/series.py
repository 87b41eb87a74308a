"""Exact truncated power series over the integers, and product-form expansion.

A series is an integer sequence: the Hilbert series of a weighted
hypersurface and chi(mA) from orbifold Riemann-Roch are integral term by
term, so ``PowerSeries`` holds ints and refuses anything else. A series
stores its first ``order + 1`` coefficients, and every operation takes the
truncation order explicitly, as an int. Kernel-built series skip the
re-scan (``PowerSeries._of_ints``: ``expand_product``, ``truncate``,
``riemann_roch.hilbert_rr``). Only ``wps.analyze`` and the CLI fall back
to ``DEFAULT_ORDER`` (30) when none is given; calibration compares
through a depth derived from the data (t^45 for X12). ``MAX_ORDER`` caps
the series the package expands for a caller: the CLI's ``--terms`` and
the index q to which ``wps.analyze`` and ``wps.genus`` expand.

The workhorse, ``product_coefficients(numerator, denominator, order)``,
takes two plain tuples of exponents and expands the quotient of
cyclotomic-style products

    prod_a (1 - t^a) / prod_b (1 - t^b)

to a chosen order in plain integer arithmetic: every coefficient of such a
product is an integer. With numerator (d,) and the coordinate weights as
denominator this is the Hilbert series of a degree-d hypersurface in a
weighted projective space, e.g.

    (1 - t^12) / ((1-t^3)(1-t^4)(1-t^5)(1-t^6)(1-t^7))
        = 1 + t^3 + t^4 + t^5 + 2t^6 + 2t^7 + ...

With an empty numerator the t^d coefficient counts the degree-d monomials
in variables of those weights, which is how ``wps`` counts monomials
without listing them and ``riemann_roch`` counts the free algebra on a
set of generator degrees. The kernel keeps the longest expansion per pair
by the one process memo policy, defined here and used by ``wps.basket``,
``riemann_roch.hilbert_rr`` and ``riemann_roch.calibrated_data`` too: ``keep``
holds ``MEMO_KEYS`` values per memo, dropping the oldest first, and
``kept_prefix`` keeps no series past ``MEMO_ORDER``.

``partition_count`` recounts the same coefficients by exhaustive recursion,
free of any series machinery on purpose, and is kept as the oracle of
``bench/oracle.py``. The test suite's oracles live in ``tests/oracles.py``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

DEFAULT_ORDER = 30
MAX_ORDER = 10**6  # the longest series expanded on request
MEMO_KEYS = 16  # the values a process memo keeps, the oldest dropped first
MEMO_ORDER = 1000  # the longest series kept: at order 10^6 one holds about 40 MB
_PRODUCTS: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}


class TruncationError(ValueError):
    """An operation needs more coefficients than a series holds."""


class PowerSeries:
    """A truncated formal series sum_{m<=order} c_m t^m with int coefficients.

    Read-only, and equal and hashed by its coefficients. A plain class, so that no
    command loads ``dataclasses`` for it; a tuple base would make len, iteration
    and + tuple operations.
    """

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients) -> None:
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        if not set(map(type, coeffs)) <= {int}:
            m = next(m for m, c in enumerate(coeffs) if type(c) is not int)
            raise ValueError(f"coefficient of t^{m} is {coeffs[m]!r}, not an int")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _of_ints(cls, coeffs: tuple[int, ...]) -> PowerSeries:
        series = object.__new__(cls)
        object.__setattr__(series, "coefficients", coeffs)
        return series

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a PowerSeries")

    def __eq__(self, other) -> bool:
        if type(other) is not PowerSeries:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"PowerSeries(coefficients={self.coefficients!r})"

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, m: int) -> int:
        if m < 0:
            raise ValueError(f"coefficient of t^{m} requested: the index is negative")
        if m > self.order:
            raise TruncationError(
                f"coefficient of t^{m} requested, series truncated at order {self.order}"
            )
        return self.coefficients[m]

    def truncate(self, order: int) -> "PowerSeries":
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if order > self.order:
            raise TruncationError(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return PowerSeries._of_ints(self.coefficients[: order + 1])


def keep(memo: dict, key, value):
    """Store value as the memo's newest entry, dropping its oldest past MEMO_KEYS; return it."""
    memo.pop(key, None)
    if len(memo) >= MEMO_KEYS:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def kept_prefix(memo: dict, key, order: int, expand) -> tuple[int, ...]:
    """Terms 0..order of key's series: sliced from the longest kept, else expand(key, order)."""
    order = operator.index(order)
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if len(values := memo.get(key, ())) <= order:  # a raise in expand stores nothing
        values = expand(key, order) if order > MEMO_ORDER else keep(memo, key, expand(key, order))
    return values[: order + 1]


def product_coefficients(numerator, denominator, order: int) -> tuple[int, ...]:
    """Integer coefficients of prod_a (1-t^a) / prod_b (1-t^b) through t^order.

    ``numerator`` and ``denominator`` hold the exponents a and b, each an
    int >= 1; repeats are allowed on both sides, as weights repeat in
    systems like P(1,1,2,3); each is read once. O((len(numerator) +
    len(denominator)) * order) integer steps, or a slice of a kept expansion.
    """
    numerator, denominator = tuple(numerator), tuple(denominator)
    for a in numerator + denominator:
        if operator.index(a) < 1:
            raise ValueError(f"factor exponent {a} must be >= 1")
    return kept_prefix(_PRODUCTS, (numerator, denominator), order, _expand)


def _expand(pair: tuple[tuple[int, ...], tuple[int, ...]], order: int) -> tuple[int, ...]:
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for a in pair[0]:
        for m in range(order, a - 1, -1):
            coeffs[m] -= coeffs[m - a]
    for b in pair[1]:
        # multiply by 1/(1-t^b): prefix recurrence c[m] += c[m-b]
        for m in range(b, order + 1):
            coeffs[m] += coeffs[m - b]
    return tuple(coeffs)


def expand_product(numerator, denominator, order: int) -> PowerSeries:
    """Expand prod_a (1-t^a) / prod_b (1-t^b) through t^order, exactly."""
    return PowerSeries._of_ints(product_coefficients(numerator, denominator, order))


def partition_count(parts: Iterable[int], n: int) -> int:
    """How many ways to write n as a sum drawn from `parts`, by brute recursion.

    `parts` is a multiset: repeated entries count as distinguishable part
    kinds, matching the generating function prod 1/(1-t^p). This is the
    independent oracle for product_coefficients and is deliberately naive.
    """
    if operator.index(n) < 0:
        raise ValueError("n must be >= 0")
    items = tuple(sorted(map(operator.index, parts), reverse=True))
    for p in items:
        if p < 1:
            raise ValueError(f"part {p} must be >= 1")

    cache: dict[tuple[int, int], int] = {}

    def count(i: int, rem: int) -> int:
        if rem == 0:
            return 1
        if i == len(items):
            return 0
        key = (i, rem)
        if key not in cache:
            p = items[i]
            total = 0
            taken = 0
            while taken <= rem:
                total += count(i + 1, rem - taken)
                taken += p
            cache[key] = total
        return cache[key]

    return count(0, n)


def series_equal_upto(
    a: PowerSeries, b: PowerSeries, order: int
) -> tuple[bool, int | None]:
    """Compare coefficients through t^order; report the first mismatch index."""
    if order < 0:
        raise ValueError("comparison order must be >= 0")
    if order > a.order or order > b.order:
        raise TruncationError(
            f"comparison through t^{order} needs both series at that order "
            f"(have {a.order} and {b.order})"
        )
    for m in range(order + 1):
        if a.coefficients[m] != b.coefficients[m]:
            return False, m
    return True, None
