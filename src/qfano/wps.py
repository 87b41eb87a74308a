"""Combinatorics of weighted projective 4-space and quasi-smooth hypersurfaces.

A shape is a weight system plus a degree. Degree 0 encodes the (4-weight)
weighted projective space itself; positive degree encodes a general
hypersurface of that degree in the 5-weight space. Everything proved here
is combinatorial: well-formedness, Fano index q = sum(w) - d, the degree
A^3 = d / prod(w), monomial counts, Hilbert series, and the vertex/edge
singularity analysis that assembles the basket of terminal cyclic quotient
points 1/r(1, r-1, b). A point's type is read off its residues by the
terminal lemma: two of them sum to 0 mod r, and b is the third over the
first (``_normalize_type``), with no search over units.

Monomials are counted, not listed: the number of degree-d monomials is the
t^d coefficient of prod 1/(1 - t^w), from the series kernel in O(n*d) steps.
``monomials`` lists exponent vectors only as the oracle those counts are
checked against. Whether a shape is empty needs no count: ``has_monomial``
decides in steps bounded by the weights, not by d, or refuses (ValueError)
a least weight above MAX_ORDER.

Conventions fixed for determinism: weights are sorted ascending on
construction, monomials are listed in descending lexicographic order on
exponent vectors, and baskets are sorted by (r, b).

Quasi-smoothness is one rule on every coordinate stratum (Iano-Fletcher 2000, Thm 8.1),
applied by one walk over every vertex, every edge and the planes ``_walk`` shows need it;
``basket`` and ``analyze`` both read its verdicts, each counting its stratum's points,
terminal or not (``edge_singularities`` says how an edge's are counted). Each rule returns
its verdict with the failure it records, or None; only ``basket``, ``vertex_singularity``
and ``edge_singularities`` raise it, and most failures record their class alone, worded
where raised. ``basket`` keeps its answer per shape, in a memo made by ``series.memo``.
``_edge`` tests before any inverse: a coprime edge at d >= (w_i - 1)(w_j - 1) has a monomial
x_i^a*x_j^c (Sylvester), so no point; a shared factor not dividing d, or d = 0, is singular.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

from . import _checked_make
from .series import DEFAULT_ORDER, MAX_ORDER, PowerSeries, _expand, expand_product, keep, memo
from .series import product_coefficients


class NotFano(ValueError):
    """The adjunction index sum(w) - d is not positive."""


class NotQuasiSmoothAtVertex(ValueError):
    """A coordinate vertex, edge or plane lies on the hypersurface without Thm 8.1's monomials."""


class EdgeContained(ValueError):
    """A polynomial vanishes on a coordinate edge (``normal_form.edge_restriction_points``)."""


class NotTerminalIsolated(ValueError):
    """A quotient type is not an isolated terminal cyclic singularity."""


def weight_system(weights) -> tuple[int, ...]:
    """Validate and sort a weight tuple ascending."""
    ws = tuple(sorted(map(operator.index, weights)))
    if len(ws) < 2:
        raise ValueError("a weight system needs at least two weights")
    if ws[0] < 1:
        raise ValueError(f"weights must be positive, got {ws}")
    return ws


def well_formed(weights) -> bool:
    """True iff every (n-1)-subset of the weights has gcd 1."""
    return _well_formed(weight_system(weights))


def _well_formed(ws: tuple[int, ...]) -> bool:
    # a prime dividing all weights but w_k divides any pair without k: coprime w_0, w_1 leave k <= 1
    if math.gcd(ws[0], ws[1]) == 1:
        return math.gcd(*ws[1:]) == 1 == math.gcd(ws[0], *ws[2:])
    for drop in range(len(ws)):
        if math.gcd(*ws[:drop], *ws[drop + 1 :]) != 1:
            return False
    return True


class HypersurfaceShape(namedtuple("HypersurfaceShape", "weights degree")):
    """Weights plus degree; degree 0 means the ambient space itself."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, weights, degree: int = 0) -> HypersurfaceShape:
        weights, degree = weight_system(weights), operator.index(degree)
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if degree == 0 and len(weights) != 4:
            raise ValueError("degree 0 encodes a weighted projective 3-space: 4 weights")
        if degree > 0 and len(weights) != 5:
            raise ValueError("a hypersurface shape needs 5 weights")
        if degree > 0 and not _has_monomial(weights, degree):  # weights sorted and checked
            raise ValueError(f"no monomial of degree {degree} in weights {weights}: empty shape")
        return tuple.__new__(cls, (weights, degree))


class QuotientType(namedtuple("QuotientType", "r b")):
    """Terminal cyclic quotient point 1/r(1, r-1, b), stored with b = min(b, r-b)."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, r: int, b: int) -> QuotientType:
        if r < 2:
            raise ValueError("quotient index must be >= 2")
        if not (1 <= b < r and math.gcd(b, r) == 1):
            raise ValueError(f"b={b} invalid for index {r}")
        # 1/r(1, r-1, b) is 1/r(1, r-1, r-b): negate the residues, swap the first two
        return tuple.__new__(cls, (r, min(b, r - b)))

    def __str__(self) -> str:
        return f"1/{self.r}(1,{self.r - 1},{self.b})"


class Basket(namedtuple("Basket", "entries")):
    """Multiset of quotient points with multiplicities, sorted by (r, b); equal points merge."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, entries: tuple[tuple[QuotientType, int], ...]) -> Basket:
        entries = [(point, operator.index(count)) for point, count in entries]
        if not all(isinstance(point, QuotientType) for point, _ in entries):
            raise TypeError("a basket entry pairs a QuotientType with its multiplicity")
        if min((count for _, count in entries), default=1) < 1:
            raise ValueError("basket multiplicities must be >= 1")
        counts: dict[QuotientType, int] = {}
        for point, count in entries:
            counts[point] = counts.get(point, 0) + count
        return tuple.__new__(cls, (tuple(sorted(counts.items())),))

    def __str__(self) -> str:
        """Points in order, a repeated one as point x count: 1/2(1,1,1) 1/3(1,2,1)x2."""
        return " ".join(f"{q}x{count}" if count > 1 else str(q) for q, count in self.entries)

    def indices(self) -> tuple[int, ...]:
        """Index multiset, e.g. (2, 3, 3, 5, 7), ascending as the entries are."""
        return tuple(q.r for q in self.points())

    def points(self) -> tuple[QuotientType, ...]:
        out: list[QuotientType] = []
        for q, count in self.entries:
            out.extend([q] * count)
        return tuple(out)


# the Fano indices that riemann_roch.FanoData and the sarkisov link enumeration admit
ALLOWED_FANO_INDICES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 17, 19)
_BASKETS: dict[HypersurfaceShape, Basket] = memo()  # the baskets basket() returned, by shape


def fano_index(shape: HypersurfaceShape) -> int:
    """sum(weights) - degree; raises NotFano when the result is <= 0."""
    q = sum(shape.weights) - shape.degree
    if q <= 0:
        # neither q nor the shape: a degree can run to thousands of digits
        raise NotFano("index sum(weights) - degree is not positive")
    return q


def degree_a3(shape: HypersurfaceShape) -> Fraction:
    """A^3 = d / prod(w) for a hypersurface, 1 / prod(w) for the space itself."""
    return Fraction(shape.degree or 1, math.prod(shape.weights))


def monomials(weights, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with sum(a_i w_i) = d, descending lexicographic."""
    if operator.index(d) < 0:
        raise ValueError("degree must be >= 0")
    ws = tuple(map(operator.index, weights))
    if ws and min(ws) < 1:
        raise ValueError(f"weights must be positive, got {ws}")
    return tuple(_monomials(ws, d))


def _monomials(ws: tuple[int, ...], d: int) -> Iterator[tuple[int, ...]]:
    """``monomials`` on checked weights: the first exponent falls, each tail descends."""
    if not ws:
        if d == 0:
            yield ()
        return
    for a in range(d // ws[0], -1, -1):
        for tail in _monomials(ws[1:], d - a * ws[0]):
            yield (a, *tail)


def monomial_count(weights, d: int) -> int:
    """How many exponent vectors have sum(a_i w_i) = d: the t^d coefficient of prod 1/(1 - t^w)."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return product_coefficients((), weights, d)[d]


def has_monomial(weights, d: int) -> bool:
    """Whether some exponent vector has sum(a_i w_i) = d.

    First the divisor step: where the least weight is at most MAX_ORDER, which
    no refused system has, a weight dividing d answers yes at once. Else weights
    above d cannot occur, and the gcd g of the rest must divide d; divide it out.
    With a the least reduced weight and b the first that brings the running gcd
    to 1, every degree >= (a - 1)(b - 1) is reached (Schur's bound, Brauer 1942).
    Below it one of three tests decides, in steps bounded by the weights, not by
    d: a search over the exponents of the larger weights, where its at most
    (d // a + 1)^(n - 1) steps are fewer than n * a and than d / 64 (so a > 64);
    else the residue-class table of O(n * a) steps where d > 16 * n * a; else a
    shift-or bitset of d + 1 bits. Past the search, a least weight a above
    MAX_ORDER is refused (ValueError): its table would hold more than MAX_ORDER
    entries, and its bitset up to 16 * n * a bits.
    """
    d = operator.index(d)
    if d < 0:
        raise ValueError("degree must be >= 0")
    ws = sorted(set(map(operator.index, weights)))
    if ws and ws[0] < 1:
        raise ValueError(f"weights must be positive, got {tuple(ws)}")
    return _has_monomial(ws, d)


def _has_monomial(ws, d: int) -> bool:
    """``has_monomial`` on weights already sorted ascending and checked positive."""
    if ws and ws[0] <= MAX_ORDER:  # a refusal needs a least weight above MAX_ORDER
        for w in ws:
            if d % w == 0:
                return True
    ws = [w for w in dict.fromkeys(ws) if w <= d]
    if not ws:
        return d == 0
    g = math.gcd(*ws)
    if d % g:
        return False
    d //= g
    ws = [w // g for w in ws]
    run = ws[0]
    for b in ws:
        run = math.gcd(run, b)
        if run == 1:
            break
    if d >= (ws[0] - 1) * (b - 1):
        return True
    n, a = len(ws), ws[0]
    steps = (d // a + 1) ** (n - 1)
    if steps < n * a and 64 * steps < d:
        return _by_search(ws, d)
    if a > MAX_ORDER:
        raise ValueError(f"the monomial test needs a table of more than {MAX_ORDER} entries")
    if d > 16 * n * a:
        return _least_degrees(ws)[d % a] <= d
    return _by_bitset(ws, d)


def _by_search(ws: list[int], d: int) -> bool:
    """Whether d less a combination of ws[1:] is a multiple of ws[0]: the
    remainders after i weights form a set of at most (d // ws[0] + 1)^i."""
    rests = {d}
    for w in ws[1:]:
        rests = {r - j * w for r in rests for j in range(r // w + 1)}
    return any(r % ws[0] == 0 for r in rests)


def _by_bitset(ws: list[int], d: int) -> bool:
    """Whether some monomial has degree d, by a shift-or bitset of d + 1 bits."""
    mask = (1 << d + 1) - 1
    reach = 1
    for w in ws:
        # after shifts by w, 2w, 4w, ... every multiple of w up to d is added
        while w <= d:
            reach |= reach << w & mask
            w <<= 1
    return reach >> d & 1 == 1


def _least_degrees(ws: list[int]) -> list[int | float]:
    """least[k]: the least degree of a monomial congruent to k mod a = ws[0], math.inf for none.

    Round-robin shortest paths over residues (Boecker and Liptak 2007): each further weight w
    walks the cycles k -> k + w mod a once, from the least degree reached on the cycle. Powers
    of the weight-a variable reach every larger degree in a class: d is reached iff
    least[d mod a] <= d.
    """
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


def _hilbert_pair(shape: HypersurfaceShape) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The exponents (numerator, denominator) of the shape's Hilbert series as a product."""
    return (shape.degree,) if shape.degree else (), shape.weights


def hilbert(shape: HypersurfaceShape, order: int) -> PowerSeries:
    """Hilbert series of the shape through t^order."""
    return expand_product(*_hilbert_pair(shape), order)


def _expandable_index(shape: HypersurfaceShape) -> int:
    """fano_index, refused with ValueError when the series through t^q exceeds MAX_ORDER."""
    q = fano_index(shape)
    if q > MAX_ORDER:
        raise ValueError(f"Fano index above {MAX_ORDER}: its series to t^q is not expanded")
    return q


def genus(shape: HypersurfaceShape) -> int:
    """h^0 of the anticanonical class minus 2, the t^q coefficient; ValueError past MAX_ORDER."""
    q = _expandable_index(shape)
    return hilbert(shape, q).coefficients[q] - 2


def _normalize_type(r: int, residues: tuple[int, ...]) -> int | NotTerminalIsolated:
    """The b of 1/r(residues) = 1/r(1, r-1, b) for r >= 2, reduced to min(b, r-b).

    By the terminal lemma (Reid 1987) two residues x, y sum to 0 mod r; u = x^-1 carries them
    to (1, r-1) and the third, z, to u*z; where two pairs sum to 0, both give b = 1. Returns
    NotTerminalIsolated where a residue vanishes or shares a factor with r, or no pair sums to 0.
    """
    x, y, z = residues
    x, y, z = x % r, y % r, z % r
    # one gcd checks all three: a zero residue makes it r, a shared factor too
    if math.gcd(x * y * z, r) != 1:
        return NotTerminalIsolated(
            f"residues ({x}, {y}, {z}) mod {r} are not coprime units: not an "
            f"isolated terminal cyclic quotient"
        )
    if (x + y) % r == 0:
        c = pow(x, -1, r) * z % r
    elif (x + z) % r == 0:
        c = pow(x, -1, r) * y % r
    elif (y + z) % r == 0:
        c = pow(y, -1, r) * x % r
    else:
        return NotTerminalIsolated(
            f"no unit carries ({x}, {y}, {z}) mod {r} to the form (1, {r - 1}, b)"
        )
    return min(c, r - c)


class StratumVerdict(
    namedtuple("StratumVerdict", "stratum weights status quotient count", defaults=(None, 0))
):
    """One vertex or edge with its status. stratum holds variable positions, weights their
    weights (for display), count the points on it, whether or not their type is terminal."""

    __slots__ = ()


# the walk builds its verdicts past the namedtuple's __new__, which checks nothing: all 5 fields
_verdict = functools.partial(tuple.__new__, StratumVerdict)
Failure = ValueError | type[ValueError] | None  # a class is worded by _worded when raised


def _quotient_verdict(stratum: tuple[int, ...], weights: tuple[int, ...], r: int,
                      others: tuple[int, ...], count: int) -> tuple[StratumVerdict, Failure]:
    """The verdict on count points 1/r(others), terminal (quotient) or not, with its failure."""
    b = _normalize_type(r, others)
    if type(b) is int:
        return _verdict((stratum, weights, "quotient", QuotientType(r, b), count)), None
    return _verdict((stratum, weights, "not-terminal-isolated", None, count)), b


def _worded(verdict: StratumVerdict, failure: ValueError | type[ValueError], d: int) -> ValueError:
    """The exception a failed stratum raises: a recorded class is worded from weights and d."""
    if not isinstance(failure, type):
        return failure
    w = verdict.weights
    if len(w) > 1:
        return failure(_warning(verdict))
    return failure(f"vertex w={w[0]} lies on the member but no monomial x_{w[0]}^n or "
                   f"x_{w[0]}^n*x_j of degree {d} exists")


def _vertex(ws: tuple[int, ...], d: int, i: int) -> tuple[StratumVerdict, Failure]:
    """``vertex_singularity``'s verdict on sorted weights, with the failure it records."""
    wi = ws[i]
    if d == 0:
        if wi == 1:
            return _verdict(((i,), (wi,), "smooth", None, 0)), None
        return _quotient_verdict((i,), (wi,), wi, ws[:i] + ws[i + 1 :], 1)
    dr = d % wi
    if dr == 0:  # the general member avoids the vertex
        return _verdict(((i,), (wi,), "off-member", None, 0)), None
    # x_i^n*x_j has degree d iff w_j = dr mod w_i and w_j <= d - w_i (never so for j = i). The
    # first, least such w_j decides: any other w_k = w_j mod w_i leaves the same residues
    for wj in ws:
        if wj % wi == dr:
            if wj <= d - wi:
                lo, hi = (i, j) if i < (j := ws.index(wj)) else (j, i)
                others = ws[:lo] + ws[lo + 1 : hi] + ws[hi + 1 :]
                return _quotient_verdict((i,), (wi,), wi, others, 1)
            break
    return _verdict(((i,), (wi,), "not-quasi-smooth", None, 0)), NotQuasiSmoothAtVertex


def vertex_singularity(shape: HypersurfaceShape, i: int) -> QuotientType | None:
    """Quotient type at vertex i, or None where it is smooth or off the member.

    On the space itself (d = 0) the vertex is 1/w_i(other weights). For d > 0 a pure power
    x_i^n of degree d means the vertex misses the general member; otherwise some x_i^n x_j
    eliminates x_j and the remaining three weights mod w_i give the type. Raises
    NotQuasiSmoothAtVertex where no such monomial exists, ValueError for i outside 0..n-1.
    """
    ws, i = shape.weights, operator.index(i)
    if not 0 <= i < len(ws):
        raise ValueError(f"vertex index {i} is not in 0..{len(ws) - 1}")
    verdict, failure = _vertex(ws, shape.degree, i)
    if failure is not None:
        raise _worded(verdict, failure, shape.degree)
    return verdict.quotient


def _edge(ws: tuple[int, ...], d: int, i: int, j: int) -> tuple | None:
    """``edge_singularities``'s verdict on sorted weights, with the failure it records; None
    for no point, and () for a contained coprime edge that passes, which ``_walk`` reads."""
    wi, wj = ws[i], ws[j]
    m = math.gcd(wi, wj)
    # before the inverse: a coprime edge has no point, and past Sylvester's bound some
    # x_i^a*x_j^c has degree d; where m does not divide d none has, and d = 0 has no member
    if m == 1:
        if d >= (wi - 1) * (wj - 1):
            return None
    elif d % m or d == 0:
        return _verdict(((i, j), (wi, wj), "singular-edge", None, 0)), NotTerminalIsolated
    # x_i^a x_j^c has degree d iff a*w_i = d mod w_j, which fixes a mod w_j/m; the least
    # such a decides whether one fits under d, and each further one (a + w_j/m) is a point
    step = wj // m
    inv = pow(wi // m, -1, step)
    a = d // m * inv % step
    if a * wi > d:  # contained
        if m > 1:
            return _verdict(((i, j), (wi, wj), "singular-edge", None, 0)), NotTerminalIsolated
        # quasi-smooth iff two distinct x_e carry some x_i^a*x_j^c*x_e of degree d
        found = 0  # a loop, as sum() of a generator would make cells of four locals per call
        for w in ws:  # t = d - w_e has a monomial in x_i, x_j; never so for e = i, j (contained)
            if 0 < (t := d - w) >= t * inv % step * wi:
                found += 1
        if found > 1:
            return ()
        return _verdict(((i, j), (wi, wj), "not-quasi-smooth", None, 0)), NotQuasiSmoothAtVertex
    count = (d - a * wi) // (wi * step)
    if m == 1 or count == 0:
        return None
    lo, hi = (i, j) if i < j else (j, i)
    return _quotient_verdict((i, j), (wi, wj), m, ws[:lo] + ws[lo + 1 : hi] + ws[hi + 1 :], count)


def edge_singularities(shape: HypersurfaceShape, i: int, j: int) -> tuple[int, QuotientType] | None:
    """Singular points along the (i, j) edge: (count, type), or None.

    An edge whose weights share a factor is a curve of singularities (NotTerminalIsolated) on
    the space (d = 0), and where the general member contains it: where no degree-d monomial is
    purely in x_i, x_j. A contained coprime edge has no point; it raises NotQuasiSmoothAtVertex
    unless two distinct x_e outside it have a monomial x_i^a*x_j^c*x_e of degree d. On other
    edges, points off the vertices = those monomials minus one; a gcd > 1 edge with none gives
    None. Two indices equal or outside 0..n-1 raise ValueError."""
    ws, i, j = shape.weights, operator.index(i), operator.index(j)
    if i == j or not (0 <= i < len(ws) and 0 <= j < len(ws)):
        raise ValueError(f"edge ({i}, {j}) needs two distinct indices in 0..{len(ws) - 1}")
    if not (result := _edge(ws, shape.degree, i, j)):
        return None
    verdict, failure = result
    if failure is not None:
        raise _worded(verdict, failure, shape.degree)
    return verdict.count, verdict.quotient


def _report(**fields) -> AnalysisReport:
    """Load ``report`` (and ``dataclasses``) once, then rebind ``_report`` to its class."""
    global _report
    from .report import AnalysisReport as _report

    return _report(**fields)


def _walk(shape: HypersurfaceShape) -> Iterator[tuple[StratumVerdict, Failure]]:
    """Every vertex, every edge, then the planes that need a test: each rule's verdict and the
    failure it records (``Failure``), returned, not raised; none for a stratum with no point and
    no failure. Thm 8.1 asks of a set I of 3 or 4 variables a degree-d monomial in x_I alone, as
    fewer than |I| variables lie outside I. A plane needs a test only where its three edges are
    contained and pass: else an edge's monomial lies in its variables, or the shape has failed.
    A 4-set never does: without that monomial, each edge inside it is contained and has at most
    one qualifying x_e, the fifth variable, so it has failed."""
    ws, d = shape.weights, shape.degree
    for i in range(len(ws)):
        yield _vertex(ws, d, i)
    passed = []  # the contained edges that pass, in order
    for i, j in itertools.combinations(range(len(ws)), 2):
        if result := _edge(ws, d, i, j):
            yield result
        elif result is not None:
            passed.append((i, j))
    for i, j in passed:  # each plane (i, j, k) from its first edge, so in order
        for k in range(j + 1, len(ws)):
            plane = (ws[i], ws[j], ws[k])
            if (i, k) in passed and (j, k) in passed and not has_monomial(plane, d):
                verdict = _verdict(((i, j, k), plane, "not-quasi-smooth", None, 0))
                yield verdict, NotQuasiSmoothAtVertex


def _basket_of(verdicts: list[StratumVerdict]) -> Basket:
    return Basket(tuple((v.quotient, v.count) for v in verdicts if v.quotient is not None))


def basket(shape: HypersurfaceShape) -> Basket:
    """Union of vertex and edge contributions; raises the first stratum's failure.

    At each point 1/r(x, y, z) it accepts, x + y + z = sum(w) - d = q mod r, as r = w_i at a
    vertex, where a member eliminates a weight that is d mod r, and r | w_i, w_j, d on an edge.
    Two residues sum to 0 (terminal lemma), so q is the third, a unit by ``_normalize_type``.
    """
    if not isinstance(shape, HypersurfaceShape):  # a plain tuple equal to a kept shape is none
        raise TypeError(f"a shape is a HypersurfaceShape, not a {type(shape).__name__}")
    if (kept := _BASKETS.get(shape)) is not None:
        return kept
    verdicts = []
    for verdict, failure in _walk(shape):
        if failure is not None:
            raise _worded(verdict, failure, shape.degree)
        verdicts.append(verdict)
    return keep(_BASKETS, shape, _basket_of(verdicts))


def analyze(shape: HypersurfaceShape, order: int | None = None) -> AnalysisReport:
    """Full combinatorial report for a shape; singularity failures become warnings.

    Each stratum's verdict counts its points, whether or not their type is terminal. Each
    distinct warning is given once: a failure's message, or ``_warning`` of one recorded as a
    class. A shape whose index q exceeds MAX_ORDER is refused (ValueError) before anything is
    walked or expanded. Its series comes from the kernel ``series._expand``, not the memo that
    ``hilbert`` reads (a scan meets each shape once); one expansion serves genus and series.
    """
    q = _expandable_index(shape)
    order = max(q, DEFAULT_ORDER) if order is None else operator.index(order)
    ws = shape.weights
    warnings: dict[str, None] = {}  # each once, in order of first appearance
    if not _well_formed(ws):  # the shape has already sorted and checked its weights
        warnings[f"weights {ws} are not well-formed"] = None
    strata: list[StratumVerdict] = []
    failed = False
    for verdict, failure in _walk(shape):
        strata.append(verdict)
        if failure is not None:
            failed = True
            warnings[_warning(verdict) if isinstance(failure, type) else str(failure)] = None
    coefficients = _expand(_hilbert_pair(shape), max(order, q))
    series = PowerSeries._of_ints(coefficients)
    return _report(
        shape=shape, fano_index=q, a3=degree_a3(shape), genus=coefficients[q] - 2,
        basket=None if failed else _basket_of(strata), strata=tuple(strata),
        hilbert=series if order >= q else series.truncate(order), warnings=tuple(warnings),
    )


def vertex_warning(weight: int) -> str:
    """The warning for a vertex of this weight where the member is not quasi-smooth."""
    return f"not quasi-smooth at vertex w={weight}"


def _warning(verdict: StratumVerdict) -> str:
    """How ``analyze`` words a failure recorded as a class: not quasi-smooth at edge w=(3,5)."""
    w = verdict.weights
    if verdict.status == "singular-edge":
        return f"weights {w[0]}, {w[1]} share a factor: singular locus along the edge"
    if len(w) == 1:
        return vertex_warning(w[0])
    if len(w) == 2:  # field by field: edges fail often, and a join costs about 3x as much
        return f"not quasi-smooth at edge w=({w[0]},{w[1]})"
    return f"not quasi-smooth at plane w=({w[0]},{w[1]},{w[2]})"
