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
t^d coefficient of prod 1/(1 - t^w), read from the integer series kernel
``series.product_coefficients`` in O(n*d) steps. ``monomials`` still lists
exponent vectors, but no production code reads them: it is the test oracle
the counts are checked against, and like ``weight_system`` it refuses a
weight below 1. Whether a shape is empty needs no count at all.
``has_monomial`` divides out the gcd of the weights, and past Schur's bound
(a - 1)(b - 1) on the Frobenius number of the reduced weights every degree
is reached; below it a shift-or bitset of reachable degrees decides. The
bitset holds at most min(d, (a - 1)(b - 1)) bits, and where that is more
than 16 bits per step of the residue-class table (the least degree in each
class mod a, O(n*a) steps) the table decides instead. Either way the cost
is bounded by the weights, not by d. Where d // a is small and a > 64, a
search over the exponents of the larger weights can be cheaper than both.
Elsewhere a least weight a above MAX_ORDER is refused, not decided: the
table holds at most MAX_ORDER entries, the bitset 16 * n * MAX_ORDER bits.

Conventions fixed for determinism: weights are sorted ascending on
construction, monomials are listed in descending lexicographic order on
exponent vectors, and baskets are sorted by (r, b).

Quasi-smoothness is checked only on strata of dimension <= 1, which suffices
for every shape shipped with the package. One walk over every vertex, then
every edge, for d = 0 and d > 0 alike, gives the verdicts that ``basket`` and
``analyze`` both read; each counts its stratum's points, terminal or not.
Each rule returns its verdict with the failure it records, or None; only
``basket``, ``vertex_singularity`` and ``edge_singularities`` raise it, and a
contained edge or a vertex that is not quasi-smooth records its class alone,
worded where raised. A member containing an edge is reported, not analyzed.
On other edges, points off the vertices = degree-d monomials in the edge's
two variables minus one; a gcd > 1 edge with none gets no verdict.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

from .series import DEFAULT_ORDER, MAX_ORDER, PowerSeries, expand_product, product_coefficients


class NotFano(ValueError):
    """The adjunction index sum(w) - d is not positive."""


class NotQuasiSmoothAtVertex(ValueError):
    """A coordinate vertex lies on the hypersurface with no admissible monomial."""


class EdgeContained(ValueError):
    """The hypersurface contains a coordinate edge; out of analysis scope."""


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
    for drop in range(len(ws)):
        if math.gcd(*ws[:drop], *ws[drop + 1 :]) != 1:
            return False
    return True


# _make, and so _replace, builds through the class: a replaced field is checked too
_checked_make = classmethod(lambda cls, fields: cls(*fields))


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
        if degree > 0 and not has_monomial(weights, degree):
            raise ValueError(f"no monomial of degree {degree} in weights {weights}: empty shape")
        return super().__new__(cls, weights, degree)


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
        return super().__new__(cls, r, min(b, r - b))

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
        return super().__new__(cls, tuple(sorted(counts.items())))

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
    """How many exponent vectors have sum(a_i w_i) = d, without listing them.

    The t^d coefficient of prod 1/(1 - t^w_i), in O(len(weights) * d) steps.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    return product_coefficients((), weights, d)[d]


def has_monomial(weights, d: int) -> bool:
    """Whether some exponent vector has sum(a_i w_i) = d.

    Weights above d cannot occur, and dividing out the gcd g of the rest
    leaves weights with gcd 1, or no monomial when g does not divide d.
    Take the shortest run a = w_1 <= ... <= w_k of the reduced weights with
    gcd 1: every degree >= (a - 1)(w_k - 1) is reached (Schur's bound on the
    Frobenius number, Brauer 1942). Below it a bitset of reachable degrees,
    built by shift-or, decides in d bits, about 1,000 at most for weights up
    to 33. When d is above 16 bits per step of the residue-class table, the
    table decides in O(n * a) steps instead, so neither memory nor time
    grows with d past the weights. When d // a is small, a direct search
    over the exponents of the larger weights, at most (d // a + 1)^(n - 1)
    steps, decides if that is fewer than the table's n * a steps and the
    bitset's d / 64 words. Those steps exceed d / a, so the search needs
    a > 64: no system of weights up to 64 takes it. Otherwise a least weight
    above MAX_ORDER is refused (ValueError): its table would hold more than
    MAX_ORDER entries, and its bitset up to 16 * n * a bits.
    """
    d = operator.index(d)
    if d < 0:
        raise ValueError("degree must be >= 0")
    ws = sorted(set(map(operator.index, weights)))
    if ws and ws[0] < 1:
        raise ValueError(f"weights must be positive, got {tuple(ws)}")
    ws = [w for w in ws if w <= d]
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
    """least[k]: the least degree of a monomial congruent to k mod a = ws[0].

    Round-robin shortest paths over residues (Boecker and Liptak 2007): each
    further weight w walks the cycles k -> k + w mod a once, from the least
    degree reached on the cycle; math.inf marks a class no monomial reaches.
    Adding powers of the weight-a variable reaches every larger degree in a
    class, so a degree-d monomial exists iff least[d mod a] <= d.
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


def hilbert(shape: HypersurfaceShape, order: int) -> PowerSeries:
    """Hilbert series of the shape through t^order."""
    return expand_product((shape.degree,) if shape.degree else (), shape.weights, order)


def _expandable_index(shape: HypersurfaceShape) -> int:
    """fano_index, refused with ValueError when the series through t^q exceeds MAX_ORDER."""
    q = fano_index(shape)
    if q > MAX_ORDER:
        raise ValueError(f"Fano index above {MAX_ORDER}: its series to t^q is not expanded")
    return q


def genus(shape: HypersurfaceShape) -> int:
    """h^0 of the anticanonical class minus 2: Hilbert coefficient at t^q, minus 2.

    Raises ValueError when q exceeds MAX_ORDER.
    """
    q = _expandable_index(shape)
    return hilbert(shape, q)[q] - 2


def _normalize_type(r: int, residues: tuple[int, ...]) -> int | NotTerminalIsolated:
    """The b of 1/r(residues) = 1/r(1, r-1, b) for r >= 2, reduced to min(b, r-b).

    By the terminal lemma (Reid 1987) two residues x, y sum to 0 mod r; the
    unit u = x^-1 carries them to (1, r-1) and the third residue z to u*z.
    When two pairs sum to 0, both give b = 1. Returns NotTerminalIsolated
    when a residue vanishes or shares a factor with r, or when no pair sums
    to 0.
    """
    x, y, z = residues
    x, y, z = x % r, y % r, z % r
    # one gcd checks all three: a zero residue makes it r, a shared factor too
    if math.gcd(x * y * z, r) != 1:
        return NotTerminalIsolated(
            f"residues {(x, y, z)} mod {r} are not coprime units: not an "
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
            f"no unit carries {(x, y, z)} mod {r} to the form (1, {r - 1}, b)"
        )
    return min(c, r - c)


class StratumVerdict(
    namedtuple("StratumVerdict", "stratum weights status quotient count", defaults=(None, 0))
):
    """One vertex or edge with its status. stratum holds variable positions, weights their
    weights (for display), count the points on it, whether or not their type is terminal."""

    __slots__ = ()


def _quotient_verdict(
    stratum: tuple[int, ...], weights: tuple[int, ...], r: int, others: tuple[int, ...], count: int
) -> tuple[StratumVerdict, NotTerminalIsolated | None]:
    """The verdict on count points 1/r(others), terminal (quotient) or not, with its failure."""
    b = _normalize_type(r, others)
    if type(b) is int:
        return StratumVerdict(stratum, weights, "quotient", QuotientType(r, b), count), None
    return StratumVerdict(stratum, weights, "not-terminal-isolated", None, count), b


Failure = ValueError | type[ValueError] | None  # a class is worded by _worded when raised


def _worded(verdict: StratumVerdict, failure: ValueError | type[ValueError], d: int) -> ValueError:
    """The exception a failed stratum raises: a recorded class is worded from weights and d."""
    w = verdict.weights
    if failure is NotQuasiSmoothAtVertex:
        return failure(f"vertex w={w[0]} lies on the member but no monomial x_{w[0]}^n or "
                       f"x_{w[0]}^n*x_j of degree {d} exists")
    if failure is EdgeContained:
        return failure(f"no degree-{d} monomial in x_{w[0]}, x_{w[1]}: member contains the edge")
    return failure


def _vertex(ws: tuple[int, ...], d: int, i: int) -> tuple[StratumVerdict, Failure]:
    """``vertex_singularity``'s verdict on sorted weights, with the failure it records."""
    wi = ws[i]
    rest = ws[:i] + ws[i + 1 :]
    if d == 0:
        if wi == 1:
            return StratumVerdict((i,), (wi,), "smooth"), None
        return _quotient_verdict((i,), (wi,), wi, rest, 1)
    if d % wi == 0:
        return StratumVerdict((i,), (wi,), "off-member"), None  # general member avoids the vertex
    # the first x_i^n*x_j of degree d decides: any other one, x_i^m*x_k, has
    # w_k = d = w_j mod w_i, so the residues left over are the same multiset
    for j, wj in enumerate(rest):
        if d - wj >= wi and (d - wj) % wi == 0:
            return _quotient_verdict((i,), (wi,), wi, rest[:j] + rest[j + 1 :], 1)
    return StratumVerdict((i,), (wi,), "not-quasi-smooth"), NotQuasiSmoothAtVertex


def vertex_singularity(shape: HypersurfaceShape, i: int) -> QuotientType | None:
    """Quotient type at vertex i, or None where it is smooth or off the member.

    On the space itself (d = 0) the vertex is 1/w_i(other weights). For
    d > 0 a pure power x_i^n of degree d means the vertex misses the general
    member; otherwise some x_i^n x_j eliminates x_j and the remaining three
    weights mod w_i give the type. Raises NotQuasiSmoothAtVertex when the
    vertex lies on the member with no admissible monomial, and ValueError
    for an index outside 0..n-1.
    """
    ws, i = shape.weights, operator.index(i)
    if not 0 <= i < len(ws):
        raise ValueError(f"vertex index {i} is not in 0..{len(ws) - 1}")
    verdict, failure = _vertex(ws, shape.degree, i)
    if failure is not None:
        raise _worded(verdict, failure, shape.degree)
    return verdict.quotient


def _edge(ws: tuple[int, ...], d: int, i: int, j: int) -> tuple[StratumVerdict, Failure] | None:
    """``edge_singularities``'s verdict on sorted weights, with the failure it records. Points
    off the vertices = degree-d monomials in x_i, x_j minus one; None for gcd 1 or no point."""
    wi, wj = ws[i], ws[j]
    m = math.gcd(wi, wj)
    if d == 0 and m > 1:
        return StratumVerdict((i, j), (wi, wj), "singular-edge"), NotTerminalIsolated(
            f"weights {wi}, {wj} share a factor: singular locus along the edge"
        )
    # x_i^a x_j^c has degree d iff a*w_i = d mod w_j, which fixes a mod w_j/m; the least
    # such a decides whether one fits under d, and each further one (a + w_j/m) is a point
    step = wj // m
    a = d // m * pow(wi // m, -1, step) % step
    if d % m or a * wi > d:
        return StratumVerdict((i, j), (wi, wj), "edge-contained"), EdgeContained
    count = (d - a * wi) // (wi * step)
    if m == 1 or count == 0:
        return None
    others = tuple(w for k, w in enumerate(ws) if k not in (i, j))
    return _quotient_verdict((i, j), (wi, wj), m, others, count)


def edge_singularities(
    shape: HypersurfaceShape, i: int, j: int
) -> tuple[int, QuotientType] | None:
    """Singular points along the (i, j) edge: (count, type), or None.

    On the space itself (d = 0) an edge whose weights share a factor is a
    curve of singularities (NotTerminalIsolated). For d > 0 the general member
    needs a monomial of degree d purely in {x_i, x_j}; otherwise it contains
    the edge and the analysis is out of scope (EdgeContained). Points off the
    vertices = such monomials minus one; a gcd > 1 edge with none gives None.
    Two indices that are equal or outside 0..n-1 are refused (ValueError).
    """
    ws, i, j = shape.weights, operator.index(i), operator.index(j)
    if i == j or not (0 <= i < len(ws) and 0 <= j < len(ws)):
        raise ValueError(f"edge ({i}, {j}) needs two distinct indices in 0..{len(ws) - 1}")
    result = _edge(ws, shape.degree, i, j)
    if result is None:
        return None
    verdict, failure = result
    if failure is not None:
        raise _worded(verdict, failure, shape.degree)
    return verdict.count, verdict.quotient


def _report(**fields) -> AnalysisReport:
    """Build the first report: load ``report`` (and with it ``dataclasses``), then rebind
    ``_report`` to its class, so that later reports run no import statement."""
    global _report
    from .report import AnalysisReport as _report

    return _report(**fields)


def _walk(shape: HypersurfaceShape) -> Iterator[tuple[StratumVerdict, Failure]]:
    """Every vertex, then every edge: the verdict each rule returns, with the
    failure it records (``Failure``). Edges that carry no singular point get
    no verdict. The rules return failures rather than raise them, so a failed
    stratum costs no traceback, and one recorded as a class no message.
    """
    ws, d = shape.weights, shape.degree
    for i in range(len(ws)):
        yield _vertex(ws, d, i)
    for i, j in itertools.combinations(range(len(ws)), 2):
        result = _edge(ws, d, i, j)
        if result is not None:
            yield result


def _basket_of(verdicts: list[StratumVerdict]) -> Basket:
    return Basket(tuple((v.quotient, v.count) for v in verdicts if v.quotient is not None))


def basket(shape: HypersurfaceShape) -> Basket:
    """Union of vertex and edge contributions; raises the first stratum's failure.

    At each point 1/r(x, y, z) it accepts, x + y + z = sum(w) - d = q mod r, as r = w_i at a
    vertex, where a member eliminates a weight that is d mod r, and r | w_i, w_j, d on an edge.
    Two residues sum to 0 (terminal lemma), so q is the third, a unit by ``_normalize_type``.
    """
    verdicts = []
    for verdict, failure in _walk(shape):
        if failure is not None:
            raise _worded(verdict, failure, shape.degree)
        verdicts.append(verdict)
    return _basket_of(verdicts)


def analyze(shape: HypersurfaceShape, order: int | None = None) -> AnalysisReport:
    """Full combinatorial report for a shape; singularity failures become warnings.

    Each stratum's verdict counts its points, whether or not their type is terminal. Each
    distinct warning is given once; contained edges of equal weights share one warning that
    counts them. Other than theirs and a vertex's, a warning is its failure's message. A shape
    whose index q exceeds MAX_ORDER is refused (ValueError) before anything is walked or expanded.
    """
    q = _expandable_index(shape)
    order = max(q, DEFAULT_ORDER) if order is None else operator.index(order)
    ws = shape.weights
    # each warning once, in order of first appearance; contained edges are
    # keyed by their weights and counted, and worded once the count is known
    warnings: dict[str | tuple[int, ...], int] = {}
    if not _well_formed(ws):  # the shape has already sorted and checked its weights
        warnings[f"weights {ws} are not well-formed"] = 1
    strata: list[StratumVerdict] = []
    failed = False
    for verdict, failure in _walk(shape):
        strata.append(verdict)
        if failure is not None:
            failed = True
            if verdict.status == "edge-contained":
                key = verdict.weights
            elif verdict.status == "not-quasi-smooth":
                key = vertex_warning(verdict.weights[0])
            else:
                key = str(failure)
            warnings[key] = warnings.get(key, 0) + 1
    # one expansion serves both the genus (t^q) and the reported series
    series = hilbert(shape, max(order, q))
    return _report(
        shape=shape,
        fano_index=q,
        a3=degree_a3(shape),
        basket=None if failed else _basket_of(strata),
        genus=series[q] - 2,
        hilbert=series if order >= q else series.truncate(order),
        strata=tuple(strata),
        warnings=tuple(
            [key if type(key) is str else _contained_warning(key, n) for key, n in warnings.items()]
        ),
    )


def vertex_warning(weight: int) -> str:
    """The warning for a vertex of this weight where the member is not quasi-smooth."""
    return f"not quasi-smooth at vertex w={weight}"


def _contained_warning(weights: tuple[int, ...], edges: int) -> str:
    what = "the edge" if edges == 1 else f"{edges} edges"
    return f"member contains {what} w=({weights[0]},{weights[1]}); analysis out of scope"
