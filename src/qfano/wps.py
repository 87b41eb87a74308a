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

Quasi-smoothness is checked only on strata of dimension <= 1, which
suffices for every shape shipped with the package. One walk over every
vertex, then every edge, for d = 0 and d > 0 alike, gives the verdicts
that ``basket`` and ``analyze`` both read. Inside the walk a stratum's
failure is returned by its rule as an exception instance, never raised;
only the public rules (``vertex_singularity``, ``edge_singularities``)
and ``basket`` raise it. A member containing an edge is reported, not
analyzed.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .series import DEFAULT_ORDER, MAX_ORDER, PowerSeries, expand_product, product_coefficients


class NotFano(ValueError):
    """The adjunction index sum(w) - d is not positive."""


class NotQuasiSmoothAtVertex(ValueError):
    """A coordinate vertex lies on the hypersurface with no admissible monomial."""


class EdgeContained(ValueError):
    """The hypersurface contains a coordinate edge; out of analysis scope."""


class NotGeneral(ValueError):
    """The general-member point count on an edge is not an integer."""


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
        return super().__new__(cls, r, b)

    def __str__(self) -> str:
        return f"1/{self.r}(1,{self.r - 1},{self.b})"


class Basket(namedtuple("Basket", "entries")):
    """Multiset of quotient points with multiplicities, sorted by (r, b)."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, entries: tuple[tuple[QuotientType, int], ...]) -> Basket:
        entries = [(point, operator.index(count)) for point, count in entries]
        if not all(isinstance(point, QuotientType) for point, _ in entries):
            raise TypeError("a basket entry pairs a QuotientType with its multiplicity")
        if min((count for _, count in entries), default=1) < 1:
            raise ValueError("basket multiplicities must be >= 1")
        return super().__new__(cls, tuple(sorted(entries, key=lambda e: (e[0].r, e[0].b))))

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
    if d < 0:
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


def hilbert(shape: HypersurfaceShape, order: int = DEFAULT_ORDER) -> PowerSeries:
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


def _raised(result):
    """A rule's answer, or raise the failure it returned."""
    if isinstance(result, ValueError):
        raise result
    return result


def _quotient(r: int, others: tuple[int, ...]) -> QuotientType | NotTerminalIsolated:
    """The point 1/r(others) of a stratum with isotropy r and transverse weights others."""
    b = _normalize_type(r, others)
    return b if isinstance(b, NotTerminalIsolated) else QuotientType(r=r, b=b)


def _vertex(ws: tuple[int, ...], d: int, i: int) -> QuotientType | None | ValueError:
    """``vertex_singularity`` on sorted weights, returning its failure."""
    wi = ws[i]
    rest = ws[:i] + ws[i + 1 :]
    if d == 0:
        return None if wi == 1 else _quotient(wi, rest)
    if d % wi == 0:
        return None  # general member avoids the vertex
    # the first x_i^n*x_j of degree d decides: any other one, x_i^m*x_k, has
    # w_k = d = w_j mod w_i, so the residues left over are the same multiset
    for j, wj in enumerate(rest):
        if d - wj >= wi and (d - wj) % wi == 0:
            return _quotient(wi, rest[:j] + rest[j + 1 :])
    return NotQuasiSmoothAtVertex(
        f"vertex w={wi} lies on the member but no monomial x_{wi}^n or "
        f"x_{wi}^n*x_j of degree {d} exists"
    )


def vertex_singularity(shape: HypersurfaceShape, i: int) -> QuotientType | None:
    """Quotient type at vertex i, or None where it is smooth or off the member.

    On the space itself (d = 0) the vertex is 1/w_i(other weights). For
    d > 0 a pure power x_i^n of degree d means the vertex misses the general
    member; otherwise some x_i^n x_j eliminates x_j and the remaining three
    weights mod w_i give the type. Raises NotQuasiSmoothAtVertex when the
    vertex lies on the member with no admissible monomial at all.
    """
    return _raised(_vertex(shape.weights, shape.degree, i))


def _edge(
    ws: tuple[int, ...], d: int, i: int, j: int
) -> tuple[int, QuotientType] | None | ValueError:
    """``edge_singularities`` on sorted weights, returning its failure."""
    wi, wj = ws[i], ws[j]
    m = math.gcd(wi, wj)
    if d == 0 and m > 1:
        return NotTerminalIsolated(
            f"weights {wi}, {wj} share a factor: singular locus along the edge"
        )
    # x_i^a x_j^c has degree d iff a*w_i = d mod w_j, which fixes a mod w_j/m;
    # the least such a decides whether one fits under d (at d = 0, a = 0 does)
    step = wj // m
    if d % m or d // m * pow(wi // m, -1, step) % step * wi > d:
        return EdgeContained(
            f"no degree-{d} monomial in x_{wi}, x_{wj}: member contains the edge"
        )
    if m == 1:
        return None
    count, rest = divmod(d * m, wi * wj)
    if rest:
        return NotGeneral(
            f"edge ({wi},{wj}): point count {Fraction(d * m, wi * wj)} is not an integer"
        )
    qtype = _quotient(m, tuple(w for k, w in enumerate(ws) if k not in (i, j)))
    return qtype if isinstance(qtype, NotTerminalIsolated) else (count, qtype)


def edge_singularities(
    shape: HypersurfaceShape, i: int, j: int
) -> tuple[int, QuotientType] | None:
    """Singular points along the (i, j) edge: (count, type), or None.

    On the space itself (d = 0) an edge whose weights share a factor is a
    curve of singularities (NotTerminalIsolated). For d > 0 the general member
    needs a monomial of degree d purely in {x_i, x_j}; otherwise it contains
    the edge and the analysis is out of scope (EdgeContained). A fractional
    point count means the member was not general (NotGeneral).
    """
    return _raised(_edge(shape.weights, shape.degree, i, j))


class StratumVerdict(NamedTuple):
    """One vertex or edge of the analysis with its status."""

    stratum: tuple[int, ...]          # variable positions
    weights: tuple[int, ...]          # their weights, for display
    status: str
    quotient: QuotientType | None = None
    count: int = 0


@dataclass(frozen=True)  # bench/test_bench.py calls dataclasses.replace on it
class AnalysisReport:
    shape: HypersurfaceShape
    fano_index: int
    a3: Fraction
    basket: Basket | None
    genus: int
    hilbert: PowerSeries
    strata: tuple[StratumVerdict, ...]
    warnings: tuple[str, ...]


# status of a stratum whose rule failed; on the space itself (d = 0) an edge
# fails only as a curve of singularities, "singular-edge"
_FAILED = {
    NotQuasiSmoothAtVertex: "not-quasi-smooth",
    EdgeContained: "edge-contained",
    NotGeneral: "not-terminal-isolated",
    NotTerminalIsolated: "not-terminal-isolated",
}


def _walk(shape: HypersurfaceShape) -> Iterator[tuple[StratumVerdict, ValueError | None]]:
    """Every vertex, then every edge: its verdict, and the failure the rule returned.

    Coprime edges that do not fail carry no points and get no verdict. The
    rules return failures rather than raise them, so a failed stratum costs
    no traceback.
    """
    ws = shape.weights
    d = shape.degree
    for i, wi in enumerate(ws):
        result = _vertex(ws, d, i)
        if result is None:
            yield StratumVerdict((i,), (wi,), "off-member" if d else "smooth"), None
        elif isinstance(result, QuotientType):
            yield StratumVerdict((i,), (wi,), "quotient", result, 1), None
        else:
            yield StratumVerdict((i,), (wi,), _FAILED[type(result)]), result
    for i, j in itertools.combinations(range(len(ws)), 2):
        result = _edge(ws, d, i, j)
        if result is None:
            continue
        if isinstance(result, tuple):
            count, qtype = result
            yield StratumVerdict((i, j), (ws[i], ws[j]), "quotient", qtype, count), None
        else:
            status = _FAILED[type(result)] if d else "singular-edge"
            yield StratumVerdict((i, j), (ws[i], ws[j]), status), result


def _basket_of(verdicts: list[StratumVerdict]) -> Basket:
    counts: dict[QuotientType, int] = {}
    for verdict in verdicts:
        if verdict.quotient is not None:
            counts[verdict.quotient] = counts.get(verdict.quotient, 0) + verdict.count
    return Basket(tuple(counts.items()))


def basket(shape: HypersurfaceShape) -> Basket:
    """Union of vertex and edge contributions; raises the first stratum's failure."""
    verdicts = []
    for verdict, failure in _walk(shape):
        if failure is not None:
            raise failure
        verdicts.append(verdict)
    return _basket_of(verdicts)


def analyze(shape: HypersurfaceShape, order: int | None = None) -> AnalysisReport:
    """Full combinatorial report for a shape; singularity failures become warnings.

    Each distinct warning is given once; contained edges of equal weights
    share one warning that counts them. A failure's message is formatted
    only where it is the warning. A shape whose index q exceeds MAX_ORDER
    is refused (ValueError) before anything is walked or expanded.
    """
    q = _expandable_index(shape)
    if order is None:
        order = max(q, DEFAULT_ORDER)
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
    return AnalysisReport(
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
