"""Combinatorics of weighted projective 4-space and quasi-smooth hypersurfaces.

A shape is a weight system plus a degree. Degree 0 encodes the (4-weight)
weighted projective space itself; positive degree encodes a general
hypersurface of that degree in the 5-weight space. Everything proved here
is combinatorial: well-formedness, Fano index q = sum(w) - d, the degree
A^3 = d / prod(w), monomial counts, Hilbert series, and the vertex/edge
singularity analysis that assembles the basket of terminal cyclic quotient
points 1/r(1, r-1, b).

Monomials are counted, not listed: the number of degree-d monomials is the
t^d coefficient of prod 1/(1 - t^w), read from the integer series kernel
``series.product_coefficients`` in O(n*d) steps. ``monomials`` still lists
exponent vectors, but no production code reads them: it is the test oracle
the counts are checked against. Whether a shape is empty needs no count at
all: ``has_monomial`` decides it from least degrees per residue class of
the smallest weight, at a cost independent of d.

Conventions fixed for determinism: weights are sorted ascending on
construction, monomials are listed in descending lexicographic order on
exponent vectors, and baskets are sorted by (r, b).

Quasi-smoothness is checked only on strata of dimension <= 1, which
suffices for every shape shipped with the package. One walk over every
vertex, then every edge, for d = 0 and d > 0 alike, gives the verdicts
that ``basket`` and ``analyze`` both read. A member containing an edge is
reported, not analyzed.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .series import DEFAULT_ORDER, PowerSeries, ProductSpec, expand_product, product_coefficients


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
    ws = tuple(sorted(int(w) for w in weights))
    if len(ws) < 2:
        raise ValueError("a weight system needs at least two weights")
    if any(w < 1 for w in ws):
        raise ValueError(f"weights must be positive, got {ws}")
    return ws


def well_formed(weights) -> bool:
    """True iff every (n-1)-subset of the weights has gcd 1."""
    ws = weight_system(weights)
    n = len(ws)
    for drop in range(n):
        subset = ws[:drop] + ws[drop + 1 :]
        if math.gcd(*subset) != 1:
            return False
    return True


@dataclass(frozen=True)
class HypersurfaceShape:
    """Weights plus degree; degree 0 means the ambient space itself."""

    weights: tuple[int, ...]
    degree: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", weight_system(self.weights))
        object.__setattr__(self, "degree", int(self.degree))
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.degree == 0 and len(self.weights) != 4:
            raise ValueError("degree 0 encodes a weighted projective 3-space: 4 weights")
        if self.degree > 0 and len(self.weights) != 5:
            raise ValueError("a hypersurface shape needs 5 weights")
        if self.degree > 0 and not has_monomial(self.weights, self.degree):
            raise ValueError(
                f"no monomial of degree {self.degree} in weights {self.weights}: empty shape"
            )


@dataclass(frozen=True)
class QuotientType:
    """Terminal cyclic quotient point 1/r(1, r-1, b), stored with b = min(b, r-b).

    ``raw`` keeps the unnormalized residues for reporting; it does not take
    part in equality.
    """

    r: int
    b: int
    raw: tuple[int, int, int] = field(compare=False, default=(0, 0, 0))

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError("quotient index must be >= 2")
        if not (1 <= self.b < self.r and math.gcd(self.b, self.r) == 1):
            raise ValueError(f"b={self.b} invalid for index {self.r}")

    def sort_key(self) -> tuple[int, int]:
        return (self.r, self.b)

    def __str__(self) -> str:
        return f"1/{self.r}(1,{self.r - 1},{self.b})"


@dataclass(frozen=True)
class Basket:
    """Multiset of quotient points with multiplicities, sorted by (r, b)."""

    entries: tuple[tuple[QuotientType, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple(sorted(self.entries, key=lambda e: e[0].sort_key()))
        )
        for _, count in self.entries:
            if count < 1:
                raise ValueError("basket multiplicities must be >= 1")

    def __str__(self) -> str:
        """Points in order, a repeated one as point x count: 1/2(1,1,1) 1/3(1,2,1)x2."""
        return " ".join(f"{q}x{count}" if count > 1 else str(q) for q, count in self.entries)

    def indices(self) -> tuple[int, ...]:
        """Index multiset, e.g. (2, 3, 3, 5, 7)."""
        out: list[int] = []
        for q, count in self.entries:
            out.extend([q.r] * count)
        return tuple(sorted(out))

    def points(self) -> tuple[QuotientType, ...]:
        out: list[QuotientType] = []
        for q, count in self.entries:
            out.extend([q] * count)
        return tuple(out)

    def curvature_sum(self) -> Fraction:
        """sum over points of (r - 1/r); < 24 for every terminal Fano basket."""
        return sum(
            (count * (Fraction(q.r) - Fraction(1, q.r)) for q, count in self.entries),
            Fraction(0),
        )


def fano_index(shape: HypersurfaceShape) -> int:
    """sum(weights) - degree; raises NotFano when the result is <= 0."""
    q = sum(shape.weights) - shape.degree
    if q <= 0:
        raise NotFano(f"index {q} <= 0 for {shape}")
    return q


def degree_a3(shape: HypersurfaceShape) -> Fraction:
    """A^3 = d / prod(w) for a hypersurface, 1 / prod(w) for the space itself."""
    prod = math.prod(shape.weights)
    if shape.degree == 0:
        return Fraction(1, prod)
    return Fraction(shape.degree, prod)


def monomials(weights, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with sum(a_i w_i) = d, descending lexicographic."""
    ws = tuple(int(w) for w in weights)
    if d < 0:
        raise ValueError("degree must be >= 0")

    found: list[tuple[int, ...]] = []

    def rec(pos: int, rem: int, acc: list[int]) -> None:
        if pos == len(ws):
            if rem == 0:
                found.append(tuple(acc))
            return
        if pos == len(ws) - 1:
            if rem % ws[pos] == 0:
                found.append(tuple(acc + [rem // ws[pos]]))
            return
        for a in range(rem // ws[pos] + 1):
            rec(pos + 1, rem - a * ws[pos], acc + [a])

    rec(0, d, [])
    return tuple(sorted(found, reverse=True))


def monomial_count(weights, d: int) -> int:
    """How many exponent vectors have sum(a_i w_i) = d, without listing them.

    The t^d coefficient of prod 1/(1 - t^w_i), in O(len(weights) * d) steps.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    return product_coefficients(ProductSpec((), tuple(weights)), d)[d]


def has_monomial(weights, d: int) -> bool:
    """Whether some exponent vector has sum(a_i w_i) = d, in O(n * min(w)) steps.

    least[k] is the least degree of a monomial congruent to k modulo the
    smallest weight a (round-robin shortest paths over residues, Boecker and
    Liptak 2007). Adding powers of the weight-a variable reaches every
    larger degree in the same class, so a degree-d monomial exists iff
    least[d mod a] <= d; the cost does not depend on d.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    ws = sorted(int(w) for w in weights)
    a = ws[0]
    least = [0] + [math.inf] * (a - 1)
    for w in ws[1:]:
        g = math.gcd(a, w)
        for start in range(g):
            # residues start, start + g, ... form one cycle under k -> k + w;
            # walk it once from its least reached degree
            n = min(least[start::g])
            if n == math.inf:
                continue
            for _ in range(a // g - 1):
                n += w
                k = n % a
                n = least[k] = min(n, least[k])
    return least[d % a] <= d


def hilbert(shape: HypersurfaceShape, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Hilbert series of the shape through t^order."""
    if shape.degree == 0:
        spec = ProductSpec((), shape.weights)
    else:
        spec = ProductSpec((shape.degree,), shape.weights)
    return expand_product(spec, order)


def _genus_from(series: PowerSeries, q: int) -> int:
    """Hilbert coefficient at t^q minus 2; the series must reach t^q."""
    return int(series[q]) - 2


def genus(shape: HypersurfaceShape) -> int:
    """h^0 of the anticanonical class minus 2: Hilbert coefficient at t^q, minus 2."""
    q = fano_index(shape)
    return _genus_from(hilbert(shape, q), q)


def corner_requirements(shape: HypersurfaceShape) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Per-vertex admissible monomials: pure powers x_i^n and near-powers x_i^n x_j.

    Quasi-smoothness at vertex i (for a general or specific member) requires
    the support to meet the returned set.
    """
    if shape.degree == 0:
        raise ValueError("corner requirements are defined for hypersurfaces (d > 0)")
    ws = shape.weights
    d = shape.degree
    out: dict[int, tuple[tuple[int, ...], ...]] = {}
    for i, wi in enumerate(ws):
        admissible: list[tuple[int, ...]] = []
        if d % wi == 0:
            vec = [0] * len(ws)
            vec[i] = d // wi
            admissible.append(tuple(vec))
        for j, wj in enumerate(ws):
            if j == i:
                continue
            rem = d - wj
            if rem >= wi and rem % wi == 0:
                vec = [0] * len(ws)
                vec[i] = rem // wi
                vec[j] = 1
                admissible.append(tuple(vec))
        out[i] = tuple(sorted(admissible, reverse=True))
    return out


def normalize_type(r: int, raw: tuple[int, int, int]) -> int:
    """Canonical b with u * raw = {1, r-1, b} for some unit u; min(b, r-b).

    Raises NotTerminalIsolated when a residue vanishes or shares a factor
    with r, or when no unit puts the triple in the required form.
    """
    if r < 2:
        raise ValueError("index must be >= 2")
    residues = tuple(x % r for x in raw)
    for x in residues:
        if x == 0 or math.gcd(x, r) != 1:
            raise NotTerminalIsolated(
                f"residues {residues} mod {r} are not coprime units: not an "
                f"isolated terminal cyclic quotient"
            )
    best: int | None = None
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
        raise NotTerminalIsolated(
            f"no unit carries {residues} mod {r} to the form (1, {r - 1}, b)"
        )
    return best


def _quotient(r: int, others: tuple[int, ...]) -> QuotientType:
    """The point 1/r(others) of a stratum with isotropy r and transverse weights others."""
    return QuotientType(r=r, b=normalize_type(r, others), raw=tuple(x % r for x in others))


def vertex_singularity(shape: HypersurfaceShape, i: int) -> QuotientType | None:
    """Quotient type at vertex i, or None where it is smooth or off the member.

    On the space itself (d = 0) the vertex is 1/w_i(other weights). For
    d > 0 a pure power x_i^n of degree d means the vertex misses the general
    member; otherwise some x_i^n x_j eliminates x_j and the remaining three
    weights mod w_i give the type. Raises NotQuasiSmoothAtVertex when the
    vertex lies on the member with no admissible monomial at all.
    """
    ws = shape.weights
    d = shape.degree
    wi = ws[i]
    if d == 0:
        return None if wi == 1 else _quotient(wi, ws[:i] + ws[i + 1 :])
    if d % wi == 0:
        return None  # general member avoids the vertex
    others = [
        tuple(w for k, w in enumerate(ws) if k not in (i, j))
        for j, wj in enumerate(ws)
        if j != i and d - wj >= wi and (d - wj) % wi == 0
    ]
    if not others:
        raise NotQuasiSmoothAtVertex(
            f"vertex w={wi} lies on the member but no monomial x_{wi}^n or "
            f"x_{wi}^n*x_j of degree {d} exists"
        )
    types = sorted({normalize_type(wi, rest) for rest in others})
    if len(types) != 1:
        raise NotTerminalIsolated(
            f"vertex w={wi}: eliminating variables disagree on the type: {types}"
        )
    return QuotientType(r=wi, b=types[0], raw=tuple(x % wi for x in min(others)))


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
    ws = shape.weights
    d = shape.degree
    wi, wj = ws[i], ws[j]
    m = math.gcd(wi, wj)
    if d == 0 and m > 1:
        raise NotTerminalIsolated(
            f"weights {wi}, {wj} share a factor: singular locus along the edge"
        )
    # x_i^a x_j^c has degree d iff a*w_i = d mod w_j, which fixes a mod w_j/m;
    # the least such a decides whether one fits under d (at d = 0, a = 0 does)
    step = wj // m
    if d % m or d // m * pow(wi // m, -1, step) % step * wi > d:
        raise EdgeContained(
            f"no degree-{d} monomial in x_{wi}, x_{wj}: member contains the edge"
        )
    if m == 1:
        return None
    count_frac = Fraction(d * m, wi * wj)
    if count_frac.denominator != 1:
        raise NotGeneral(
            f"edge ({wi},{wj}): point count {count_frac} is not an integer"
        )
    return int(count_frac), _quotient(m, tuple(ws[k] for k in range(len(ws)) if k not in (i, j)))


@dataclass(frozen=True)
class StratumVerdict:
    """One vertex or edge of the analysis with its status."""

    stratum: tuple[int, ...]          # variable positions
    weights: tuple[int, ...]          # their weights, for display
    status: str
    quotient: QuotientType | None = None
    count: int = 0


@dataclass(frozen=True)
class AnalysisReport:
    shape: HypersurfaceShape
    fano_index: int
    a3: Fraction
    basket: Basket | None
    genus: int
    hilbert: PowerSeries
    strata: tuple[StratumVerdict, ...]
    warnings: tuple[str, ...]


# status of a stratum whose rule raised; on the space itself (d = 0) an edge
# fails only as a curve of singularities, "singular-edge"
_FAILED = {
    NotQuasiSmoothAtVertex: "not-quasi-smooth",
    EdgeContained: "edge-contained",
    NotGeneral: "not-terminal-isolated",
    NotTerminalIsolated: "not-terminal-isolated",
}
_SINGULARITY_ERRORS = tuple(_FAILED)


def _walk(shape: HypersurfaceShape) -> Iterator[tuple[StratumVerdict, ValueError | None]]:
    """Every vertex, then every edge: its verdict, and the error that failed it.

    Coprime edges that do not fail carry no points and get no verdict. An
    error is handed on without its traceback, so it keeps no frame alive.
    """
    ws = shape.weights
    d = shape.degree
    for i, wi in enumerate(ws):
        try:
            qtype = vertex_singularity(shape, i)
        except _SINGULARITY_ERRORS as exc:
            yield StratumVerdict((i,), (wi,), _FAILED[type(exc)]), exc.with_traceback(None)
        else:
            if qtype is not None:
                yield StratumVerdict((i,), (wi,), "quotient", qtype, 1), None
            else:
                yield StratumVerdict((i,), (wi,), "off-member" if d else "smooth"), None
    for i, j in itertools.combinations(range(len(ws)), 2):
        try:
            result = edge_singularities(shape, i, j)
        except _SINGULARITY_ERRORS as exc:
            status = _FAILED[type(exc)] if d else "singular-edge"
            yield StratumVerdict((i, j), (ws[i], ws[j]), status), exc.with_traceback(None)
        else:
            if result is not None:
                count, qtype = result
                yield StratumVerdict((i, j), (ws[i], ws[j]), "quotient", qtype, count), None


def _basket_of(verdicts: list[StratumVerdict]) -> Basket:
    counts: dict[QuotientType, int] = {}
    for verdict in verdicts:
        if verdict.quotient is not None:
            counts[verdict.quotient] = counts.get(verdict.quotient, 0) + verdict.count
    return Basket(tuple(counts.items()))


def basket(shape: HypersurfaceShape) -> Basket:
    """Union of vertex and edge contributions; raises the first stratum's error."""
    verdicts = []
    for verdict, error in _walk(shape):
        if error is not None:
            raise error
        verdicts.append(verdict)
    return _basket_of(verdicts)


def _warning(verdict: StratumVerdict, message: str, contained: dict[tuple[int, ...], int]) -> str:
    if verdict.status == "not-quasi-smooth":
        return f"not quasi-smooth at vertex w={verdict.weights[0]}"
    if verdict.status == "edge-contained":
        edges = contained[verdict.weights]
        what = "the edge" if edges == 1 else f"{edges} edges"
        wi, wj = verdict.weights
        return f"member contains {what} w=({wi},{wj}); analysis out of scope"
    return message


def analyze(shape: HypersurfaceShape, order: int | None = None) -> AnalysisReport:
    """Full combinatorial report for a shape; singularity failures become warnings.

    Each distinct warning is given once; contained edges of equal weights
    share one warning that counts them.
    """
    q = fano_index(shape)
    if order is None:
        order = max(q, DEFAULT_ORDER)
    warnings: list[str] = []
    if not well_formed(shape.weights):
        warnings.append(f"weights {shape.weights} are not well-formed")

    # failed strata and their messages in two lists, not as pairs, and no error
    # kept: fewer live objects for the cyclic collector to count per analysis
    strata: list[StratumVerdict] = []
    failed: list[StratumVerdict] = []
    messages: list[str] = []
    contained: dict[tuple[int, ...], int] = {}
    for verdict, error in _walk(shape):
        strata.append(verdict)
        if error is not None:
            failed.append(verdict)
            messages.append(str(error))
            if verdict.status == "edge-contained":
                contained[verdict.weights] = contained.get(verdict.weights, 0) + 1
    warnings.extend(_warning(v, message, contained) for v, message in zip(failed, messages))
    # one expansion serves both the genus (t^q) and the reported series
    series = hilbert(shape, max(order, q))
    return AnalysisReport(
        shape=shape,
        fano_index=q,
        a3=degree_a3(shape),
        basket=None if failed else _basket_of(strata),
        genus=_genus_from(series, q),
        hilbert=series if order >= q else series.truncate(order),
        strata=tuple(strata),
        warnings=tuple(dict.fromkeys(warnings)),
    )
