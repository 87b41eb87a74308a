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
exponent vectors where the vectors themselves are needed (base loci) and is
the oracle the counts are tested against. Whether a shape is empty needs no
count at all: ``has_monomial`` decides it from least degrees per residue
class of the smallest weight, at a cost independent of d.

Conventions fixed for determinism: weights are sorted ascending on
construction, monomials are listed in descending lexicographic order on
exponent vectors, and baskets are sorted by (r, b).

Quasi-smoothness is checked only on strata of dimension <= 1 (vertices and
edges), which suffices for every shape shipped with the package. A shape
that contains a coordinate stratum is reported, not analyzed.
"""

from __future__ import annotations

import itertools
import math
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


def vertex_singularity(shape: HypersurfaceShape, i: int) -> QuotientType | None:
    """Quotient type of the general member at vertex i, or None if off the member.

    A pure power x_i^n of degree d in the support candidates means the
    vertex misses the general member. Otherwise some x_i^n x_j eliminates
    x_j and the remaining three weights mod w_i give the type. Raises
    NotQuasiSmoothAtVertex when the vertex lies on the member with no
    admissible monomial at all.
    """
    ws = shape.weights
    d = shape.degree
    if d == 0:
        raise ValueError("use basket() for the d=0 vertex analysis")
    wi = ws[i]
    if d % wi == 0:
        return None  # general member avoids the vertex
    eliminators = [
        j
        for j, wj in enumerate(ws)
        if j != i and d - wj >= wi and (d - wj) % wi == 0
    ]
    if not eliminators:
        raise NotQuasiSmoothAtVertex(
            f"vertex w={wi} lies on the member but no monomial x_{wi}^n or "
            f"x_{wi}^n*x_j of degree {d} exists"
        )
    results = []
    for j in eliminators:
        others = tuple(ws[k] for k in range(len(ws)) if k not in (i, j))
        results.append((normalize_type(wi, others), others))
    results.sort()
    types = {b for b, _ in results}
    if len(types) != 1:
        raise NotTerminalIsolated(
            f"vertex w={wi}: eliminating variables disagree on the type: {sorted(types)}"
        )
    b, raw = results[0]
    return QuotientType(r=wi, b=b, raw=tuple(x % wi for x in raw))


def edge_singularities(
    shape: HypersurfaceShape, i: int, j: int
) -> tuple[int, QuotientType] | None:
    """General-member singular points along the (i, j) edge: (count, type) or None.

    Requires a monomial of degree d purely in {x_i, x_j}; otherwise the
    member contains the edge and the analysis is out of scope
    (EdgeContained). A fractional point count means the member was not
    general (NotGeneral).
    """
    ws = shape.weights
    d = shape.degree
    if d == 0:
        raise ValueError("use basket() for the d=0 analysis")
    wi, wj = ws[i], ws[j]
    m = math.gcd(wi, wj)
    if not any((d - a * wi) % wj == 0 for a in range(d // wi + 1)):
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
    others = tuple(ws[k] for k in range(len(ws)) if k not in (i, j))
    b = normalize_type(m, others)
    qtype = QuotientType(r=m, b=b, raw=tuple(x % m for x in others))
    return int(count_frac), qtype


def _space_vertex_type(weights: tuple[int, ...], i: int) -> QuotientType | None:
    """Quotient type at vertex i of the weighted projective space itself."""
    wi = weights[i]
    if wi == 1:
        return None
    others = tuple(weights[k] for k in range(len(weights)) if k != i)
    b = normalize_type(wi, others)
    return QuotientType(r=wi, b=b, raw=tuple(x % wi for x in others))


def basket(shape: HypersurfaceShape) -> Basket:
    """Union of vertex and edge contributions with multiplicities."""
    counts: dict[QuotientType, int] = {}

    def add(qtype: QuotientType, count: int = 1) -> None:
        counts[qtype] = counts.get(qtype, 0) + count

    ws = shape.weights
    if shape.degree == 0:
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if math.gcd(ws[i], ws[j]) != 1:
                    raise NotTerminalIsolated(
                        f"weights {ws[i]}, {ws[j]} share a factor: singular locus "
                        f"along a coordinate edge"
                    )
        for i in range(len(ws)):
            qtype = _space_vertex_type(ws, i)
            if qtype is not None:
                add(qtype)
    else:
        for i in range(len(ws)):
            qtype = vertex_singularity(shape, i)
            if qtype is not None:
                add(qtype)
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                result = edge_singularities(shape, i, j)
                if result is not None:
                    count, qtype = result
                    add(qtype, count)
    return Basket(tuple(counts.items()))


def monomial_base_locus(weights, d: int) -> tuple[tuple[int, ...], ...]:
    """Maximal coordinate strata in the common zero locus of all degree-d monomials.

    Each stratum is the sorted tuple of vanishing variable positions; a
    stratum S is in the base locus iff every degree-d monomial uses some
    variable from S. Minimal such S are returned (the full variable set,
    which cuts the empty stratum, is excluded).
    """
    ws = tuple(int(w) for w in weights)
    supports = [frozenset(k for k, a in enumerate(vec) if a > 0) for vec in monomials(ws, d)]
    if not supports:
        raise ValueError(f"no monomials of degree {d} in weights {ws}")
    n = len(ws)
    hitting: list[tuple[int, ...]] = []
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if any(set(prev) <= s for prev in hitting):
                continue
            if all(s & supp for supp in supports):
                hitting.append(combo)
    return tuple(sorted(hitting))


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


def analyze(shape: HypersurfaceShape, order: int | None = None) -> AnalysisReport:
    """Full combinatorial report for a shape; singularity failures become warnings."""
    q = fano_index(shape)
    if order is None:
        order = max(q, DEFAULT_ORDER)
    warnings: list[str] = []
    if not well_formed(shape.weights):
        warnings.append(f"weights {shape.weights} are not well-formed")

    strata: list[StratumVerdict] = []
    ws = shape.weights
    failed = False
    if shape.degree == 0:
        for i in range(len(ws)):
            try:
                qtype = _space_vertex_type(ws, i)
            except NotTerminalIsolated as exc:
                strata.append(StratumVerdict((i,), (ws[i],), "not-terminal-isolated"))
                warnings.append(str(exc))
                failed = True
                continue
            if qtype is None:
                strata.append(StratumVerdict((i,), (ws[i],), "smooth"))
            else:
                strata.append(StratumVerdict((i,), (ws[i],), "quotient", qtype, 1))
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if math.gcd(ws[i], ws[j]) != 1:
                    strata.append(
                        StratumVerdict((i, j), (ws[i], ws[j]), "singular-edge")
                    )
                    warnings.append(
                        f"weights {ws[i]}, {ws[j]} share a factor: singular "
                        f"locus along the edge"
                    )
                    failed = True
    else:
        for i in range(len(ws)):
            try:
                qtype = vertex_singularity(shape, i)
            except NotQuasiSmoothAtVertex:
                strata.append(StratumVerdict((i,), (ws[i],), "not-quasi-smooth"))
                warnings.append(f"not quasi-smooth at vertex w={ws[i]}")
                failed = True
                continue
            except NotTerminalIsolated as exc:
                strata.append(StratumVerdict((i,), (ws[i],), "not-terminal-isolated"))
                warnings.append(str(exc))
                failed = True
                continue
            if qtype is None:
                status = "off-member" if shape.degree % ws[i] == 0 else "smooth"
                strata.append(StratumVerdict((i,), (ws[i],), status))
            else:
                strata.append(StratumVerdict((i,), (ws[i],), "quotient", qtype, 1))
        # contained edges of equal weights share one warning:
        # weight pair -> (position of its warning, edges so far)
        contained: dict[tuple[int, int], tuple[int, int]] = {}
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                # coprime edges carry no quotient points but may still lie on
                # the member, which basket() would then refuse
                try:
                    result = edge_singularities(shape, i, j)
                except EdgeContained:
                    pair = (ws[i], ws[j])
                    strata.append(StratumVerdict((i, j), pair, "edge-contained"))
                    failed = True
                    slot, edges = contained.get(pair, (len(warnings), 0))
                    contained[pair] = (slot, edges + 1)
                    what = "the edge" if edges == 0 else f"{edges + 1} edges"
                    message = (
                        f"member contains {what} w=({ws[i]},{ws[j]}); "
                        f"analysis out of scope"
                    )
                    if edges == 0:
                        warnings.append(message)
                    else:
                        warnings[slot] = message
                    continue
                except (NotGeneral, NotTerminalIsolated) as exc:
                    strata.append(
                        StratumVerdict((i, j), (ws[i], ws[j]), "not-terminal-isolated")
                    )
                    warnings.append(str(exc))
                    failed = True
                    continue
                if result is not None:
                    count, qtype = result
                    strata.append(
                        StratumVerdict((i, j), (ws[i], ws[j]), "quotient", qtype, count)
                    )

    bk: Basket | None
    if failed:
        bk = None
    else:
        bk = basket(shape)
    # one expansion serves both the genus (t^q) and the reported series
    series = hilbert(shape, max(order, q))
    return AnalysisReport(
        shape=shape,
        fano_index=q,
        a3=degree_a3(shape),
        basket=bk,
        genus=_genus_from(series, q),
        hilbert=series if order >= q else series.truncate(order),
        strata=tuple(strata),
        warnings=tuple(warnings),
    )
