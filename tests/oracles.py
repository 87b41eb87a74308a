"""The tests' oracles: what they compare qfano against, on the standard library alone.

The rule: only standard-library imports (``test_source_layout.py`` checks them) and no
call into qfano, since an oracle that ran the code it checks could share its fault. Each
takes plain values or reads a record by attribute. Counting and listing:
``partition_count``, ``monomials``, ``monomial_counts``, ``has_monomial``. Series:
``fraction_expand``. Riemann-Roch: ``local_c``, ``reference_a_c2``, ``reference_chi``,
``flip_search``.
X12's link equations: ``reference_beta_class``, ``reference_m_min``, ``reference_splits``,
``reference_e_bound``, ``reference_second_contraction``, ``brute_force_bare``. Normal
form: ``reference_corner_requirements``, and on exponent -> Fraction dicts
``reference_parse``, ``reference_substitute``, ``rational_cube_root`` and
``reference_normalize``. Strata: ``stratum_analysis``, every verdict read
off one table of monomial counts and a point's type off a search over units, and
``mismatches``, which compares an ``analyze`` report with it.
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


def partition_count(parts, n: int) -> int:
    """How many ways n is a sum of parts, each entry of ``parts`` its own kind: the t^n
    coefficient of prod 1/(1 - t^p). The count oracle, a naive recursion over how often
    each part is taken, not the running sums of the series kernel and ``monomial_counts``."""
    parts = sorted(parts, reverse=True)

    @functools.cache
    def count(i: int, rest: int) -> int:
        if i == len(parts):
            return int(rest == 0)
        return sum(count(i + 1, rest - j * parts[i]) for j in range(rest // parts[i] + 1))

    return count(0, n)


def monomials(weights, d: int) -> tuple[tuple[int, ...], ...]:
    """Every exponent vector with sum(a_i * w_i) = d, in descending lexicographic order:
    the listing oracle, which builds every vector of degree <= d and keeps those of d."""
    vectors = [((), 0)]  # (exponents, their degree)
    for w in weights:
        vectors = [((*v, a), n + a * w) for v, n in vectors for a in range((d - n) // w + 1)]
    return tuple(sorted((v for v, n in vectors if n == d), reverse=True))


COUNTED = 10**4  # has_monomial counts monomials through a Schur bound up to this degree


def has_monomial(weights, d: int) -> bool:
    """Whether some exponent vector has sum(a_i * w_i) = d. Weights above d drop out, the
    gcd g of the rest must divide d, and the rest over g, a <= ... <= b, reach every degree
    from Schur's bound (a - 1)(b - 1) on (Brauer 1942). Below it the monomial count decides
    while the bound is at most COUNTED; past that, for a huge b, ``_least_degrees`` does."""
    ws = sorted({w for w in weights if w <= d})
    if not ws:
        return d == 0
    g = math.gcd(*ws)
    if d % g:
        return False
    ws, d = [w // g for w in ws], d // g
    bound = (ws[0] - 1) * (ws[-1] - 1)
    if d >= bound:
        return True
    if bound <= COUNTED:
        return monomial_counts(tuple(ws), bound)[d] > 0
    return _least_degrees(ws)[d % ws[0]] <= d


def _least_degrees(ws: list[int]) -> list:
    """least[k]: the least degree of a monomial congruent to k mod the least weight a, or
    math.inf, by round-robin shortest paths (Boecker and Liptak 2007); powers of x_a reach
    every larger degree of a class. A copy of the table in ``wps``, so not independent of
    it: ``has_monomial`` reads it only past COUNTED, where no count can be expanded."""
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


def fraction_expand(numerator, denominator, order: int) -> tuple[Fraction, ...]:
    """prod (1 - t^a) / prod (1 - t^b) through t^order, in Fraction arithmetic: the
    recurrence the series kernel replaced, kept as its reference."""
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for a in numerator:
        for m in range(order, a - 1, -1):
            coeffs[m] -= coeffs[m - a]
    for b in denominator:
        for m in range(b, order + 1):
            coeffs[m] += coeffs[m - b]
    return tuple(coeffs)


@functools.cache
def local_c(r: int, b: int, i: int) -> Fraction:
    """Periodic Riemann-Roch correction of a point 1/r(1, r-1, b) at residue i, as stated."""
    assert 0 <= i < r
    value = Fraction(-i * (r * r - 1), 12 * r)
    for j in range(1, i):
        jb = (j * b) % r
        value += Fraction(jb * (r - jb), 2 * r)
    return value


def reference_a_c2(data) -> Fraction:
    """A.c2 from 24 chi(O) = q (A.c2) + sum (r - 1/r), summed in Fraction arithmetic as
    stated; ``data`` is read for q and the entries' r."""
    total = sum((Fraction(e.r) - Fraction(1, e.r) for e in data.entries), Fraction(0))
    return (24 - total) / data.q


def reference_chi(data, m: int) -> Fraction:
    """chi(mA) summed in Fraction arithmetic straight from the stated formula; ``data`` is
    read for q, a3 and the entries' r, b and wa."""
    q = data.q
    cubic = Fraction(m * (m + q) * (2 * m + q), 12) * data.a3
    total = 1 + cubic + Fraction(m, 12) * reference_a_c2(data)
    for e in data.entries:
        total += local_c(e.r, e.b, (m * e.wa) % e.r)
    return total


RRData = collections.namedtuple("RRData", "q a3 entries")  # what reference_chi reads
RREntry = collections.namedtuple("RREntry", "r b wa")


def flip_search(q: int, a3: Fraction, triples, coefficients) -> tuple:
    """The one basket of sorted (r, b, wA) triples, each point's wA or r - wA, whose
    reference_chi equals the series coefficients from t^0 on; b is stored as min(b, r - b),
    since the correction is symmetric in it. Asserts that exactly one basket matches."""
    options = [{RREntry(r, min(b, r - b), w) for w in (wa % r, -wa % r)} for r, b, wa in triples]
    picks = {tuple(sorted(pick)) for pick in itertools.product(*options)}
    found = [
        pick for pick in picks
        if all(reference_chi(RRData(q, a3, pick), m) == c for m, c in enumerate(coefficients))
    ]
    assert len(found) == 1, f"{len(found)} baskets match the series"
    return found[0]


# The link equations k * qhat = 13 * s_k + (13 * beta_k - k * alpha) * e of X12, of index 13,
# in Fraction arithmetic: the evaluation the integer kernel replaced. A centre case is read
# for r, k, alphas and reference_bare; the tests pass in the admissible Fano indices.
LINK_Q = 13


def reference_beta_class(case, k: int, alpha: Fraction) -> Fraction:
    """beta_k mod 1 over the case's centre: t * alpha, t = k / 13 mod r; 0 if Cartier."""
    if case.r is None:
        return Fraction(0)
    value = (k * pow(LINK_Q, -1, case.r) % case.r) * alpha
    return value - math.floor(value)


def reference_m_min(case, k: int, alpha: Fraction) -> int:
    """The least m in beta_6 = class + m: canonical threshold <= 1/2 wants beta_6 >= 2 alpha."""
    return max(0, math.ceil(2 * alpha - reference_beta_class(case, k, alpha))) if k == 6 else 0


def reference_splits(case, alpha, qhat, e, k, birational) -> tuple:
    """Every (s_k, beta_k) of the degree-k equation, s_k >= 1 for a birational link where
    dim |kA| >= 1, that is where X12 has two degree-k monomials."""
    rep = reference_beta_class(case, k, alpha)
    m_min = reference_m_min(case, k, alpha)
    s_min = 1 if birational and monomial_counts((3, 4, 5, 6, 7), k)[k] > 1 else 0
    lhs = k * qhat - (LINK_Q * rep - k * alpha) * e
    if lhs.denominator != 1 or lhs < 0 or lhs % LINK_Q:
        return ()
    reach, out, m = int(lhs) // LINK_Q, [], m_min
    while reach - m * e >= s_min:
        out.append((reach - m * e, rep + m))
        m += 1
    return tuple(out)


def reference_e_bound(case, alpha: Fraction, indices) -> int:
    """The largest e the case's equation allows at the least beta and s and the largest index."""
    beta_min = reference_beta_class(case, case.k, alpha) + reference_m_min(case, case.k, alpha)
    return math.floor(Fraction(case.k * max(indices)) / (LINK_Q * beta_min - case.k * alpha))


def reference_second_contraction(e, qhat, s, q=LINK_Q, smooth_point=True, delta_max=400):
    """Every admissible (delta, b, gammas) with delta <= delta_max, by trying each delta."""
    for delta in range(1, delta_max + 1):
        gammas = [(k, Fraction(s[k] * delta - k, e)) for k in sorted(s)]
        if any(g < 0 or g.denominator != 1 for _, g in gammas):
            continue
        b = Fraction(qhat * delta - q, e)
        if smooth_point and b.denominator != 1:
            continue
        yield delta, b, tuple(gammas)


def brute_force_bare(case, indices) -> list[tuple]:
    """(alpha, qhat, e, birational, splits, extra) of every e up to the bound with a split,
    birational qhat in ``indices``, fiber-type in 1..3, as enumerate_bare sorts them."""
    found = []
    reference = set(case.reference_bare)
    for alpha in case.alphas:
        for birational, qhats in ((True, indices), (False, (1, 2, 3))):
            for qhat in qhats:
                for e in range(1, reference_e_bound(case, alpha, indices) + 1):
                    splits = reference_splits(case, alpha, qhat, e, case.k, birational)
                    if splits:
                        extra = (alpha, qhat, e) not in reference
                        found.append((alpha, qhat, e, birational, splits, extra))
    return sorted(found, key=lambda row: (row[1], row[2], row[0]))


def reference_corner_requirements(weights, d: int) -> dict[int, list[tuple[int, ...]]]:
    """The per-vertex monomial table corner_check replaced, kept as its oracle.

    Vertex i admits the pure power x_i^n and every near-power x_i^n*x_j of
    degree d, over the weights in the order given.
    """
    out, n = {}, len(weights)
    for i, wi in enumerate(weights):
        out[i] = [tuple(d // wi if k == i else 0 for k in range(n))] if d % wi == 0 else []
        for j, wj in enumerate(weights):
            if j != i and d - wj >= wi and (d - wj) % wi == 0:
                out[i].append(tuple((d - wj) // wi if k == i else int(k == j) for k in range(n)))
    return out


# The degree-12 normal form on plain values: a polynomial is an exponent -> Fraction dict,
# zero coefficients left out, over the weights (3, 4, 5, 6, 7), and a variable is named by
# its weight. These are the character-at-a-time parser, the Fraction expansion and the
# step-by-step pipeline that normal_form replaced.
NORMAL_FORM_WEIGHTS = (3, 4, 5, 6, 7)
MAX_LITERAL_DIGITS = 4300


class ParseFailure(ValueError):
    """reference_parse's refusal; its message is the one normal_form.parse gives."""


def reference_parse(text: str) -> dict:
    """Text in normal_form's grammar as its terms, reading one character at a time.

    Digits are what str.isdecimal accepts, so it agrees with parse on text whose
    digits are ASCII.
    """
    ws, pos = NORMAL_FORM_WEIGHTS, 0
    terms: dict = {}

    def peek():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return text[pos] if pos < len(text) else ""

    def take_nat():
        nonlocal pos
        peek()
        start = pos
        while pos < len(text) and text[pos].isdecimal():
            pos += 1
        if pos == start:
            raise ParseFailure(f"expected a number at position {start}")
        if pos - start > MAX_LITERAL_DIGITS:
            raise ParseFailure(
                f"number of {pos - start} digits at position {start} "
                f"exceeds {MAX_LITERAL_DIGITS} digits"
            )
        return int(text[start:pos])

    def read_factor(exp):
        nonlocal pos
        if peek() != "x":
            raise ParseFailure(f"expected 'x' at position {pos}")
        pos += 1
        w = take_nat()
        if w not in ws:
            raise ParseFailure(f"unknown variable x{w} at position {pos}")
        power = 1
        if peek() == "^":
            pos += 1
            power = take_nat()
        exp[ws.index(w)] += power

    def read_term(sign):
        nonlocal pos
        coeff, exp = Fraction(sign), [0] * len(ws)
        if peek().isdecimal():
            coeff *= take_nat()
            if peek() == "/":
                pos += 1
                den = take_nat()
                if den == 0:
                    raise ParseFailure(f"zero denominator at position {pos}")
                coeff /= den
        else:
            read_factor(exp)
        while peek() == "*":
            pos += 1
            read_factor(exp)
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
        if not terms[key]:
            del terms[key]

    if peek() == "":
        raise ParseFailure("empty input")
    sign = 1
    if peek() == "-":
        pos += 1
        sign = -1
    read_term(sign)
    while (nxt := peek()) != "":
        if nxt not in "+-":
            raise ParseFailure(f"unexpected {nxt!r} at position {pos}")
        pos += 1
        read_term(1 if nxt == "+" else -1)
    return terms


def _plus(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, c in b.items():
        out[exp] = out.get(exp, 0) + c
        if not out[exp]:
            del out[exp]
    return out


def _times(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {exp: c for exp, c in out.items() if c}


def reference_substitute(n: int, terms: dict, rules: dict) -> dict:
    """terms with each x_i replaced at once by c*x_i + shift, for rules {i: (c, shift terms)}
    over n variables: every power multiplied out in Fraction arithmetic."""
    replacements = {}
    for i in range(n):
        unit = tuple(int(k == i) for k in range(n))
        c, shift = rules.get(i, (1, {}))
        replacements[i] = _plus({unit: Fraction(c)}, shift)
    total: dict = {}
    for exp, coeff in terms.items():
        piece = {(0,) * n: Fraction(coeff)}
        for i, a in enumerate(exp):
            for _ in range(a):
                piece = _times(piece, replacements[i])
        total = _plus(total, piece)
    return total


def _cube_root(n: int) -> int | None:
    """The integer cube root of n >= 0, or None: bisection, another method than normal_form's."""
    lo, hi = 0, 1 << -(-n.bit_length() // 3)  # the root is below 2^ceil(bits/3)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid**3 < n else (lo, mid)
    return lo if lo**3 == n else None


def rational_cube_root(x: Fraction) -> Fraction | None:
    """The rational cube root of x, or None when it has none."""
    p, q = _cube_root(abs(x.numerator)), _cube_root(x.denominator)
    return None if p is None or q is None else Fraction(p if x >= 0 else -p, q)


def reference_normalize(terms: dict) -> tuple:
    """(form, lambda, steps, final terms) of a degree-12 equation over (3, 4, 5, 6, 7).

    Each rescaling and each shift is its own substitution, and every coefficient is
    read back from the expanded terms.
    """
    e57, e444, e66 = (0, 0, 1, 0, 1), (0, 3, 0, 0, 0), (0, 0, 0, 2, 0)
    e336, e345, e3333 = (2, 0, 0, 1, 0), (1, 1, 1, 0, 0), (4, 0, 0, 0, 0)
    x4, x5, x6, x7 = 1, 2, 3, 4  # positions
    for exp, name in ((e57, "x5*x7"), (e444, "x4^3"), (e66, "x6^2")):
        if not terms.get(exp):
            raise ValueError(f"required corner monomial {name} has zero coefficient")
    steps, current = [], dict(terms)

    def coefficient(exp):
        return current.get(exp, Fraction(0))

    c66 = coefficient(e66)
    if c66 != 1:
        current = {k: v / c66 for k, v in current.items()}
        steps.append(f"scale the equation by {1 / c66}")
    c57 = coefficient(e57)
    if c57 != 1:
        current = reference_substitute(5, current, {x5: (1 / c57, {})})
        steps.append(f"x5 -> {1 / c57}*x5")
    c444 = coefficient(e444)
    if c444 != 1:
        root = rational_cube_root(c444)
        if root is not None:
            current = reference_substitute(5, current, {x4: (1 / root, {})})
            steps.append(f"x4 -> {1 / root}*x4")
        else:
            steps.append(f"x4^3 keeps unit {c444} (no rational cube root)")
    if c345 := coefficient(e345):
        shift = c345 / coefficient(e57)
        current = reference_substitute(5, current, {x7: (1, {(1, 1, 0, 0, 0): -shift})})
        steps.append(f"x7 -> x7 - {shift}*x3*x4")
    if c336 := coefficient(e336):
        shift = c336 / (2 * coefficient(e66))
        current = reference_substitute(5, current, {x6: (1, {(2, 0, 0, 0, 0): -shift})})
        steps.append(f"x6 -> x6 - {shift}*x3^2")
    leftover = set(current) - {e57, e444, e66, e3333}
    assert not leftover, f"pipeline left unexpected support {leftover}"
    lam = coefficient(e3333)
    return "A" if lam else "B", lam, tuple(steps), current


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
