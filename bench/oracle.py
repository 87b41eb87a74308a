"""Answers the benchmark checks qfano against, computed without qfano's code.

Nothing here uses qfano's code except ``series.partition_count``, which the
caller passes in: the package's deliberately naive brute-force counter, kept
apart from its series machinery as the reference for Hilbert coefficients.
Every check returns ``None`` when the answer is right and a one-line reason
when it is wrong, so a corrupted answer can be fed to it in the self-checks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

STANDARD_WEIGHTS = (3, 4, 5, 6, 7)

# ---------------------------------------------------------------- series


def closed_form(weights, degree: int, order: int) -> list[int]:
    """Coefficients of (1 - t^degree) / prod (1 - t^w) through t^order, as ints.

    Degree 0 means the space itself: no numerator factor. Computed as
    p(m) - p(m - degree) with p the partition counts of prod 1/(1 - t^w).
    """
    p = [1] + [0] * order
    for w in weights:
        for m in range(w, order + 1):
            p[m] += p[m - w]
    if degree == 0:
        return p
    return [p[m] - (p[m - degree] if m >= degree else 0) for m in range(order + 1)]


def hilbert_by_partitions(partition_count, weights, degree: int, order: int) -> list[int]:
    """partition_count(w, m) - partition_count(w, m - d) for m = 0..order."""
    out = []
    for m in range(order + 1):
        c = partition_count(weights, m)
        if degree and m >= degree:
            c -= partition_count(weights, m - degree)
        out.append(c)
    return out


def as_ints(coefficients) -> list[int] | None:
    """Exact integer coefficients of a series, or None if one is fractional."""
    out = []
    for c in coefficients:
        c = Fraction(c)
        if c.denominator != 1:
            return None
        out.append(c.numerator)
    return out


def check_series(expected: list[int], coefficients, label: str) -> str | None:
    got = as_ints(coefficients)
    if got is None:
        return f"{label}: fractional coefficient"
    if got != expected:
        first = next((m for m, (a, b) in enumerate(zip(got, expected)) if a != b), None)
        if first is None:
            return f"{label}: {len(got)} coefficients, expected {len(expected)}"
        return f"{label}: t^{first} is {got[first]}, expected {expected[first]}"
    return None


# ---------------------------------------------------------------- scan


def check_scan(weights, q: int, empty: bool, report, partition_count) -> str | None:
    """A scanned shape: emptiness, index, degree, genus and Hilbert series."""
    d = sum(weights) - q
    really_empty = partition_count(weights, d) == 0
    if empty != really_empty:
        return f"empty={empty} but partition_count(w, {d}) == 0 is {really_empty}"
    if empty or report is None:
        return None
    if report.fano_index != q:
        return f"fano index {report.fano_index}, expected {q}"
    if report.a3 != Fraction(d, math.prod(weights)):
        return f"A^3 {report.a3}, expected {Fraction(d, math.prod(weights))}"
    expected = closed_form(weights, d, len(report.hilbert.coefficients) - 1)
    problem = check_series(expected, report.hilbert.coefficients, "hilbert")
    if problem:
        return problem
    if report.genus != expected[q] - 2:
        return f"genus {report.genus}, expected {expected[q] - 2}"
    return None


# ---------------------------------------------------------------- Riemann-Roch


def check_calibration(fixture, data, rr_coefficients, order: int) -> str | None:
    """Calibrated data of a fixture: basket, orientation, and the RR series.

    The orientation every calibrated entry must carry is wA = -q^{-1} mod r.
    """
    indices = tuple(sorted(e.r for e in data.entries))
    if indices != tuple(fixture.basket_indices):
        return f"basket {indices}, expected {tuple(fixture.basket_indices)}"
    for e in data.entries:
        if (data.q * e.wa + 1) % e.r:
            return f"entry r={e.r} wA={e.wa} is not -q^-1 mod r for q={data.q}"
    if data.q != fixture.fano_index or data.a3 != fixture.a3:
        return f"(q, A^3) = ({data.q}, {data.a3}), expected ({fixture.fano_index}, {fixture.a3})"
    expected = closed_form(fixture.shape.weights, fixture.shape.degree, order)
    return check_series(expected, rr_coefficients, "riemann-roch")


# ---------------------------------------------------------------- links


def golden_keys(text: str) -> tuple[list[str], list[str]]:
    """Candidate keys of the bare and final sections of a link transcript."""
    bare: list[str] = []
    final: list[str] = []
    section = None
    for line in text.splitlines():
        if line.startswith("bare solutions:"):
            section = bare
        elif line.startswith("final solutions:"):
            section = final
        elif not line.startswith("  "):
            section = None
        elif section is not None and line.startswith("  [") and "]" in line:
            section.append(line[3 : line.index("]")])
    return bare, final


def check_link_text(golden: str, text: str) -> str | None:
    if text != golden:
        for n, (a, b) in enumerate(zip(text.splitlines(), golden.splitlines()), 1):
            if a != b:
                return f"transcript differs from golden at line {n}"
        return "transcript length differs from golden"
    return None


def check_link_json(golden: str, case: str, stdout: str) -> str | None:
    try:
        payload = json.loads(stdout)
        got_case, got_final = payload["case"], payload["final"]
        got_bare = [f"alpha={c['alpha']} qhat={c['qhat']} e={c['e']}" for c in payload["bare"]]
    except (ValueError, KeyError, TypeError):
        return "link --json output is malformed"
    bare, final = golden_keys(golden)
    if got_case != case.upper():
        return f"case {got_case!r}, expected {case.upper()!r}"
    if got_bare != bare:
        return f"bare candidates {got_bare}, golden has {bare}"
    if got_final != final:
        return f"final {got_final}, golden has {final}"
    return None


def check_link_bare(golden: str, stdout: str) -> str | None:
    bare, _ = golden_keys(golden)
    got = [line[3 : line.index("]")] for line in stdout.splitlines() if line.startswith("  [") and "]" in line]
    if got != bare:
        return f"bare candidates {got}, golden has {bare}"
    return None


# ---------------------------------------------------------------- normal form

Poly = dict[tuple[int, ...], Fraction]


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _var(i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(5))


def _rational(rng, allow_zero: bool = False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if x or allow_zero:
            return x


def seeded_equation(rng) -> tuple[str, str]:
    """A degree-12 equation over (3,4,5,6,7) and the class it was built from.

    Starts from form (a) x5*x7 + x4^3 + x6^2 + lam*x3^4 (lam != 0) or form
    (b) (lam = 0), then applies a triangular coordinate change
    x_i -> c_i*x_i, x6 -> c6*x6 + b*x3^2, x7 -> c7*x7 + a*x3*x4 and scales
    the equation. Coordinate changes preserve the class.
    """
    form = rng.choice("AB")
    lam = _rational(rng) if form == "A" else Fraction(0)
    a, b = _rational(rng, True), _rational(rng, True)
    c = [_rational(rng) for _ in range(5)]
    image = [{_var(i): c[i]} for i in range(5)]
    if b:
        image[3][tuple(2 if k == 0 else 0 for k in range(5))] = b
    if a:
        image[4][(1, 1, 0, 0, 0)] = a

    def monomial(exp) -> Poly:
        out: Poly = {(0,) * 5: Fraction(1)}
        for i, power in enumerate(exp):
            for _ in range(power):
                out = _mul(out, image[i])
        return out

    source = {(0, 0, 1, 0, 1): Fraction(1), (0, 3, 0, 0, 0): Fraction(1), (0, 0, 0, 2, 0): Fraction(1)}
    if lam:
        source[(4, 0, 0, 0, 0)] = lam
    scale = _rational(rng)
    total: Poly = {}
    for exp, coeff in source.items():
        for e, v in monomial(exp).items():
            total[e] = total.get(e, Fraction(0)) + scale * coeff * v
    return poly_text(total), form


def poly_text(poly: Poly) -> str:
    """Render in the qfano polynomial grammar (terms in a fixed order)."""
    pieces = []
    for exp in sorted(poly, reverse=True):
        coeff = poly[exp]
        if not coeff:
            continue
        factors = [
            f"x{w}" if power == 1 else f"x{w}^{power}"
            for w, power in zip(STANDARD_WEIGHTS, exp)
            if power
        ]
        magnitude = abs(coeff)
        body = "*".join(([str(magnitude)] if magnitude != 1 else []) + factors)
        sign = "-" if coeff < 0 else "+"
        if pieces:
            pieces.append(f"{sign} {body}")
        else:
            pieces.append(f"-{body}" if sign == "-" else body)
    return " ".join(pieces)


def check_normal_form(expected_class: str, form: str) -> str | None:
    if form != expected_class:
        return f"class {form}, equation was built from class {expected_class}"
    return None
