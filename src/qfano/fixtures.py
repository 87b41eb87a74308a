"""Embedded fixture corpus: the degree-12 hypersurface and the link targets.

Every fixture records the invariants its shape must reproduce; ``verify``
recomputes them and returns the mismatches (empty list = clean), which is
what the CLI self-test runs on load.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import wps

X12_SHAPE = wps.HypersurfaceShape((3, 4, 5, 6, 7), 12)

# the two normal forms of the degree-12 equation
FORM_A = "x5*x7 + x4^3 + x6^2 + x3^4"
FORM_B = "x5*x7 + x4^3 + x6^2"


Fixture = namedtuple("Fixture", "name shape fano_index a3 basket_indices genus")


FIXTURES: tuple[Fixture, ...] = (
    Fixture("X12", X12_SHAPE, 13, Fraction(1, 210), (2, 3, 3, 5, 7), 4),
    Fixture(
        "P(3,4,5,7)", wps.HypersurfaceShape((3, 4, 5, 7)), 19, Fraction(1, 420), (3, 4, 5, 7), 7
    ),
    Fixture(
        "P(2,3,5,7)", wps.HypersurfaceShape((2, 3, 5, 7)), 17, Fraction(1, 210), (2, 3, 5, 7), 11
    ),
    Fixture("P(1,3,4,5)", wps.HypersurfaceShape((1, 3, 4, 5)), 13, Fraction(1, 60), (3, 4, 5), 18),
    Fixture("P(1,2,3,5)", wps.HypersurfaceShape((1, 2, 3, 5)), 11, Fraction(1, 30), (2, 3, 5), 22),
    Fixture("P(1,1,2,3)", wps.HypersurfaceShape((1, 1, 2, 3)), 7, Fraction(1, 6), (2, 3), 29),
)


def fixture(name: str) -> Fixture:
    for f in FIXTURES:
        if f.name == name:
            return f
    raise KeyError(f"unknown fixture {name!r}")


def verify(f: Fixture) -> list[str]:
    """Recompute the fixture's invariants; return human-readable mismatches."""
    problems: list[str] = []
    q = wps.fano_index(f.shape)
    if q != f.fano_index:
        problems.append(f"{f.name}: fano index {q} != expected {f.fano_index}")
    a3 = wps.degree_a3(f.shape)
    if a3 != f.a3:
        problems.append(f"{f.name}: A^3 {a3} != expected {f.a3}")
    indices = wps.basket(f.shape).indices()
    if indices != f.basket_indices:
        problems.append(f"{f.name}: basket {indices} != expected {f.basket_indices}")
    g = wps.genus(f.shape)
    if g != f.genus:
        problems.append(f"{f.name}: genus {g} != expected {f.genus}")
    return problems
