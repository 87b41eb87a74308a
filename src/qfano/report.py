"""The record ``wps.analyze`` returns, kept out of ``wps`` so that ``wps`` loads no ``dataclasses``.

It imports nothing from qfano: its field types, from ``wps`` and ``series``,
are named in annotations that are never evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass


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
