#!/usr/bin/env python3
"""Analyze every fixture shape and print its invariants plus the calibrated
Riemann-Roch data (basket parameters and the resolved orientation sign)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qfano import fixtures, riemann_roch, wps  # noqa: E402


def main() -> int:
    for f in fixtures.FIXTURES:
        report = wps.analyze(f.shape)
        data = riemann_roch.calibrated_data(f.shape, order=24)
        sign = riemann_roch.orientation_sign(data.q, data.entries)
        basket = str(report.basket) if report.basket else ""
        print(f"{f.name}: q={report.fano_index} A^3={report.a3} genus={report.genus}")
        print(f"  basket: {basket}")
        print(f"  A.c2 = {riemann_roch.a_c2(data)}, orientation sign = {sign}")
        print(
            "  rr entries: "
            + " ".join(f"(r={e.r},b={e.b},wA={e.wa})" for e in data.entries)
        )
        series = wps.hilbert(f.shape, 12).integer_coefficients()
        print(f"  hilbert through t^12: {' '.join(str(c) for c in series)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
