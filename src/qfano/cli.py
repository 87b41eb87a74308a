"""Command-line front end: series expansion, shape analysis, link transcripts,
normal forms, and the fixture self-test.

Exit codes are stable: 0 success, 1 verification mismatch, 2 usage error,
3 domain precondition failure. Rational values serialize as "p/q" strings,
never floats.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import sys
from fractions import Fraction
from importlib import resources

from . import fixtures, normal_form, riemann_roch, sarkisov, wps
from .series import DEFAULT_ORDER

GOLDEN_CASES = tuple(name.lower() for name in sarkisov.CASES)


class UsageError(ValueError):
    """Malformed flags or arguments: exit code 2."""


def _parse_weights(text: str, expected: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise UsageError(f"expected {expected} comma-separated weights, got {len(parts)}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"malformed weights {text!r}: {exc}") from exc


def _shape_from_args(args) -> wps.HypersurfaceShape:
    if args.space is not None and args.weights is not None:
        raise UsageError("--weights and --space are mutually exclusive")
    if args.space is not None:
        return wps.HypersurfaceShape(_parse_weights(args.space, 4), 0)
    if args.weights is None:
        raise UsageError("one of --weights or --space is required")
    if args.degree is None:
        raise UsageError("--weights requires --degree")
    return wps.HypersurfaceShape(_parse_weights(args.weights, 5), args.degree)


def _terms(args) -> int | None:
    if args.terms is not None and args.terms < 0:
        raise UsageError(f"--terms must be >= 0, got {args.terms}")
    return args.terms


def _frac(x: Fraction) -> str:
    return str(x)


def cmd_hilbert(args) -> int:
    terms = _terms(args)
    shape = _shape_from_args(args)
    series = wps.hilbert(shape, terms)
    coeffs = series.integer_coefficients()
    if args.json:
        payload = {
            "weights": list(shape.weights),
            "degree": shape.degree,
            "terms": terms,
            "coefficients": list(coeffs),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def _analysis_json(report: wps.AnalysisReport, poly_block: dict | None) -> dict:
    payload = {
        "weights": list(report.shape.weights),
        "degree": report.shape.degree,
        "fano_index": report.fano_index,
        "a3": _frac(report.a3),
        "basket": [
            {"r": point.r, "b": point.b, "count": count}
            for point, count in (report.basket.entries if report.basket else ())
        ],
        "genus": report.genus,
        "hilbert": [int(c) for c in report.hilbert.coefficients],
        "warnings": list(report.warnings),
    }
    if poly_block is not None:
        payload["poly"] = poly_block
    return payload


def cmd_analyze(args) -> int:
    terms = _terms(args)
    shape = _shape_from_args(args)
    report = wps.analyze(shape, order=terms)
    warnings = list(report.warnings)
    poly_block: dict | None = None
    if args.poly is not None:
        text = _read_file(args.poly)
        poly = normal_form.parse(text)
        if not normal_form.is_quasihomogeneous(poly, shape.degree):
            raise ValueError(f"polynomial is not quasi-homogeneous of degree {shape.degree}")
        corners = normal_form.corner_check(poly, shape.degree)
        for i, ok in sorted(corners.items()):
            if not ok:
                warnings.append(f"not quasi-smooth at vertex w={shape.weights[i]}")
        edges = {}
        for i in range(len(shape.weights)):
            for j in range(i + 1, len(shape.weights)):
                try:
                    pts = normal_form.edge_restriction_points(poly, i, j)
                except wps.EdgeContained:
                    edges[f"{shape.weights[i]},{shape.weights[j]}"] = "contained"
                    continue
                edges[f"{shape.weights[i]},{shape.weights[j]}"] = {
                    "count": pts.count,
                    "multiplicities": list(pts.multiplicities),
                    "reduced": pts.reduced,
                }
        poly_block = {
            "corner": {str(shape.weights[i]): ok for i, ok in sorted(corners.items())},
            "edges": edges,
        }
    report = dataclasses.replace(report, warnings=tuple(warnings))
    if args.json:
        print(json.dumps(_analysis_json(report, poly_block), indent=2))
    else:
        lines = [
            f"weights: {','.join(str(w) for w in report.shape.weights)}",
            f"degree: {report.shape.degree}",
            f"fano index: {report.fano_index}",
            f"A^3: {_frac(report.a3)}",
        ]
        if report.basket is not None:
            entries = " ".join(
                f"{point}x{count}" if count > 1 else str(point)
                for point, count in report.basket.entries
            )
            lines.append(f"basket: {entries}")
            lines.append(f"basket indices: {','.join(str(r) for r in report.basket.indices())}")
        lines.append(f"genus: {report.genus}")
        coeffs = report.hilbert.integer_coefficients()
        lines.append(f"hilbert: {' '.join(str(c) for c in coeffs)}")
        if poly_block is not None:
            corner = " ".join(f"w={w}:{'ok' if ok else 'FAIL'}" for w, ok in poly_block["corner"].items())
            lines.append(f"poly corners: {corner}")
            for edge, info in poly_block["edges"].items():
                lines.append(f"poly edge ({edge}): {info}")
        lines += [f"warning: {w}" for w in report.warnings]
        print("\n".join(lines))
    return 0


def _split_json(sp: sarkisov.Split) -> dict:
    return {"s": sp.s, "beta": _frac(sp.beta)}


def _transcript_json(t: sarkisov.Transcript) -> dict:
    def cand_json(c: sarkisov.LinkCandidate) -> dict:
        return {
            "alpha": _frac(c.alpha),
            "qhat": c.qhat,
            "e": c.e,
            "birational": c.birational,
            "extra": c.extra,
            "splits": {
                str(k): [_split_json(sp) for sp in sps] for k, sps in sorted(c.splits.items())
            },
            "admissible": {
                str(k): [_split_json(sp) for sp in sps]
                for k, sps in sorted(c.admissible.items())
            },
            "status": c.status,
            "filter": c.filter_id,
            "reason": c.reason,
            "target": c.target,
            "d": c.d,
            "torsion_options": list(c.torsion_options),
        }

    return {
        "case": t.case.name,
        "center": t.case.description,
        "k": t.case.k,
        "alphas": [_frac(a) for a in t.case.alphas],
        "dims": {str(k): v for k, v in sorted(sarkisov.DIMS.items())},
        "bare": [cand_json(c) for c in t.bare],
        "filter_log": [
            {"candidate": ev.candidate, "filter": ev.filter_id, "verdict": ev.verdict, "detail": ev.detail}
            for ev in t.events
        ],
        "final": [c.key() for c in t.final],
        "thresholds": {key: _frac(ct) for key, ct in t.thresholds},
        "second_contractions": {
            key: {
                "delta": sol.delta,
                "b": _frac(sol.b),
                "gammas": {str(k): _frac(g) for k, g in sol.gammas},
            }
            for key, sol in t.contractions
        },
        "notes": list(t.notes),
    }


def cmd_link(args) -> int:
    name = args.case.upper()
    if args.bare:
        case = sarkisov.CASES[name]
        bare = sarkisov.enumerate_bare(case)
        if args.json:
            payload = {
                "case": case.name,
                "k": case.k,
                "bare": [
                    {
                        "alpha": _frac(c.alpha),
                        "qhat": c.qhat,
                        "e": c.e,
                        "extra": c.extra,
                        "splits": [_split_json(sp) for sp in c.splits[case.k]],
                    }
                    for c in bare
                ],
            }
            print(json.dumps(payload, indent=2))
        else:
            print(f"bare solutions for case {case.name} (k={case.k}):")
            for c in bare:
                splits = " ".join(str(sp) for sp in c.splits[case.k])
                flag = "  [extra]" if c.extra else ""
                print(f"  [{c.key()}] {splits}{flag}")
        return 0
    transcript = sarkisov.run_case(name)
    if args.json:
        print(json.dumps(_transcript_json(transcript), indent=2))
    else:
        sys.stdout.write(transcript.text())
    return 0


def cmd_normalize(args) -> int:
    text = _read_file(args.input)
    poly = normal_form.parse(text)
    result = normal_form.normalize(poly)
    payload = {
        "class": result.form,
        "lambda": _frac(result.lam),
        "substitutions": list(result.steps),
        "final": normal_form.poly_text(result.final),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        lines = [f"class: {payload['class']}", f"lambda: {payload['lambda']}"]
        lines += [f"substitution: {step}" for step in result.steps]
        lines.append(f"final: {payload['final']}")
        print("\n".join(lines))
    return 0


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _golden_text(name: str) -> str:
    return resources.files("qfano").joinpath(f"golden/{name}.txt").read_text(encoding="utf-8")


def cmd_selftest(args) -> int:
    failures = 0

    def report(ok: bool, label: str, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"ok   {label}")
        else:
            failures += 1
            print(f"FAIL {label}" + (f": {detail}" if detail else ""))

    for f in fixtures.FIXTURES:
        problems = fixtures.verify(f)
        report(not problems, f"fixture {f.name}", "; ".join(problems))

    for f in fixtures.FIXTURES:
        try:
            data = riemann_roch.calibrated_data(f.shape, order=24)
            oracle = wps.hilbert(f.shape, 24)
            match = riemann_roch.hilbert_rr(data, 24) == oracle
            integral = all(isinstance(riemann_roch.chi(data, m), int) for m in range(31))
            sign = riemann_roch.orientation_sign(data.q, data.entries)
            report(
                match and integral and sign in (-1, None),
                f"riemann-roch {f.name}",
                f"match={match} integral={integral} sign={sign}",
            )
        except (riemann_roch.CalibrationError, riemann_roch.ConventionError) as exc:
            report(False, f"riemann-roch {f.name}", str(exc))

    for name in GOLDEN_CASES:
        text = sarkisov.run_case(name).text()
        try:
            golden = _golden_text(name)
        except FileNotFoundError:
            report(False, f"transcript {name}", "golden file missing")
            continue
        if text == golden:
            report(True, f"transcript {name}")
        else:
            diff = "\n".join(
                difflib.unified_diff(
                    golden.splitlines(), text.splitlines(),
                    fromfile=f"golden/{name}.txt", tofile="computed", lineterm="",
                )
            )
            report(False, f"transcript {name}", "\n" + diff)

    for label, text, expected in (
        ("form (a)", fixtures.FORM_A, "A"),
        ("form (b)", fixtures.FORM_B, "B"),
    ):
        poly = normal_form.parse(text)
        result = normal_form.normalize(poly)
        fixed = result.final == poly and not result.steps
        report(
            result.form == expected and fixed,
            f"normal form {label}",
            f"class={result.form} steps={result.steps}",
        )
    corners = normal_form.corner_check(normal_form.parse(fixtures.FORM_B), 12)
    report(corners[0] is False, "form (b) vertex w=3 flagged", str(corners))

    print("selftest:", "PASS" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfano",
        description="Exact numerics for Q-Fano threefold hypersurface classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="expand a Hilbert series")
    p.add_argument("--weights", help="five comma-separated weights (hypersurface)")
    p.add_argument("--degree", type=int, help="hypersurface degree")
    p.add_argument("--space", help="four comma-separated weights (the space itself)")
    p.add_argument("--terms", type=int, default=DEFAULT_ORDER, help="truncation order")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("analyze", help="index, degree, basket, genus of a shape")
    p.add_argument("--weights", help="five comma-separated weights (hypersurface)")
    p.add_argument("--degree", type=int, help="hypersurface degree")
    p.add_argument("--space", help="four comma-separated weights (the space itself)")
    p.add_argument("--poly", help="polynomial file checked against the shape")
    p.add_argument("--terms", type=int, help="Hilbert truncation order override")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("link", help="run one Sarkisov center case")
    p.add_argument("--case", required=True, choices=list(GOLDEN_CASES))
    p.add_argument("--bare", action="store_true", help="suppress filters")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("normalize", help="normal form of a degree-12 equation")
    p.add_argument("--input", required=True, help="polynomial file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("selftest", help="verify fixtures, calibration and transcripts")
    p.set_defaults(func=cmd_selftest)
    return parser


DOMAIN_ERRORS = (
    normal_form.MissingCornerMonomial,
    normal_form.ParseError,
    normal_form.GradingError,
    normal_form.SeriesExceedsFreeAlgebra,
    wps.NotFano,
    wps.NotQuasiSmoothAtVertex,
    wps.EdgeContained,
    wps.NotGeneral,
    wps.NotTerminalIsolated,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # An exact answer is printed in full however many digits it has; input
    # literals are bounded by the parser (normal_form.MAX_LITERAL_DIGITS).
    # Interpreters before 3.10.7 have no int/str digit limit to lift.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # shape or polynomial violates a documented precondition
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
