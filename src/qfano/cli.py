"""Command-line front end: series expansion, shape analysis, link transcripts,
normal forms, and the fixture self-test.

Exit codes are stable: 0 success, 1 verification mismatch, 2 usage error,
3 domain precondition failure. Rational values serialize as "p/q" strings,
never floats. Each command returns its whole answer (JSON record, text,
exit code) and ``main`` writes it to stdout once, after it is built. A
reader that closes the pipe early gets no traceback and no stderr, and the
exit code stays the command's own.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import json
import os
import sys
from importlib import resources
from typing import NamedTuple

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


class Answer(NamedTuple):
    """A command's whole answer: its JSON record, its text and its exit code."""

    record: dict | None
    text: str
    code: int = 0


def cmd_hilbert(args) -> Answer:
    terms = _terms(args)
    shape = _shape_from_args(args)
    coeffs = wps.hilbert(shape, terms).integer_coefficients()
    record = {
        "weights": list(shape.weights),
        "degree": shape.degree,
        "terms": terms,
        "coefficients": list(coeffs),
    }
    return Answer(record, " ".join(str(c) for c in coeffs) + "\n")


def cmd_analyze(args) -> Answer:
    terms = _terms(args)
    shape = _shape_from_args(args)
    report = wps.analyze(shape, order=terms)
    hilbert = report.hilbert.integer_coefficients()
    record = {
        "weights": list(shape.weights),
        "degree": shape.degree,
        "fano_index": report.fano_index,
        "a3": str(report.a3),
        "basket": [
            {"r": point.r, "b": point.b, "count": count}
            for point, count in (report.basket.entries if report.basket else ())
        ],
        "genus": report.genus,
        "hilbert": list(hilbert),
        "warnings": list(report.warnings),
    }
    lines = [
        f"weights: {','.join(str(w) for w in shape.weights)}",
        f"degree: {shape.degree}",
        f"fano index: {report.fano_index}",
        f"A^3: {report.a3}",
    ]
    if report.basket is not None:
        lines.append(f"basket: {report.basket}")
        lines.append(f"basket indices: {','.join(str(r) for r in report.basket.indices())}")
    lines.append(f"genus: {report.genus}")
    lines.append(f"hilbert: {' '.join(str(c) for c in hilbert)}")
    if args.poly is not None:
        poly = normal_form.parse(_read_file(args.poly))
        if not normal_form.is_quasihomogeneous(poly, shape.degree):
            raise ValueError(f"polynomial is not quasi-homogeneous of degree {shape.degree}")
        w = shape.weights
        corners = sorted(normal_form.corner_check(poly, shape.degree).items())
        record["warnings"] += [f"not quasi-smooth at vertex w={w[i]}" for i, ok in corners if not ok]
        edges = {}
        for i, j in itertools.combinations(range(len(w)), 2):
            try:
                pts = normal_form.edge_restriction_points(poly, i, j)
            except wps.EdgeContained:
                edges[f"{w[i]},{w[j]}"] = "contained"
                continue
            edges[f"{w[i]},{w[j]}"] = {
                "count": pts.count,
                "multiplicities": list(pts.multiplicities),
                "reduced": pts.reduced,
            }
        record["poly"] = {"corner": {str(w[i]): ok for i, ok in corners}, "edges": edges}
        shown = " ".join(f"w={v}:{'ok' if ok else 'FAIL'}" for v, ok in record["poly"]["corner"].items())
        lines.append(f"poly corners: {shown}")
        lines += [f"poly edge ({edge}): {info}" for edge, info in edges.items()]
    lines += [f"warning: {warning}" for warning in record["warnings"]]
    return Answer(record, "\n".join(lines) + "\n")


def cmd_link(args) -> Answer:
    if args.bare:
        case = sarkisov.CASES[args.case.upper()]
        bare = sarkisov.enumerate_bare(case)
        return Answer(sarkisov.bare_record(case, bare), sarkisov.bare_text(case, bare))
    transcript = sarkisov.run_case(args.case)
    return Answer(transcript.record(), transcript.text())


def cmd_normalize(args) -> Answer:
    result = normal_form.normalize(normal_form.parse(_read_file(args.input)))
    record = {
        "class": result.form,
        "lambda": str(result.lam),
        "substitutions": list(result.steps),
        "final": normal_form.poly_text(result.final),
    }
    lines = [f"class: {result.form}", f"lambda: {record['lambda']}"]
    lines += [f"substitution: {step}" for step in result.steps]
    lines.append(f"final: {record['final']}")
    return Answer(record, "\n".join(lines) + "\n")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _golden_text(name: str) -> str:
    return resources.files("qfano").joinpath(f"golden/{name}.txt").read_text(encoding="utf-8")


def cmd_selftest(args) -> Answer:
    lines: list[str] = []
    failures = 0

    def report(ok: bool, label: str, detail: str = "") -> None:
        nonlocal failures
        if ok:
            lines.append(f"ok   {label}")
        else:
            failures += 1
            lines.append(f"FAIL {label}" + (f": {detail}" if detail else ""))

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

    lines.append("selftest: " + ("PASS" if failures == 0 else f"{failures} failure(s)"))
    return Answer(None, "\n".join(lines) + "\n", 0 if failures == 0 else 1)


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
    p.set_defaults(func=cmd_selftest, json=False)
    return parser


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
        answer = args.func(args)
        out = json.dumps(answer.record, indent=2) + "\n" if args.json else answer.text
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # shape or polynomial violates a documented precondition
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early. The answer stands; point stdout at devnull
        # so the interpreter's flush at exit cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return answer.code


if __name__ == "__main__":
    sys.exit(main())
