"""Command-line front end: series expansion, shape analysis, link transcripts,
normal forms, and the fixture self-test.

Exit codes are stable: 0 success, 1 verification mismatch, 2 usage error,
3 domain precondition failure. Rational values serialize as "p/q" strings,
never floats. Each command returns its whole answer (JSON record, text,
exit code) and ``main`` writes it to stdout once, after it is built. A
reader that closes the pipe early gets no traceback and no stderr, and the
exit code stays the command's own.

Each command imports only the modules it uses, inside its own function and
after its flags and files are checked: a usage error costs the interpreter
and ``argparse``, ``hilbert`` loads ``wps`` and ``series`` alone, and only
``selftest`` loads everything.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple

# sarkisov.CASES in lower case, spelled out so that parsing imports nothing
GOLDEN_CASES = ("ng", "p2", "p3", "p5", "p7")


class UsageError(ValueError):
    """Malformed flags or arguments: exit code 2."""


def _integer(text: str) -> int:
    """An optional '-' and ASCII digits; int() alone also reads 7_0, +7 and other scripts."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in ASCII digits 0-9")
    return int(text)


def _parse_weights(text: str, expected: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise UsageError(f"expected {expected} comma-separated weights, got {len(parts)}")
    for part in parts:
        # no sign: argparse refuses '--weights -3,...', so '--weights=-3,...' is usage too
        if not (part.isascii() and part.isdigit()):
            raise UsageError(
                f"malformed weights {text!r}: {part!r} is not an unsigned integer in "
                f"ASCII digits 0-9"
            )
    return tuple(map(int, parts))


def _shape_args(args) -> tuple[tuple[int, ...], int]:
    """(weights, degree) of --weights/--degree or --space; degree 0 for a space.

    argparse already requires exactly one of --weights and --space.
    """
    if args.space is not None:
        if args.degree is not None:
            raise UsageError("--degree and --space are mutually exclusive (a space has degree 0)")
        return _parse_weights(args.space, 4), 0
    if args.degree is None:
        raise UsageError("--weights requires --degree")
    return _parse_weights(args.weights, 5), args.degree


def _terms(args) -> int | None:
    """--terms from 0 to series.MAX_ORDER; a negative one is refused without loading series."""
    if args.terms is None:
        return None
    if args.terms < 0:
        raise UsageError(f"--terms must be >= 0, got {args.terms}")
    from .series import MAX_ORDER

    if args.terms > MAX_ORDER:
        raise UsageError(f"--terms must be <= {MAX_ORDER}, the longest series expanded")
    return args.terms


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's own formatter and width, without the ``shutil`` import that argparse
    makes for it: COLUMNS if it is a positive integer, else the terminal's width on
    stdout, else 80, less 2, as ``shutil.get_terminal_size`` would give it."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return argparse.HelpFormatter(prog, width=(columns or 80) - 2)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser with ``_help_formatter``; its subparsers are _Parsers too."""

    def __init__(self, **kwargs) -> None:
        super().__init__(formatter_class=_help_formatter, **kwargs)


class Answer(namedtuple("Answer", "record text code", defaults=(0,))):
    """A command's whole answer: its JSON record, its text and its exit code."""

    __slots__ = ()


def cmd_hilbert(args) -> Answer:
    terms = _terms(args)
    weights, degree = _shape_args(args)
    from . import wps
    from .series import DEFAULT_ORDER

    terms = DEFAULT_ORDER if terms is None else terms
    shape = wps.HypersurfaceShape(weights, degree)
    coeffs = wps.hilbert(shape, terms).coefficients
    record = {
        "weights": list(shape.weights),
        "degree": shape.degree,
        "terms": terms,
        "coefficients": list(coeffs),
    }
    return Answer(record, " ".join(str(c) for c in coeffs) + "\n")


def cmd_analyze(args) -> Answer:
    terms = _terms(args)
    weights, degree = _shape_args(args)
    text = None if args.poly is None else _read_file(args.poly)
    from . import wps

    shape = wps.HypersurfaceShape(weights, degree)
    report = wps.analyze(shape, order=terms)
    hilbert = report.hilbert.coefficients
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
    if text is not None:
        import itertools

        from . import normal_form

        poly = normal_form.parse(text)
        if poly.is_zero():
            raise ValueError("the polynomial is zero: it defines no hypersurface")
        if poly.weights != shape.weights:
            raise ValueError(
                f"polynomial weights {poly.weights} are not the shape's weights {shape.weights}"
            )
        w = shape.weights
        corners = sorted(normal_form.corner_check(poly, shape.degree).items())
        # the shape's walk may already have given a corner's warning: each once
        failed = [wps.vertex_warning(w[i]) for i, ok in corners if not ok]
        record["warnings"] = list(dict.fromkeys(record["warnings"] + failed))
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
        shown = " ".join(
            f"w={v}:{'ok' if ok else 'FAIL'}" for v, ok in record["poly"]["corner"].items()
        )
        lines.append(f"poly corners: {shown}")
        lines += [f"poly edge ({edge}): {info}" for edge, info in edges.items()]
    lines += [f"warning: {warning}" for warning in record["warnings"]]
    return Answer(record, "\n".join(lines) + "\n")


def cmd_link(args) -> Answer:
    from . import sarkisov

    if args.bare:
        case = sarkisov.CASES[args.case.upper()]
        bare = sarkisov.enumerate_bare(case)
        return Answer(sarkisov.bare_record(case, bare), sarkisov.bare_text(case, bare))
    transcript = sarkisov.run_case(args.case)
    return Answer(transcript.record(), transcript.text())


def cmd_normalize(args) -> Answer:
    text = _read_file(args.input)
    from . import normal_form

    result = normal_form.normalize(normal_form.parse(text))
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
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _golden_text(name: str) -> str:
    """golden/<name>.txt beside this module, in the checkout or the installed package."""
    path = os.path.join(os.path.dirname(__file__), "golden", f"{name}.txt")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cmd_selftest(args) -> Answer:
    from . import fixtures, normal_form, riemann_roch, sarkisov

    def fixture(f):
        problems = fixtures.verify(f)
        return not problems, "; ".join(problems)

    def calibration(f):
        riemann_roch.calibrated_data(f.shape)  # raises unless its exact series is the oracle's
        return True, ""

    def transcript(name):
        text = sarkisov.run_case(name).text()
        try:
            golden = _golden_text(name)
        except FileNotFoundError:
            return False, "golden file missing"
        if text == golden:
            return True, ""
        import difflib

        diff = difflib.unified_diff(
            golden.splitlines(), text.splitlines(),
            fromfile=f"golden/{name}.txt", tofile="computed", lineterm="",
        )
        return False, "\n" + "\n".join(diff)

    def form(text, expected):
        poly = normal_form.parse(text)
        result = normal_form.normalize(poly)
        ok = result.form == expected and result.final == poly and not result.steps
        return ok, f"class={result.form} steps={result.steps}"

    def corners():
        verdicts = normal_form.corner_check(normal_form.parse(fixtures.FORM_B), 12)
        return verdicts[0] is False, str(verdicts)

    checks = [(f"fixture {f.name}", fixture, f) for f in fixtures.FIXTURES]
    checks += [(f"riemann-roch {f.name}", calibration, f) for f in fixtures.FIXTURES]
    checks += [(f"transcript {name}", transcript, name) for name in GOLDEN_CASES]
    checks += [
        ("normal form form (a)", form, fixtures.FORM_A, "A"),
        ("normal form form (b)", form, fixtures.FORM_B, "B"),
        ("form (b) vertex w=3 flagged", corners),
    ]
    rows: list[tuple[bool, str, str]] = []  # (ok, label, detail shown on failure)
    for label, check, *inputs in checks:
        try:
            ok, detail = check(*inputs)
        except (ValueError, AssertionError) as exc:  # a check that raises fails its own row
            ok, detail = False, str(exc)
        rows.append((ok, label, detail))

    lines = [
        f"ok   {label}" if ok else f"FAIL {label}" + (f": {detail}" if detail else "")
        for ok, label, detail in rows
    ]
    failures = sum(not ok for ok, _, _ in rows)
    lines.append("selftest: " + ("PASS" if failures == 0 else f"{failures} failure(s)"))
    return Answer(None, "\n".join(lines) + "\n", 0 if failures == 0 else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfano",
        description="Exact numerics for Q-Fano threefold hypersurface classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shape = _Parser(add_help=False)  # the flags hilbert and analyze share
    given = shape.add_mutually_exclusive_group(required=True)
    given.add_argument("--weights", help="five comma-separated weights (hypersurface)")
    given.add_argument("--space", help="four comma-separated weights (the space itself)")
    shape.add_argument("--degree", type=_integer, help="hypersurface degree")
    shape.add_argument("--terms", type=_integer, help="Hilbert truncation order")
    shape.add_argument("--json", action="store_true")

    p = sub.add_parser("hilbert", parents=[shape], help="expand a Hilbert series")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("analyze", parents=[shape], help="index, degree, basket, genus of a shape")
    p.add_argument("--poly", help="polynomial file checked against the shape")
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
    # A flag is read, and an exact answer printed, in full however many
    # digits it has; polynomial literals are bounded by the parser
    # (normal_form.MAX_LITERAL_DIGITS) and series lengths by MAX_ORDER.
    # Interpreters before 3.10.7 have no int/str digit limit to lift.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        answer = args.func(args)
        if args.json:
            import json

            out = json.dumps(answer.record, indent=2) + "\n"
        else:
            out = answer.text
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code
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
