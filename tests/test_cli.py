"""CLI behavior: outputs, JSON round-trips, exit codes, self-test."""

import argparse
import contextlib
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfano import cli, fixtures
from qfano.series import MAX_ORDER


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_hypersurface(capsys):
    code, out, _ = run(capsys, "hilbert", "--weights", "3,4,5,6,7", "--degree", "12", "--terms", "10")
    assert code == 0
    assert out.strip() == "1 0 0 1 1 1 2 2 2 3 4"


def test_hilbert_ordinary_space(capsys):
    code, out, _ = run(capsys, "hilbert", "--space", "1,1,1,1", "--terms", "3")
    assert code == 0
    assert out.strip() == "1 4 10 20"


def test_hilbert_space_genus_consistency(capsys):
    code, out, _ = run(capsys, "hilbert", "--space", "1,1,2,3", "--terms", "7")
    assert code == 0
    last = int(out.split()[-1])
    from qfano import wps

    assert last == wps.genus(wps.HypersurfaceShape((1, 1, 2, 3))) + 2


def test_hilbert_json_roundtrip(capsys):
    code, out, _ = run(capsys, "hilbert", "--weights", "3,4,5,6,7", "--degree", "12", "--terms", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == json.loads(json.dumps(payload))
    assert payload["coefficients"] == [1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 4]


def test_hilbert_on_weights_near_10_to_the_8_is_quick_and_small(capsys):
    # deciding the shape's emptiness by a bitset held 5 * 10^8 bits (334 MB peak RSS)
    argv = ("hilbert", "--weights", "100000000,100000001,100000002,100000003,100000004")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--degree", "500000010", "--terms", "5")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "1 0 0 0 0 0\n")
    assert elapsed < 0.5 and peak < 10 * 2**20


def test_hilbert_past_the_residue_table_cap_is_one_short_line(capsys):
    # building the 10^7-entry table took 23 s and 628 MB peak RSS to find the shape empty
    argv = ("hilbert", "--weights", "10000000,13000007,17000003,19000011,23000001")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--degree", "3000000003")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: the monomial test needs a table of more than {MAX_ORDER} entries\n"


def test_hilbert_past_the_bitset_cap_is_one_short_line(capsys):
    # the bitset of this emptiness test held 225,012,346 bits (1.6 s, 174 MB)
    argv = ("hilbert", "--weights", "5000000,5000001,5000003,5000007,5000009")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--degree", "225012345")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: the monomial test needs a table of more than {MAX_ORDER} entries\n"


def test_hilbert_malformed_weights(capsys):
    code, _, err = run(capsys, "hilbert", "--weights", "3,4", "--degree", "12")
    assert code == 2 and "weights" in err


def test_hilbert_usage_conflicts(capsys):
    code, _, err = run(capsys, "hilbert", "--weights", "3,4,5,6,7", "--space", "1,1,1,1")
    assert code == 2
    code, _, err = run(capsys, "hilbert", "--weights", "3,4,5,6,7")
    assert code == 2 and "--degree" in err
    # a space has degree 0, so --degree beside --space is a conflict, not ignored
    for command in ("hilbert", "analyze"):
        code, out, err = run(capsys, command, "--space", "1,3,4,5", "--degree", "12")
        assert (code, out) == (2, "") and "--space" in err and "--degree" in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (("hilbert", "--weights", "\u0663,4,5,6,7", "--degree", "12"), "weights"),
        (("hilbert", "--weights", "3,4,5,6,7_0", "--degree", "12"), "weights"),
        (("hilbert", "--weights", "+3,4,5,6,7", "--degree", "12"), "weights"),
        (("analyze", "--space", "1,3,4,\u0665"), "weights"),
        (("hilbert", "--weights", "3,4,5,6,7", "--degree", "1_2"), "--degree"),
        (("hilbert", "--weights", "3,4,5,6,7", "--degree", "+12"), "--degree"),
        (("analyze", "--weights", "3,4,5,6,7", "--degree", "\u0661\u0662"), "--degree"),
        (("hilbert", "--weights", "3,4,5,6,7", "--degree", "12", "--terms", "\u0665"), "--terms"),
        (("analyze", "--weights", "3,4,5,6,7", "--degree", "12", "--terms", "1_0"), "--terms"),
        (("hilbert", "--weights", "3,4,5,6,7", "--degree", "12", "--terms", " 5"), "--terms"),
    ],
    ids=[
        "weights-arabic-indic", "weights-underscore", "weights-plus", "space-arabic-indic",
        "degree-underscore", "degree-plus", "degree-arabic-indic",
        "terms-arabic-indic", "terms-underscore", "terms-space",
    ],
)
def test_numbers_are_ascii_digits_only(capsys, argv, named):
    # int() would read 7_0 as 70, +3 as 3 and Arabic-Indic digits as theirs
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, *argv, *flags)
        assert (code, out) == (2, "") and named in err


def test_numbers_keep_their_sign_and_the_spaces_around_weights(capsys):
    argv = ("hilbert", "--weights", " 3, 4 ,5,6,7 ", "--degree", "12", "--terms", "5")
    assert run(capsys, *argv) == (0, "1 0 0 1 1 1\n", "")
    # a signed weight is usage; a zero weight or a negative degree breaks a precondition
    code, out, err = run(capsys, "hilbert", "--weights=-3,4,5,6,7", "--degree", "12")
    assert (code, out) == (2, "") and "-3,4,5,6,7" in err
    code, out, err = run(capsys, "hilbert", "--weights", "0,4,5,6,7", "--degree", "12")
    assert (code, out) == (3, "") and "weights must be positive" in err
    code, out, err = run(capsys, "hilbert", "--weights", "3,4,5,6,7", "--degree", "-12")
    assert (code, out) == (3, "") and "degree must be >= 0" in err


@pytest.mark.parametrize("command", ["hilbert", "analyze"])
@pytest.mark.parametrize(
    "flag,value,rest",
    [("--weights", "-3,4,5,6,7", ("--degree", "12")), ("--space", "-1,2,3,4", ())],
    ids=["weights", "space"],
)
def test_signed_weight_is_a_usage_error_however_the_flag_is_spelt(
    capsys, command, flag, value, rest
):
    # argparse takes '--weights -3,...' for two flags; '--weights=-3,...' reaches the parser
    code, out, err = run(capsys, command, flag, value, *rest)
    assert (code, out) == (2, "") and flag in err
    code, out, err = run(capsys, command, f"{flag}={value}", *rest)
    assert (code, out) == (2, "") and f"malformed weights {value!r}" in err


@pytest.mark.parametrize("command", ["hilbert", "analyze"])
def test_negative_terms_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--weights", "3,4,5,6,7", "--degree", "12", "--terms", "-1")
    assert code == 2 and out == ""
    assert "--terms" in err


@pytest.mark.parametrize("command", ["hilbert", "analyze"])
def test_terms_above_the_cap_is_a_usage_error(capsys, command):
    x12 = ("--weights", "3,4,5,6,7", "--degree", "12")
    for terms in (MAX_ORDER + 1, 10**20):
        code, out, err = run(capsys, command, *x12, "--terms", str(terms))
        assert (code, out) == (2, "") and f"--terms must be <= {MAX_ORDER}" in err


# 4,401 digits: above CPython's default int/str conversion limit of 4,300
BIG = 10**4400
BIG_TEXT = "1" + "0" * 4400


def decimal(n: int) -> str:
    """str(n), also for BIG, which str() refuses under the interpreter's digit limit."""
    return BIG_TEXT if n == BIG else str(n)


@pytest.mark.parametrize(
    "argv,code,out",
    [
        (("hilbert", "--weights", "3,4,5,6,7", "--degree", BIG_TEXT, "--terms", "8"), 0,
         "1 0 0 1 1 1 2 2 2\n"),
        (("hilbert", "--weights", "3,4,5,6,7", "--degree", "12", "--terms", BIG_TEXT), 2, ""),
        (("analyze", "--weights", f"3,4,5,6,{BIG_TEXT}", "--degree", "12"), 3, ""),
        (("analyze", "--space", f"3,4,5,{BIG_TEXT}"), 3, ""),
    ],
    ids=["--degree", "--terms", "--weights", "--space"],
)
def test_a_number_past_the_digit_limit_is_read_whatever_its_flag(capsys, argv, code, out):
    # parsing runs with the limit lifted too: no flag is an argparse error that echoes
    # thousands of digits, and the interpreter's limit is restored afterwards
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    result = run(capsys, *argv)
    assert result[:2] == (code, out) and len(result[2]) < 200, result[2][:300]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_a_negative_index_is_one_short_line(capsys):
    # q = 25 - d has 4,400 digits here; the message names neither q nor the shape
    code, out, err = run(capsys, "analyze", "--weights", "3,4,5,6,7", "--degree", "9" * 4400)
    assert (code, out) == (3, "")
    assert err == "error: index sum(weights) - degree is not positive\n"


def test_analyze_x12_json(capsys):
    code, out, _ = run(capsys, "analyze", "--weights", "3,4,5,6,7", "--degree", "12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fano_index"] == 13
    assert payload["a3"] == "1/210"
    assert payload["genus"] == 4
    indices = sorted(
        r for entry in payload["basket"] for r in [entry["r"]] * entry["count"]
    )
    assert indices == [2, 3, 3, 5, 7]
    assert payload["warnings"] == []
    assert payload["hilbert"][:11] == [1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 4]


def test_analyze_space(capsys):
    code, out, _ = run(capsys, "analyze", "--space", "1,3,4,5", "--json")
    assert code == 0
    assert json.loads(out)["fano_index"] == 13


def test_analyze_ill_formed_warns_not_fails(capsys):
    code, out, _ = run(capsys, "analyze", "--space", "1,2,2,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert any("not well-formed" in w for w in payload["warnings"])
    assert payload["basket"] == []


def test_analyze_form_b_poly_warning(tmp_path, capsys):
    poly = tmp_path / "form_b.txt"
    poly.write_text(fixtures.FORM_B)
    code, out, _ = run(
        capsys, "analyze", "--weights", "3,4,5,6,7", "--degree", "12",
        "--poly", str(poly), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert "not quasi-smooth at vertex w=3" in payload["warnings"]
    assert payload["poly"]["corner"]["3"] is False
    assert payload["poly"]["edges"]["3,6"]["count"] == 1
    assert payload["poly"]["edges"]["3,6"]["reduced"] is False


def test_analyze_poly_gives_each_warning_once(tmp_path, capsys):
    # the shape's walk already finds the vertices w=4..7 off x3 = 0 not quasi-smooth
    poly = tmp_path / "x3.txt"
    poly.write_text("x3\n")
    argv = ("analyze", "--weights", "3,4,5,6,7", "--degree", "3", "--poly", str(poly))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    warnings = [line for line in out.splitlines() if line.startswith("warning: ")]
    assert len(warnings) == len(set(warnings))
    for w in (4, 5, 6, 7):
        assert warnings.count(f"warning: not quasi-smooth at vertex w={w}") == 1
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["warnings"] == [line.removeprefix("warning: ") for line in warnings]
    assert [w for w, ok in payload["poly"]["corner"].items() if not ok] == ["4", "5", "6", "7"]


@pytest.mark.parametrize("weights", ["2,3,5,7,9", "3,3,4,5,6"])
def test_analyze_poly_in_other_weights_exit_3(tmp_path, capsys, weights):
    # the polynomial is read in the weights (3,4,5,6,7); labelling its corners
    # and edges with another shape's weights would misname them
    poly = tmp_path / "form_a.txt"
    poly.write_text(fixtures.FORM_A)
    for flags in ((), ("--json",)):
        code, out, err = run(
            capsys, "analyze", "--weights", weights, "--degree", "12", "--poly", str(poly), *flags
        )
        assert (code, out) == (3, "")
        assert err == (
            f"error: polynomial weights (3, 4, 5, 6, 7) are not the shape's weights ({weights.replace(',', ', ')})\n"
        )


@pytest.mark.parametrize("text", ["0\n", "x3^4 - x3^4\n"])
def test_analyze_zero_polynomial_exit_3(tmp_path, capsys, text):
    # 0 is vacuously quasi-homogeneous, but it is the whole space, not a member
    poly = tmp_path / "zero.txt"
    poly.write_text(text)
    for flags in ((), ("--json",)):
        code, out, err = run(
            capsys, "analyze", "--weights", "3,4,5,6,7", "--degree", "12", "--poly", str(poly), *flags
        )
        assert (code, out) == (3, "")
        assert err == "error: the polynomial is zero: it defines no hypersurface\n"


def test_analyze_poly_not_quasi_homogeneous_exit_3(tmp_path, capsys):
    poly = tmp_path / "mixed.txt"
    poly.write_text("x5*x7 + x4^3 + x3\n")
    for flags in ((), ("--json",)):
        code, out, err = run(
            capsys, "analyze", "--weights", "3,4,5,6,7", "--degree", "12", "--poly", str(poly), *flags
        )
        assert (code, out) == (3, "")
        assert err == "error: polynomial is not quasi-homogeneous of degree 12\n"


@pytest.mark.parametrize(
    "weights,degree",
    [("1,2,3,5,7", "7"), ("1,3,4,5,11", "11"), ("2,3,5,7,23", "23"), ("3,4,5,7,17", "17")],
)
def test_analyze_linear_cone_with_a_contained_coprime_edge_has_its_space_basket(
    capsys, weights, degree
):
    # each member contains a coprime edge, and two variables outside it qualify; as a
    # linear cone over the space of its first four weights it has that space's basket
    code, out, err = run(capsys, "analyze", "--weights", weights, "--degree", degree, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    space = weights.rsplit(",", 1)[0]
    code, out, err = run(capsys, "analyze", "--space", space, "--json")
    assert code == 0 and err == ""
    assert payload["warnings"] == [] and payload["basket"] == json.loads(out)["basket"] != []


# every example, however large its degree, --terms or weights, must finish in this time
EXAMPLE_DEADLINE_S = 2.0
small_weights = st.lists(st.integers(min_value=1, max_value=40), min_size=4, max_size=5)
# a last weight that puts q above series.MAX_ORDER at any drawn degree but BIG
huge_weight = st.one_of(st.integers(min_value=2 * MAX_ORDER, max_value=10**30), st.just(BIG))
cli_weights = st.one_of(
    small_weights,
    st.tuples(small_weights, huge_weight).map(lambda pair: pair[0][:-1] + [pair[1]]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["hilbert", "analyze"]),
    cli_weights,
    st.one_of(
        st.integers(min_value=-5, max_value=200),
        st.integers(min_value=0, max_value=2000),
        st.just(BIG),
    ),
    st.one_of(
        st.none(),
        st.integers(min_value=-5, max_value=300),
        st.integers(min_value=MAX_ORDER + 1, max_value=10**30),
        st.just(BIG),
    ),
    st.booleans(),
)
def test_cli_boundary_exit_codes(command, weights, degree, terms, as_json):
    text = ",".join(map(decimal, weights))
    if len(weights) == 5:
        argv = [command, "--weights", text, "--degree", decimal(degree)]
    else:
        argv = [command, "--space", text]
    if terms is not None:
        argv += ["--terms", decimal(terms)]
    if as_json:
        argv.append("--json")
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    assert (out != "") == (code == 0) and (err != "") == (code != 0)
    if terms is not None and not 0 <= terms <= MAX_ORDER:
        assert code == 2
    if command == "analyze" and sum(weights) - (len(weights) == 5) * degree > MAX_ORDER:
        assert code in (2, 3)  # refused before the series to t^q is expanded
    assert elapsed < EXAMPLE_DEADLINE_S, (argv, elapsed)


# polynomial text near the grammar: its tokens, tokens it refuses (another
# variable, a bracket, a digit outside ASCII, a literal past the digit cap,
# an exponent far past the degree) and the six degree-12 monomials
POLY_TOKENS = (
    "x3", "x4", "x5", "x6", "x7", "x", "x2", "x8", "^", "*", "+", "-", "/",
    "0", "1", "2", "3", "4", "12", "3/4", "99999999", "9" * 4301, " ", "\n", "\t",
    "(", ")", ".", "\u0663", "\u00b2", "\u00e9", "\x00",
)
DEGREE_12 = ("x5*x7", "x4^3", "x6^2", "x3^4", "x3*x4*x5", "x3^2*x6")
poly_terms = st.tuples(
    st.sampled_from(["+", "-", " + ", "-"]),
    st.one_of(st.just(""), st.integers(0, 10**40).map(lambda c: f"{c}*")),
    st.sampled_from(DEGREE_12 + POLY_TOKENS),
).map("".join)
poly_files = st.one_of(
    st.binary(max_size=80),  # mostly not UTF-8
    st.lists(st.sampled_from(POLY_TOKENS), max_size=30).map(lambda ts: "".join(ts).encode()),
    st.lists(poly_terms, min_size=1, max_size=8).map(lambda ts: "".join(ts).encode()),
    st.lists(st.sampled_from(DEGREE_12), min_size=1, max_size=6).map(lambda ts: "+".join(ts).encode()),
)


@settings(max_examples=300, deadline=None)
@given(poly_files, st.sampled_from(["normalize", "analyze"]), st.booleans())
def test_cli_boundary_on_polynomial_files(tmp_path_factory, data, command, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzzed_poly.txt"
    path.write_bytes(data)
    if command == "normalize":
        argv = ["normalize", "--input", str(path)]
    else:
        argv = ["analyze", "--weights", "3,4,5,6,7", "--degree", "12", "--poly", str(path)]
    if as_json:
        argv.append("--json")
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 2, 3), (data, argv, code, err)
    assert "Traceback" not in err, (data, argv)
    assert code == 0 or out == "", (data, argv, out)
    assert elapsed < 0.5, (data, argv, elapsed)


# link and selftest argv: case names inside and outside the choices, given
# as one token or two, flags and their prefixes repeated in any order, help
# and flags neither command has
CASE_NAMES = (*cli.GOLDEN_CASES, "P5", "p9", "p", "", " p5", "ng,p2", "--bare", "-h")
case_args = st.tuples(
    st.sampled_from(["--case", "--cas", "--c"]),
    st.sampled_from(CASE_NAMES) | st.text(max_size=4),
    st.booleans(),
).map(lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])
FLAGS = (
    "--bare", "--b", "--json", "--js", "-h", "--help", "--he", "--terms", "--unknown", "-x", "--", "-"
)
flag_args = st.sampled_from(FLAGS).map(lambda flag: [flag])
# a case in the choices among repeated, reordered --bare and --json, or anything above
valid_link = st.tuples(st.sampled_from(cli.GOLDEN_CASES), st.lists(st.sampled_from(FLAGS[:4])))
link_argv = valid_link.flatmap(lambda t: st.permutations([f"--case={t[0]}", *t[1]])) | st.lists(
    case_args | flag_args, max_size=5
).map(lambda parts: sum(parts, []))


@functools.lru_cache(maxsize=None)
def link_outputs() -> frozenset[str]:
    """Everything a successful ``link`` run may print: each case, bare or not, text or JSON."""
    outputs = set()
    for case in cli.GOLDEN_CASES:
        for flags in ([], ["--bare"], ["--json"], ["--bare", "--json"]):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert cli.main(["link", "--case", case, *flags]) == 0
            outputs.add(stdout.getvalue())
    return frozenset(outputs)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["link", "selftest"]), link_argv)
def test_cli_boundary_on_link_and_selftest_argv(command, rest):
    argv = [command, *rest]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    assert code == 0 or out == "", (argv, out)
    assert elapsed < 0.5, (argv, elapsed)
    if code == 0 and not out.startswith("usage:"):
        # an answer, not help: exactly what the canonical argv prints
        if command == "link":
            assert out in link_outputs(), argv
        else:
            assert out.endswith("selftest: PASS\n"), argv


def test_analyze_huge_degree_is_bounded(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "analyze", "--weights", "1,1,1,1,1", "--degree", "400")
    assert code == 3 and "index" in err
    assert time.perf_counter() - start < EXAMPLE_DEADLINE_S


def test_hilbert_huge_degree_is_bounded(capsys):
    # the emptiness check must not cost O(d): only five terms are asked for
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "hilbert", "--weights", "1,1,1,1,1", "--degree", "100000000", "--terms", "5"
    )
    assert code == 0
    assert out.strip() == "1 5 15 35 70 126"
    assert time.perf_counter() - start < EXAMPLE_DEADLINE_S


def test_link_p5(capsys):
    code, out, _ = run(capsys, "link", "--case", "p5")
    assert code == 0
    assert "final solutions: 1" in out
    assert "target: P(1,1,2,3)" in out
    assert "canonical threshold" in out and "1/2" in out


def test_link_p7_bare(capsys):
    code, out, _ = run(capsys, "link", "--case", "p7", "--bare")
    assert code == 0
    assert "qhat=9 e=2" in out and "qhat=11 e=1" in out
    assert "F1" not in out  # filters suppressed


def test_link_ng_final_empty(capsys):
    code, out, _ = run(capsys, "link", "--case", "ng")
    assert code == 0
    assert "final solutions: 0" in out


def test_link_json_roundtrip(capsys):
    code, out, _ = run(capsys, "link", "--case", "p2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == json.loads(json.dumps(payload))
    assert payload["final"] == ["alpha=1/2 qhat=11 e=4"]
    assert payload["thresholds"]["alpha=1/2 qhat=11 e=4"] == "1/2"


def test_link_unknown_case(capsys):
    code, _, _ = run(capsys, "link", "--case", "p11")
    assert code == 2


def test_normalize_form_a(tmp_path, capsys):
    path = tmp_path / "a.txt"
    path.write_text(fixtures.FORM_A)
    code, out, _ = run(capsys, "normalize", "--input", str(path))
    assert code == 0
    assert "class: A" in out


def test_normalize_mixed_to_b_json(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("x5*x7 + x4^3 + x6^2 + x3*x4*x5")
    code, out, _ = run(capsys, "normalize", "--input", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "B"
    assert payload["lambda"] == "0"
    assert payload["final"] == "x5*x7 + x6^2 + x4^3"


def test_normalize_missing_corner_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("x5*x7 + x4^3 + x3^4")
    code, _, err = run(capsys, "normalize", "--input", str(path))
    assert code == 3
    assert "x6^2" in err


def test_normalize_parse_error_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("x5*x7 +")
    code, _, _ = run(capsys, "normalize", "--input", str(path))
    assert code == 3


def test_normalize_non_decimal_digit_is_a_parse_error(tmp_path, capsys):
    # "\u00b2" passes str.isdigit but not int: a ParseError with its position, exit 3
    path = tmp_path / "square.txt"
    path.write_text("x5\u00b2", encoding="utf-8")
    code, out, err = run(capsys, "normalize", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == "error: unexpected '\u00b2' at position 2\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("x\u0665*x\u0667 + x4^3 + x6^2", "expected a number at position 1"),
        ("\u0665", "expected 'x' at position 0"),
    ],
)
def test_normalize_non_ascii_digit_is_a_parse_error(tmp_path, capsys, text, message):
    # Arabic-Indic digits pass str.isdecimal, but the grammar's digits are ASCII 0-9
    path = tmp_path / "arabic.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "normalize", "--input", str(path))
    assert (code, out, err) == (3, "", f"error: {message}\n")


@contextlib.contextmanager
def digit_limit(n):
    """Set the interpreter's int/str digit limit to n (0: none), where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_normalize_prints_a_huge_lambda_in_full(tmp_path, capsys, flags):
    # completing the square in x6 leaves lambda = -c^2/36, 4,403 digits
    c = "1" * 2200
    path = tmp_path / "big.txt"
    path.write_text(f"x5*x7 + x4^3 + x6^2 + 7*x3*x4*x5 + {c}/3*x3^2*x6")
    with digit_limit(4300):
        code, out, err = run(capsys, "normalize", "--input", str(path), *flags)
        assert getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 4300
    assert (code, err) == (0, "")
    with digit_limit(0):
        square = str(int(c) ** 2)
        shift = str(Fraction(int(c), 6))
    expected = {
        "class": "A",
        "lambda": f"-{square}/36",
        "substitutions": ["x7 -> x7 - 7*x3*x4", f"x6 -> x6 - {shift}*x3^2"],
        "final": f"x5*x7 + x6^2 + x4^3 - {square}/36*x3^4",
    }
    if flags:
        assert json.loads(out) == expected
    else:
        assert out.splitlines() == [
            "class: A",
            f"lambda: {expected['lambda']}",
            *(f"substitution: {step}" for step in expected["substitutions"]),
            f"final: {expected['final']}",
        ]


@pytest.mark.parametrize(
    "text",
    [
        # x5 -> (10^2500+1)*x5 and a 5,001-digit x7 shift
        f"1/{10**2500 + 1}*x5*x7 + x4^3 + x6^2 + {10**2500 + 3}*x3*x4*x5",
        # a 4,403-digit lambda, as above
        f"x5*x7 + x4^3 + x6^2 + 7*x3*x4*x5 + {'1' * 2200}/3*x3^2*x6",
    ],
    ids=["steps", "final"],
)
def test_library_normal_form_text_ignores_the_digit_limit(tmp_path, capsys, text):
    from qfano import normal_form as nf

    path = tmp_path / "big.txt"
    path.write_text(text)
    with digit_limit(4300):
        result = nf.normalize(nf.parse(text))
        steps, final = list(result.steps), nf.poly_text(result.final)
        code, out, err = run(capsys, "normalize", "--input", str(path), "--json")
    assert (code, err) == (0, "")
    answer = json.loads(out)
    assert (answer["substitutions"], answer["final"]) == (steps, final)
    with digit_limit(0):
        assert answer["lambda"] == str(result.lam)


def test_parse_reads_a_long_literal_under_the_least_digit_limit():
    from qfano import normal_form as nf

    digits = "9" * 1001
    with digit_limit(640):
        poly = nf.parse(f"{digits}/7*x3^4 - x6^2")
        assert nf.parse(nf.poly_text(poly)) == poly
    with digit_limit(0):
        assert poly.terms == {(4, 0, 0, 0, 0): Fraction(int(digits), 7), (0, 0, 0, 2, 0): -1}


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_normalize_overlong_literal_is_a_parse_error(tmp_path, capsys, flags):
    path = tmp_path / "long.txt"
    path.write_text("x5*x7 + x4^3 + x6^2 + " + "7" * 5000 + "*x3^4")
    code, out, err = run(capsys, "normalize", "--input", str(path), *flags)
    assert (code, out) == (3, "")
    assert err == "error: number of 5000 digits at position 22 exceeds 4300 digits\n"


def test_normalize_unreadable_file_exit_2(capsys):
    code, _, _ = run(capsys, "normalize", "--input", "/nonexistent/file.txt")
    assert code == 2


@pytest.mark.parametrize("command", ["normalize", "analyze"])
def test_file_not_in_utf8_is_unreadable_exit_2(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff\xfe x3")
    if command == "normalize":
        argv = ("normalize", "--input", str(path))
    else:
        argv = ("analyze", "--weights", "3,4,5,6,7", "--degree", "12", "--poly", str(path))
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, *argv, *flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest: PASS" in out
    assert "FAIL" not in out


def test_selftest_detects_corrupted_fixture(monkeypatch, capsys):
    broken = list(fixtures.FIXTURES)
    broken[0] = broken[0]._replace(genus=5)
    monkeypatch.setattr(fixtures, "FIXTURES", tuple(broken))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL fixture X12" in out


def test_selftest_detects_golden_drift(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_golden_text", lambda name: "stale transcript\n")
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL transcript" in out
    assert "---" in out  # unified diff shown


def _calibration_fails(rr, monkeypatch):
    def calibrated_data(shape, order=0):
        raise rr.CalibrationError("Riemann-Roch series differs from the oracle at t^5")

    monkeypatch.setattr(rr, "calibrated_data", calibrated_data)
    return "Riemann-Roch series differs from the oracle at t^5"


def _chi_fractional_at_30(rr, monkeypatch):
    hilbert_rr = rr.hilbert_rr

    # past t^24: calibration reaches t^30 on X12, whose series is compared through t^45
    def fractional_at_30(data, order):
        if order >= 30:
            raise rr.ConventionError("chi(30A) = 1/2 is not an integer")
        return hilbert_rr(data, order)

    monkeypatch.setattr(rr, "hilbert_rr", fractional_at_30)
    return "chi(30A) = 1/2 is not an integer"


@pytest.mark.parametrize(
    "patch", [_calibration_fails, _chi_fractional_at_30],
    ids=lambda patch: patch.__name__.lstrip("_"),
)
def test_selftest_detects_riemann_roch_failures(monkeypatch, capsys, patch):
    from qfano import riemann_roch

    detail = patch(riemann_roch, monkeypatch)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    [line] = [line for line in out.splitlines() if line.startswith("FAIL riemann-roch X12: ")]
    assert detail in line


def _fixture_analysis_fails(monkeypatch):
    from qfano import wps

    # the basket of P(2,3,4,6) is refused: its index-2 vertex is not an isolated quotient
    shape = wps.HypersurfaceShape((2, 3, 4, 6))
    extra = fixtures.Fixture("P(2,3,4,6)", shape, 15, Fraction(1, 144), (), 9)
    monkeypatch.setattr(fixtures, "FIXTURES", (*fixtures.FIXTURES, extra))
    detail = "residues (1, 0, 0) mod 2 are not coprime units"
    return {"fixture P(2,3,4,6)": detail, "riemann-roch P(2,3,4,6)": detail}


def _link_recheck_fails(monkeypatch):
    from qfano import sarkisov

    solve, corrupted = sarkisov._solve_splits, []

    def corrupting(*args):  # the first split solved, for case ng, gets s + 1
        splits = solve(*args)
        if splits and not corrupted:
            corrupted.append(splits[0])
            return (splits[0]._replace(s=splits[0].s + 1), *splits[1:])
        return splits

    monkeypatch.setattr(sarkisov, "_solve_splits", corrupting)
    return {"transcript ng": "fails after split extension"}


def _every_split_corrupted(monkeypatch):
    from qfano import sarkisov

    solve = sarkisov._solve_splits

    def corrupting(*args):  # every split solved gets s + 1
        return tuple(split._replace(s=split.s + 1) for split in solve(*args))

    monkeypatch.setattr(sarkisov, "_solve_splits", corrupting)
    failing = {f"transcript {name}": "fails after split extension" for name in cli.GOLDEN_CASES}
    failing["transcript p5"] = "F4 for alpha=1/5 qhat=17 e=6: the second contraction"
    return failing


def _golden_missing(monkeypatch):
    golden_text = cli._golden_text

    def missing_p5(name):
        if name == "p5":
            raise FileNotFoundError(name)
        return golden_text(name)

    monkeypatch.setattr(cli, "_golden_text", missing_p5)
    return {"transcript p5": "golden file missing"}


def _normal_form_check_fails(monkeypatch):
    from qfano import normal_form

    monkeypatch.setattr(normal_form, "substitute", lambda poly, substitution: 0)
    detail = "pipeline left 0, not the closed form"
    return {"normal form form (a)": detail, "normal form form (b)": detail}


def _form_a_classed_b(monkeypatch):
    from qfano import normal_form

    # form (a) comes back unchanged but classed B: its check fails without raising
    normalize = normal_form.normalize
    monkeypatch.setattr(normal_form, "normalize", lambda poly: normalize(poly)._replace(form="B"))
    return {"normal form form (a)": "class=B steps=()"}


def _fixture_check_raises_no_message(monkeypatch):
    def verify(f):
        raise AssertionError()

    monkeypatch.setattr(fixtures, "verify", verify)
    return {f"fixture {f.name}": "" for f in fixtures.FIXTURES}


@pytest.mark.parametrize(
    "patch",
    [
        _fixture_analysis_fails,
        _link_recheck_fails,
        _every_split_corrupted,
        _golden_missing,
        _normal_form_check_fails,
        _form_a_classed_b,
        _fixture_check_raises_no_message,
    ],
    ids=lambda patch: patch.__name__.lstrip("_"),
)
def test_selftest_reports_a_check_that_raises_as_its_own_row(monkeypatch, capsys, patch):
    failing = patch(monkeypatch)
    code, out, err = run(capsys, "selftest")
    assert (code, err) == (1, "")
    *rows, summary = out.splitlines()
    # every check still has its row (two per fixture, one per transcript, three for the
    # normal forms), and only the broken ones fail, each with its message
    assert len(rows) == 2 * len(fixtures.FIXTURES) + len(cli.GOLDEN_CASES) + 3
    failed = {row[5:].partition(": ")[0]: row for row in rows if row.startswith("FAIL ")}
    assert failed.keys() == failing.keys()
    assert all(failing[label] in row for label, row in failed.items())
    assert summary == f"selftest: {len(failing)} failure(s)"


@pytest.mark.parametrize(
    "patch", [_form_a_classed_b, _fixture_check_raises_no_message],
    ids=lambda patch: patch.__name__.lstrip("_"),
)
def test_selftest_row_shows_a_detail_only_when_there_is_one(monkeypatch, capsys, patch):
    failing = patch(monkeypatch)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert [row for row in out.splitlines() if row.startswith("FAIL ")] == [
        f"FAIL {label}" + (f": {detail}" if detail else "") for label, detail in failing.items()
    ]


@pytest.mark.parametrize("argv", [("link", "--case", "p5", "--json"), ("selftest",)])
def test_closed_pipe_keeps_the_exit_code_and_stderr_empty(argv):
    # a reader that has already gone: every write to stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qfano.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_golden_cases_are_the_link_cases():
    from qfano import sarkisov

    assert cli.GOLDEN_CASES == tuple(name.lower() for name in sarkisov.CASES)


def loaded_modules(argv) -> set[str]:
    """Modules in sys.modules after ``cli.main(argv)`` in a new interpreter (after import alone for None).

    The interpreter runs with -S: a site whose .pth files import typing or
    importlib.resources first would hide whether qfano imports them.
    """
    script = "import sys\nfrom qfano import cli\n"
    if argv is not None:
        script += f"cli.main({list(argv)!r})\n"
    script += "sys.stderr.write('\\nMODULES ' + ' '.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    return set(proc.stderr.rsplit("MODULES ", 1)[1].split())


@pytest.mark.parametrize(
    "argv", [None, ("frobnicate",), ("hilbert", "--weights", "3,4,5,6", "--degree", "12")],
    ids=["import", "unknown-command", "usage-error"],
)
def test_parsing_imports_no_computation_module(argv):
    modules = loaded_modules(argv)
    assert {m for m in modules if m.split(".")[0] == "qfano"} == {"qfano", "qfano.cli"}
    assert not modules & {"json", "difflib", "shutil"}


@pytest.mark.parametrize("columns", [None, "60", "80", "200", "0", "-5", "abc", " 90 "])
def test_the_help_width_is_the_one_shutil_gives_argparse(monkeypatch, columns):
    import shutil

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    formatter = cli._help_formatter("qfano")
    assert type(formatter) is argparse.HelpFormatter
    assert formatter._width == shutil.get_terminal_size().columns - 2
    assert formatter._width == argparse.HelpFormatter("qfano")._width


# only analyze's report (qfano.report) and riemann_roch's records are dataclasses
NO_DATACLASSES = {"dataclasses", "inspect"}
# records are collections.namedtuple, so no command loads typing
NO_TYPING = {"typing"}
# argparse's help formatter gets its width from cli._help_formatter, not from shutil
NO_SHUTIL = {"shutil"}


@pytest.mark.parametrize(
    "argv,present,absent",
    [
        (
            ("hilbert", "--weights", "3,4,5,6,7", "--degree", "12"),
            {"qfano.wps"},
            {"qfano.sarkisov", "qfano.normal_form", "qfano.riemann_roch", "qfano.fixtures", "json", "difflib"}
            | NO_DATACLASSES | NO_TYPING | NO_SHUTIL,
        ),
        (
            ("normalize", "--input", "EQUATION", "--json"),
            {"qfano.normal_form"},
            {"qfano.sarkisov", "qfano.riemann_roch", "qfano.fixtures", "difflib"}
            | NO_DATACLASSES | NO_TYPING | NO_SHUTIL,
        ),
        (
            ("link", "--case", "p5"),
            {"qfano.sarkisov", "qfano.wps"},
            {"qfano.normal_form", "qfano.riemann_roch", "qfano.fixtures", "difflib"}
            | NO_DATACLASSES | NO_TYPING | NO_SHUTIL,
        ),
        (
            ("analyze", "--weights", "3,4,5,6,7", "--degree", "12"),
            {"qfano.wps", "qfano.report"},
            {"qfano.sarkisov", "qfano.normal_form", "qfano.riemann_roch", "qfano.fixtures"}
            | NO_TYPING | NO_SHUTIL,
        ),
        (
            ("selftest",),
            {"qfano.sarkisov", "qfano.normal_form", "qfano.riemann_roch", "qfano.fixtures"},
            # difflib only for a transcript that differs from its golden; the goldens are
            # read by path, not through importlib.resources and its zip reader
            {"json", "difflib", "importlib.resources", "zipfile"} | NO_TYPING | NO_SHUTIL,
        ),
    ],
    ids=["hilbert", "normalize", "link", "analyze", "selftest"],
)
def test_each_command_imports_only_what_it_uses(tmp_path, argv, present, absent):
    equation = tmp_path / "equation.txt"
    equation.write_text("x5*x7 + x4^3 + x6^2 + x3^4\n", encoding="utf-8")
    modules = loaded_modules([str(equation) if arg == "EQUATION" else arg for arg in argv])
    assert present <= modules
    assert not modules & absent
