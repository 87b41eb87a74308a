"""CLI behavior: outputs, JSON round-trips, exit codes, self-test."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfano import cli, fixtures


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


def test_hilbert_malformed_weights(capsys):
    code, _, err = run(capsys, "hilbert", "--weights", "3,4", "--degree", "12")
    assert code == 2 and "weights" in err


def test_hilbert_usage_conflicts(capsys):
    code, _, err = run(capsys, "hilbert", "--weights", "3,4,5,6,7", "--space", "1,1,1,1")
    assert code == 2
    code, _, err = run(capsys, "hilbert", "--weights", "3,4,5,6,7")
    assert code == 2 and "--degree" in err


@pytest.mark.parametrize("command", ["hilbert", "analyze"])
def test_negative_terms_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--weights", "3,4,5,6,7", "--degree", "12", "--terms", "-1")
    assert code == 2 and out == ""
    assert "--terms" in err


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


@pytest.mark.parametrize(
    "weights,degree,edge",
    [("1,2,3,5,7", "7", "3,5"), ("1,3,4,5,11", "11", "4,5"), ("2,3,5,7,23", "23", "5,7"), ("3,4,5,7,17", "17", "4,7")],
)
def test_analyze_contained_coprime_edge_warns(capsys, weights, degree, edge):
    code, out, err = run(capsys, "analyze", "--weights", weights, "--degree", degree, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["basket"] == []
    assert payload["warnings"] == [f"member contains the edge w=({edge}); analysis out of scope"]


# every example, however large its degree or --terms, must finish in this time
EXAMPLE_DEADLINE_S = 2.0
cli_weights = st.lists(st.integers(min_value=1, max_value=40), min_size=4, max_size=5)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["hilbert", "analyze"]),
    cli_weights,
    st.one_of(st.integers(min_value=-5, max_value=200), st.integers(min_value=0, max_value=2000)),
    st.one_of(st.none(), st.integers(min_value=-5, max_value=300)),
    st.booleans(),
)
def test_cli_boundary_exit_codes(command, weights, degree, terms, as_json):
    text = ",".join(map(str, weights))
    if len(weights) == 5:
        argv = [command, "--weights", text, "--degree", str(degree)]
    else:
        argv = [command, "--space", text]
    if terms is not None:
        argv += ["--terms", str(terms)]
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
    if terms is not None and terms < 0:
        assert code == 2
    assert elapsed < EXAMPLE_DEADLINE_S, (argv, elapsed)


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


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest: PASS" in out
    assert "FAIL" not in out


def test_selftest_detects_corrupted_fixture(monkeypatch, capsys):
    import dataclasses

    broken = list(fixtures.FIXTURES)
    broken[0] = dataclasses.replace(broken[0], genus=5)
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
