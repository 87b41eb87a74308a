"""Checks of the benchmark itself: seeded inputs, oracles, tracing, declarations.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def qf():
    return workloads.import_fresh()


@pytest.fixture(scope="module")
def sessions(qf, tmp_path_factory):
    return {
        name: cls(qf, 7, tmp_path_factory.mktemp(name))
        for name, cls in workloads.SESSIONS.items()
    }


def _inputs(qf, name: str, seed: int, tmp: Path, n: int = 300) -> bytes:
    tmp.mkdir()
    session = workloads.SESSIONS[name](qf, seed, tmp)
    items = list(islice(session.items(), n))
    if name == "cli_cold":  # file paths differ between directories; contents must not
        items = [(c.kind, c.argv, c.exit_code, c.expect) for c in items]
        items = [repr(item).replace(str(tmp), "<dir>") for item in items]
        items += sorted(p.read_text() for p in tmp.iterdir())
    return repr(items).encode()


@pytest.mark.parametrize("name", sorted(workloads.SESSIONS))
def test_same_seed_same_inputs(qf, tmp_path, name):
    a = _inputs(qf, name, 11, tmp_path / "a")
    b = _inputs(qf, name, 11, tmp_path / "b")
    c = _inputs(qf, name, 12, tmp_path / "c")
    assert a == b
    assert a != c


def test_items_restart_the_stream(sessions):
    session = sessions["scan"]
    first = list(islice(session.items(), 50))
    assert list(islice(session.items(), 50)) == first
    assert len(set(first)) == 50


def test_scan_inputs_are_distinct_and_mixed(qf):
    generate = workloads.scan_inputs(qf["riemann_roch"].ALLOWED_FANO_INDICES)
    items = list(islice(generate(random.Random("scan:3")), 5000))
    assert len(set(items)) == len(items)
    assert all(sum(w) - q > 0 and list(w) == sorted(w) and w[-1] <= 33 for w, q in items)
    candidates = sum(workloads.candidate(w, sum(w) - q) for w, q in items)
    assert 0.1 <= candidates / len(items) < 0.12


def test_candidate_prefilter_keeps_families_and_known_raises():
    assert workloads.candidate((3, 4, 5, 6, 7), 12)       # X12, the paper's family
    assert workloads.candidate((1, 1, 1, 1, 1), 4)        # the quartic in P^4
    assert workloads.candidate((1, 2, 3, 5, 7), 7)        # analyze raises EdgeContained here
    assert not workloads.candidate((2, 4, 6, 8, 9), 20)   # 2, 4, 6, 8 share a factor
    assert not workloads.candidate((1, 1, 1, 1, 7), 9)    # no x_7^a or x_7^a x_j of degree 9


# ---------------------------------------------------------------- oracles


def test_closed_form_matches_partition_counts(qf):
    count = qf["series"].partition_count
    for weights, d in (((3, 4, 5, 6, 7), 12), ((1, 1, 2, 3), 0), ((2, 5, 9, 11, 13), 30)):
        assert oracle.closed_form(weights, d, 40) == oracle.hilbert_by_partitions(count, weights, d, 40)


def test_check_series_flags_a_wrong_coefficient():
    expected = oracle.closed_form((3, 4, 5, 6, 7), 12, 30)
    assert oracle.check_series(expected, expected, "h") is None
    bad = list(expected)
    bad[17] += 1
    assert "t^17" in oracle.check_series(expected, bad, "h")
    assert oracle.check_series(expected, expected[:-1], "h")
    assert oracle.check_series(expected, [Fraction(1, 2)] + expected[1:], "h")


def test_check_scan_flags_corrupted_reports(qf):
    wps, count = qf["wps"], qf["series"].partition_count
    weights, q = (3, 4, 5, 6, 7), 13
    report = wps.analyze(wps.HypersurfaceShape(weights, 12))
    assert oracle.check_scan(weights, q, False, report, count) is None
    assert oracle.check_scan(weights, q, True, None, count)
    assert oracle.check_scan(weights, q, False, dataclasses.replace(report, fano_index=12), count)
    assert oracle.check_scan(weights, q, False, dataclasses.replace(report, genus=5), count)
    assert oracle.check_scan(weights, q, False, dataclasses.replace(report, a3=Fraction(1, 5)), count)
    coeffs = list(report.hilbert.coefficients)
    coeffs[9] += 1
    hilbert = qf["series"].PowerSeries(tuple(coeffs))
    assert oracle.check_scan(weights, q, False, dataclasses.replace(report, hilbert=hilbert), count)
    # an empty shape: (8, 8, 8, 8, 8) has no monomial of degree 33
    assert oracle.check_scan((8, 8, 8, 8, 8), 7, True, None, count) is None
    assert oracle.check_scan((8, 8, 8, 8, 8), 7, False, None, count)


def test_check_calibration_flags_corrupted_data(qf):
    rr, fixtures = qf["riemann_roch"], qf["fixtures"]
    fx = fixtures.fixture("X12")
    data = rr.calibrated_data(fx.shape)
    good = rr.hilbert_rr(data, 24).coefficients
    assert oracle.check_calibration(fx, data, good, 24) is None
    assert oracle.check_calibration(fx, data, good[:-1] + (good[-1] + 1,), 24)
    flipped = tuple(
        dataclasses.replace(e, wa=e.r - e.wa) if e.r > 2 else e for e in data.entries
    )
    assert oracle.check_calibration(fx, dataclasses.replace(data, entries=flipped), good, 24)
    assert oracle.check_calibration(fixtures.fixture("P(1,2,3,5)"), data, good, 24)


def test_link_oracles_flag_corrupted_output(qf, sessions):
    golden = sessions["x12_session"].golden["p5"]
    text = qf["sarkisov"].run_case("p5").text()
    assert oracle.check_link_text(golden, text) is None
    assert oracle.check_link_text(golden, text.replace("qhat=7", "qhat=8", 1))
    assert oracle.check_link_text(golden, text + "\n")
    bare, final = oracle.golden_keys(golden)
    assert final == ["alpha=1/5 qhat=7 e=4"] and len(bare) == 4


def test_normal_form_oracle_and_built_equations(qf):
    import random

    nf = qf["normal_form"]
    rng = random.Random(5)
    seen = set()
    for _ in range(40):
        text, built_from = oracle.seeded_equation(rng)
        form = nf.normalize(nf.parse(text)).form
        assert oracle.check_normal_form(built_from, form) is None
        assert oracle.check_normal_form("B" if built_from == "A" else "A", form)
        seen.add(built_from)
    assert seen == {"A", "B"}


def _in_process(qf, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = qf["cli"].main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _bump_last_coefficient(stdout: str) -> str:
    if stdout.startswith("{"):
        payload = json.loads(stdout)
        payload["coefficients"][-1] += 1
        return json.dumps(payload)
    coeffs = stdout.split()
    return " ".join(coeffs[:-1] + [str(int(coeffs[-1]) + 1)])


CORRUPT = {
    "hilbert": _bump_last_coefficient,
    "analyze": lambda s: s.replace('"genus": ', '"genus": 1', 1),
    "link": lambda s: s.replace("filter log", "filter  log"),
    "link_json": lambda s: s.replace('"qhat": ', '"qhat": 1', 1),
    "link_bare": lambda s: "\n".join(s.splitlines()[:-1]) + "\n",
    "normalize": lambda s: s.replace('"class": "A"', '"class": "X"').replace('"class": "B"', '"class": "X"'),
    "selftest": lambda s: s.replace("PASS", "1 failure(s)"),
}


def test_every_cli_oracle_flags_a_corrupted_answer(qf, sessions):
    session = sessions["cli_cold"]
    checked = set()
    for cmd in islice(session.items(), 400):
        if cmd.kind in checked or cmd.kind == "malformed":
            continue
        code, out, err = _in_process(qf, cmd.argv)
        assert workloads.judge_command(cmd, code, out, err, session) == (None, False), cmd
        failure, wrong = workloads.judge_command(cmd, code, CORRUPT[cmd.kind](out), err, session)
        assert failure and wrong, cmd
        checked.add(cmd.kind)
    assert checked == set(CORRUPT)


def test_exit_codes_and_tracebacks_are_failures(sessions):
    session = sessions["cli_cold"]
    usage = workloads.Command("malformed", ("link", "--case", "p4"), 2)
    assert workloads.judge_command(usage, 2, "", "usage: ...", session) == (None, False)
    assert workloads.judge_command(usage, 3, "", "error: x", session)[0] == "exit 3, documented 2"
    tb = "Traceback (most recent call last):\n  ...\nKeyError: 'x'"
    assert workloads.judge_command(usage, 2, "", tb, session)[0].startswith("traceback")


def test_known_usage_defect_is_counted(qf, sessions):
    argv, code = next(m for m in workloads.MALFORMED if "-1" in m[0])
    cmd = workloads.Command("malformed", argv, code)
    got = _in_process(qf, argv)
    failure, _ = workloads.judge_command(cmd, *got, sessions["cli_cold"])
    assert (failure is None) == (got[0] == 2)


# ---------------------------------------------------------------- tracing


def test_tracer_wraps_from_import_bindings_and_restores(qf):
    series, wps = qf["series"], qf["wps"]
    original = series.expand_product
    assert wps.expand_product is original
    tracer = tracing.Tracer()
    tracer.install(qf)
    try:
        assert wps.expand_product is series.expand_product is not original
        wps.hilbert(wps.HypersurfaceShape((3, 4, 5, 6, 7), 12), 30)  # outside an operation: not recorded
        with tracer.span("op.test"):
            wps.hilbert(wps.HypersurfaceShape((3, 4, 5, 6, 7), 12), 30)
    finally:
        tracer.uninstall()
    assert wps.expand_product is original and series.expand_product is original
    per, op_ns, covered_ns = tracer.summary()
    assert per["wps.hilbert"]["calls"] == 1 and per["series.expand_product"]["calls"] == 1
    assert 0 < covered_ns <= op_ns
    assert tracer.counts["series.expand_product.coeffs"] == 31


def test_tracer_refuses_a_missing_target(qf):
    renamed = dict(qf, wps=type(sys)("wps"))  # a wps module that defines none of the targets
    with pytest.raises(LookupError, match="wps.monomials"):
        tracing.Tracer().install(renamed)


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    tracer.name_ids.extend([0, 1, 1])
    tracer.names.extend(["op.x", "wps.analyze"])
    tracer.parents.extend([-1, 0, 1])
    tracer.starts.extend([0, 10, 20])
    tracer.ends.extend([100, 60, 30])
    tracer.raised.extend([0, 0, 1])
    per, op_ns, covered_ns = tracer.summary()
    assert per["op.x"]["self_ns"] == 50 and op_ns == 100 and covered_ns == 50
    assert per["wps.analyze"] == {"calls": 2, "errors": 1, "self_ns": 40 + 10}
    assert tracer.calls_under("wps.analyze", "wps.analyze") == 1


def _produced_names() -> set[str]:
    names = {f"{m}.{fn}.{what}" for m, fn in tracing.TARGETS for what in ("calls", "errors", "self_ms")}
    names |= {
        "wps.monomials.vectors", "series.expand_product.coeffs", "normal_form.substitute.terms", "normal_form.normalize.steps",
        "sarkisov.candidates", "riemann_roch.calibrate.assignments", "riemann_roch.calibrate.match_ratio",
        "sarkisov.final_ratio", "scan.accept_ratio", "trace.overhead_pct", "trace.accounted_pct",
        "cli.interpreter_ms", "cli.import_ms", "cli.main_ms",
    }
    names |= {f"sarkisov.eliminated.F{k}" for k in range(1, 5)}
    names |= {f"scan.outcome.{label}" for label in tracing.SCAN_OUTCOMES}
    names |= set(workloads.IMPORT_METRICS.values())
    return names


def test_declared_layer_metrics_are_all_produced():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared <= _produced_names(), declared - _produced_names()


def test_traced_pass_accounts_for_the_operation_time(qf, sessions):
    session = sessions["x12_session"]
    plain = run.run_ops(session, session.perform, run.Tally(12))
    tracer = tracing.Tracer()
    tracer.install(qf)
    try:
        spanned = run.run_ops(session, session.perform, run.Tally(12), tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(tracer, spanned, plain)
    assert spanned.failed == 0 and plain.failed == 0
    assert values["trace.accounted_pct"] > 50
    assert values["fixtures.verify.calls"] + values["sarkisov.run_case.calls"] > 0


# ---------------------------------------------------------------- declarations


def test_docstring_records_workloads_and_layer_map():
    doc = run.__doc__
    for w in SPEC["workloads"]:
        assert f"\n{w['name']}\n" in doc
    for m in SPEC["end_to_end"]:
        assert m["name"] in doc
    for module in ("cli.", "wps.", "series.", "riemann_roch.", "sarkisov.", "normal_form.", "fixtures.", "scan.", "trace."):
        assert module in doc


def test_workload_names_agree():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.SESSIONS) == set(run.TAIL_PERCENTILE)


def test_latencies_are_scaled_by_the_probes_around_them():
    tally = run.Tally(4)
    for ns, probes_before in ((1_000_000, 0), (1_000_000, 0), (2_000_000, 45), (2_000_000, 45)):
        tally.add(workloads.Outcome(ns, "scan"), lambda: "", probes_before)
    probes = [1_000_000] * 30 + [2_000_000] * 30  # the machine at half speed in the second half
    setups, gauges = [0.1, 0.2, 0.3], [1.0, 1.0, 2.0, 2.0]  # the second and third set-up ran at half speed
    normalized, raw = run.end_to_end("scan", tally, setups, gauges, probes)
    assert raw["p50_ms"] == pytest.approx(1.5) and raw["ops_per_s"] == pytest.approx(4 / 6e-3)
    assert normalized["p50_ms"] == pytest.approx(1.0) and normalized["ops_per_s"] == pytest.approx(1000)
    assert normalized["tail_ms"] == pytest.approx(1.0)
    assert raw["setup_s"] == pytest.approx(0.2)
    assert normalized["setup_s"] == pytest.approx(0.2 / 1.5)


def test_a_run_does_a_fixed_number_of_operations(capsys):
    results = []
    for _ in range(2):
        assert run.main(["--workload", "x12_session", "--seed", "3", "--seconds", "1", "--trace", "0"]) == 0
        results.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
    counts = [(r["attempted"], r["failed"]) for r in results]
    assert counts[0] == counts[1] == (run.OPS_PER_SECOND["x12_session"], 0)


def test_tail_is_the_median_of_block_percentiles():
    steady = [1.0] * 980 + [5.0] * 20  # one block: 10 samples beyond p99
    assert run.tail(steady, 99) == pytest.approx(5.0)
    spell = [1.0] * 1000 + [9.0] * 1000 + [2.0] * 3000  # a slow spell in the first two of five blocks
    assert run.tail(spell, 99) == pytest.approx(2.0)
    assert run.tail([3.0] * 150, 90) == pytest.approx(3.0)
