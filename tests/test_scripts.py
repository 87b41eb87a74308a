"""The scripts under scripts/ run from a checkout and print what the package computes."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from qfano import fixtures, wps

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_fixture_report_prints_each_hilbert_series():
    lines = run_script("fixture_report.py").splitlines()
    prefix = "  hilbert through t^12: "
    printed = [tuple(map(int, s[len(prefix):].split())) for s in lines if s.startswith(prefix)]
    assert printed == [wps.hilbert(f.shape, 12).coefficients for f in fixtures.FIXTURES]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(ops_per_s: float, p50_ms: float, failed: int = 0) -> dict:
    metrics = {"ops_per_s": {"value": ops_per_s}, "p50_ms": {"value": p50_ms}}
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


def test_bench_pairs_summarizes_paired_runs_by_each_metrics_direction():
    pairs = load_script("bench_pairs.py")
    assert pairs.seed_list("1-4,7") == [1, 2, 3, 4, 7]
    metrics = [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    ]
    parent = [result_line(100, 1.0), result_line(110, 2.0), result_line(120, 3.0)]
    # ops_per_s: two pairs higher, one tie; p50_ms: two pairs lower, one higher
    change = [result_line(150, 0.5), result_line(110, 1.0), result_line(125, 4.0, failed=2)]
    assert pairs.summarize(metrics, parent, change) == [
        "ops_per_s (1/s, higher is better): 110 [105, 115] -> 125 [117.5, 137.5], "
        "+13.6 %, change won 2/3: no regression",
        "p50_ms (ms, lower is better): 2 [1.5, 2.5] -> 1 [0.75, 2.5], -50.0 %, change won 2/3: "
        "unresolved",
        "parent: 0/300 operations failed, all runs correct: True",
        "change: 2/300 operations failed, all runs correct: False",
    ]
    # one pair: its values are the median and both quartiles
    assert pairs.summarize(metrics[1:], parent[:1], change[:1])[0] == (
        "p50_ms (ms, lower is better): 1 [1, 1] -> 0.5 [0.5, 0.5], -50.0 %, change won 1/1: gain"
    )


def ops_per_s_verdict(parent: list[float], change: list[float]) -> str:
    pairs = load_script("bench_pairs.py")
    metrics = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]
    paired = ([result_line(value, 1.0) for value in side] for side in (parent, change))
    return pairs.compare(metrics, *paired)["ops_per_s"]["verdict"]


def test_bench_pairs_gives_each_metric_the_first_verdict_that_applies():
    steady = [100, 101, 102]  # quartiles 100.5 and 101.5: a spread of 1 %
    # a median 30 % worse is past the bound of 20 %, however the pairs fall
    assert ops_per_s_verdict(steady, [70, 70, 70]) == "regressed"
    assert ops_per_s_verdict([70, 100, 130], [75, 75, 150]) == "regressed"
    # the parent spreads by 50 % of its median, past the bound: overlapping runs tell nothing
    assert ops_per_s_verdict([50, 100, 150], [90, 110, 130]) == "unresolved"
    # ... unless every change run beats every parent run
    assert ops_per_s_verdict([50, 100, 150], [160, 170, 180]) == "gain"
    # every pair won, and the medians 10 apart against the parent's spread of 1
    assert ops_per_s_verdict(steady, [110, 111, 112]) == "gain"
    # won, but the medians 1 apart: within the parent's spread
    assert ops_per_s_verdict(steady, [101, 102, 103]) == "no regression"
    # the medians 10 apart, but two pairs of three won: short of 0.9
    assert ops_per_s_verdict(steady, [110, 100, 112]) == "no regression"


@pytest.mark.parametrize(
    "seeds, refusal",
    [
        ("10-1", "'10-1' is an empty range"),
        ("1-3,2", "'1-3,2' repeats a seed"),
        ("4,4", "'4,4' repeats a seed"),
        ("5,3", "'5,3' does not ascend"),
        ("", "invalid literal for int() with base 10: ''"),
    ],
)
def test_bench_pairs_refuses_a_seed_list_that_is_empty_descends_or_repeats(
    monkeypatch, capsys, seeds, refusal
):
    pairs = load_script("bench_pairs.py")
    monkeypatch.setattr(pairs, "run", lambda *args: pytest.fail(f"ran {args}"))
    with pytest.raises(SystemExit) as exited:
        pairs.main(["parent", "change", "--workload", "scan", "--seeds", seeds, "--seconds", "1"])
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --seeds: {refusal}\n")


def test_bench_pairs_runs_each_seed_once_and_heads_the_summary_with_the_seeds_as_given(
    monkeypatch, capsys
):
    pairs = load_script("bench_pairs.py")
    declared = json.loads(pairs.BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0} for m in declared}}
    ran = []

    def run(checkout, workload, seed, seconds):
        ran.append((checkout, seed))
        return {"seed": seed, "meta": {}, "result": result}

    monkeypatch.setattr(pairs, "run", run)
    argv = ["p", "c", "--workload", "scan", "--seeds", "1-2,5", "--seconds", "3"]
    assert pairs.main(argv) == 0
    # the parent first at the first and third seed, the change first at the second
    assert ran == [("p", 1), ("c", 1), ("c", 2), ("p", 2), ("p", 5), ("c", 5)]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "scan, seeds 1-2,5, 3 s runs"
    assert len(out) == 1 + len(declared) + 2 and out[-1].startswith("change: 0/30 operations")


def test_bench_pairs_reads_the_declared_end_to_end_metrics():
    pairs = load_script("bench_pairs.py")
    declared = json.loads(pairs.BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    assert {m["better"] for m in declared} <= {"higher", "lower"}
    assert all({"name", "unit", "better"} <= m.keys() for m in declared)


def test_bench_pairs_writes_each_run_and_the_comparison_by_workload(tmp_path):
    pairs = load_script("bench_pairs.py")
    metrics = [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.2}]

    def runs(side: str, rev: str, values: list[float]) -> list[dict]:
        meta = {"git_rev": rev, "python": "3.11.7", "src_lines": 2746 if side == "parent" else 2771}
        return [{"seed": seed, "meta": meta, "result": result_line(100, value)}
                for seed, value in zip((1, 2, 3), values)]

    paired = {"parent": runs("parent", "54cf30c" + "0" * 33, [3.0, 2.0, 1.0]),
              "change": runs("change", "abcdef1" + "2" * 33, [2.0, 2.5, 0.5])}
    path = pairs.write(tmp_path, "cli_cold", 30, metrics, paired)
    assert path == tmp_path / "BENCH_abcdef1.json"
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written["cli_cold"]["runs"] == paired and written["cli_cold"]["seconds"] == 30
    assert written["cli_cold"]["metrics"] == {
        "p50_ms": {
            "unit": "ms", "better": "lower",
            "parent": {"q1": 1.5, "median": 2.0, "q3": 2.5},
            "change": {"q1": 1.25, "median": 2.0, "q3": 2.25},
            "change_pct": 0.0, "won": 2, "pairs": 3, "verdict": "unresolved",
        }
    }
    # a second workload joins the same file; the first stays as it was
    pairs.write(tmp_path, "scan", 10, metrics, paired)
    both = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(both) == ["cli_cold", "scan"] and both["cli_cold"] == written["cli_cold"]
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_abcdef1.json"]
