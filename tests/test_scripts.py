"""The scripts under scripts/ run from a checkout and print what the package computes."""

import importlib.util
import json
import pathlib
import subprocess
import sys

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
        {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
        {"name": "p50_ms", "unit": "ms", "better": "lower"},
    ]
    parent = [result_line(100, 1.0), result_line(110, 2.0), result_line(120, 3.0)]
    # ops_per_s: two pairs higher, one tie; p50_ms: two pairs lower, one higher
    change = [result_line(150, 0.5), result_line(110, 1.0), result_line(125, 4.0, failed=2)]
    assert pairs.summarize(metrics, parent, change) == [
        "ops_per_s (1/s, higher is better): 110 [105, 115] -> 125 [117.5, 137.5], "
        "+13.6 %, change won 2/3",
        "p50_ms (ms, lower is better): 2 [1.5, 2.5] -> 1 [0.75, 2.5], -50.0 %, change won 2/3",
        "parent: 0/300 operations failed, all runs correct: True",
        "change: 2/300 operations failed, all runs correct: False",
    ]
    # one pair: its values are the median and both quartiles
    assert pairs.summarize(metrics[1:], parent[:1], change[:1])[0] == (
        "p50_ms (ms, lower is better): 1 [1, 1] -> 0.5 [0.5, 0.5], -50.0 %, change won 1/1"
    )


def test_bench_pairs_reads_the_declared_end_to_end_metrics():
    pairs = load_script("bench_pairs.py")
    declared = json.loads(pairs.BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    assert {m["better"] for m in declared} <= {"higher", "lower"}
    assert all({"name", "unit", "better"} <= m.keys() for m in declared)
