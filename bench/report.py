"""Run the benchmark over several seeds and summarize each workload.

    python3 bench/report.py                       # every workload, seeds 1..10
    python3 bench/report.py --workloads scan --seeds 1 2 3 --seconds 5

Each run is ``bench/run.py`` in its own process, one at a time. For every
end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json; ``!`` marks a spread above
a third of the bound. It also gives the failed share over all runs and the
distinct failing inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list[str]]:
    """(result line, meta, failure lines) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    meta = next((json.loads(line[6:]) for line in lines if line.startswith("meta: ")), {})
    failures = [line[8:] for line in lines if line.startswith("failed: ")]
    return json.loads(lines[-1]), meta, failures


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Summarize benchmark runs over several seeds.")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    for workload in args.workloads:
        results, metas, failing = [], [], set()
        for seed in args.seeds:
            result, meta, failures = run_once(workload, seed, args.seconds, 0)
            results.append(result)
            metas.append(meta)
            failing.update(failures)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            raw = " ".join(f"{k}={v:.4g}" for k, v in meta.get("raw", {}).items() if k != "peak_rss_mb")
            print(f"{workload} seed={seed} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']} {shown} | "
                  f"probe_ms={meta.get('probe_ms', 0):.4g} raw: {raw}", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"== {workload}: failed_share {failed / attempted:.6f} ({failed}/{attempted}) correct {correct}")
        about = {k: metas[0].get(k) for k in ("python", "cpu_count", "git_rev", "src_lines", "seconds")}
        print(f"  meta {json.dumps(about)} operations per run {[m.get('operations') for m in metas]}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            flag = "!" if rel > m["bound"] / 3 else " "
            print(f"  {flag} {m['name']:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {rel:.4f} bound {m['bound']} {m['unit']}")
        for line in sorted(failing):
            print(f"  failing input: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
