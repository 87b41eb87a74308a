#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in pairs of runs.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload scan --seeds 1-10 --seconds 30

For each seed, each checkout runs its own ``bench/run.py --trace 0`` from its
own directory, one after the other: the parent first at the first, third, ...
seed and the change first at the others, so a slow spell of the machine does
not always fall on the same side. The last line each run prints is its JSON
result. For every end-to-end metric that BENCHMARK.json (next to this script)
declares, the summary gives each side's median with its quartiles, the change
of the medians in %, and the pairs the change won in the metric's ``better``
direction (a tie counts for neither side). Nothing is written to disk.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def seed_list(text: str) -> list[int]:
    """Seeds as '1-10', '3,5,8' or a mix of both."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric over paired result lines (parent[i] and change[i] share a seed)."""
    lines = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        (b1, b2, b3), (a1, a2, a3) = quartiles(before), quartiles(after)
        won = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"{b2:.5g} [{b1:.5g}, {b3:.5g}] -> {a2:.5g} [{a1:.5g}, {a3:.5g}], "
            f"{100 * (a2 - b2) / b2:+.1f} %, change won {won}/{len(before)}"
        )
    for side, results in (("parent", parent), ("change", change)):
        failed, attempted = sum(r["failed"] for r in results), sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        lines.append(f"{side}: {failed}/{attempted} operations failed, all runs correct: {correct}")
    return lines


def run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0"]
    argv += ["--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a workload on two checkouts in pairs.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    parent, change = [], []
    for n, seed in enumerate(args.seeds):
        order = [(parent, args.parent), (change, args.change)]
        for results, checkout in order if n % 2 == 0 else order[::-1]:
            results.append(run(checkout, args.workload, seed, args.seconds))
        print(f"seed {seed} done", file=sys.stderr)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    print(f"{args.workload}, seeds {args.seeds[0]}..{args.seeds[-1]}, {args.seconds} s runs")
    print("\n".join(summarize(metrics, parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
