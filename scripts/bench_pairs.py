#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in pairs of runs.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload scan --seeds 1-10 --seconds 30

``--seeds`` names each seed once, ascending: ``1-10``, ``3,5,8`` or both, as
``1-4,7``; any other list is a usage error, and the summary's header repeats
it as given. For each seed, each checkout runs its own ``bench/run.py --trace 0``
from its own directory, one after the other: the parent first at the first,
third, ... seed and the change first at the others, so a slow spell of the
machine does not always fall on the same side. The last line each run prints
is its JSON result. For every end-to-end metric that BENCHMARK.json (at the repo root)
declares, the summary gives each side's median with its quartiles, the change
of the medians in %, and the pairs the change won in the metric's ``better``
direction (a tie counts for neither side). Each line ends with a verdict against
the metric's ``bound`` in BENCHMARK.json, the first that applies of:

    regressed      the change's median is worse than the parent's by more than bound
    unresolved     the parent's (q3 - q1) / median is above bound, and not every
                   change run beats every parent run
    gain           the change won at least 0.9 of the pairs, and the medians differ
                   by more than the parent's q3 - q1
    no regression  none of the above

With ``--write`` the same numbers, and every run's ``meta:`` line and result,
go under the workload's name into BENCH_<rev>.json at the repo root, where rev
is the first 7 characters of the git rev the change's runs report. Runs on
other workloads are added to the same file; without ``--write`` nothing is
written to disk.
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
    """Seeds as '1-10', '3,5,8' or a mix of both, ascending; ValueError for any other list."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        span = range(int(low), int(high or low) + 1)
        if not span:
            raise ValueError(f"{part!r} is an empty range")
        seeds += span
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"{text!r} repeats a seed")
    if seeds != sorted(seeds):
        raise ValueError(f"{text!r} does not ascend")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """Per metric over paired result lines (parent[i] and change[i] share a seed): each
    side's median and quartiles, the change of the medians in %, the pairs the change won
    and the verdict against the metric's bound (module doc)."""
    out = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        (b1, b2, b3), (a1, a2, a3) = quartiles(before), quartiles(after)
        won = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        overlap = min(sign * a for a in after) <= max(sign * b for b in before)
        if sign * (a2 - b2) < -bound * abs(b2):
            verdict = "regressed"
        elif b3 - b1 > bound * abs(b2) and overlap:  # too wide a parent spread to tell
            verdict = "unresolved"
        elif won >= 0.9 * len(before) and sign * (a2 - b2) > b3 - b1:
            verdict = "gain"
        else:
            verdict = "no regression"
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": {"q1": b1, "median": b2, "q3": b3},
            "change": {"q1": a1, "median": a2, "q3": a3},
            "change_pct": 100 * (a2 - b2) / b2,
            "won": won,
            "pairs": len(before),
            "verdict": verdict,
        }
    return out


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric of ``compare``, then each side's failed operations."""
    lines = []
    for name, m in compare(metrics, parent, change).items():
        b, a = m["parent"], m["change"]
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): "
            f"{b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] -> "
            f"{a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}], "
            f"{m['change_pct']:+.1f} %, change won {m['won']}/{m['pairs']}: {m['verdict']}"
        )
    for side, results in (("parent", parent), ("change", change)):
        failed, attempted = sum(r["failed"] for r in results), sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        lines.append(f"{side}: {failed}/{attempted} operations failed, all runs correct: {correct}")
    return lines


def write(
    root: pathlib.Path, workload: str, seconds: int, metrics: list[dict], runs: dict
) -> pathlib.Path:
    """Put one workload's runs, each side's list of {"seed", "meta", "result"}, and
    ``compare`` over their result lines into BENCH_<short change rev>.json under root."""
    parent, change = ([r["result"] for r in runs[side]] for side in ("parent", "change"))
    path = root / f"BENCH_{runs['change'][0]['meta']['git_rev'][:7]}.json"
    bench = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    bench[workload] = {"seconds": seconds, "runs": runs, "metrics": compare(metrics, parent, change)}
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One run as {"seed", "meta", "result"}: its ``meta:`` line and its last line, the result."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0"]
    argv += ["--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    meta = next(json.loads(line[6:]) for line in lines if line.startswith("meta: "))
    return {"seed": seed, "meta": meta, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a workload on two checkouts in pairs.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="ascending, as 1-10, 3,5,8 or both")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--write", action="store_true",
                        help="also add the runs and the comparison to BENCH_<short change rev>.json")
    args = parser.parse_args(argv)
    try:
        seeds = seed_list(args.seeds)
    except ValueError as exc:
        parser.error(f"argument --seeds: {exc}")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for n, seed in enumerate(seeds):
        order = [("parent", args.parent), ("change", args.change)]
        for side, checkout in order if n % 2 == 0 else order[::-1]:
            runs[side].append(run(checkout, args.workload, seed, args.seconds))
        print(f"seed {seed} done", file=sys.stderr)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    parent, change = ([r["result"] for r in runs[side]] for side in ("parent", "change"))
    print(f"{args.workload}, seeds {args.seeds}, {args.seconds} s runs")
    print("\n".join(summarize(metrics, parent, change)))
    if args.write:
        path = write(BENCHMARK.parent, args.workload, args.seconds, metrics, runs)
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
