"""qfano benchmark: one workload, one seed, one line of JSON at the end.

Usage, from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

``bench/report.py`` runs every workload over several seeds and prints each
metric with its spread; ``python3 -m pytest bench`` checks the benchmark
itself.

Everything is measured from outside ``src/qfano``: the harness calls each
module's public functions (or spawns ``python -m qfano.cli`` with ``src`` on
the path) and checks every answer against ``oracle.py``, which does not
share the code path under test. One single-threaded caller drives a closed
loop: the next operation starts when the previous one has been checked.

A run does a fixed number of operations, OPS_PER_SECOND[workload] times
``--seconds``: the first ones of the seed's stream. The rates are sized so
that a run measures about ``--seconds`` seconds on the machine the bounds
were set on. Because the count does not depend on how fast the machine or
the program is, ``attempted`` and ``failed`` are exact functions of the
seed, and two sets of runs of the same code agree on them. A run that has
not finished after MEASURE_LIMIT_S stops there, so it always exits in time;
``meta`` then says ``truncated``.

Workloads, and why each exists
------------------------------
cli_cold
    A seeded stream of cold ``qfano`` processes, one at a time: ``hilbert``,
    ``analyze --json``, ``link`` (text, ``--json``, ``--bare``),
    ``normalize --json`` on equation files written during set-up,
    ``selftest``, and a share of malformed or out-of-domain inputs whose
    documented exit code is 2 or 3. This is how users run qfano, and
    interpreter start plus import is most of the wall time; it is the one
    workload where the ``cli`` layer dominates and ``wps.monomials`` does
    almost nothing.
scan
    A seeded sample of distinct weight systems: five sorted weights <= 33
    and q from ``riemann_roch.ALLOWED_FANO_INDICES`` with d = sum(w) - q > 0.
    Nine in ten are plain draws; one in ten is drawn among those that pass
    the arithmetic pre-filter for a well-formed quasi-smooth hypersurface
    (``workloads.candidate``), where families are found: a 30 s traced run
    meets about ten of them, where plain draws alone met none.
    Each operation builds ``wps.HypersurfaceShape``, calls
    ``wps.well_formed`` and ``wps.analyze``, and ``riemann_roch.calibrated_data``
    when the shape gets a basket. This is the classification scan; no input
    repeats, so a cache cannot help, and ``wps`` and ``series`` dominate.
x12_session
    A seeded stream of library requests on the paper's own objects:
    ``sarkisov.run_case`` on one of the five cases, ``calibrated_data`` plus
    ``fixtures.verify`` on a fixture, ``normal_form.parse`` + ``normalize``
    on a fresh equation built by a triangular coordinate change of form (a)
    or (b), and ``wps.hilbert`` + ``riemann_roch.hilbert_rr`` of a fixture to
    an order in 100..500. The same six shapes and five cases repeat, so a
    cache pays off here and not on ``scan``. It is the workload for
    ``sarkisov`` and ``normal_form``, for Riemann-Roch both as a search
    (calibration at order 24) and as long evaluation, and for long series
    expansions where ``scan`` makes many short ones.

End-to-end metrics (``--trace 0``)
----------------------------------
setup_s       import, seeded set-up (equation files, calibrated fixtures)
              and warm-up; median of SETUP_ROUNDS set-ups in the run, each
              scaled by the speed probes either side of it. Input streams
              are generated lazily, outside the timed regions.
ops_per_s     operations completed per second of time spent in qfano.
p50_ms        median latency per operation.
tail_ms       latency at the highest percentile with at least ten samples
              beyond it in a run: p90 on cli_cold (150 cold processes in a
              30 s run), p99 on scan and x12_session. Where a run has enough
              operations, it is split into up to TAIL_BLOCKS consecutive
              blocks, each with at least ten samples beyond the percentile,
              and tail_ms is the median of the blocks' percentiles, so that a
              slow spell of the machine in one block does not set it.
peak_rss_mb   peak resident memory of the workload's own process; for
              cli_cold, of the largest child process.

The machine the bounds were set on (2 shared vCPUs, Python 3.11) runs
identical work up to 1.5 times slower for seconds to minutes at a time, and
a 30 s run cannot average that out. So the run also times a speed probe, a fixed pure-Python
computation sharing no code with qfano (``probe_ns``), after every 25 ms of
operation time, and reports each latency as if the probe had taken
PROBE_NOMINAL_MS at that moment: the latency is multiplied by
PROBE_NOMINAL_MS / (median time of the PROBE_WINDOW probes either side of
it). ops_per_s, p50_ms and tail_ms come from these scaled latencies, and
each set-up round is scaled by the mean of the median of PROBE_WINDOW
probes before it and after it. A change to qfano does not
change the probe, so the scaled figures still compare commits on the same
machine; the raw wall-clock figures and the median probe time are printed
in ``meta``.

Every metric must appear on every workload, so the p90 of cli_cold and the
p99 of the others share the name ``tail_ms``. The failed share is
``failed / attempted`` of the result line (printed by name above it); it is
not a bounded metric because it is 0 on most runs.

An operation fails when it gives a wrong answer, prints a traceback, raises
an exception outside the documented rejections, or exits with another code
than the documented one. Failures are counted, never filtered out;
``correct`` is false when any answer was wrong (as opposed to an error
path that misbehaved). Known at the seed: ``hilbert --terms -1`` exits 3
where usage errors exit 2, and ``wps.analyze`` can raise ``EdgeContained``
(for example on P(1,2,3,5,7) in degree 7) although it promises warnings;
only four weight systems <= 33 raise so, all of them pre-filter
candidates: the 16,500 operations of a 30 s scan run meet one of them at
six of seeds 1-10 (4, 5, 6, 8, 9, 10), and the traced run's first 6000
operations at two seeds of five.

Per-layer metrics (``--trace 1``) and the end-to-end metric each should move
----------------------------------------------------------------------------
cli.interpreter_ms, cli.import_ms, cli.import.<module>_ms (cold
    ``python -c pass``, cold ``import qfano.cli``, ``-X importtime``) and
    cli.main_ms (in-process ``cli.main(argv)``): cli_cold p50_ms and
    tail_ms, nothing elsewhere.
wps.monomials / well_formed / analyze / basket / vertex_singularity /
    edge_singularities / hilbert / genus: scan ops_per_s, tail_ms (the tail
    is monomial enumeration) and peak_rss_mb; little effect on x12_session.
series.expand_product: scan p50_ms through many order >= 30 expansions,
    x12_session tail_ms through ``series`` requests.
riemann_roch.calibrate / chi / hilbert_rr (assignments = hilbert_rr calls
    under a calibrate span; match_ratio = calibrations found per
    assignment): x12_session ops_per_s and tail_ms, almost nothing on scan.
sarkisov.run_case / enumerate_bare / apply_filters / second_contraction,
    candidates, final_ratio, eliminated.F1-F4: x12_session tail_ms, and
    cli_cold tail_ms through ``link`` and ``selftest``.
normal_form.parse / substitute / normalize / corner_check: x12_session p50_ms.
fixtures.verify: cli_cold (``selftest``) and x12_session.
scan.outcome.{family,empty,not_well_formed,warned,raised}, scan.accept_ratio:
    exact counts; a speed change must not move them, a correctness change
    to the scan will.
trace.overhead_pct: traced minus untraced time of the same number of
    operations, as a share of the untraced time. trace.accounted_pct: share
    of operation time spent inside wrapped functions.

Everything runs in one process with no contention, so a faster layer saves
at most its own share of the blocking steps. The traced run does a fixed
number of operations (so its counts are exact): first untraced, then the
same operations again with span wrappers installed (``tracing.py``), so the
difference is the tracing overhead and not a different mix of requests. A
cache in the program would make the second pass, and so the overhead, look
cheaper. The spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 9
# operations per second of --seconds in an untraced run: a run measures
# 25-30 s at --seconds 30 on the 2-vCPU machine the bounds were set on
OPS_PER_SECOND = {"cli_cold": 5, "scan": 550, "x12_session": 120}
MEASURE_LIMIT_S = 120  # an untraced run stops here even if operations remain
FAILURES_SHOWN = 20
PROBE_NOMINAL_MS = 1.0  # timings are reported as if the speed probe took this long
PROBE_EVERY_NS = 25_000_000
PROBE_EDGE = 5  # probes before and after the measured loop
PROBE_WINDOW = 3  # probes either side of an operation that set its scale
TAIL_PERCENTILE = {"cli_cold": 90, "scan": 99, "x12_session": 99}
TAIL_BLOCKS = 5
# operations per second of --seconds in each phase of the traced run
TRACE_RATE = {"cli_cold": 10, "scan": 400, "x12_session": 40}


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "qfano").glob("*.py"))


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


class Tally:
    """What a run keeps per operation, in memory that does not grow with the count.

    The latency array is allocated (and its pages touched) up front, so the
    harness's own peak memory is the same however fast qfano is.
    """

    def __init__(self, capacity: int):
        self.latencies = array("q", [0]) * capacity
        self.probe_at = array("i", [0]) * capacity  # probes taken before each operation
        self.count = self.failed = 0
        self.wrong = False
        self.failures: list[str] = []
        self.kinds: Counter = Counter()
        self.labels: Counter = Counter()

    def add(self, outcome, describe, probes_so_far: int = 0) -> None:
        self.latencies[self.count] = outcome.latency_ns
        self.probe_at[self.count] = probes_so_far
        self.count += 1
        self.kinds[outcome.kind] += 1
        self.labels[outcome.label] += 1
        if outcome.failure:
            self.failed += 1
            self.wrong |= outcome.wrong
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(f"{describe()}: {outcome.failure}")

    def latencies_ms(self) -> list[float]:
        return [ns / 1e6 for ns in self.latencies[: self.count]]

    def total_ns(self) -> int:
        return sum(self.latencies[: self.count])


def probe_ns() -> int:
    """Time of a fixed pure-Python computation: a gauge of the machine's speed now.

    It shares no code with qfano and does the kinds of work qfano's
    operations do: integer series recurrences, Fraction sums, tuple and dict
    churn. The garbage collector is off while it runs (the probe makes no
    reference cycles), so its time does not depend on how many objects
    qfano keeps alive in the same heap.
    """
    gc.disable()
    try:
        start = time.perf_counter_ns()
        oracle.closed_form((3, 4, 5, 6, 7), 12, 600)
        total = Fraction(0)
        for k in range(1, 120):
            total += Fraction(k * k + 1, 12 * k + 7)
        table = {(k, k % 7): tuple(range(k % 11)) for k in range(300)}
        sorted(table, reverse=True)
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


def gauge_ms() -> float:
    """Median of PROBE_WINDOW probes, in ms."""
    return statistics.median(probe_ns() for _ in range(PROBE_WINDOW)) / 1e6


def run_ops(session, perform, tally: Tally, seconds: float | None = None, tracer=None, probes=None) -> Tally:
    """``perform`` on the session's stream from its start, until the tally is full or ``seconds`` pass.

    ``seconds`` is a safety limit only; a run is sized by its tally.

    With a ``probes`` array, the speed probe runs (untimed) after every
    PROBE_EVERY_NS of operation time.
    """
    deadline = time.perf_counter() + seconds if seconds is not None else float("inf")
    since_probe = 0
    for item in session.items():
        if tally.count == len(tally.latencies) or time.perf_counter() >= deadline:
            break
        outcome = perform(item, tracer)
        tally.add(outcome, lambda: session.describe(item), len(probes) if probes is not None else 0)
        since_probe += outcome.latency_ns
        if probes is not None and since_probe >= PROBE_EVERY_NS:
            probes.append(probe_ns())
            since_probe = 0
    return tally


def tail(latencies: list[float], pct: int) -> float:
    """Median over consecutive blocks of the blocks' ``pct``-th percentile.

    There are as many blocks, up to TAIL_BLOCKS, as leave each at least ten
    samples beyond the percentile; at least one.
    """
    n = len(latencies)
    blocks = max(1, min(TAIL_BLOCKS, n * (100 - pct) // 1000))
    return statistics.median(
        statistics.quantiles(latencies[k * n // blocks : (k + 1) * n // blocks], n=100, method="inclusive")[pct - 1]
        for k in range(blocks)
    )


def end_to_end(workload: str, tally: Tally, setups, gauges, probes) -> tuple[dict, dict]:
    """(normalized, raw wall-clock) metrics of an untraced run.

    Each latency is scaled by PROBE_NOMINAL_MS over the median of the
    PROBE_WINDOW probes either side of it; set-up round k (seconds in
    ``setups``) by PROBE_NOMINAL_MS over the mean of ``gauges[k]`` and
    ``gauges[k + 1]``, the probe medians (ms) taken before and after it.
    """
    rss = peak_rss_mb(workload)
    pct = TAIL_PERCENTILE[workload]
    ms = [p / 1e6 for p in probes]
    local = [statistics.median(ms[max(0, j - PROBE_WINDOW) : j + PROBE_WINDOW]) for j in range(len(ms) + 1)]
    metrics = {}
    for name, scale in (("raw", None), ("normalized", local)):
        latencies = [
            ns / 1e6 * (PROBE_NOMINAL_MS / scale[p] if scale else 1)
            for ns, p in zip(tally.latencies[: tally.count], tally.probe_at)
        ]
        metrics[name] = {
            "setup_s": statistics.median(
                s * (2 * PROBE_NOMINAL_MS / (a + b) if scale else 1) for s, a, b in zip(setups, gauges, gauges[1:])
            ),
            "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
            "p50_ms": statistics.median(latencies),
            "tail_ms": tail(latencies, pct),
            "peak_rss_mb": rss,
        }
    return metrics["normalized"], metrics["raw"]


def traced(workload: str, session, qf: dict, seed: int, seconds: int):
    """The --trace 1 run: per-layer metrics, and the tallies of both passes."""
    import tracing
    from workloads import child_env, startup_profile

    n = max(1, int(TRACE_RATE[workload] * seconds / 2))
    perform = getattr(session, "run_in_process", session.perform)
    plain = run_ops(session, perform, Tally(n))
    tracer = tracing.Tracer()
    tracer.install(qf)
    try:
        spanned = run_ops(session, perform, Tally(n), tracer=tracer)
    finally:
        tracer.uninstall()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload}-{seed}.json")
    values = tracing.layer_metrics(tracer, spanned, plain)
    values.update(startup_profile(child_env(qf)))
    if hasattr(session, "run_in_process"):
        values["cli.main_ms"] = statistics.median(plain.latencies_ms())
    return values, (plain, spanned)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one qfano benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qfano" / "__init__.py").is_file():
        print(f"error: no qfano sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SESSIONS, import_fresh

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, gauges = [], [gauge_ms()]
        for _ in range(SETUP_ROUNDS):
            gc.collect()  # modules dropped by the previous round are not collected inside the next
            start = time.perf_counter()
            qf = import_fresh()
            session = SESSIONS[args.workload](qf, args.seed, workdir)
            session.warm_up()
            setups.append(time.perf_counter() - start)
            gauges.append(gauge_ms())
        if args.trace:
            values, tallies = traced(args.workload, session, qf, args.seed, args.seconds)
            declared = spec["per_layer"]
        else:
            probes = array("q", (probe_ns() for _ in range(PROBE_EDGE)))
            planned = OPS_PER_SECOND[args.workload] * args.seconds
            tally = run_ops(session, session.perform, Tally(planned), MEASURE_LIMIT_S, probes=probes)
            probes.extend(probe_ns() for _ in range(PROBE_EDGE))
            probe_ms = statistics.median(probes) / 1e6
            values, raw = end_to_end(args.workload, tally, setups, gauges, probes)
            tallies = (tally,)
            declared = spec["end_to_end"]
        attempted = sum(t.count for t in tallies)
        failed = sum(t.failed for t in tallies)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_rev": git_rev(),
            "src_lines": src_lines(),
            "operations": attempted,
            "operations_by_kind": dict(sum((t.kinds for t in tallies), Counter())),
            "setup_rounds_s": setups,
            "setup_gauges_ms": gauges,
        }
        if not args.trace:
            meta.update(
                tail_percentile=TAIL_PERCENTILE[args.workload], probe_ms=probe_ms, probes=len(probes), raw=raw,
                truncated=tally.count < planned,
            )
        print("meta: " + json.dumps(meta, sort_keys=True))
        for t in tallies:
            for line in t.failures:
                print(f"failed: {line}")
            if t.failed > len(t.failures):
                print(f"failed: ... {t.failed - len(t.failures)} more")
        print(f"failed_share: {failed / attempted:.6f} ({failed}/{attempted})")
        metrics = {}
        for m in declared:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
        result = {
            "correct": not any(t.wrong for t in tallies),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
