"""The three workloads: seeded inputs, one timed operation each, and its check.

A session is built from the freshly imported qfano modules, the seed and a
scratch directory. ``session.items()`` is a fresh iterator over the seeded
stream of inputs and ``session.perform(item)`` performs one operation: only
the calls into qfano sit inside the timed region; the oracle check runs
after it, with tracing switched off. Streams are lazy and deterministic, and
a run reads a fixed number of items from the start of its stream.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations, islice
from pathlib import Path
from statistics import median

import oracle

QFANO_MODULES = ("series", "wps", "riemann_roch", "fixtures", "sarkisov", "normal_form", "cli")
LINK_CASES = ("ng", "p2", "p3", "p5", "p7")
CHILD_TIMEOUT_S = 60

clock = time.perf_counter_ns


def import_fresh() -> dict:
    """Import every qfano module anew, as a new process would."""
    for name in [m for m in sys.modules if m == "qfano" or m.startswith("qfano.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"qfano.{name}") for name in QFANO_MODULES}


def dealt(rng, items, shares=None, deck_size: int = 20):
    """Items in shuffled decks holding each in its exact share.

    Every stretch of the stream then has the same mix, so the mix does not
    vary from seed to seed the way independent draws would.
    """
    if shares is None:
        deck = list(items)
    else:
        deck = [item for item, share in zip(items, shares) for _ in range(round(share * deck_size))]
    while True:
        rng.shuffle(deck)
        yield from deck


@dataclass
class Outcome:
    latency_ns: int
    kind: str
    failure: str | None = None   # why the operation failed, if it did
    wrong: bool = False          # the failure is a wrong answer
    label: str = ""              # short tag, e.g. a scan outcome class


def timed(tracer, kind: str, call):
    """Run ``call()`` in the timed region; (latency_ns, result, exception).

    With a tracer, the region is the operation's root span and the only
    time spans are recorded.
    """
    with tracer.span(f"op.{kind}") if tracer is not None else nullcontext():
        start = clock()
        try:
            result, error = call(), None
        except Exception as exc:  # every exception is reported as a failed operation
            result, error = None, exc
        latency = clock() - start
    return latency, result, error


class Session:
    """One workload: ``generate(rng)`` yields its inputs, ``perform`` does one operation."""

    warm_up_ops = 0
    tag: str
    seed: int
    generate: Callable[[random.Random], Iterator]

    def items(self):
        """A fresh iterator over this seed's stream of inputs."""
        return self.generate(random.Random(f"{self.tag}:{self.seed}"))

    def warm_up(self) -> None:
        """Operations from a stream that is the same for every seed, untimed."""
        for item in islice(self.generate(random.Random(f"{self.tag}-warm-up:0")), self.warm_up_ops):
            self.perform(item)


def _raised(error: BaseException) -> str:
    return f"raised {type(error).__name__}: {error}"


# ---------------------------------------------------------------- scan


MAX_WEIGHT = 33
# Most weight systems drawn at random are far from quasi-smooth, so families
# (and the shapes on which ``wps.analyze`` raises) almost never come up among
# them. A share of the stream is therefore drawn from the weight systems
# that pass the arithmetic pre-filter a classification scan applies before
# the analysis; about 1.5% of those are families, against 0.01% of all draws.
SCAN_SOURCES = ("draw", "candidate")
SCAN_SHARES = (0.9, 0.1)
WEIGHTS = range(1, MAX_WEIGHT + 1)
MAX_TRIES = 1_000_000  # draws per input before the stream gives up


def multiset_rank(weights) -> int:
    """Rank of five sorted weights in 1..MAX_WEIGHT among all such multisets."""
    return sum(math.comb(w - 1 + k, k + 1) for k, w in enumerate(weights))


def candidate(weights, d: int) -> bool:
    """Arithmetic necessary conditions for a well-formed quasi-smooth hypersurface.

    Each vertex needs a degree-d monomial x_i^a or x_i^a x_j; an edge whose
    weights share a factor needs one in its two variables alone; any four
    weights are coprime and the gcd of any three divides d.
    """
    for i, w in enumerate(weights):
        if d % w and not any(d - v >= w and (d - v) % w == 0 for j, v in enumerate(weights) if j != i):
            return False
    if any(math.gcd(*four) != 1 for four in combinations(weights, 4)):
        return False
    if any(d % math.gcd(*three) for three in combinations(weights, 3)):
        return False
    return all(
        math.gcd(a, b) == 1 or any((d - k * a) % b == 0 for k in range(d // a + 1))
        for a, b in combinations(weights, 2)
    )


def scan_inputs(allowed_q):
    def generate(rng):
        # one bit per (weights, q): distinct inputs in a fixed amount of memory
        seen = bytearray((math.comb(MAX_WEIGHT + 4, 5) * len(allowed_q) + 7) // 8)
        q_index = dealt(rng, range(len(allowed_q)))
        for source in dealt(rng, SCAN_SOURCES, SCAN_SHARES):
            for _ in range(MAX_TRIES):
                k = next(q_index)
                weights = tuple(sorted(rng.choices(WEIGHTS, k=5)))
                d = sum(weights) - allowed_q[k]
                if d <= 0 or (source == "candidate" and not candidate(weights, d)):
                    continue
                bit = multiset_rank(weights) * len(allowed_q) + k
                if not seen[bit >> 3] & (1 << (bit & 7)):
                    break
            else:
                raise RuntimeError(f"scan: no unseen {source} weight system in {MAX_TRIES} draws")
            seen[bit >> 3] |= 1 << (bit & 7)
            yield weights, allowed_q[k]

    return generate


class ScanSession(Session):
    """Weight systems: shape, well-formedness, analysis, and calibration of baskets."""

    warm_up_ops = 20
    tag = "scan"

    def __init__(self, qf: dict, seed: int, workdir: Path):
        self.seed = seed
        self.wps, self.rr, self.series = qf["wps"], qf["riemann_roch"], qf["series"]
        self.generate = scan_inputs(self.rr.ALLOWED_FANO_INDICES)
        self.rejections = (self.rr.CalibrationError, self.rr.ConventionError)

    def describe(self, item) -> str:
        weights, q = item
        return f"weights={','.join(map(str, weights))} degree={sum(weights) - q} q={q}"

    def perform(self, item, tracer=None) -> Outcome:
        weights, q = item
        d = sum(weights) - q
        wps, rr = self.wps, self.rr
        state: dict = {}

        def call():
            try:
                shape = wps.HypersurfaceShape(weights, d)
            except ValueError:  # documented: no monomial of degree d
                state["empty"] = True
                return None
            state["well_formed"] = wps.well_formed(weights)
            report = state["report"] = wps.analyze(shape)
            if report.basket is not None:
                try:
                    state["data"] = rr.calibrated_data(shape)
                except self.rejections as exc:
                    state["rejected"] = exc
            return report

        latency, report, error = timed(tracer, "scan", call)
        if error is not None:
            return Outcome(latency, "scan", _raised(error), label="raised")
        empty = state.get("empty", False)
        problem = oracle.check_scan(weights, q, empty, report, self.series.partition_count)
        if problem:
            return Outcome(latency, "scan", problem, wrong=True, label="wrong")
        if empty:
            return Outcome(latency, "scan", label="empty")
        if not state["well_formed"]:
            return Outcome(latency, "scan", label="not_well_formed")
        if report.warnings:
            return Outcome(latency, "scan", label="warned")
        # a clean family: its basket must reproduce the Hilbert series
        if "rejected" in state:
            return Outcome(latency, "scan", _raised(state["rejected"]), wrong=True, label="family")
        rr_series = rr.hilbert_rr(state["data"], 24).coefficients
        problem = oracle.check_series(oracle.closed_form(weights, d, 24), rr_series, "riemann-roch")
        return Outcome(latency, "scan", problem, wrong=bool(problem), label="family")


# ---------------------------------------------------------------- x12 session

SESSION_KINDS = ("normalize", "calibrate", "link", "series")
# Normal forms are the cheapest requests and series the dearest; with these
# shares the median falls inside the link/calibrate cluster, not between two
# clusters, and p99 falls inside the long series expansions.
SESSION_SHARES = (0.30, 0.25, 0.25, 0.20)


def session_inputs(n_fixtures: int):
    def generate(rng):
        cases = dealt(rng, LINK_CASES)
        calibrated, expanded = dealt(rng, range(n_fixtures)), dealt(rng, range(n_fixtures))
        for kind in dealt(rng, SESSION_KINDS, SESSION_SHARES):
            if kind == "link":
                yield ("link", next(cases))
            elif kind == "calibrate":
                yield ("calibrate", next(calibrated))
            elif kind == "normalize":
                yield ("normalize", *oracle.seeded_equation(rng))
            else:
                yield ("series", next(expanded), rng.randint(100, 500))

    return generate


def read_goldens(qf: dict) -> dict[str, str]:
    golden = Path(qf["cli"].__file__).parent / "golden"
    return {case: (golden / f"{case}.txt").read_text(encoding="utf-8") for case in LINK_CASES}


class X12Session(Session):
    """Library requests on the paper's own objects: links, calibration, normal forms, series."""

    warm_up_ops = 10
    tag = "x12_session"

    def __init__(self, qf: dict, seed: int, workdir: Path):
        self.seed = seed
        self.qf = qf
        self.fixtures = qf["fixtures"].FIXTURES
        self.generate = session_inputs(len(self.fixtures))
        self.golden = read_goldens(qf)
        self.data = [qf["riemann_roch"].calibrated_data(f.shape) for f in self.fixtures]

    def describe(self, request) -> str:
        if request[0] in ("calibrate", "series"):
            return " ".join(map(str, (request[0], self.fixtures[request[1]].name, *request[2:])))
        return " ".join(map(str, request))

    def perform(self, request, tracer=None) -> Outcome:
        kind = request[0]
        qf = self.qf
        wps, rr, nf = qf["wps"], qf["riemann_roch"], qf["normal_form"]
        if kind == "link":
            case = request[1]
            latency, text, error = timed(tracer, kind, lambda: qf["sarkisov"].run_case(case).text())
            problem = _raised(error) if error else oracle.check_link_text(self.golden[case], text)
        elif kind == "calibrate":
            fx = self.fixtures[request[1]]
            latency, result, error = timed(
                tracer, kind, lambda: (rr.calibrated_data(fx.shape, 24), qf["fixtures"].verify(fx))
            )
            if error:
                problem = _raised(error)
            elif result[1]:
                problem = "; ".join(result[1])
            else:
                rr_series = rr.hilbert_rr(result[0], 24).coefficients
                problem = oracle.check_calibration(fx, result[0], rr_series, 24)
        elif kind == "normalize":
            text, built_from = request[1], request[2]
            latency, result, error = timed(tracer, kind, lambda: nf.normalize(nf.parse(text)))
            problem = _raised(error) if error else oracle.check_normal_form(built_from, result.form)
        else:
            fx, data, order = self.fixtures[request[1]], self.data[request[1]], request[2]
            latency, result, error = timed(
                tracer, kind, lambda: (wps.hilbert(fx.shape, order), rr.hilbert_rr(data, order))
            )
            if error:
                problem = _raised(error)
            else:
                expected = oracle.closed_form(fx.shape.weights, fx.shape.degree, order)
                problem = oracle.check_series(
                    expected, result[0].coefficients, "hilbert"
                ) or oracle.check_series(expected, result[1].coefficients, "riemann-roch")
        return Outcome(latency, kind, problem, wrong=bool(problem) and error is None)


# ---------------------------------------------------------------- cold CLI

# Inputs whose documented exit code is 2 (usage) or 3 (domain precondition).
# ``--terms -1`` is a usage error; the seed exits 3 on it and that counts as
# a failure.
MALFORMED = (
    (("hilbert", "--weights", "3,4,5,6", "--degree", "12"), 2),
    (("hilbert", "--weights", "3,4,x,6,7", "--degree", "12"), 2),
    (("hilbert", "--weights", "3,4,5,6,7", "--degree", "12", "--terms", "-1"), 2),
    (("analyze", "--weights", "3,4,5,6,7"), 2),
    (("link", "--case", "p4"), 2),
    (("normalize", "--input", "{missing}"), 2),
    (("frobnicate",), 2),
    (("hilbert", "--weights", "3,4,5,6,7", "--degree", "1"), 3),
    (("analyze", "--weights", "1,1,1,1,1", "--degree", "10"), 3),
    (("normalize", "--input", "{no_corner}"), 3),
    (("normalize", "--input", "{bad_syntax}"), 3),
)
CLI_KINDS = ("hilbert", "analyze", "link", "link_json", "link_bare", "normalize", "selftest", "malformed")
# Every command but selftest costs about the same, interpreter start plus
# import; selftest takes about 50 ms more. With selftest at 15%, p90 falls
# inside the selftest cluster instead of at its edge, where a handful of slow
# commands would move it.
CLI_SHARES = (0.15, 0.15, 0.10, 0.10, 0.05, 0.10, 0.15, 0.20)
EQUATION_FILES = 16


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    exit_code: int
    expect: object = None   # what the oracle needs: shape, fixture index, case or class


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def cli_inputs(files: dict[str, str], classes: list[str], n_fixtures: int, fixture_args):
    def generate(rng):
        fixture_order, cases = dealt(rng, range(n_fixtures)), dealt(rng, LINK_CASES)
        for kind in dealt(rng, CLI_KINDS, CLI_SHARES):
            if kind == "hilbert":
                terms = rng.randint(5, 30)
                if rng.random() < 0.25:
                    weights = tuple(rng.randint(1, 12) for _ in range(4))
                    argv = ("hilbert", "--space", _join(weights))
                    degree = 0
                else:
                    weights = tuple(rng.randint(1, 12) for _ in range(5))
                    degree = rng.randint(1, 40)
                    while oracle.closed_form(weights, 0, degree)[degree] == 0:
                        degree += 1
                    argv = ("hilbert", "--weights", _join(weights), "--degree", str(degree))
                argv += ("--terms", str(terms)) + (("--json",) if rng.random() < 0.5 else ())
                yield Command(kind, argv, 0, (tuple(sorted(weights)), degree, terms))
            elif kind == "analyze":
                index = next(fixture_order)
                yield Command(kind, ("analyze", *fixture_args(index), "--json"), 0, index)
            elif kind.startswith("link"):
                case = next(cases)
                flag = {"link": (), "link_json": ("--json",), "link_bare": ("--bare",)}[kind]
                yield Command(kind, ("link", "--case", case, *flag), 0, case)
            elif kind == "normalize":
                n = rng.randrange(len(classes))
                yield Command(kind, ("normalize", "--input", files[f"eq{n}"], "--json"), 0, classes[n])
            elif kind == "selftest":
                yield Command(kind, ("selftest",), 0)
            else:
                argv, code = rng.choice(MALFORMED)
                yield Command(kind, tuple(a.format(**files) for a in argv), code)

    return generate


def check_command(cmd: Command, stdout: str, session) -> str | None:
    """Oracle for a command that exited with its documented code."""
    if cmd.kind == "hilbert":
        weights, degree, terms = cmd.expect
        expected = oracle.hilbert_by_partitions(session.partition_count, weights, degree, terms)
        if "--json" in cmd.argv:
            try:
                got = json.loads(stdout)["coefficients"]
            except (ValueError, KeyError, TypeError):
                return "hilbert --json output lacks coefficients"
        else:
            try:
                got = [int(x) for x in stdout.split()]
            except ValueError:
                return "hilbert output is not a list of integers"
        return oracle.check_series(expected, got, "hilbert")
    if cmd.kind == "analyze":
        fx = session.fixtures[cmd.expect]
        try:
            payload = json.loads(stdout)
            indices = tuple(sorted(p["r"] for p in payload["basket"] for _ in range(p["count"])))
            found = (payload["fano_index"], payload["a3"], indices, payload["genus"])
        except (ValueError, KeyError, TypeError):
            return "analyze --json output is malformed"
        wanted = (fx.fano_index, str(fx.a3), tuple(fx.basket_indices), fx.genus)
        if found != wanted:
            return f"analyze {fx.name}: (q, A^3, basket, genus) = {found}, expected {wanted}"
        expected = oracle.closed_form(fx.shape.weights, fx.shape.degree, len(payload["hilbert"]) - 1)
        return oracle.check_series(expected, payload["hilbert"], "hilbert")
    if cmd.kind == "link":
        return oracle.check_link_text(session.golden[cmd.expect], stdout)
    if cmd.kind == "link_json":
        return oracle.check_link_json(session.golden[cmd.expect], cmd.expect, stdout)
    if cmd.kind == "link_bare":
        return oracle.check_link_bare(session.golden[cmd.expect], stdout)
    if cmd.kind == "normalize":
        try:
            form = json.loads(stdout)["class"]
        except (ValueError, KeyError, TypeError):
            return "normalize --json output lacks a class"
        return oracle.check_normal_form(cmd.expect, form)
    if cmd.kind == "selftest":
        lines = stdout.splitlines()
        return None if lines and lines[-1] == "selftest: PASS" else "selftest did not print PASS"
    return None


def judge_command(cmd: Command, code, stdout: str, stderr: str, session) -> tuple[str | None, bool]:
    """(failure, wrong answer) for one command's exit code and output."""
    if "Traceback (most recent call last)" in stderr:
        return f"traceback: {stderr.strip().splitlines()[-1]}", False
    if code != cmd.exit_code:
        return f"exit {code}, documented {cmd.exit_code}", False
    if cmd.exit_code != 0:
        return None, False
    problem = check_command(cmd, stdout, session)
    return problem, bool(problem)


class CliSession(Session):
    """Cold ``python -m qfano.cli`` processes, one at a time."""

    tag = "cli_cold"

    def __init__(self, qf: dict, seed: int, workdir: Path):
        self.seed = seed
        rng = random.Random(f"cli_cold-files:{seed}")
        self.qf = qf
        self.fixtures = qf["fixtures"].FIXTURES
        self.partition_count = qf["series"].partition_count
        self.golden = read_goldens(qf)
        files = {
            "missing": str(workdir / "missing.txt"),
            "no_corner": str(workdir / "no_corner.txt"),
            "bad_syntax": str(workdir / "bad_syntax.txt"),
        }
        Path(files["no_corner"]).write_text("x4^3 + x6^2 + x3^4\n", encoding="utf-8")
        Path(files["bad_syntax"]).write_text("x5*x7 + + x4^3\n", encoding="utf-8")
        classes = []
        for n in range(EQUATION_FILES):
            text, form = oracle.seeded_equation(rng)
            files[f"eq{n}"] = str(workdir / f"eq{n}.txt")
            Path(files[f"eq{n}"]).write_text(text + "\n", encoding="utf-8")
            classes.append(form)
        self.generate = cli_inputs(files, classes, len(self.fixtures), self.fixture_args)
        self.env = child_env(qf)

    def warm_up(self) -> None:
        """Byte-compile the package and fill the file cache."""
        for argv in (("hilbert", "--weights", "3,4,5,6,7", "--degree", "12"), ("selftest",)):
            self._spawn(argv)

    def fixture_args(self, index: int) -> tuple[str, ...]:
        shape = self.fixtures[index].shape
        if shape.degree == 0:
            return ("--space", _join(shape.weights))
        return ("--weights", _join(shape.weights), "--degree", str(shape.degree))

    def describe(self, cmd: Command) -> str:
        return "qfano " + " ".join(cmd.argv)

    def _spawn(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "qfano.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S,
        )

    def perform(self, cmd: Command, tracer=None) -> Outcome:
        latency, proc, error = timed(None, cmd.kind, lambda: self._spawn(cmd.argv))
        if error is not None:
            return Outcome(latency, cmd.kind, _raised(error))
        failure, wrong = judge_command(cmd, proc.returncode, proc.stdout, proc.stderr, self)
        return Outcome(latency, cmd.kind, failure, wrong)

    def run_in_process(self, cmd: Command, tracer=None) -> Outcome:
        """The same command through ``cli.main(argv)`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            latency, code, error = timed(tracer, cmd.kind, lambda: self.qf["cli"].main(list(cmd.argv)))
        if error is not None:
            return Outcome(latency, cmd.kind, _raised(error))
        failure, wrong = judge_command(cmd, code, out.getvalue(), err.getvalue(), self)
        return Outcome(latency, cmd.kind, failure, wrong)


def child_env(qf: dict) -> dict:
    """Environment for child interpreters: qfano from this checkout's ``src``."""
    src = str(Path(qf["cli"].__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def startup_profile(env: dict, repeats: int = 5) -> dict[str, float]:
    """Cold interpreter, cold ``import qfano.cli`` and its -X importtime tree, in ms."""
    timer = "import time; t = time.perf_counter(); import qfano.cli; print(time.perf_counter() - t)"
    interpreter, imports, trees = [], [], []
    for _ in range(repeats):
        start = clock()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=CHILD_TIMEOUT_S)
        interpreter.append((clock() - start) / 1e6)
        out = subprocess.run(
            [sys.executable, "-c", timer], env=env, check=True,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        imports.append(float(out.stdout) * 1e3)
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qfano.cli"], env=env,
            check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        trees.append(import_tree(out.stderr))
    profile = {"cli.interpreter_ms": median(interpreter), "cli.import_ms": median(imports)}
    for module, metric in IMPORT_METRICS.items():
        profile[metric] = median([tree.get(module, 0.0) for tree in trees])
    return profile


IMPORT_METRICS = {
    **{f"qfano.{m}": f"cli.import.{m}_ms" for m in QFANO_MODULES},
    "qfano": "cli.import.qfano_ms",
    "argparse": "cli.import.argparse_ms",
    "difflib": "cli.import.difflib_ms",
    "json": "cli.import.json_ms",
    "importlib.resources": "cli.import.importlib.resources_ms",
}


def import_tree(stderr: str) -> dict[str, float]:
    """Cumulative ms per module imported while importing qfano.cli.

    Lines before ``site`` finishes belong to interpreter start (``site``
    pulls in ``certifi`` and with it ``importlib.resources``), so they are
    skipped; a module already loaded by then reads 0 here.
    """
    out: dict[str, float] = {}
    after_site = False
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        name = fields[-1].strip()
        if not after_site:
            after_site = name == "site"
            continue
        try:
            out[name] = int(fields[1]) / 1e3
        except ValueError:
            continue
    return out


SESSIONS = {"cli_cold": CliSession, "scan": ScanSession, "x12_session": X12Session}
