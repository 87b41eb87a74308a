"""Frozen stratum analysis: every small shape's verdicts, report and basket.

``data/wps_census.json`` covers every 4-weight space with weights <= 8 and
every nonempty degree-d hypersurface shape with 5 weights <= 8 and index
q = sum(w) - d >= 1. For each shape it records the number of strata per
status, what ``basket`` returns or raises (class and message), and the
first 16 hex digits of a sha256 of its ``analyze`` report: verdicts,
quotients, counts, warnings, basket, genus and Hilbert series. Status
counts and basket outcomes repeat across shapes, so each shape names them
by their position in two tables. After a deliberate output change,
rewrite the data with

    PYTHONPATH=src python tests/test_wps_census.py
"""

import collections
import functools
import hashlib
import itertools
import json
import pathlib
import sys

import pytest

from qfano import wps

DATA = pathlib.Path(__file__).with_name("data") / "wps_census.json"
MAX_WEIGHT = 8


def reachable(weights, top: int) -> list[bool]:
    """reachable[n]: some monomial in these weights has degree n, for n <= top."""
    seen = [True] + [False] * top
    for w in set(weights):
        for n in range(w, top + 1):
            seen[n] = seen[n] or seen[n - w]
    return seen


@functools.cache
def small_shapes() -> tuple[list, list]:
    """(weights, degree) of the census shapes, and of the empty 5-weight shapes left out."""
    shapes = [(ws, 0) for ws in itertools.combinations_with_replacement(range(1, MAX_WEIGHT + 1), 4)]
    empty = []
    for ws in itertools.combinations_with_replacement(range(1, MAX_WEIGHT + 1), 5):
        seen = reachable(ws, sum(ws))
        for d in range(1, sum(ws)):
            (shapes if seen[d] else empty).append((ws, d))
    return shapes, empty


def analysis_digest(report) -> str:
    """sha256 of every field of a report, spelled out field by field."""
    record = [
        report.fano_index,
        str(report.a3),
        [
            [list(v.stratum), list(v.weights), v.status, None if v.quotient is None else str(v.quotient), v.count]
            for v in report.strata
        ],
        list(report.warnings),
        None if report.basket is None else str(report.basket),
        report.genus,
        list(report.hilbert.coefficients),
    ]
    return hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest()[:16]


def basket_outcome(shape) -> str:
    try:
        return f"Basket: {wps.basket(shape)}"
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def census_row(weights, d) -> tuple[str, str, str]:
    """(status counts, basket outcome, report digest) of one shape."""
    shape = wps.HypersurfaceShape(weights, d)
    report = wps.analyze(shape)
    statuses = collections.Counter(v.status for v in report.strata)
    counts = " ".join(f"{status}={n}" for status, n in sorted(statuses.items()))
    return counts, basket_outcome(shape), analysis_digest(report)


def read_census() -> list[tuple[tuple[int, ...], int, tuple[str, str, str]]]:
    census = json.loads(DATA.read_text(encoding="utf-8"))
    return [
        (tuple(map(int, weights.split(","))), d, (census["statuses"][s], census["baskets"][b], digest))
        for weights, d, s, b, digest in census["shapes"]
    ]


# a missing data file fails test_census_covers_every_small_shape
CENSUS = read_census() if DATA.exists() else []


def test_census_covers_every_small_shape():
    assert len(CENSUS) == 14_946
    assert [(weights, d) for weights, d, _ in CENSUS] == small_shapes()[0]


def test_census_is_frozen():
    changed = [(weights, d) for weights, d, row in CENSUS if census_row(weights, d) != row]
    assert changed == []


def outcome(rule, *args):
    try:
        return rule(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_public_rules_raise_what_the_walk_recorded():
    # a stratum the walk gives no verdict (a coprime edge that does not fail) is None;
    # a failure is compared as the exception the public rules raise, worded by _worded
    mismatched = []
    for weights, d, _ in CENSUS:
        shape = wps.HypersurfaceShape(weights, d)
        walked = {}
        for verdict, failure in wps._walk(shape):
            if failure is not None:
                failure = wps._worded(verdict, failure, d)
                walked[verdict.stratum] = type(failure), str(failure)
            elif verdict.status == "quotient":
                point = verdict.quotient
                walked[verdict.stratum] = point if len(verdict.stratum) == 1 else (verdict.count, point)
        for i in range(len(weights)):
            if outcome(wps.vertex_singularity, shape, i) != walked.get((i,)):
                mismatched.append((weights, d, i))
        for i, j in itertools.combinations(range(len(weights)), 2):
            if outcome(wps.edge_singularities, shape, i, j) != walked.get((i, j)):
                mismatched.append((weights, d, i, j))
            # the edge read the other way round: the same answer, or a failure
            # of the same class whose message names the weights in that order
            reverse, expected = outcome(wps.edge_singularities, shape, j, i), walked.get((i, j))
            if type(expected) is tuple and isinstance(expected[0], type):
                reverse, expected = reverse[0], expected[0]
            if reverse != expected:
                mismatched.append((weights, d, j, i))
    assert mismatched == []


def test_empty_shapes_are_refused():
    for weights, d in small_shapes()[1]:
        with pytest.raises(ValueError, match="empty shape"):
            wps.HypersurfaceShape(weights, d)


if __name__ == "__main__":
    statuses: dict[str, int] = {}
    baskets: dict[str, int] = {}
    rows = []
    for weights, d in small_shapes()[0]:
        counts, basket_text, digest = census_row(weights, d)
        s = statuses.setdefault(counts, len(statuses))
        b = baskets.setdefault(basket_text, len(baskets))
        rows.append(json.dumps([",".join(map(str, weights)), d, s, b, digest]))
    DATA.parent.mkdir(exist_ok=True)
    with DATA.open("w", encoding="utf-8") as fh:
        fh.write('{"statuses": ' + json.dumps(list(statuses), indent=0) + ",\n")
        fh.write('"baskets": ' + json.dumps(list(baskets), indent=0) + ",\n")
        fh.write('"shapes": [\n' + ",\n".join(rows) + "\n]}\n")
    sys.exit(0)
