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

which first prints the rows that changed, counted by old -> new status
counts and basket-outcome class. ``theorem_8_1_failures`` decides
quasi-smoothness from reachable-degree tables alone, and the walk's
verdicts are checked against it on every census shape.
"""

import collections
import functools
import hashlib
import itertools
import json
import math
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
def reachable_table(weights: tuple[int, ...]) -> list[bool]:
    """``reachable`` through the largest census degree, once per weight multiset."""
    return reachable(weights, 5 * MAX_WEIGHT)


def theorem_8_1_failures(weights, d: int) -> set[tuple[int, ...]]:
    """The variable sets I, as position tuples, on which a general degree-d member fails
    Iano-Fletcher's Thm 8.1 ("Working with weighted complete intersections", 2000): no
    degree-d monomial in x_I alone, and fewer than |I| distinct x_e outside I with a
    degree-d monomial x_I^M*x_e. All 31 sets of 5 variables, decided by reachable-degree
    tables alone. As in the walk, M is not 0: an x_e of weight d (a linear cone) does not count.
    """
    failures = set()
    for size in range(1, len(weights) + 1):
        for subset in itertools.combinations(range(len(weights)), size):
            seen = reachable_table(tuple(sorted(weights[k] for k in subset)))
            if seen[d]:
                continue
            outside = [w for k, w in enumerate(weights) if k not in subset]
            if sum(d > w and seen[d - w] for w in outside) < size:
                failures.add(subset)
    return failures


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


def hypersurfaces():
    for weights, d, _ in CENSUS:
        if d:
            shape = wps.HypersurfaceShape(weights, d)
            yield shape, {verdict.stratum: verdict.status for verdict, _ in wps._walk(shape)}


def test_the_walk_fails_quasi_smoothness_where_theorem_8_1_does():
    # the walk decides every vertex, every coprime edge, and every plane whose three edges
    # are contained and pass; an edge with a shared factor is contained iff it is singular
    shapes = 0
    for shape, statuses in hypersurfaces():
        ws, d = shape.weights, shape.degree
        failures = theorem_8_1_failures(ws, d)
        walked = {stratum for stratum, status in statuses.items() if status == "not-quasi-smooth"}
        singular = {stratum for stratum, status in statuses.items() if status == "singular-edge"}

        def coprime(pair):
            return math.gcd(ws[pair[0]], ws[pair[1]]) == 1

        def passes(pair):
            return coprime(pair) and pair not in failures

        def contained(pair):
            return not reachable_table((ws[pair[0]], ws[pair[1]]))[d]

        edges = itertools.combinations(range(5), 2)
        assert singular == {e for e in edges if not coprime(e) and contained(e)}, (ws, d)
        decided = {
            stratum for stratum in failures
            if len(stratum) == 1
            or (len(stratum) == 2 and coprime(stratum))
            or (len(stratum) == 3 and all(passes(e) for e in itertools.combinations(stratum, 2)))
        }
        assert walked == decided, (ws, d)
        # the walk's two lemmas: a failed plane it does not test, or a failed 4-set, has an
        # edge that fails or is singular; so where no edge is singular, the shape is
        # quasi-smooth by the theorem iff the walk finds no stratum that is not
        for stratum in failures - walked:
            if len(stratum) > 2:
                assert any(e in walked or e in singular for e in itertools.combinations(stratum, 2))
        if not singular:
            assert bool(failures) == bool(walked), (ws, d)
        shapes += 1
    assert shapes == 14_946 - 330


def test_three_weights_with_a_factor_not_dividing_d_fail_the_walk():
    # the hypersurface half of well-formedness needs no rule of its own: every edge among
    # the three has that factor and no monomial of degree d, so it is a singular curve on
    # the member; Thm 8.1 fails too, on the plane of the three
    shapes = 0
    for shape, statuses in hypersurfaces():
        ws, d = shape.weights, shape.degree
        for three in itertools.combinations(range(5), 3):
            if d % math.gcd(*(ws[k] for k in three)):
                assert all(statuses[e] == "singular-edge" for e in itertools.combinations(three, 2))
                assert three in theorem_8_1_failures(ws, d)
                shapes += 1
                break
    assert shapes == 6_233


def test_empty_shapes_are_refused():
    for weights, d in small_shapes()[1]:
        with pytest.raises(ValueError, match="empty shape"):
            wps.HypersurfaceShape(weights, d)


def transitions(old: list, new: list) -> list[str]:
    """The rows that changed between two censuses, counted by old -> new status counts and
    by old -> new basket-outcome class (the exception's name, or Basket), after the strata
    of each status that those rows hold before and after."""
    changed = [(a, b) for (_, _, a), (_, _, b) in zip(old, new) if a != b]
    by_status = collections.Counter((a[0], b[0]) for a, b in changed)
    by_class = collections.Counter((a[1].split(":")[0], b[1].split(":")[0]) for a, b in changed)
    totals = [collections.Counter(), collections.Counter()]
    for pair in changed:
        for total, row in zip(totals, pair):
            for item in row[0].split():
                status, n = item.split("=")
                total[status] += int(n)
    lines = [f"{len(changed)} of {len(new)} rows changed; their strata by status:"]
    lines += [f"  {status}: {totals[0][status]} -> {totals[1][status]}"
              for status in sorted(totals[0] | totals[1])]
    for title, counter in (("status counts", by_status), ("basket outcome", by_class)):
        lines.append(f"by {title}:")
        lines += [f"  {n:6d}  {a} -> {b}" if a != b else f"  {n:6d}  unchanged: {a}"
                  for (a, b), n in counter.most_common()]
    return lines


if __name__ == "__main__":
    statuses: dict[str, int] = {}
    baskets: dict[str, int] = {}
    rows, new = [], []
    for weights, d in small_shapes()[0]:
        counts, basket_text, digest = census_row(weights, d)
        new.append((weights, d, (counts, basket_text, digest)))
        s = statuses.setdefault(counts, len(statuses))
        b = baskets.setdefault(basket_text, len(baskets))
        rows.append(json.dumps([",".join(map(str, weights)), d, s, b, digest]))
    if len(CENSUS) == len(new):
        print("\n".join(transitions(CENSUS, new)))
    DATA.parent.mkdir(exist_ok=True)
    with DATA.open("w", encoding="utf-8") as fh:
        fh.write('{"statuses": ' + json.dumps(list(statuses), indent=0) + ",\n")
        fh.write('"baskets": ' + json.dumps(list(baskets), indent=0) + ",\n")
        fh.write('"shapes": [\n' + ",\n".join(rows) + "\n]}\n")
    sys.exit(0)
