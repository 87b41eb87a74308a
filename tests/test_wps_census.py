"""Frozen stratum census, and the stratum oracle checked on every census shape.

``data/wps_census.json`` covers every 4-weight space with weights <= 8 and
every nonempty degree-d hypersurface shape with 5 weights <= 8 and index
q = sum(w) - d >= 1. For each shape it records the number of strata per
status and what ``basket`` returns or raises (class and message). Status
counts and basket outcomes repeat across shapes, so each shape names them
by their position in two tables. The rest of each ``analyze`` report is
checked, not frozen: ``oracles.stratum_analysis`` derives every verdict in
order (status, weights, type and count), the basket, A^3, genus and Hilbert
series from monomial counts and Thm 8.1, and the report must equal it field
by field, with one warning per distinct failure, in order, each quoting the
weights or the residues of its failed stratum. After a deliberate output
change, rewrite the data with

    PYTHONPATH=src python tests/test_wps_census.py

which first prints the rows that changed, counted by old -> new status
counts and basket-outcome class.
"""

import collections
import itertools
import json
import math
import pathlib
import sys

import pytest

from oracles import mismatches, small_shapes, theorem_8_1_failures
from qfano import wps

DATA = pathlib.Path(__file__).with_name("data") / "wps_census.json"


def basket_outcome(shape) -> str:
    try:
        return f"Basket: {wps.basket(shape)}"
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def census_row(report) -> tuple[str, str]:
    """(status counts, basket outcome) of the shape an ``analyze`` report is on."""
    statuses = collections.Counter(v.status for v in report.strata)
    counts = " ".join(f"{status}={n}" for status, n in sorted(statuses.items()))
    return counts, basket_outcome(report.shape)


def read_census() -> list[tuple[tuple[int, ...], int, tuple[str, str]]]:
    census = json.loads(DATA.read_text(encoding="utf-8"))
    return [
        (tuple(map(int, weights.split(","))), d, (census["statuses"][s], census["baskets"][b]))
        for weights, d, s, b in census["shapes"]
    ]


# a missing data file fails test_census_covers_every_small_shape
CENSUS = read_census() if DATA.exists() else []


def test_census_covers_every_small_shape():
    assert len(CENSUS) == 14_946
    assert [(weights, d) for weights, d, _ in CENSUS] == small_shapes()[0]


def test_census_is_frozen():
    # one report per shape: its status counts and basket outcome frozen, the rest the oracle's
    changed, disagreeing = [], []
    for weights, d, row in CENSUS:
        report = wps.analyze(wps.HypersurfaceShape(weights, d))
        if census_row(report) != row:
            changed.append((weights, d))
        if fields := mismatches(report):
            disagreeing.append((weights, d, fields))
    assert changed == [] and disagreeing == []


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
    # the oracle agreement covers every stratum the walk tests; its two lemmas cover the
    # rest: a failed plane it does not test, or a failed 4-set, has an edge that fails or
    # is singular, so where no edge is singular, the shape is quasi-smooth by the theorem
    # iff the walk finds no stratum that is not
    shapes = 0
    for shape, statuses in hypersurfaces():
        failures = theorem_8_1_failures(shape.weights, shape.degree)
        walked = {stratum for stratum, status in statuses.items() if status == "not-quasi-smooth"}
        singular = {stratum for stratum, status in statuses.items() if status == "singular-edge"}
        for stratum in failures - walked:
            if len(stratum) > 2:
                assert any(e in walked or e in singular for e in itertools.combinations(stratum, 2))
        if not singular:
            assert bool(failures) == bool(walked), shape
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
            total.update({s: int(n) for s, n in (item.split("=") for item in row[0].split())})
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
        counts, basket_text = census_row(wps.analyze(wps.HypersurfaceShape(weights, d)))
        new.append((weights, d, (counts, basket_text)))
        s = statuses.setdefault(counts, len(statuses))
        b = baskets.setdefault(basket_text, len(baskets))
        rows.append(json.dumps([",".join(map(str, weights)), d, s, b]))
    if len(CENSUS) == len(new):
        print("\n".join(transitions(CENSUS, new)))
    DATA.parent.mkdir(exist_ok=True)
    with DATA.open("w", encoding="utf-8") as fh:
        fh.write('{"statuses": ' + json.dumps(list(statuses), indent=0) + ",\n")
        fh.write('"baskets": ' + json.dumps(list(baskets), indent=0) + ",\n")
        fh.write('"shapes": [\n' + ",\n".join(rows) + "\n]}\n")
    sys.exit(0)
