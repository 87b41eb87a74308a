"""The process memos: each one is in ``series.MEMOS``, and none changes an answer."""

import dataclasses
from fractions import Fraction

import pytest

from conftest import empty_every_memo
from qfano import cli, fixtures, series, wps
from qfano import riemann_roch as rr
from qfano import sarkisov as sk

X12 = fixtures.X12_SHAPE
X12_POINTS = ((2, 1), (3, 1), (3, 1), (5, 2), (7, 2))  # 1/r(1, r-1, b) as (r, b)
X12_DATA = rr.FanoData(
    13, Fraction(1, 210), tuple(rr.RRBasketEntry(r, b, pow(-13, -1, r)) for r, b in X12_POINTS)
)
NOT_TERMINAL = wps.HypersurfaceShape((1, 1, 2, 3, 7), 5)  # a stratum fails
NOT_FANO = wps.HypersurfaceShape((1, 1, 1, 1, 1), 6)  # q = -1
HALF_CHI = rr.FanoData(4, Fraction(2), ())  # chi(A) = 13/2

# entry point: (its call on one input, the valid inputs that warm its memo, the inputs asked);
# each input is an argument tuple, and a plain tuple equal to X12 is not a shape
MEMOIZED = {
    "product_coefficients": (
        series.product_coefficients,
        [((12,), X12.weights, 60)],
        [((12,), X12.weights, n) for n in (0, 30, 60, 90, 30.0, -1)] + [((0,), (1,), 5)],
    ),
    "basket": (
        wps.basket,
        [(X12,), (NOT_FANO,)],
        [(X12,), (tuple(X12),), (NOT_TERMINAL,), (NOT_FANO,), (tuple(NOT_FANO),)],
    ),
    "hilbert_rr": (
        rr.hilbert_rr,
        [(X12_DATA, 60)],
        [(X12_DATA, n) for n in (0, 30, 60, 90, 30.0, -1)] + [(HALF_CHI, 0), (HALF_CHI, 5)],
    ),
    "calibrated_data": (
        rr.calibrated_data,
        [(X12, 60)],
        [(X12, n) for n in (0, 45, 50, 60, 90, 50.0, 60.0, -1)]
        + [(tuple(X12),), (tuple(X12), 50), (NOT_TERMINAL,), (NOT_FANO,)],
    ),
    "run_case": (sk.run_case, [("P5",), ("P3",)], [("P5",), ("p5",), ("P3",), ("P9",), ("",)]),
}


def _outcome(call, args):
    """The value a call returns, or the class and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # each refusal is compared, not judged
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", MEMOIZED)
def test_a_memo_changes_no_answer(empty_memos, entry):
    call, warm_ups, asked = MEMOIZED[entry]
    for args in asked:
        empty_every_memo()
        cold = _outcome(call, args)
        empty_every_memo()
        for warm in warm_ups:
            call(*warm)
        assert _outcome(call, args) == cold, args


def test_selftest_fills_every_memo_of_the_registry_and_each_empties_there(empty_memos, capsys):
    assert cli.main(["selftest"]) == 0
    assert capsys.readouterr().out.endswith("selftest: PASS\n")
    # five distinct dicts, one per memo, and selftest asks each for something
    assert len({id(memo) for memo in series.MEMOS}) == len(series.MEMOS) == 5
    assert all(type(memo) is dict and memo for memo in series.MEMOS)

    def ask():
        return wps.basket(X12), rr.calibrated_data(X12), sk.run_case("P5")

    kept = ask()
    assert all(new is old for new, old in zip(ask(), kept))
    empty_every_memo()
    assert not any(series.MEMOS)
    # the registry's dicts are the ones the entry points read: each answer is computed again
    again = ask()
    assert again == kept and all(new is not old for new, old in zip(again, kept))


def test_each_memo_holds_what_its_entry_point_returns(empty_memos, capsys):
    assert cli.main(["selftest"]) == 0
    capsys.readouterr()
    # each memo, and whether a kept value is what its entry point returns for its key:
    # the same object, or for the two series memos the same terms through the kept order
    holds = {
        "_BASKETS": (wps._BASKETS, lambda shape, kept: wps.basket(shape) is kept),
        "_CALIBRATED": (rr._CALIBRATED, lambda shape, kept: rr.calibrated_data(shape) is kept),
        "_TRANSCRIPTS": (sk._TRANSCRIPTS, lambda case, kept: sk.run_case(case.name) is kept),
        "_PRODUCTS": (
            series._PRODUCTS,
            lambda pair, kept: series.product_coefficients(*pair, len(kept) - 1) == kept,
        ),
        "_SERIES_MEMO": (
            rr._SERIES_MEMO,
            lambda data, kept: rr.hilbert_rr(data, len(kept) - 1).coefficients == kept,
        ),
    }
    memos = [memo for memo, _ in holds.values()]
    assert sorted(map(id, memos)) == sorted(map(id, series.MEMOS)) and all(memos)
    wrong = [
        (name, key)
        for name, (memo, held) in holds.items()
        for key, kept in list(memo.items())
        if not held(key, kept)
    ]
    assert wrong == []


def counted(calls: list, name: str, method):
    """method, appending name to calls at each call."""

    def counting(*args, **kwargs):
        calls.append(name)
        return method(*args, **kwargs)

    return counting


def test_a_warm_link_series_or_calibrate_request_hashes_no_fraction(monkeypatch, empty_memos):
    # x12_session's three memo-hit requests: a link transcript's text, a Riemann-Roch series,
    # and calibrated data with the fixture's checks
    data = {f.name: rr.calibrated_data(f.shape) for f in fixtures.FIXTURES}

    def requests():
        return (
            [sk.run_case(name).text() for name in sk.CASES],
            [rr.hilbert_rr(data[f.name], 300) for f in fixtures.FIXTURES],
            [(rr.calibrated_data(f.shape, 24), fixtures.verify(f)) for f in fixtures.FIXTURES],
        )

    warm = requests()
    calls = []
    monkeypatch.setattr(Fraction, "__hash__", counted(calls, "hash", Fraction.__hash__))
    assert requests() == warm and calls == []
    # verify reads the basket's entries and the t^q coefficient, building no points or series
    monkeypatch.setattr(wps.Basket, "points", counted(calls, "points", wps.Basket.points))
    monkeypatch.setattr(wps, "hilbert", counted(calls, "hilbert", wps.hilbert))
    assert [fixtures.verify(f) for f in fixtures.FIXTURES] == [[]] * 6 and calls == []


def rebuilt_case(case: sk.CenterCase) -> sk.CenterCase:
    """An equal case that shares no Fraction or tuple with the given one."""
    alphas = tuple(Fraction(str(a)) for a in case.alphas)
    bare = tuple((Fraction(str(a)), qhat, e) for a, qhat, e in case.reference_bare)
    return sk.CenterCase(case.name, case.description, case.r, alphas, case.k, bare)


@pytest.mark.parametrize("name", sk.CASES)
def test_equal_center_cases_hash_equal_and_a_case_equals_no_plain_tuple(name):
    case = sk.CASES[name]
    for copy in (rebuilt_case(case), case._replace(name=name), sk.CenterCase._make(case)):
        assert copy == case and not copy != case and hash(copy) == hash(case)
        assert {copy: 1}[case] == 1
    # a field outside the hash still parts two cases: one hash, two keys
    other = case._replace(description="another centre")
    assert other != case and hash(other) == hash(case) and len({case, other}) == 2
    # equality is type-strict, both ways round: the plain tuple of the fields is another key
    plain = tuple(case)
    assert case != plain and plain != case and not case == plain and not plain == case
    assert plain not in {case: 1} and case not in {plain: 1}


@pytest.mark.parametrize("fixture", fixtures.FIXTURES, ids=lambda f: f.name)
def test_equal_fano_data_hash_equal(fixture):
    data = rr.calibrated_data(fixture.shape)
    entries = tuple(rr.RRBasketEntry(e.r, e.b, e.wa) for e in data.entries)
    rebuilt = rr.FanoData(data.q, Fraction(str(data.a3)), entries)
    for copy in (rebuilt, dataclasses.replace(data), dataclasses.replace(data, entries=entries)):
        assert copy == data and copy is not data and hash(copy) == hash(data)
        assert {copy: 1}[data] == 1
    # hashed on q, A^3 and the number of entries: other entries share the hash, not the key
    last = data.entries[-1]  # r >= 3 in each fixture, so b and r - b differ
    flipped = rr.RRBasketEntry(last.r, last.r - last.b, last.wa)
    other = dataclasses.replace(data, entries=(*data.entries[:-1], flipped))
    assert other != data and hash(other) == hash(data) and len({data, other}) == 2
    assert rr.FanoData(data.q, data.a3, ()) != data
