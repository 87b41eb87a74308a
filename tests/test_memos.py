"""The process memos: each one is in ``series.MEMOS``, and none changes an answer."""

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
