"""Sarkisov-link case enumeration, filters, transcripts, second contractions."""

import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_force_bare, reference_beta_class, reference_e_bound, reference_m_min
from oracles import reference_second_contraction, reference_splits
from qfano import cli, fixtures, series, wps
from qfano import sarkisov as sk
from qfano.riemann_roch import ALLOWED_FANO_INDICES

GOLDEN = pathlib.Path(sk.__file__).with_name("golden")


@pytest.fixture(scope="module")
def transcripts():
    return {name: sk.run_case(name) for name in ("NG", "P2", "P3", "P5", "P7")}


@pytest.mark.parametrize(
    "q,r,k,expected",
    [(13, 5, 4, 3), (13, 7, 6, 1), (13, 5, 0, 0), (13, 3, 6, 0), (13, 2, 6, 0)],
)
def test_beta_congruence(q, r, k, expected):
    assert sk.beta_congruence(q, r, k) == expected


def test_beta_congruence_refuses_a_center_index_sharing_a_factor_with_q():
    with pytest.raises(ValueError, match="q=13 and r=13 must be coprime"):
        sk.beta_congruence(13, 13, 3)


def test_dims_table():
    assert sk.DIMS == {3: 0, 4: 0, 5: 0, 6: 1, 7: 1}


def test_birational_candidate_below_index_4_passes_f1_and_skips_f2():
    # no torsion rows exist for qhat <= 3; torsion_table(3) raised inside F1 and
    # left the rest of the list unannotated
    case = sk.CenterCase("T", "test", 3, (Fraction(1, 3),), 4, ())
    bare = sk.enumerate_bare(case)
    [low] = [c for c in bare if c.birational and c.qhat <= 3]
    assert (low.qhat, low.e) == (3, 4)
    events = sk.apply_filters(bare)
    assert all(c.status != "bare" for c in bare)
    chain = [(ev.filter_id, ev.verdict, ev.detail) for ev in events if ev.candidate == low.key()]
    assert chain[0] == ("F1", "pass", "no torsion rows are tabulated for qhat <= 3")
    assert "F2" not in [fid for fid, _, _ in chain]
    with pytest.raises(sk.InvalidIndex):
        sk.torsion_table(3)


def _small_centre_cases():
    """r in {None, 2, 3, 5, 7}, k in 3..7, alpha = j/r for j <= 7: 175 cases,
    each bounded one with its bare candidates; an unbounded one is refused."""
    for r, k, j in itertools.product((None, 2, 3, 5, 7), range(3, 8), range(1, 8)):
        case = sk.CenterCase("T", "test", r, (Fraction(j, r or 1),), k, ())
        try:
            bare = sk.enumerate_bare(case)
        except ValueError as exc:
            assert "unbounded enumeration" in str(exc)
            continue
        yield case, bare


def test_filters_annotate_every_candidate_of_small_centre_cases():
    # 26 of the cases have a birational qhat <= 3 candidate
    low = 0
    for case, bare in _small_centre_cases():
        low += any(c.birational and c.qhat <= 3 for c in bare)
        sk.apply_filters(bare)
        assert all(c.status in ("final", "eliminated") for c in bare), case
    assert low == 26


def test_every_final_birational_candidate_of_small_centre_cases_has_a_threshold():
    # F3 eliminates a candidate with no split at some k, target pinned or not;
    # a survivor without a k = 6 split made canonical_threshold raise Infeasible
    finals = 0
    for case, bare in _small_centre_cases():
        sk.apply_filters(bare)
        for cand in bare:
            if cand.status == "final" and cand.birational:
                assert sk.canonical_threshold(cand) <= Fraction(1, 2), (case, cand.key())
                finals += 1
    assert finals == 28


def _filtered(cand):
    """The annotated copy that apply_filters puts in the candidate's place."""
    given = [cand]
    sk.apply_filters(given)
    return given[0]


def test_f3_eliminates_an_unpinned_candidate_with_no_split_at_some_k():
    assert sk.TARGETS.get(9) is None
    cand = _filtered(sk.LinkCandidate(sk.CASES["P5"], Fraction(1, 5), 9, 3, True))
    assert (cand.status, cand.filter_id, cand.reason) == (
        "eliminated", "F3", "k=3: no integral split at all"
    )


def test_a_survivor_with_no_pinned_target_is_unidentified_in_log_and_transcript():
    case = sk.CenterCase("T", "test", 3, (Fraction(1, 3),), 6, ())
    bare = sk.enumerate_bare(case)
    events = sk.apply_filters(bare)
    [cand] = [c for c in bare if c.key() == "alpha=1/3 qhat=4 e=1"]
    assert (cand.status, cand.target) == ("final", None)
    [last] = [ev for ev in events if ev.candidate == cand.key() and ev.filter_id == "final"]
    assert last.detail == "survives all filters; target unidentified"
    final = [c for c in bare if c.status == "final"]
    text = sk.Transcript(case, bare, events, final, [], [], []).text()
    assert f"[{cand.key()}] target: unidentified" in text
    assert "None" not in text


def test_a_fiber_type_candidate_has_its_own_key(monkeypatch):
    # the centre of test_birational_candidate_below_index_4_passes_f1_and_skips_f2 gives a
    # birational and a fiber-type (qhat 3, e 4) candidate with the same split; F3
    # eliminates the first, the second is final
    monkeypatch.setitem(sk.CASES, "T", sk.CenterCase("T", "test", 3, (Fraction(1, 3),), 4, ()))
    transcript = sk.run_case("T")
    birational, fiber = [c for c in transcript.bare if (c.qhat, c.e) == (3, 4)]
    assert (birational.key(), fiber.key()) == (
        "alpha=1/3 qhat=3 e=4", "alpha=1/3 qhat=3 e=4 fiber-type"
    )
    assert (birational.status, birational.filter_id, fiber.status) == ("eliminated", "F3", "final")
    assert fiber.key() in transcript.record()["final"]
    assert birational.key() not in transcript.record()["final"]
    assert fiber.key() not in dict(transcript.thresholds)
    assert fiber.key() not in dict(transcript.contractions)
    text = transcript.text()
    assert f"[{birational.key()}] splits k=4: (s=0, beta=1/3)" in text
    assert f"[{fiber.key()}] splits k=4: (s=0, beta=1/3)" in text
    assert f"  [{fiber.key()}] target: unidentified\n    {fiber.reason}\n" in text
    assert fiber.reason == "fiber-type contraction: no torsion or effectivity data applies"
    assert [line for line in text.splitlines() if line.endswith(" ")] == []
    assert "|T(target)| options: ()" not in text
    beyond = "goes beyond the reference case list; status:"
    assert f"[{birational.key()}] {beyond} eliminated by F3" in text
    assert f"[{fiber.key()}] {beyond} final" in text


def test_apply_filters_visits_candidates_in_the_order_given():
    bare = {(c.qhat, c.e): c for c in sk.enumerate_bare(sk.CASES["P5"])}
    a, b = bare[(7, 4)], bare[(17, 6)]
    given = [b, a]
    events = sk.apply_filters(given)
    keys = [ev.candidate for ev in events]
    assert keys == sorted(keys, key=[b.key(), a.key()].index)
    assert keys[0] == b.key() and keys[-1] == a.key()
    # the filters write nothing: each annotated copy takes its candidate's place in the list
    assert (a.status, b.status, len(b.splits), b.admissible) == ("bare", "bare", 1, {})
    b, a = given
    assert (a.status, b.status, b.filter_id, len(b.splits)) == ("final", "eliminated", "F4", 5)


def test_a_case_with_no_bare_solution_logs_no_candidates():
    case = sk.CenterCase("T", "test", 11, (Fraction(10, 11),), 6, ())
    bare = sk.enumerate_bare(case)
    assert bare == [] and sk.apply_filters(bare) == []
    text = sk.Transcript(case, bare, [], [], [], [], []).text()
    assert "bare solutions: 0\n\nfilter log:\n  (no candidates)\n\nfinal solutions: 0" in text


def test_an_ng_case_not_forced_to_eleven_lists_its_pairs_as_rationals(monkeypatch):
    # NG given P7's data: its bare pairs are (9, 2/7) and (11, 1/7), not the forced (11, 2)
    monkeypatch.setitem(sk.CASES, "NG", sk.CASES["P7"]._replace(name="NG"))
    assert sk.run_case("NG").notes == ("bare (qhat, alpha*e) pairs: (9, 2/7), (11, 1/7)",)


def test_link_data_agree_with_the_corpus():
    """sarkisov builds X12 and its target table itself; the corpus must agree."""
    assert sk.X12 == fixtures.X12_SHAPE
    spaces = {f.fano_index: f for f in fixtures.FIXTURES if f.shape.degree == 0}
    for qhat, weights in sk.TARGETS.items():
        assert spaces[qhat].shape.weights == weights
        # a split with the s that pins the target at 11 and 7; F3 names it
        split = sk.Split({11: 2, 7: 1}.get(qhat, 1), Fraction(1))
        cand = sk.LinkCandidate(sk.CASES["P5"], Fraction(1, 5), qhat, 3, True, splits={6: (split,)})
        assert _filtered(cand).target == spaces[qhat].name
    centres = {case.r for case in sk.CASES.values()} - {None}
    assert centres == set(wps.basket(fixtures.X12_SHAPE).indices())


def test_torsion_table():
    assert sk.torsion_table(9) == (sk.TorsionRow(1),)
    rows5 = sk.torsion_table(5)
    assert rows5[0].t == 1
    assert rows5[1] == sk.TorsionRow(3, (2, 9, 9), Fraction(1, 18), 2)
    rows4 = sk.torsion_table(4)
    assert [r.t for r in rows4] == [1, 3, 5]
    assert rows4[2] == sk.TorsionRow(5, (5, 5, 5, 5), Fraction(1, 5), 5)
    assert [r.t for r in sk.torsion_table(7)] == [1, 2]
    with pytest.raises(sk.InvalidIndex):
        sk.torsion_table(10)
    with pytest.raises(sk.InvalidIndex):
        sk.torsion_table(3)


def _bare_keys(transcript):
    return {(c.alpha, c.qhat, c.e) for c in transcript.bare}


def test_bare_p7(transcripts):
    assert _bare_keys(transcripts["P7"]) == {
        (Fraction(1, 7), 9, 2),
        (Fraction(1, 7), 11, 1),
    }


def test_bare_p5(transcripts):
    keys = _bare_keys(transcripts["P5"])
    assert {(q, e) for _, q, e in keys} == {(5, 1), (7, 4), (17, 6), (19, 9)}
    extra = {(c.qhat, c.e) for c in transcripts["P5"].bare if c.extra}
    assert extra == {(19, 9)}


def test_bare_p3(transcripts):
    keys = _bare_keys(transcripts["P3"])
    assert {
        (Fraction(2, 3), 8, 1),
        (Fraction(1, 3), 4, 1),
        (Fraction(1, 3), 8, 2),
    } <= keys
    extras = {(c.alpha, c.qhat, c.e) for c in transcripts["P3"].bare if c.extra}
    assert (Fraction(1, 3), 17, 1) in extras


def test_bare_ng_forced(transcripts):
    bare = transcripts["NG"].bare
    assert bare, "NG bare set must be nonempty"
    assert {(c.qhat, c.alpha * c.e) for c in bare} == {(11, Fraction(2))}
    assert all((c.qhat + c.alpha * c.e) % 13 == 0 for c in bare)


def test_bare_p2(transcripts):
    assert {(q, e) for _, q, e in _bare_keys(transcripts["P2"])} == {
        (6, 1),
        (11, 4),
        (17, 5),
        (19, 1),
    }


def _candidate(transcript, qhat, e, alpha=None):
    for c in transcript.bare:
        if c.qhat == qhat and c.e == e and (alpha is None or c.alpha == alpha):
            return c
    raise AssertionError(f"candidate ({qhat},{e}) not found")


def test_splits_p5_survivor(transcripts):
    cand = _candidate(transcripts["P5"], 7, 4)
    assert cand.splits[7] == (sk.Split(1, Fraction(4, 5)),)
    assert cand.splits[6] == (sk.Split(2, Fraction(2, 5)),)
    assert cand.splits[3] == (sk.Split(1, Fraction(1, 5)),)
    assert cand.splits[5] == (sk.Split(3, Fraction(0)),)


def test_splits_p5_seventeen(transcripts):
    cand = _candidate(transcripts["P5"], 17, 6)
    assert cand.splits[3][0].s == 3
    assert cand.splits[4][0].s == 2
    assert cand.splits[7][0].s == 5


def test_canonical_threshold_infeasible():
    # no admissible splits recorded, and the degree-6 equation has none
    cand = sk.LinkCandidate(sk.CASES["P5"], Fraction(1, 5), 13, 10, True)
    with pytest.raises(sk.Infeasible, match=r"no \(s_6, beta_6\) split for alpha=1/5 qhat=13 e=10"):
        sk.canonical_threshold(cand)


@pytest.mark.parametrize("e", [0, -1])
def test_candidate_rejects_a_non_positive_multiple(e):
    # e = 0 used to loop forever in the split solver
    with pytest.raises(ValueError, match="e must be >= 1"):
        sk.LinkCandidate(sk.CASES["P5"], Fraction(1, 5), 13, e, True)


@pytest.mark.parametrize(
    "alpha,qhat,e",
    [
        (0.2, 7, 1),  # verify_equation then raised AttributeError
        ("1/5", 7, 1),
        (None, 7, 1),
        (Fraction(1, 5), 7, 1.5),  # second_contraction then raised TypeError
        (Fraction(1, 5), 7, 4.0),
        (Fraction(1, 5), 7.0, 4),
        (Fraction(1, 5), Fraction(7), 4),
    ],
    ids=repr,
)
def test_candidate_rejects_a_non_rational_discrepancy_or_a_non_int_index(alpha, qhat, e):
    with pytest.raises(TypeError):
        sk.LinkCandidate(sk.CASES["P5"], alpha, qhat, e, True)


@pytest.mark.parametrize("case", ["P5", "P9", 5])
def test_candidate_takes_its_center_case_not_a_name(case):
    with pytest.raises(TypeError, match="must be a CenterCase"):
        sk.LinkCandidate(case, Fraction(1, 5), 7, 4, True)


def test_candidate_takes_an_int_discrepancy():
    cand = sk.LinkCandidate(sk.CASES["NG"], 2, 11, 1, True, splits={6: (sk.Split(2, Fraction(4)),)})
    assert sk.verify_equation(cand) and cand.key() == "alpha=2 qhat=11 e=1"


def test_filters_p7(transcripts):
    for c in transcripts["P7"].bare:
        assert c.status == "eliminated" and c.filter_id == "F1"
    assert transcripts["P7"].final == ()


def test_filters_ng(transcripts):
    assert transcripts["P3"].final == ()
    for c in transcripts["NG"].bare:
        assert c.status == "eliminated" and c.filter_id == "F1"
    assert transcripts["NG"].final == ()


def test_filters_p3(transcripts):
    by_key = {(c.alpha, c.qhat, c.e): c for c in transcripts["P3"].bare}
    assert by_key[(Fraction(1, 3), 4, 1)].filter_id == "F4"
    assert by_key[(Fraction(1, 3), 8, 2)].filter_id == "F1"
    assert by_key[(Fraction(2, 3), 8, 1)].filter_id == "F1"
    assert by_key[(Fraction(1, 3), 17, 1)].filter_id == "F1"
    assert by_key[(Fraction(1, 3), 19, 8)].filter_id == "F3"


def test_filters_p5(transcripts):
    by_key = {(c.qhat, c.e): c for c in transcripts["P5"].bare}
    assert by_key[(5, 1)].filter_id == "F2"
    assert by_key[(17, 6)].filter_id == "F4"
    assert by_key[(19, 9)].filter_id == "F3"
    assert by_key[(7, 4)].status == "final"


def test_final_p5(transcripts):
    final = transcripts["P5"].final
    assert len(final) == 1
    cand = final[0]
    assert (cand.qhat, cand.e) == (7, 4)
    assert cand.target == "P(1,1,2,3)"
    s_values = {k: cand.admissible[k][0].s for k in range(3, 8)}
    assert s_values == {3: 1, 4: 0, 5: 3, 6: 2, 7: 1}
    assert cand.d == 4


def test_final_p2(transcripts):
    final = transcripts["P2"].final
    assert len(final) == 1
    cand = final[0]
    assert (cand.qhat, cand.e) == (11, 4)
    assert cand.target == "P(1,2,3,5)"
    split6 = cand.admissible[6]
    assert split6 == (sk.Split(2, Fraction(1)),)
    assert cand.d == 4


def test_p2_seventeen_killed_by_effectivity(transcripts):
    cand = _candidate(transcripts["P2"], 17, 5)
    assert cand.filter_id == "F3"
    assert "h0(P(2,3,5,7), 4*A) = 1" in cand.reason


def test_f3_names_a_pinned_candidate_with_no_split_at_all():
    cand = _filtered(sk.LinkCandidate(sk.CASES["P5"], Fraction(1, 5), 19, 3, True))
    assert (cand.filter_id, cand.reason) == (
        "F3", "k=3: no integral split at all"
    )


def test_f3_says_when_a_pinned_candidate_has_only_s0_splits():
    # h0(0*A) = 1 meets dim|kA| + 1 = 1 at k = 3, 4, 5, and fails 2 at k = 6
    splits = {k: (sk.Split(0, Fraction(1)),) for k in sk.DIMS}
    cand = _filtered(sk.LinkCandidate(sk.CASES["P5"], Fraction(1, 5), 19, 3, True, splits=splits))
    assert (cand.target, cand.filter_id, cand.reason) == (
        "P(3,4,5,7)",
        "F3",
        "k=6: every split fails h0 >= dim|6A|+1 = 2: only s=0 splits while dim|kA| > 0",
    )


def test_thresholds(transcripts):
    for name in ("P2", "P5"):
        thresholds = dict(transcripts[name].thresholds)
        assert set(thresholds.values()) == {Fraction(1, 2)}


def test_canonical_threshold_reads_only_the_splits_the_filters_recorded():
    # the P5 survivor before the filters ran: its degree-6 equation has splits,
    # but none was recorded as admissible
    cand = sk.LinkCandidate(sk.CASES["P5"], Fraction(1, 5), 7, 4, True)
    with pytest.raises(sk.Infeasible, match=(
        r"no \(s_6, beta_6\) split for alpha=1/5 qhat=7 e=4 in case P5 "
        "among the admissible splits the filters recorded"
    )):
        sk.canonical_threshold(cand)
    cand = _filtered(cand)
    assert cand.status == "final"
    assert sk.canonical_threshold(cand) == Fraction(1, 2)


def test_canonical_threshold_undefined():
    admissible = {6: (sk.Split(2, Fraction(0)),)}
    cand = sk.LinkCandidate(sk.CASES["P5"], Fraction(1, 5), 7, 4, True, admissible=admissible)
    with pytest.raises(sk.UndefinedThreshold):
        sk.canonical_threshold(cand)


def test_second_contraction_p5_survivor():
    sol = sk.second_contraction(4, 7, {3: 1, 5: 3, 6: 2, 7: 1})
    assert (sol.delta, sol.b, sol.period) == (7, 9, 4)
    assert dict(sol.gammas) == {3: 1, 5: 4, 6: 2, 7: 0}
    # the congruences allow delta = 3 (mod 4); gamma_7 >= 0 moves the least one to 7
    assert sol.delta % sol.period == 3


def test_second_contraction_mod_class():
    sol = sk.second_contraction(6, 17, {3: 3, 4: 2, 7: 5})
    assert (sol.delta, sol.b, sol.period) == (5, 12, 6)


def test_second_contraction_p5_gamma_forces_b_integral():
    # for this system the gamma conditions already force delta = 5 (mod 6),
    # which makes b integral with or without the smoothness requirement
    loose = sk.second_contraction(6, 17, {3: 3, 4: 2, 7: 5}, smooth_point=False)
    strict = sk.second_contraction(6, 17, {3: 3, 4: 2, 7: 5}, smooth_point=True)
    assert loose == strict and strict.period == 6


def test_second_contraction_smoothness_filters_b():
    # reduced system {6: 2}: gamma only forces delta odd >= 3, so delta = 5
    # gives fractional b = 22/4; over a smooth point the class narrows to 3 mod 4
    loose = sk.second_contraction(4, 7, {6: 2}, smooth_point=False)
    strict = sk.second_contraction(4, 7, {6: 2}, smooth_point=True)
    assert (loose.delta, loose.period) == (3, 2)
    assert Fraction(7 * (loose.delta + loose.period) - sk.Q, 4) == Fraction(22, 4)
    assert (strict.delta, strict.b, strict.period) == (3, 2, 4)


def test_second_contraction_past_fifty():
    """The least delta is 53 here: a search that stopped at delta = 50 found nothing."""
    sol = sk.second_contraction(61, 6, {5: 7})
    assert (sol.delta, sol.b, sol.gammas, sol.period) == (53, 5, ((5, 6),), 61)


@pytest.mark.parametrize(
    "e,qhat,s,smooth_point",
    [(4, 7, {6: 0}, False), (6, 17, {3: 2}, False), (4, 2, {6: 2}, True)],
)
def test_second_contraction_none(e, qhat, s, smooth_point):
    """s_k = 0, then 2*delta = 3 (mod 6), then 2*delta = 13 (mod 4): no delta at all."""
    assert sk.second_contraction(e, qhat, s, smooth_point=smooth_point) is None
    assert not list(reference_second_contraction(e, qhat, s, smooth_point=smooth_point))


def test_second_contraction_with_nothing_to_solve():
    sol = sk.second_contraction(5, 7, {}, smooth_point=False)
    assert (sol.delta, sol.b, sol.gammas, sol.period) == (1, Fraction(-6, 5), (), 1)


@pytest.mark.parametrize("e,s", [(0, {3: 1}), (4, {0: 1}), (4, {-3: 1})])
def test_second_contraction_refuses_a_non_positive_multiple_or_degree(e, s):
    with pytest.raises(ValueError, match="e and every degree k must be >= 1"):
        sk.second_contraction(e, 7, s)


def test_equations_verified(transcripts):
    for t in transcripts.values():
        for cand in t.bare:
            assert sk.verify_equation(cand)


def test_transcripts_deterministic(transcripts, empty_memos):
    # on an empty memo each case is computed again, not read back
    for name, t in transcripts.items():
        again = sk.run_case(name)
        assert again is not t
        assert again.text() == t.text()


def test_a_second_run_case_returns_the_kept_transcript(monkeypatch, empty_memos):
    calls = []
    enumerate_bare = sk.enumerate_bare
    monkeypatch.setattr(sk, "enumerate_bare", lambda case: calls.append(case) or enumerate_bare(case))
    first = sk.run_case("P5")
    assert calls == [sk.CASES["P5"]]
    assert sk.run_case("P5") is first
    assert calls == [sk.CASES["P5"]]


def test_the_memo_is_keyed_by_the_case_name_and_served_for_that_case_only(
    monkeypatch, capsys, empty_memos
):
    p3 = sk.run_case("p3")
    assert sk.run_case("P3") is p3 and list(sk._TRANSCRIPTS.items()) == [("P3", p3)]
    # a case patched in under the name is run again, and its transcript replaces the kept one
    original = sk.CASES["P3"]
    one_alpha = original._replace(alphas=(Fraction(1, 3),))
    monkeypatch.setitem(sk.CASES, "P3", one_alpha)
    patched = sk.run_case("p3")
    assert patched.case is one_alpha and {c.alpha for c in patched.bare} == {Fraction(1, 3)}
    assert sk.run_case("P3") is patched and list(sk._TRANSCRIPTS.items()) == [("P3", patched)]
    # link --bare goes through run_case too, so it prints the patched case's bare solutions
    assert cli.main(["link", "--case", "p3", "--bare"]) == 0
    bare = capsys.readouterr().out.splitlines()[1:]
    assert bare and all(line.startswith("  [alpha=1/3 ") for line in bare)
    # restoring the original case runs it again, to a transcript equal to the first
    monkeypatch.setitem(sk.CASES, "P3", original)
    again = sk.run_case("P3")
    assert again.case is original and again == p3 and again is not p3
    assert list(sk._TRANSCRIPTS.items()) == [("P3", again)]
    # a hit needs the very case the transcript was run for: an equal copy is run again
    monkeypatch.setitem(sk.CASES, "P3", original._replace())
    assert sk.run_case("P3") == p3 and sk._TRANSCRIPTS["P3"] is not again


def test_the_transcript_memo_holds_the_one_memo_bound(monkeypatch, empty_memos):
    monkeypatch.setattr(series, "MEMO_KEYS", 2)
    p2 = sk.run_case("P2")
    sk.run_case("P3")
    p5 = sk.run_case("P5")
    # the oldest entry is dropped first, as in every other process memo
    assert list(sk._TRANSCRIPTS) == ["P3", "P5"]
    again = sk.run_case("p2")
    assert again == p2 and again is not p2
    assert list(sk._TRANSCRIPTS) == ["P5", "P2"]
    assert sk.run_case("P5") is p5


def test_a_run_case_that_raises_stores_nothing(monkeypatch, empty_memos):
    solve = sk._solve_splits
    with monkeypatch.context() as patch:
        patch.setattr(
            sk, "_solve_splits", lambda *args: tuple(sp._replace(s=sp.s + 1) for sp in solve(*args))
        )
        with pytest.raises(AssertionError, match="fails after split extension"):
            sk.run_case("P7")
    assert sk._TRANSCRIPTS == {}
    assert sk.run_case("P7").text() == (GOLDEN / "p7.txt").read_text(encoding="utf-8")


def test_a_shared_transcript_cannot_be_altered(empty_memos):
    transcript = sk.run_case("P5")
    text = transcript.text()
    assert [type(field) for field in transcript[1:]] == [tuple] * 6
    for name in (*sk.Transcript._fields, "_text"):
        with pytest.raises(AttributeError, match="case P5: a transcript is read-only"):
            setattr(transcript, name, getattr(transcript, name, None))
    for cand in transcript.bare:
        for name in (*sk.LinkCandidate._fields, "note"):
            with pytest.raises(AttributeError):
                setattr(cand, name, getattr(cand, name, None))
        for splits in (cand.splits, cand.admissible):
            with pytest.raises(TypeError):
                splits[6] = ()
    assert transcript.text() == text == sk.run_case("P5").text()


def test_every_transcript_renders_its_text_once(empty_memos):
    # a render joins new lines into a new str, so the same object back means no render
    kept = sk.run_case("P5")
    first = kept.text()
    assert first == (GOLDEN / "p5.txt").read_text(encoding="utf-8")
    assert kept.text() is first and sk.run_case("p5").text() is first
    built = sk.Transcript(kept.case, *map(list, kept[1:]))
    assert built == kept and [type(field) for field in built[1:]] == [tuple] * 6
    assert built.text() == first and built.text() is built.text() is not first
    # _replace builds through __new__: tuples again, and a text of its own
    cut = kept._replace(notes=[])
    assert type(cut.notes) is tuple and cut.text() is cut.text()
    assert cut.text() == first.removesuffix(f"note: {kept.notes[0]}\n")


def test_every_elimination_cites_one_filter(transcripts):
    for t in transcripts.values():
        for cand in t.bare:
            if cand.status == "eliminated":
                assert cand.filter_id in {"F1", "F2", "F3", "F4"}
                assert cand.reason
            events = [
                ev
                for ev in t.events
                if ev.candidate == cand.key() and ev.verdict == "eliminated"
            ]
            if cand.status == "eliminated":
                assert len(events) == 1 and events[0].filter_id == cand.filter_id
            # the candidate's events form one run of the log, whose last event
            # is its verdict: the elimination it cites, or its final pass
            at = [i for i, ev in enumerate(t.events) if ev.candidate == cand.key()]
            assert at == list(range(at[0], at[-1] + 1))
            last = t.events[at[-1]]
            if cand.status == "eliminated":
                assert last == events[0] and last.detail == cand.reason
            else:
                assert cand.status == "final" and last.verdict == "pass"
                assert last.filter_id == ("final" if cand.birational else "none")


def test_reference_bare_solutions_present(transcripts):
    for name, t in transcripts.items():
        keys = _bare_keys(t)
        for ref in t.case.reference_bare:
            assert ref in keys, f"{name}: reference solution {ref} missing"
        for cand in t.bare:
            assert cand.extra == ((cand.alpha, cand.qhat, cand.e) not in set(t.case.reference_bare))


def _kernel_splits(case, alpha, qhat, e, k, birational):
    return sk._solve_splits(sk._equation(case, alpha, k), qhat, e, k, birational)


def _assert_same_splits(got, want):
    assert got == want
    assert all(type(sp.s) is int and type(sp.beta) is Fraction for sp in got)


QHATS = sorted(set(ALLOWED_FANO_INDICES) | {1, 2, 3})


def test_integer_kernel_matches_fraction_reference_on_every_case():
    """Every case and alpha, k in 3..7, every qhat, e in 1..e_max+5, both flags."""
    for case in sk.CASES.values():
        for alpha in case.alphas:
            e_max = reference_e_bound(case, alpha, ALLOWED_FANO_INDICES)
            assert sk._e_bound(case, alpha, sk._equation(case, alpha, case.k)) == e_max
            for k in range(3, 8):
                D, _, rep_D, _ = sk._equation(case, alpha, k)
                assert Fraction(rep_D, D) == reference_beta_class(case, k, alpha)
                assert D == alpha.denominator and 0 <= rep_D < D
                for qhat in QHATS:
                    for e in range(1, e_max + 6):
                        for birational in (True, False):
                            args = (case, alpha, qhat, e, k, birational)
                            _assert_same_splits(_kernel_splits(*args), reference_splits(*args))


def _bare_rows(bare, k):
    return [(c.alpha, c.qhat, c.e, c.birational, c.splits[k], c.extra) for c in bare]


@pytest.mark.parametrize("name", list(sk.CASES))
def test_congruence_solve_matches_a_scan_of_every_multiple(name):
    case = sk.CASES[name]
    assert _bare_rows(sk.enumerate_bare(case), case.k) == brute_force_bare(case, ALLOWED_FANO_INDICES)


@settings(max_examples=60, deadline=None)
@given(
    r=st.one_of(st.none(), st.integers(2, 23).filter(lambda r: r % sk.Q)),
    numerators=st.lists(st.integers(0, 60), min_size=1, max_size=3),
    k=st.integers(3, 7),
)
def test_congruence_solve_matches_a_scan_on_synthetic_centres(r, numerators, k):
    """Centres of index 2..23 or Cartier ones, discrepancies a/r up to 2 (6 if Cartier), any k."""
    alphas = tuple(Fraction(a, r or 1) for a in sorted({n % (2 * (r or 3)) + 1 for n in numerators}))
    case = sk.CenterCase("S", "synthetic", r, alphas, k, ())
    beta_min = [reference_beta_class(case, k, a) + reference_m_min(case, k, a) for a in alphas]
    if min(sk.Q * b - k * a for a, b in zip(alphas, beta_min)) <= 0:
        with pytest.raises(ValueError, match="unbounded enumeration"):
            sk.enumerate_bare(case)
        return
    assume(max(reference_e_bound(case, a, ALLOWED_FANO_INDICES) for a in alphas) <= 200)
    bare = sk.enumerate_bare(case)
    assert _bare_rows(bare, k) == brute_force_bare(case, ALLOWED_FANO_INDICES)
    assert all(c.extra for c in bare)


def test_split_solver_runs_only_on_the_residue_class(monkeypatch):
    """enumerate_bare solves for s and beta only where c * e = k * qhat * D (mod 13 * D)."""
    calls = []
    solve = sk._solve_splits

    def counted(equation, qhat, e, k, birational):
        calls.append((equation, qhat, e, k))
        return solve(equation, qhat, e, k, birational)

    monkeypatch.setattr(sk, "_solve_splits", counted)
    # 13 divides num alpha = 13, so c = 0 and only qhat = 13 has a class at all
    thirteen = sk.CenterCase("S", "synthetic", 23, (Fraction(13, 23),), 6, ())
    for case in (*sk.CASES.values(), thirteen):
        calls.clear()
        sk.enumerate_bare(case)
        in_class = 0
        for alpha in case.alphas:
            D, c, _, _ = sk._equation(case, alpha, case.k)
            for qhat in (*ALLOWED_FANO_INDICES, 1, 2, 3):
                for e in range(1, reference_e_bound(case, alpha, ALLOWED_FANO_INDICES) + 1):
                    in_class += (case.k * qhat * D - c * e) % (sk.Q * D) == 0
        assert all((k * qhat * eq[0] - eq[1] * e) % (sk.Q * eq[0]) == 0 for eq, qhat, e, k in calls)
        assert len(calls) == in_class < 50


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(list(sk.CASES.values())),
    alpha=st.builds(Fraction, st.integers(1, 60), st.integers(1, 21)),
    k=st.integers(3, 7),
    qhat=st.sampled_from(QHATS),
    e=st.integers(1, 80),
    birational=st.booleans(),
)
def test_integer_kernel_matches_fraction_reference_off_the_case_list(
    case, alpha, k, qhat, e, birational
):
    """Discrepancies and multiples beyond the five cases' own, same answers."""
    args = (case, alpha, qhat, e, k, birational)
    _assert_same_splits(_kernel_splits(*args), reference_splits(*args))


@settings(max_examples=300, deadline=None)
@given(
    e=st.integers(1, 80),
    qhat=st.sampled_from(QHATS),
    s=st.dictionaries(st.integers(3, 7), st.integers(0, 9), max_size=5),
    smooth_point=st.booleans(),
)
def test_second_contraction_matches_fraction_reference(e, qhat, s, smooth_point):
    """The least delta is the oracle's first hit, the period the gap to its second.

    Both lie below 7 + 2 * 80 < 400 when there is any, as period <= e.
    """
    got = sk.second_contraction(e, qhat, s, smooth_point=smooth_point)
    hits = reference_second_contraction(e, qhat, s, smooth_point=smooth_point)
    hits = list(itertools.islice(hits, 2))
    if not hits:
        assert got is None
        return
    assert (got.delta, got.b, got.gammas) == hits[0]
    assert got.period == hits[1][0] - hits[0][0]
    assert all(type(g) is int for _, g in got.gammas)


@pytest.mark.parametrize("name", list(sk.CASES))
def test_run_case_rejects_a_corrupted_split_from_the_solver(monkeypatch, empty_memos, name):
    """The one re-check after the filters still sees a split the solver got wrong."""
    solve, corrupted = sk._solve_splits, []

    def corrupting(equation, qhat, e, k, birational):
        splits = solve(equation, qhat, e, k, birational)
        if splits and not corrupted:
            corrupted.append(splits[0])
            return (sk.Split(splits[0].s + 1, splits[0].beta), *splits[1:])
        return splits

    monkeypatch.setattr(sk, "_solve_splits", corrupting)
    with pytest.raises(AssertionError, match=r"candidate .* fails"):
        sk.run_case(name)
    assert corrupted


def test_f4_names_its_recorded_step_when_every_split_is_corrupted(monkeypatch, empty_memos):
    # F4's note for P5 solves a second contraction before the re-check runs; with
    # s + 1 in every split it has none, and the step is named, not dereferenced
    solve = sk._solve_splits
    monkeypatch.setattr(
        sk, "_solve_splits", lambda *args: tuple(sp._replace(s=sp.s + 1) for sp in solve(*args))
    )
    message = (
        "F4 for alpha=1/5 qhat=17 e=6: the second contraction its note records has no solution"
    )
    with pytest.raises(AssertionError) as raised:
        sk.run_case("P5")
    assert str(raised.value) == message


@pytest.mark.parametrize("name", list(sk.CASES))
def test_verify_equation_rejects_a_corrupted_split(transcripts, name):
    """One split off by s +- 1 or beta +- 1/r fails the exact re-check."""
    cand = transcripts[name].bare[0]
    assert sk.verify_equation(cand)
    step = Fraction(1, sk.CASES[name].r or 1)
    for k, splits in cand.splits.items():
        for i, sp in enumerate(splits):
            for bad in (
                sk.Split(sp.s + 1, sp.beta),
                sk.Split(sp.s - 1, sp.beta),
                sk.Split(sp.s, sp.beta + step),
                sk.Split(sp.s, sp.beta - step),
            ):
                corrupted = {**cand.splits, k: splits[:i] + (bad,) + splits[i + 1 :]}
                copy = sk.LinkCandidate(cand.case, cand.alpha, cand.qhat, cand.e, cand.birational,
                                        splits=corrupted)
                assert not sk.verify_equation(copy)
