"""Sarkisov-link case enumeration, filters, transcripts, second contractions."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfano import sarkisov as sk
from qfano.riemann_roch import ALLOWED_FANO_INDICES


@pytest.fixture(scope="module")
def transcripts():
    return {name: sk.run_case(name) for name in ("NG", "P2", "P3", "P5", "P7")}


@pytest.mark.parametrize(
    "q,r,k,expected",
    [(13, 5, 4, 3), (13, 7, 6, 1), (13, 5, 0, 0), (13, 3, 6, 0), (13, 2, 6, 0)],
)
def test_beta_congruence(q, r, k, expected):
    assert sk.beta_congruence(q, r, k) == expected


def test_dims_table():
    assert sk.DIMS == {3: 0, 4: 0, 5: 0, 6: 1, 7: 1}


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


def test_determine_sk_p5_survivor(transcripts):
    cand = _candidate(transcripts["P5"], 7, 4)
    assert sk.determine_sk(cand, 7) == (sk.Split(1, Fraction(4, 5)),)
    assert sk.determine_sk(cand, 6) == (sk.Split(2, Fraction(2, 5)),)
    assert sk.determine_sk(cand, 3) == (sk.Split(1, Fraction(1, 5)),)
    assert sk.determine_sk(cand, 5) == (sk.Split(3, Fraction(0)),)


def test_determine_sk_p5_seventeen(transcripts):
    cand = _candidate(transcripts["P5"], 17, 6)
    assert sk.determine_sk(cand, 3)[0].s == 3
    assert sk.determine_sk(cand, 4)[0].s == 2
    assert sk.determine_sk(cand, 7)[0].s == 5


def test_determine_sk_infeasible(transcripts):
    cand = sk.LinkCandidate("P5", Fraction(1, 5), 13, 10, True)
    with pytest.raises(sk.Infeasible):
        sk.determine_sk(cand, 4)


@pytest.mark.parametrize("e", [0, -1])
def test_candidate_rejects_a_non_positive_multiple(e):
    # e = 0 used to loop forever in the split solver
    with pytest.raises(ValueError, match="e must be >= 1"):
        sk.LinkCandidate("P5", Fraction(1, 5), 13, e, True)


def test_filters_p7(transcripts):
    for c in transcripts["P7"].bare:
        assert c.status == "eliminated" and c.filter_id == "F1"
    assert transcripts["P7"].final == []


def test_filters_ng(transcripts):
    assert transcripts["P3"].final == []
    for c in transcripts["NG"].bare:
        assert c.status == "eliminated" and c.filter_id == "F1"
    assert transcripts["NG"].final == []


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


def test_thresholds(transcripts):
    for name in ("P2", "P5"):
        thresholds = dict(transcripts[name].thresholds)
        assert set(thresholds.values()) == {Fraction(1, 2)}


def test_canonical_threshold_undefined():
    cand = sk.LinkCandidate("P5", Fraction(1, 5), 7, 4, True)
    cand.admissible = {6: (sk.Split(2, Fraction(0)),)}
    with pytest.raises(sk.UndefinedThreshold):
        sk.canonical_threshold(cand)


def test_second_contraction_p5_survivor():
    sols = sk.second_contraction(4, 7, {3: 1, 5: 3, 6: 2, 7: 1})
    assert sols[0].delta == 7
    assert sols[0].b == 9
    assert dict(sols[0].gammas) == {3: 1, 5: 4, 6: 2, 7: 0}
    # gamma_7 >= 0 already forces delta >= 7
    assert all(s.delta >= 7 for s in sols)


def test_second_contraction_mod_class():
    sols = sk.second_contraction(6, 17, {3: 3, 4: 2, 7: 5})
    assert sols[0].delta == 5 and sols[0].b == 12
    assert all(s.delta % 6 == 5 for s in sols)


def test_second_contraction_p5_gamma_forces_b_integral():
    # for this system the gamma conditions already force delta = 5 (mod 6),
    # which makes b integral with or without the smoothness requirement
    loose = sk.second_contraction(6, 17, {3: 3, 4: 2, 7: 5}, smooth_point=False)
    strict = sk.second_contraction(6, 17, {3: 3, 4: 2, 7: 5}, smooth_point=True)
    assert loose == strict


def b_integral(solution) -> bool:
    return solution.b.denominator == 1


def test_second_contraction_smoothness_filters_b():
    # reduced system {6: 2}: gamma only forces delta odd >= 3, so delta = 5
    # gives fractional b = 22/4 and must drop when the point is smooth
    loose = sk.second_contraction(4, 7, {6: 2}, smooth_point=False)
    strict = sk.second_contraction(4, 7, {6: 2}, smooth_point=True)
    assert any(not b_integral(s) for s in loose)
    assert all(b_integral(s) for s in strict)
    assert {s.delta for s in loose} - {s.delta for s in strict} != set()


def test_equations_verified(transcripts):
    for t in transcripts.values():
        for cand in t.bare:
            assert sk.verify_equation(cand)


def test_transcripts_deterministic(transcripts):
    for name, t in transcripts.items():
        again = sk.run_case(name)
        assert again.text() == t.text()


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


def test_reference_bare_solutions_present(transcripts):
    for name, t in transcripts.items():
        keys = _bare_keys(t)
        for ref in t.case.reference_bare:
            assert ref in keys, f"{name}: reference solution {ref} missing"
        for cand in t.bare:
            assert cand.extra == ((cand.alpha, cand.qhat, cand.e) not in set(t.case.reference_bare))


# The Fraction evaluation of the link equations that the integer kernel
# replaced, kept here as its oracle.


def reference_beta_class(case, k, alpha):
    if case.r is None:
        return Fraction(0)
    value = sk.beta_congruence(sk.Q, case.r, k) * alpha
    return value - math.floor(value)


def reference_m_min(case, k, alpha):
    return max(0, math.ceil(2 * alpha - reference_beta_class(case, k, alpha))) if k == 6 else 0


def reference_splits(case, alpha, qhat, e, k, birational):
    rep = reference_beta_class(case, k, alpha)
    m_min = reference_m_min(case, k, alpha)
    s_min = 1 if (birational and sk.DIMS[k] >= 1) else 0
    lhs = k * qhat - (sk.Q * rep - k * alpha) * e
    if lhs.denominator != 1:
        return ()
    total = int(lhs)
    if total < 0 or total % sk.Q != 0:
        return ()
    reach = total // sk.Q
    out = []
    m = m_min
    while reach - m * e >= s_min:
        out.append(sk.Split(reach - m * e, rep + m))
        m += 1
    return tuple(out)


def reference_e_bound(case, alpha):
    beta_min = reference_beta_class(case, case.k, alpha) + reference_m_min(case, case.k, alpha)
    return math.floor(Fraction(case.k * max(ALLOWED_FANO_INDICES)) / (sk.Q * beta_min - case.k * alpha))


def reference_second_contraction(e, qhat, s, q=sk.Q, smooth_point=True, delta_max=50):
    out = []
    for delta in range(1, delta_max + 1):
        gammas = [(k, Fraction(s[k] * delta - k, e)) for k in sorted(s)]
        if any(g < 0 or g.denominator != 1 for _, g in gammas):
            continue
        b = Fraction(qhat * delta - q, e)
        if smooth_point and b.denominator != 1:
            continue
        out.append(sk.SecondContractionSolution(delta, b, tuple(gammas)))
    return tuple(out)


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
            e_max = reference_e_bound(case, alpha)
            assert sk._e_bound(case, alpha, sk._equation(case, alpha, case.k)) == e_max
            for k in range(3, 8):
                assert sk._equation(case, alpha, k)[2] == reference_beta_class(case, k, alpha)
                for qhat in QHATS:
                    for e in range(1, e_max + 6):
                        for birational in (True, False):
                            args = (case, alpha, qhat, e, k, birational)
                            _assert_same_splits(_kernel_splits(*args), reference_splits(*args))


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
    e=st.integers(1, 12),
    qhat=st.sampled_from(QHATS),
    s=st.dictionaries(st.integers(3, 7), st.integers(0, 9), max_size=5),
    q=st.sampled_from((sk.Q, 1, 7)),
    smooth_point=st.booleans(),
)
def test_second_contraction_matches_fraction_reference(e, qhat, s, q, smooth_point):
    got = sk.second_contraction(e, qhat, s, q=q, smooth_point=smooth_point)
    assert got == reference_second_contraction(e, qhat, s, q=q, smooth_point=smooth_point)
    assert all(type(g) is int for sol in got for _, g in sol.gammas)


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
                assert not sk.verify_equation(dataclasses.replace(cand, splits=corrupted))
