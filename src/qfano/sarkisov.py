"""Exhaustive integer case analysis for the index-13 Sarkisov-link equations.

Model: a two-ray link out of the index-13 threefold starts with an extremal
blowup of discrepancy alpha over a center and ends in a Mori contraction to
a target of index qhat. Writing e for the multiple of the target's
fundamental class carried by the exceptional divisor, s_k for the multiple
carried by the image of the k-th linear system, and beta_k for the
multiplicity subtracted at the blowup, every k in 3..7 satisfies

    k * qhat = 13 * s_k + (13 * beta_k - k * alpha) * e        (exactly)

with beta_k constrained to the congruence class (k * 13^{-1} mod r) * alpha
(mod 1) over a center of index r, and beta_6 >= 2 * alpha because the
canonical threshold of the sixfold system is at most 1/2.

The enumeration is complete by construction: with beta_k and s_k at their
minima the equation bounds e <= 19 k / (13 beta_min - k alpha), and the
target index qhat ranges over the finite admissible index set (fiber-type
contractions only allow qhat <= 3).

The equations are solved in integers. Writing beta_k = rep + m with rep the
class representative in [0, 1) and D = lcm(den alpha, den rep) (the
center's index), the constants c = D * (13 * rep - k * alpha) and the least
m are computed once per (alpha, k), outside the loop over (qhat, e); a pair
(qhat, e) has splits iff k * qhat * D - c * e is non-negative and divisible
by 13 * D, and a Fraction is built only for a split that is returned.
verify_equation re-checks every split exactly, as an identity over
den(alpha) * den(beta).

Candidates are then run through individually attributable filters:

  F1 torsion      the exceptional class forces |T(target)| = d/e with
                  d >= 3; the admissible torsion orders per qhat come from
                  the torsion table below.
  F2 genus        when alpha < 1 the target genus is at least 4, killing
                  torsion rows with smaller recorded genus.
  F3 effectivity  when qhat pins the target space, each split must satisfy
                  h^0(target, s_k A) >= dim|kA| + 1 (s_k = 0 only when
                  dim|kA| = 0).
  F4 geometric    eliminations that rest on geometry this module does not
                  mechanize; recorded with their numeric sub-steps so the
                  transcript stays honest about what is machine-checked.

Bare solution sets are recorded separately from filtered ones, and any bare
solution beyond the reference case list is flagged, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import fixtures, wps
from .wps import ALLOWED_FANO_INDICES

Q = 13  # Fano index of the threefold whose links are being classified
DELTA_MAX = 50  # second_contraction searches delta in 1..DELTA_MAX


class InvalidIndex(ValueError):
    """qhat outside the admissible Fano index set (or below 4 for torsion data)."""


class Infeasible(ValueError):
    """A candidate admits no (s_k, beta_k) split for the requested k."""


class UndefinedThreshold(ValueError):
    """Canonical threshold alpha/beta_6 undefined because beta_6 = 0."""


def _x12_dims() -> dict[int, int]:
    series = wps.hilbert(fixtures.X12_SHAPE, 7)
    return {k: int(series[k]) - 1 for k in range(3, 8)}


DIMS = _x12_dims()  # dim |kA| on the index-13 threefold, k = 3..7


@dataclass(frozen=True)
class TorsionRow:
    """One admissible torsion order for a target index, with its known data."""

    t: int
    basket: tuple[int, ...] | None = None
    a3: Fraction | None = None
    genus: int | None = None

    def __str__(self) -> str:
        if self.basket is None:
            return f"|T|={self.t}"
        return f"(|T|={self.t}, basket {self.basket}, A3={self.a3}, g={self.genus})"


def torsion_table(qhat: int) -> tuple[TorsionRow, ...]:
    """Admissible |T(target)| rows for a Q-Fano target of index qhat >= 4."""
    if qhat not in ALLOWED_FANO_INDICES:
        raise InvalidIndex(f"index {qhat} outside the admissible set")
    if qhat < 4:
        raise InvalidIndex(f"torsion constraints are tabulated for qhat >= 4, got {qhat}")
    if qhat >= 8 or qhat == 6:
        return (TorsionRow(1),)
    if qhat == 7:
        return (TorsionRow(1), TorsionRow(2))
    if qhat == 5:
        return (TorsionRow(1), TorsionRow(3, (2, 9, 9), Fraction(1, 18), 2))
    # qhat == 4
    return (
        TorsionRow(1),
        TorsionRow(3, (9, 9), Fraction(1, 9), 3),
        TorsionRow(5, (5, 5, 5, 5), Fraction(1, 5), 5),
    )


def beta_congruence(q: int, r: int, k: int) -> int:
    """Residue t with beta_k = t * alpha (mod 1) over an index-r center."""
    if math.gcd(q, r) != 1:
        raise ValueError(f"q={q} and r={r} must be coprime")
    return (k * pow(q, -1, r)) % r


@dataclass(frozen=True)
class CenterCase:
    """One center type for the blowup starting the link."""

    name: str
    description: str
    r: int | None               # index of the blown-up point; None for NG
    alphas: tuple[Fraction, ...]
    k: int                      # linear-system degree governing the enumeration
    reference_bare: tuple[tuple[Fraction, int, int], ...]  # (alpha, qhat, e)

    def beta_class(self, k: int, alpha: Fraction) -> Fraction:
        """Representative in [0, 1) of the beta_k congruence class."""
        if self.r is None:
            return Fraction(0)  # Cartier center: beta integral
        t = beta_congruence(Q, self.r, k)
        return Fraction(t * alpha.numerator % alpha.denominator, alpha.denominator)


def _ng_alphas() -> tuple[Fraction, ...]:
    # 6*19 >= 20*alpha*e bounds integral discrepancies by alpha <= 5
    out = []
    a = 1
    while 20 * a <= 6 * 19:
        out.append(Fraction(a))
        a += 1
    return tuple(out)


CASES: dict[str, CenterCase] = {
    "NG": CenterCase(
        "NG",
        "curve or Gorenstein point (integral discrepancy)",
        None,
        _ng_alphas(),
        6,
        ((Fraction(1), 11, 2), (Fraction(2), 11, 1)),
    ),
    "P2": CenterCase(
        "P2",
        "index-2 cyclic quotient point",
        2,
        (Fraction(1, 2),),
        6,
        (
            (Fraction(1, 2), 6, 1),
            (Fraction(1, 2), 11, 4),
            (Fraction(1, 2), 17, 5),
            (Fraction(1, 2), 19, 1),
        ),
    ),
    "P3": CenterCase(
        "P3",
        "index-3 point (two admissible discrepancies)",
        3,
        (Fraction(1, 3), Fraction(2, 3)),
        6,
        (
            (Fraction(1, 3), 4, 1),
            (Fraction(1, 3), 8, 2),
            (Fraction(2, 3), 8, 1),
        ),
    ),
    "P5": CenterCase(
        "P5",
        "index-5 cyclic quotient point",
        5,
        (Fraction(1, 5),),
        4,
        ((Fraction(1, 5), 5, 1), (Fraction(1, 5), 7, 4), (Fraction(1, 5), 17, 6)),
    ),
    "P7": CenterCase(
        "P7",
        "index-7 cyclic quotient point",
        7,
        (Fraction(1, 7),),
        6,
        ((Fraction(1, 7), 9, 2), (Fraction(1, 7), 11, 1)),
    ),
}


@dataclass(frozen=True)
class Split:
    """One non-negative solution (s_k, beta_k) of the degree-k equation."""

    s: int
    beta: Fraction

    def __str__(self) -> str:
        return f"(s={self.s}, beta={self.beta})"

    def record(self) -> dict:
        return {"s": self.s, "beta": str(self.beta)}


@dataclass
class LinkCandidate:
    """One bare solution of the governing equation, annotated by the filters."""

    case: str
    alpha: Fraction
    qhat: int
    e: int
    birational: bool
    splits: dict[int, tuple[Split, ...]] = field(default_factory=dict)
    admissible: dict[int, tuple[Split, ...]] = field(default_factory=dict)
    status: str = "bare"            # bare | eliminated | final
    filter_id: str | None = None
    reason: str | None = None
    target: str | None = None
    d: int | None = None
    torsion_options: tuple[int, ...] = ()
    extra: bool = False

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError(f"e must be >= 1, got {self.e}")

    def key(self) -> str:
        return f"alpha={self.alpha} qhat={self.qhat} e={self.e}"

    def sort_key(self) -> tuple:
        return (self.qhat, self.e, self.alpha)

    def record(self) -> dict:
        """JSON record of the candidate; rationals are "p/q" strings."""

        def by_k(splits: dict[int, tuple[Split, ...]]) -> dict:
            return {str(k): [sp.record() for sp in sps] for k, sps in sorted(splits.items())}

        return {
            "alpha": str(self.alpha),
            "qhat": self.qhat,
            "e": self.e,
            "birational": self.birational,
            "extra": self.extra,
            "splits": by_k(self.splits),
            "admissible": by_k(self.admissible),
            "status": self.status,
            "filter": self.filter_id,
            "reason": self.reason,
            "target": self.target,
            "d": self.d,
            "torsion_options": list(self.torsion_options),
        }


_Equation = tuple[int, int, Fraction, int]  # (D, c, rep, m_min), see _equation


def _equation(case: CenterCase, alpha: Fraction, k: int) -> _Equation:
    """Integer constants (D, c, rep, m_min) of the degree-k equation at alpha.

    beta_k = rep + m with m >= m_min, D = lcm(den alpha, den rep) and
    c = D * (13 * rep - k * alpha), so the equation reads
    k * qhat * D - c * e = 13 * D * (s_k + m * e) in integers.
    """
    rep = case.beta_class(k, alpha)
    D = math.lcm(alpha.denominator, rep.denominator)
    rep_D = rep.numerator * (D // rep.denominator)
    alpha_D = alpha.numerator * (D // alpha.denominator)
    # canonical threshold <= 1/2 forces beta_6 >= 2*alpha: m >= ceil(2*alpha - rep)
    m_min = max(0, -((rep_D - 2 * alpha_D) // D)) if k == 6 else 0
    return D, Q * rep_D - k * alpha_D, rep, m_min


def _solve_splits(
    equation: _Equation, qhat: int, e: int, k: int, birational: bool
) -> tuple[Split, ...]:
    """All admissible (s_k, beta_k) with k*qhat = Q*s + (Q*beta - k*alpha)*e."""
    D, c, rep, m_min = equation
    lhs = k * qhat * D - c * e
    if lhs < 0 or lhs % (Q * D):
        return ()
    reach = lhs // (Q * D)  # equals s + m*e
    s_min = 1 if (birational and DIMS[k] >= 1) else 0
    m_max = (reach - s_min) // e  # last m with s = reach - m*e >= s_min
    return tuple(Split(reach - m * e, rep + m) for m in range(m_min, m_max + 1))


def _e_bound(case: CenterCase, alpha: Fraction, equation: _Equation) -> int:
    """Largest e compatible with the governing equation at minimal beta and s."""
    D, c, _, m_min = equation
    denom = c + Q * D * m_min  # D * (Q * beta_min - k * alpha)
    if denom <= 0:
        raise ValueError(f"unbounded enumeration for case {case.name}, alpha={alpha}")
    return case.k * max(ALLOWED_FANO_INDICES) * D // denom


def enumerate_bare(case: CenterCase) -> list[LinkCandidate]:
    """All bare solutions of the governing equation, sorted by (qhat, e, alpha).

    Birational contractions range over the full admissible index set;
    fiber-type contractions (qhat <= 3) are scanned too, with the
    s_k >= 1 requirement lifted. Solutions beyond the case's reference list
    are flagged ``extra``, never dropped.
    """
    found: list[LinkCandidate] = []
    for alpha in case.alphas:
        equation = _equation(case, alpha, case.k)
        e_max = _e_bound(case, alpha, equation)
        for birational, qhats in ((True, ALLOWED_FANO_INDICES), (False, (1, 2, 3))):
            for qhat in qhats:
                for e in range(1, e_max + 1):
                    splits = _solve_splits(equation, qhat, e, case.k, birational)
                    if splits:
                        found.append(
                            LinkCandidate(
                                case=case.name,
                                alpha=alpha,
                                qhat=qhat,
                                e=e,
                                birational=birational,
                                splits={case.k: splits},
                            )
                        )
    reference = set(case.reference_bare)
    for cand in found:
        cand.extra = (cand.alpha, cand.qhat, cand.e) not in reference
    found.sort(key=LinkCandidate.sort_key)
    return found


def bare_record(case: CenterCase, bare: list[LinkCandidate]) -> dict:
    """``link --bare --json`` payload: each candidate record cut to alpha,
    qhat, e, extra and its splits for the case's k."""

    def cut(rec: dict) -> dict:
        return {key: rec[key] for key in ("alpha", "qhat", "e", "extra")} | {
            "splits": rec["splits"][str(case.k)]
        }

    return {"case": case.name, "k": case.k, "bare": [cut(c.record()) for c in bare]}


def bare_text(case: CenterCase, bare: list[LinkCandidate]) -> str:
    """``link --bare`` text: one line per candidate with its splits for k."""
    lines = [f"bare solutions for case {case.name} (k={case.k}):"]
    for c in bare:
        splits = " ".join(str(sp) for sp in c.splits[case.k])
        lines.append(f"  [{c.key()}] {splits}" + ("  [extra]" if c.extra else ""))
    return "\n".join(lines) + "\n"


def determine_sk(candidate: LinkCandidate, k: int) -> tuple[Split, ...]:
    """All (s_k, beta_k) splits of the degree-k equation for a candidate."""
    equation = _equation(CASES[candidate.case], candidate.alpha, k)
    splits = _solve_splits(equation, candidate.qhat, candidate.e, k, candidate.birational)
    if not splits:
        raise Infeasible(
            f"no (s_{k}, beta_{k}) split for {candidate.key()} in case {candidate.case}"
        )
    return splits


def verify_equation(candidate: LinkCandidate) -> bool:
    """Re-check every recorded split against its defining equation, exactly."""
    a = candidate.alpha
    for k, splits in candidate.splits.items():
        for sp in splits:
            # k*qhat = Q*s + (Q*beta - k*alpha)*e, both sides times den(alpha)*den(beta)
            b = sp.beta
            n = a.denominator * b.denominator
            slope = Q * b.numerator * a.denominator - k * a.numerator * b.denominator
            if k * candidate.qhat * n != Q * sp.s * n + slope * candidate.e:
                return False
    return True


def _pin_target(candidate: LinkCandidate) -> fixtures.Fixture | None:
    """Identify the target space from qhat and the split data, when possible."""
    if candidate.qhat in (19, 17):
        return fixtures.space_by_index(candidate.qhat)
    if candidate.qhat == 11:
        # torsion-free index-11 target carrying an effective pencil of 2A
        for k, splits in candidate.splits.items():
            if DIMS[k] >= 1 and any(sp.s == 2 for sp in splits):
                return fixtures.space_by_index(11)
    if candidate.qhat == 7:
        # two distinct effective representatives of A identify the target
        for k, splits in candidate.splits.items():
            if DIMS[k] >= 1 and any(sp.s == 1 for sp in splits):
                return fixtures.space_by_index(7)
    return None


@dataclass(frozen=True)
class FilterEvent:
    candidate: str
    filter_id: str
    verdict: str        # pass | eliminated
    detail: str


@dataclass(frozen=True)
class SecondContractionSolution:
    """One admissible multiplicity vector for the link's second contraction."""

    delta: int
    b: Fraction
    gammas: tuple[tuple[int, int], ...]


def second_contraction(
    e: int,
    qhat: int,
    s: dict[int, int],
    q: int = Q,
    smooth_point: bool = True,
) -> tuple[SecondContractionSolution, ...]:
    """Solutions of e*gamma_k = s_k*delta - k and e*b = qhat*delta - q.

    Returns all delta in 1..DELTA_MAX with every gamma_k a non-negative
    integer, requiring b integral when the contracted point is smooth.
    Ascending delta; the first entry is the minimal admissible one.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    out = []
    for delta in range(1, DELTA_MAX + 1):
        gammas = []
        ok = True
        for k in sorted(s):
            g, rest = divmod(s[k] * delta - k, e)
            if g < 0 or rest:
                ok = False
                break
            gammas.append((k, g))
        if not ok:
            continue
        b = Fraction(qhat * delta - q, e)
        if smooth_point and b.denominator != 1:
            continue
        out.append(SecondContractionSolution(delta, b, tuple(gammas)))
    return tuple(out)


def canonical_threshold(candidate: LinkCandidate) -> Fraction:
    """alpha / beta_6 with the minimal admissible beta_6 of the candidate."""
    splits = candidate.admissible.get(6) or candidate.splits.get(6)
    if not splits:
        splits = determine_sk(candidate, 6)
    beta6 = min(sp.beta for sp in splits)
    if beta6 == 0:
        raise UndefinedThreshold("beta_6 = 0: threshold alpha/beta_6 undefined")
    return candidate.alpha / beta6


# geometric eliminations this module records but does not mechanize
def _f4_reason(candidate: LinkCandidate) -> str | None:
    key = (candidate.case, candidate.alpha, candidate.qhat, candidate.e)
    if key == ("P3", Fraction(1, 3), 4, 1):
        return (
            "numeric filters leave torsion row (|T|=5, basket (5,5,5,5), "
            "A3=1/5, g=5) alive; the elimination of this row rests on a "
            "geometric classification argument not mechanized here"
        )
    if key == ("P5", Fraction(1, 5), 17, 6):
        sols = second_contraction(
            6,
            17,
            {
                k: sps[0].s
                for k, sps in candidate.admissible.items()
                if len(sps) == 1 and sps[0].s >= 1
            },
        )
        step = sols[1].delta - sols[0].delta if len(sols) > 1 else None
        mod = f" (delta = {sols[0].delta} mod {step} forced by integrality)" if step else ""
        return (
            "second contraction over a smooth target point forces "
            f"minimal delta = {sols[0].delta}{mod} with b = {sols[0].b} > 3; "
            "base-locus tracking then places the contracted point at the "
            "index-7 point of P(2,3,5,7), contradicting smoothness - a "
            "geometric step not mechanized here"
        )
    return None


def apply_filters(candidates: list[LinkCandidate]) -> list[FilterEvent]:
    """Annotate candidates in place with pass/eliminated verdicts; return the log.

    Filters run in order F1, F2, F3, F4; the first one that fires is the
    single filter an eliminated candidate cites.
    """
    events: list[FilterEvent] = []

    def log(cand: LinkCandidate, fid: str, verdict: str, detail: str) -> None:
        events.append(FilterEvent(cand.key(), fid, verdict, detail))

    def eliminate(cand: LinkCandidate, fid: str, detail: str) -> None:
        cand.status = "eliminated"
        cand.filter_id = fid
        cand.reason = detail
        log(cand, fid, "eliminated", detail)

    for cand in sorted(candidates, key=LinkCandidate.sort_key):
        if not cand.birational:
            cand.status = "final"
            cand.reason = "fiber-type contraction: no torsion or effectivity data applies"
            log(cand, "none", "pass", cand.reason)
            continue

        # F1: |T(target)| = d/e with d >= 3 must be admissible for qhat
        rows = torsion_table(cand.qhat)
        admissible_rows = [row for row in rows if row.t * cand.e >= 3]
        if not admissible_rows:
            eliminate(
                cand,
                "F1",
                f"|T| = d/e with d >= 3 needs |T| >= 3/{cand.e}; admissible rows "
                f"for qhat={cand.qhat} are {{{', '.join(str(r) for r in rows)}}}",
            )
            continue
        log(
            cand,
            "F1",
            "pass",
            f"rows satisfying |T|*e >= 3: {{{', '.join(str(r) for r in admissible_rows)}}}",
        )

        # F2: alpha < 1 forces target genus >= 4
        if cand.alpha < 1:
            survivors = [
                row for row in admissible_rows if row.genus is None or row.genus >= 4
            ]
            if not survivors:
                eliminate(
                    cand,
                    "F2",
                    "alpha < 1 forces g(target) >= 4, killing every remaining row: "
                    f"{{{', '.join(str(r) for r in admissible_rows)}}}",
                )
                continue
            if len(survivors) != len(admissible_rows):
                dropped = [r for r in admissible_rows if r not in survivors]
                log(
                    cand,
                    "F2",
                    "pass",
                    f"dropped rows with g < 4: {{{', '.join(str(r) for r in dropped)}}}",
                )
            admissible_rows = survivors
        cand.torsion_options = tuple(sorted(row.t for row in admissible_rows))

        # full split data for every k (the transcript shows it all)
        for k in range(3, 8):
            if k not in cand.splits:
                equation = _equation(CASES[cand.case], cand.alpha, k)
                cand.splits[k] = _solve_splits(equation, cand.qhat, cand.e, k, cand.birational)
        cand.admissible = dict(cand.splits)

        # F3: effectivity on a pinned target
        target = _pin_target(cand)
        if target is not None:
            cand.target = target.name
            weights = target.shape.weights
            failed_k: int | None = None
            detail = ""
            new_admissible: dict[int, tuple[Split, ...]] = {}
            for k in range(3, 8):
                keep = []
                for sp in cand.splits[k]:
                    if sp.s == 0:
                        if DIMS[k] == 0:
                            keep.append(sp)
                        continue
                    if wps.monomial_count(weights, sp.s) >= DIMS[k] + 1:
                        keep.append(sp)
                new_admissible[k] = tuple(keep)
                if not keep and failed_k is None:
                    failed_k = k
                    if not cand.splits[k]:
                        shown = "no integral split at all"
                    else:
                        shown = ", ".join(
                            f"h0({target.name}, {sp.s}*A) = {wps.monomial_count(weights, sp.s)}"
                            for sp in cand.splits[k]
                            if sp.s > 0
                        ) or "only s=0 splits while dim|kA| > 0"
                    detail = (
                        f"k={k}: every split fails h0 >= dim|{k}A|+1 = {DIMS[k] + 1}: "
                        f"{shown}"
                    )
            if failed_k is not None:
                eliminate(cand, "F3", detail)
                continue
            cand.admissible = new_admissible
            log(cand, "F3", "pass", f"target {target.name}: all k admit effective splits")

        # F4: geometric eliminations, recorded with their numeric sub-steps
        reason = _f4_reason(cand)
        if reason is not None:
            eliminate(cand, "F4", reason)
            continue

        cand.status = "final"
        if cand.torsion_options == (1,):
            cand.d = cand.e
        else:
            zero_k = [
                k
                for k in range(3, 8)
                if len(cand.admissible[k]) == 1 and cand.admissible[k][0].s == 0
            ]
            if zero_k:
                # the unique member of that system is the contracted divisor
                cand.d = zero_k[0]
        log(cand, "final", "pass", f"survives all filters; target {cand.target}")
    return events


@dataclass
class Transcript:
    """Ordered record of one case: bare set, filter log, final set, extras."""

    case: CenterCase
    bare: list[LinkCandidate]
    events: list[FilterEvent]
    final: list[LinkCandidate]
    thresholds: list[tuple[str, Fraction]]
    contractions: list[tuple[str, SecondContractionSolution]]
    notes: list[str]

    def text(self) -> str:
        case = self.case
        lines = [f"=== sarkisov case {case.name} ==="]
        lines.append(f"center: {case.description}")
        lines.append(
            "alpha values: " + ", ".join(str(a) for a in case.alphas)
        )
        lines.append(
            f"governing equation (k={case.k}): "
            f"{case.k}*qhat = 13*s{case.k} + (13*beta{case.k} - {case.k}*alpha)*e"
        )
        for alpha in case.alphas:
            rep = case.beta_class(case.k, alpha)
            lines.append(
                f"beta{case.k} congruence class at alpha={alpha}: {rep} (mod 1)"
            )
        lines.append(
            "dim |kA|: " + " ".join(f"{k}:{DIMS[k]}" for k in range(3, 8))
        )
        lines.append(
            "admissible qhat: "
            + " ".join(str(q) for q in ALLOWED_FANO_INDICES)
            + " (fiber type only for qhat <= 3)"
        )
        lines.append("")
        lines.append(f"bare solutions: {len(self.bare)}")
        for cand in self.bare:
            flag = "  [extra: beyond the reference solution list]" if cand.extra else ""
            splits = " ".join(str(sp) for sp in cand.splits[case.k])
            lines.append(f"  [{cand.key()}] splits k={case.k}: {splits}{flag}")
        lines.append("")
        lines.append("filter log:")
        if not self.events:
            lines.append("  (no candidates)")
        for ev in self.events:
            lines.append(f"  [{ev.candidate}] {ev.filter_id} {ev.verdict}: {ev.detail}")
        lines.append("")
        lines.append(f"final solutions: {len(self.final)}")
        for cand in self.final:
            lines.append(f"  [{cand.key()}] target: {cand.target or 'unidentified'}")
            for k in range(3, 8):
                splits = cand.admissible.get(k) or ()
                shown = " ".join(str(sp) for sp in splits)
                lines.append(f"    k={k}: {shown}")
            if cand.d is not None:
                torder = Fraction(cand.d, cand.e)
                lines.append(f"    d = {cand.d}, |T(target)| = d/e = {torder}")
            else:
                lines.append(f"    |T(target)| options: {cand.torsion_options}")
        for key, ct in self.thresholds:
            lines.append(f"canonical threshold ct(X, |6A|) at [{key}]: {ct}")
        for key, sol in self.contractions:
            gammas = " ".join(f"gamma{k}={g}" for k, g in sol.gammas)
            lines.append(
                f"second contraction at [{key}]: minimal delta = {sol.delta}, "
                f"b = {sol.b}, {gammas}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        return "\n".join(lines)

    def record(self) -> dict:
        """``link --json`` payload: the transcript text() renders, as a record."""
        return {
            "case": self.case.name,
            "center": self.case.description,
            "k": self.case.k,
            "alphas": [str(a) for a in self.case.alphas],
            "dims": {str(k): v for k, v in sorted(DIMS.items())},
            "bare": [c.record() for c in self.bare],
            "filter_log": [
                {"candidate": ev.candidate, "filter": ev.filter_id, "verdict": ev.verdict, "detail": ev.detail}
                for ev in self.events
            ],
            "final": [c.key() for c in self.final],
            "thresholds": {key: str(ct) for key, ct in self.thresholds},
            "second_contractions": {
                key: {"delta": sol.delta, "b": str(sol.b), "gammas": {str(k): str(g) for k, g in sol.gammas}}
                for key, sol in self.contractions
            },
            "notes": list(self.notes),
        }


def run_case(name: str) -> Transcript:
    """Enumerate, split, filter and report one center case, deterministically."""
    case = CASES[name.upper()]
    bare = enumerate_bare(case)
    for cand in bare:
        if not verify_equation(cand):
            raise AssertionError(f"candidate {cand.key()} fails its defining equation")
    events = apply_filters(bare)
    for cand in bare:
        if not verify_equation(cand):
            raise AssertionError(f"candidate {cand.key()} fails after split extension")
    final = [c for c in bare if c.status == "final"]

    thresholds: list[tuple[str, Fraction]] = []
    contractions: list[tuple[str, SecondContractionSolution]] = []
    for cand in final:
        if cand.birational:
            thresholds.append((cand.key(), canonical_threshold(cand)))
            s = {
                k: sps[0].s
                for k, sps in sorted(cand.admissible.items())
                if len(sps) == 1 and sps[0].s >= 1
            }
            if s:
                sols = second_contraction(
                    cand.e, cand.qhat, s, smooth_point=cand.target is not None
                )
                if sols:
                    contractions.append((cand.key(), sols[0]))

    notes: list[str] = []
    if name.upper() == "NG" and bare:
        forced = sorted({(c.qhat, c.alpha * c.e) for c in bare})
        if forced == [(11, Fraction(2))]:
            notes.append(
                "every bare solution satisfies qhat + alpha*e = 0 (mod 13) and is "
                "forced to qhat = 11, alpha*e = 2"
            )
        else:
            notes.append(f"bare (qhat, alpha*e) pairs: {forced}")
    extras = [c for c in bare if c.extra]
    for c in extras:
        notes.append(
            f"bare solution [{c.key()}] goes beyond the reference case list; "
            f"status: {c.status}"
            + (f" by {c.filter_id}" if c.filter_id else "")
        )
    return Transcript(
        case=case,
        bare=bare,
        events=events,
        final=final,
        thresholds=thresholds,
        contractions=contractions,
        notes=notes,
    )
