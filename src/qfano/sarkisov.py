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

The equations are solved in integers. With D = den alpha and the class
representative rep = rep_D / D in [0, 1) (rep is t * alpha mod 1, so den rep
divides D), write beta_k = (rep_D + m * D) / D with m >= m_min. The ints
c = D * (13 * rep - k * alpha), rep_D and m_min are computed once per
(alpha, k), and the equation reads

    k * qhat * D - c * e = 13 * D * (s_k + m * e).

So e must solve c * e = k * qhat * D (mod 13 * D): with g = gcd(c, 13 * D)
there is no such e unless g divides k * qhat * D, and otherwise e runs over
one residue class mod 13 * D / g, found by one modular inverse per alpha.
enumerate_bare visits only that class up to the bound on e, and a Fraction
is built only for a split that is returned. Once the filters have added
theirs, run_case re-checks every split exactly with verify_equation, as
an identity over den(alpha) * den(beta).

The second contraction's conditions, e * gamma_k = s_k * delta - k and,
over a smooth point, e * b = qhat * delta - 13, are congruences c * delta
= k (mod e), each true on one class of delta mod e / gcd(c, e) or never.
second_contraction meets them one at a time, so the admissible delta form
one class mod period = lcm(e / gcd(c, e)), or none. As gamma_k >= 0 once
delta >= ceil(k / s_k) (an s_k < 1 admits no delta), the least one lies
within one period past that bound; no delta is searched.

Candidates are then run through individually attributable filters. Each
filter yields its verdict as one event, which feeds both the filter log and
the candidate (an eliminated one takes its status, filter and reason from
that same event):

  F1 torsion      the exceptional class forces |T(target)| = d/e with
                  d >= 3; the admissible torsion orders per qhat come from
                  the torsion table below, which has no rows for qhat <= 3:
                  a birational candidate there passes F1 and skips F2.
  F2 genus        when alpha < 1 the target genus is at least 4, killing
                  torsion rows with smaller recorded genus.
  F3 effectivity  every k in 3..7 needs an integral split; when qhat pins
                  the target space (the TARGETS table), each split must
                  satisfy h^0(target, s_k A) >= dim|kA| + 1, which for
                  s_k = 0 (h^0 = 1) means dim|kA| = 0.
  F4 geometric    eliminations that rest on geometry this module does not
                  mechanize; recorded with their numeric sub-steps so the
                  transcript stays honest about what is machine-checked.

Bare solutions are kept apart from filtered ones; one beyond the reference
list is flagged, never dropped; a fiber-type one's key ends in "fiber-type".

run_case keeps one transcript per CenterCase value ("p3" and "P3" share it, a patched
case gets its own, a run that raises stores none) in a ``series.memo``, on ``series.keep``'s bound.
A CenterCase key hashes on its name, r and k alone, none of them a Fraction, and equality
still compares every field: a memo hit costs a dict lookup and hashes no Fraction.
Candidates and transcripts are values; a transcript renders its text once.
"""

from __future__ import annotations

import math
import operator
import types
from collections import namedtuple
from fractions import Fraction

from . import wps
from .wps import ALLOWED_FANO_INDICES

class InvalidIndex(ValueError):
    """qhat outside the admissible Fano index set (or below 4 for torsion data)."""


class Infeasible(ValueError):
    """A candidate admits no (s_k, beta_k) split for the requested k."""


class UndefinedThreshold(ValueError):
    """Canonical threshold alpha/beta_6 undefined because beta_6 = 0."""


X12 = wps.HypersurfaceShape((3, 4, 5, 6, 7), 12)
Q = wps.fano_index(X12)  # the index of the threefold whose links are being classified
DIMS = {k: wps.hilbert(X12, k)[k] - 1 for k in X12.weights}  # dim |kA| at each generator degree
_CT_DEGREE = 6  # ct(X, |6A|) = alpha / beta_6, and ct <= 1/2 forces beta_6 >= 2 * alpha

# Target spaces F3 can pin, by index, as weights. At 19 and 17 the index
# alone names the space; at 11 and 7 a split must also carry an effective
# pencil of 2A (s = 2) or a second effective member of |A| (s = 1) for some
# k with dim|kA| >= 1. Every row is recorded, not mechanized here, like F4.
TARGETS = {19: (3, 4, 5, 7), 17: (2, 3, 5, 7), 11: (1, 2, 3, 5), 7: (1, 1, 2, 3)}


class TorsionRow(namedtuple("TorsionRow", "t basket a3 genus", defaults=(None, None, None))):
    """One admissible torsion order t for a target index, with its known data, if any."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.basket is None:
            return f"|T|={self.t}"
        return f"(|T|={self.t}, basket {self.basket}, A3={self.a3}, g={self.genus})"


# Admissible |T(target)| rows by target index; every other index >= 4 has |T| = 1 only
TORSION = {
    4: (
        TorsionRow(1),
        TorsionRow(3, (9, 9), Fraction(1, 9), 3),
        TorsionRow(5, (5, 5, 5, 5), Fraction(1, 5), 5),
    ),
    5: (TorsionRow(1), TorsionRow(3, (2, 9, 9), Fraction(1, 18), 2)),
    7: (TorsionRow(1), TorsionRow(2)),
}


def torsion_table(qhat: int) -> tuple[TorsionRow, ...]:
    """Admissible |T(target)| rows for a Q-Fano target of index qhat >= 4."""
    if operator.index(qhat) not in ALLOWED_FANO_INDICES:
        raise InvalidIndex(f"index {qhat} outside the admissible set")
    if qhat < 4:
        raise InvalidIndex(f"torsion constraints are tabulated for qhat >= 4, got {qhat}")
    return TORSION.get(qhat, (TorsionRow(1),))


def beta_congruence(q: int, r: int, k: int) -> int:
    """Residue t with beta_k = t * alpha (mod 1) over an index-r center."""
    if math.gcd(q, r) != 1:
        raise ValueError(f"q={q} and r={r} must be coprime")
    return (k * pow(q, -1, r)) % r


class CenterCase(namedtuple("CenterCase", "name description r alphas k reference_bare")):
    """One center type for the blowup starting the link: r is the index of the blown-up
    point (None for NG), k the linear-system degree governing the enumeration, and
    reference_bare the expected bare solutions as (alpha, qhat, e). Equal only to a
    CenterCase, not to the plain tuple of its fields, and hashed on (name, r, k) (module doc).
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:  # else tuple's own != compares the fields alone
        return not self == other

    def __hash__(self) -> int:
        return hash((self.name, self.r, self.k))


CASES: dict[str, CenterCase] = {
    "NG": CenterCase(
        "NG",
        "curve or Gorenstein point (integral discrepancy)",
        None,
        # _e_bound at k = 6, beta_6 = 2*alpha: 6*19 >= (2*Q - 6)*alpha*e, so alpha <= 5
        tuple(map(Fraction, range(1, 1 + _CT_DEGREE * max(ALLOWED_FANO_INDICES)
                                  // (2 * Q - _CT_DEGREE)))),
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


class Split(namedtuple("Split", "s beta")):
    """One non-negative solution (s_k, beta_k) of the degree-k equation."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"(s={self.s}, beta={self.beta})"

    def record(self) -> dict:
        return {"s": self.s, "beta": str(self.beta)}


class LinkCandidate(namedtuple("LinkCandidate", "case alpha qhat e birational splits admissible "
                               "status filter_id reason target d torsion_options extra")):
    """One bare solution of the governing equation and what the filters found: a value.

    status is bare, eliminated or final; splits and admissible are read-only maps.
    """

    __slots__ = ()
    _make = wps._checked_make

    def __new__(cls, case: CenterCase, alpha: Fraction, qhat: int, e: int, birational: bool,
                splits=None, admissible=None, status="bare", filter_id=None, reason=None,
                target=None, d=None, torsion_options=(), extra=False) -> LinkCandidate:
        if not isinstance(alpha, (int, Fraction)) or type(birational) is not bool:
            raise TypeError(f"alpha {alpha!r} must be a Fraction or an int, "
                            f"birational {birational!r} a bool")
        qhat, e = operator.index(qhat), operator.index(e)
        if not isinstance(case, CenterCase):
            raise TypeError(f"case {case!r} must be a CenterCase")
        splits = types.MappingProxyType(dict(splits or {}))
        admissible = types.MappingProxyType(dict(admissible or {}))
        self = super().__new__(cls, case, alpha, qhat, e, birational, splits, admissible, status,
                               filter_id, reason, target, d, tuple(torsion_options), extra)
        if qhat not in ALLOWED_FANO_INDICES or alpha <= 0 or e < 1:
            raise ValueError(f"{self.key()}: qhat must be admissible, alpha > 0 and e must be >= 1")
        return self

    def key(self) -> str:
        """Name in transcripts and logs; a fiber-type candidate's ends in "fiber-type"."""
        fiber = "" if self.birational else " fiber-type"
        return f"alpha={self.alpha} qhat={self.qhat} e={self.e}{fiber}"

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


_Equation = tuple[int, int, int, int]  # (D, c, rep_D, m_min), see _equation


def _equation(case: CenterCase, alpha: Fraction, k: int) -> _Equation:
    """Integer constants (D, c, rep_D, m_min) of the degree-k equation at alpha.

    D = den alpha, beta_k = (rep_D + m * D) / D with m >= m_min, where
    rep_D = (k * 13^-1 mod r) * num alpha mod D, and c = Q * rep_D - k * num
    alpha, so the equation reads k * qhat * D - c * e = 13 * D * (s_k + m * e).
    """
    D, alpha_D = alpha.denominator, alpha.numerator
    # a Cartier center (r None) has beta integral
    rep_D = 0 if case.r is None else beta_congruence(Q, case.r, k) * alpha_D % D
    # canonical threshold <= 1/2 forces beta_6 >= 2*alpha: m >= ceil(2*alpha - rep)
    m_min = max(0, -((rep_D - 2 * alpha_D) // D)) if k == _CT_DEGREE else 0
    return D, Q * rep_D - k * alpha_D, rep_D, m_min


def _solve_splits(
    equation: _Equation, qhat: int, e: int, k: int, birational: bool
) -> tuple[Split, ...]:
    """All admissible (s_k, beta_k) with k*qhat = Q*s + (Q*beta - k*alpha)*e."""
    D, c, rep_D, m_min = equation
    lhs = k * qhat * D - c * e
    if lhs < 0 or lhs % (Q * D):
        return ()
    reach = lhs // (Q * D)  # equals s + m*e
    s_min = 1 if (birational and DIMS[k] >= 1) else 0
    m_max = (reach - s_min) // e  # last m with s = reach - m*e >= s_min
    return tuple(
        Split(reach - m * e, Fraction(rep_D + m * D, D)) for m in range(m_min, m_max + 1)
    )


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
    k = case.k
    found: list[LinkCandidate] = []
    for alpha in case.alphas:
        equation = D, c, _, _ = _equation(case, alpha, k)
        e_max = _e_bound(case, alpha, equation)
        reference = {(qhat, e) for a, qhat, e in case.reference_bare if a == alpha}
        # c * e = k * qhat * D (mod Q * D) is solvable iff g divides k * qhat * D,
        # and then fixes e mod step
        g = math.gcd(c, Q * D)
        step = Q * D // g
        inverse = pow(c // g, -1, step)
        for birational, qhats in ((True, ALLOWED_FANO_INDICES), (False, (1, 2, 3))):
            for qhat in qhats:
                rhs = k * qhat * D
                if rhs % g:
                    continue
                for e in range(rhs // g * inverse % step or step, e_max + 1, step):
                    splits = _solve_splits(equation, qhat, e, k, birational)
                    if splits:
                        found.append(LinkCandidate(case, alpha, qhat, e, birational,
                                                   {k: splits}, extra=(qhat, e) not in reference))
    return sorted(found, key=LinkCandidate.sort_key)


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


def verify_equation(candidate: LinkCandidate) -> bool:
    """Re-check every recorded split against its defining equation, exactly."""
    a, a_den = candidate.alpha.numerator, candidate.alpha.denominator
    for k, splits in candidate.splits.items():
        for sp in splits:
            # k*qhat = Q*s + (Q*beta - k*alpha)*e, both sides times den(alpha)*den(beta)
            b, b_den = sp.beta.numerator, sp.beta.denominator
            slope = Q * b * a_den - k * a * b_den
            if (k * candidate.qhat - Q * sp.s) * a_den * b_den != slope * candidate.e:
                return False
    return True


def _pin_target(qhat: int, splits: dict[int, tuple[Split, ...]]) -> tuple[int, ...] | None:
    """Weights of the target space, when qhat and the splits pin it (TARGETS)."""
    s = {11: 2, 7: 1}.get(qhat)
    if s is not None and not any(
        DIMS[k] >= 1 and any(sp.s == s for sp in sps)
        for k, sps in splits.items()
    ):
        return None
    return TARGETS.get(qhat)


# one filter's verdict ("pass" or "eliminated") on one candidate, by key
FilterEvent = namedtuple("FilterEvent", "candidate filter_id verdict detail")


class SecondContractionSolution(namedtuple("SecondContractionSolution", "delta b gammas period")):
    """The least admissible multiplicity vector of the link's second contraction;
    the admissible delta are exactly delta + j * period for j >= 0."""

    __slots__ = ()


def second_contraction(
    e: int, qhat: int, s: dict[int, int], smooth_point: bool = True
) -> SecondContractionSolution | None:
    """The least delta >= 1 solving e*gamma_k = s_k*delta - k and e*b = qhat*delta - 13.

    Every gamma_k must be a non-negative integer, and b an integer when the
    contracted point is smooth. The congruences are solved as the module
    docstring says; None when no delta is admissible.
    """
    if e < 1 or min(s, default=1) < 1:
        raise ValueError("e and every degree k must be >= 1")
    if min(s.values(), default=1) < 1:
        return None  # gamma_k = (s_k*delta - k)/e < 0 for every delta >= 1
    delta, period = 0, 1  # the delta meeting the conditions so far are delta + j*period
    for c, k in [(s_k, k) for k, s_k in s.items()] + ([(qhat, Q)] if smooth_point else []):
        # c*(delta + j*period) = k (mod e) holds on one class of j mod e/g, or never
        g = math.gcd(c * period, e)
        if (k - c * delta) % g:
            return None
        delta += (k - c * delta) // g * pow(c * period // g, -1, e // g) % (e // g) * period
        period *= e // g
    low = max([1, *(-(-k // s_k) for k, s_k in s.items())])  # gamma_k >= 0 from low on
    delta = low + (delta - low) % period
    gammas = tuple((k, (s_k * delta - k) // e) for k, s_k in sorted(s.items()))
    return SecondContractionSolution(delta, Fraction(qhat * delta - Q, e), gammas, period)


def canonical_threshold(candidate: LinkCandidate) -> Fraction:
    """alpha / beta_6 with the least beta_6 of the admissible splits the filters recorded."""
    splits = candidate.admissible.get(_CT_DEGREE)
    if not splits:
        raise Infeasible(f"no (s_6, beta_6) split for {candidate.key()} in case "
                         f"{candidate.case.name} among the admissible splits the filters recorded")
    beta6 = min(sp.beta for sp in splits)
    if beta6 == 0:
        raise UndefinedThreshold("beta_6 = 0: threshold alpha/beta_6 undefined")
    return candidate.alpha / beta6


def _forced_s(admissible: dict[int, tuple[Split, ...]]) -> dict[int, int]:
    """s_k for every k whose one admissible split has s_k >= 1."""
    return {
        k: sps[0].s
        for k, sps in sorted(admissible.items())
        if len(sps) == 1 and sps[0].s >= 1
    }


# geometric eliminations this module records but does not mechanize
def _f4_reason(candidate: LinkCandidate, admissible: dict[int, tuple[Split, ...]]) -> str | None:
    key = (candidate.case.name, candidate.qhat, candidate.e)
    if key == ("P3", 4, 1) and candidate.alpha == Fraction(1, 3):
        return (
            "numeric filters leave torsion row (|T|=5, basket (5,5,5,5), "
            "A3=1/5, g=5) alive; the elimination of this row rests on a "
            "geometric classification argument not mechanized here"
        )
    if key == ("P5", 17, 6) and candidate.alpha == Fraction(1, 5):
        sol = second_contraction(6, 17, _forced_s(admissible))
        if sol is None:
            raise AssertionError(
                f"F4 for {candidate.key()}: the second contraction its note records has no solution"
            )
        return (
            "second contraction over a smooth target point forces minimal delta = "
            f"{sol.delta} (delta = {sol.delta} mod {sol.period} forced by integrality) "
            f"with b = {sol.b} > 3; "
            "base-locus tracking then places the contracted point at the "
            "index-7 point of P(2,3,5,7), contradicting smoothness - a "
            "geometric step not mechanized here"
        )
    return None


def _rows(rows) -> str:
    return "{" + ", ".join(map(str, rows)) + "}"


def _filter_chain(cand: LinkCandidate, notes: dict):
    """Yield (filter_id, verdict, detail) for one candidate in transcript order.

    F1 to F4 run in turn and the chain stops at the first elimination; a
    survivor ends with a "final" pass, a fiber-type candidate with a "none"
    pass. The torsion options, every k's splits, target and d found on the way
    go into notes, by field name.
    """
    if not cand.birational:
        yield "none", "pass", "fiber-type contraction: no torsion or effectivity data applies"
        return

    # F1: |T(target)| = d/e with d >= 3 must be admissible for qhat
    kept = []
    if cand.qhat <= 3:
        yield "F1", "pass", "no torsion rows are tabulated for qhat <= 3"
    else:
        rows = torsion_table(cand.qhat)
        kept = [row for row in rows if row.t * cand.e >= 3]
        if not kept:
            yield "F1", "eliminated", (
                f"|T| = d/e with d >= 3 needs |T| >= 3/{cand.e}; admissible rows "
                f"for qhat={cand.qhat} are {_rows(rows)}"
            )
            return
        yield "F1", "pass", f"rows satisfying |T|*e >= 3: {_rows(kept)}"

    # F2: alpha < 1 forces target genus >= 4, on the rows F1 kept
    if cand.alpha < 1 and kept:
        dropped = [row for row in kept if row.genus is not None and row.genus < 4]
        if dropped == kept:
            yield "F2", "eliminated", (
                f"alpha < 1 forces g(target) >= 4, killing every remaining row: {_rows(kept)}"
            )
            return
        if dropped:
            yield "F2", "pass", f"dropped rows with g < 4: {_rows(dropped)}"
            kept = [row for row in kept if row not in dropped]
    torsion = notes["torsion_options"] = tuple(sorted(row.t for row in kept))

    # full split data for every k (the transcript shows it all)
    splits = dict(cand.splits)
    for k in DIMS:
        if k not in splits:
            equation = _equation(cand.case, cand.alpha, k)
            splits[k] = _solve_splits(equation, cand.qhat, cand.e, k, cand.birational)
    notes["splits"] = notes["admissible"] = effective = splits

    # F3: every k needs a split, and on a pinned target an effective one
    weights = _pin_target(cand.qhat, splits)
    if weights is not None:
        name = notes["target"] = f"P({','.join(map(str, weights))})"
        top = max((sp.s for sps in splits.values() for sp in sps), default=0)
        h0 = wps.hilbert(wps.HypersurfaceShape(weights), top).coefficients
        effective = {k: tuple(sp for sp in splits[k] if h0[sp.s] >= DIMS[k] + 1) for k in DIMS}
    k = next((k for k in DIMS if not effective[k]), None)
    if k is not None:
        detail = "no integral split at all"
        if splits[k]:
            shown = ", ".join(
                f"h0({name}, {sp.s}*A) = {h0[sp.s]}" for sp in splits[k] if sp.s > 0
            ) or "only s=0 splits while dim|kA| > 0"
            detail = f"every split fails h0 >= dim|{k}A|+1 = {DIMS[k] + 1}: {shown}"
        yield "F3", "eliminated", f"k={k}: {detail}"
        return
    if weights is not None:
        notes["admissible"] = effective
        yield "F3", "pass", f"target {name}: all k admit effective splits"

    # F4: geometric eliminations, recorded with their numeric sub-steps
    reason = _f4_reason(cand, effective)
    if reason is not None:
        yield "F4", "eliminated", reason
        return

    # |T| = 1 gives d = e; otherwise the unique member of a system with s = 0
    # is the contracted divisor
    notes["d"] = cand.e if torsion == (1,) else next(
        (k for k in DIMS if [sp.s for sp in effective[k]] == [0]), None
    )
    yield "final", "pass", f"survives all filters; target {notes.get('target', 'unidentified')}"


def apply_filters(candidates: list[LinkCandidate]) -> list[FilterEvent]:
    """Put each candidate's copy, annotated with its verdict, in its place; return the log.

    Candidates are visited in the order given, filters in order F1 to F4;
    the first one that fires is the single filter an eliminated candidate cites.
    """
    events: list[FilterEvent] = []
    for i, cand in enumerate(candidates):
        key, notes = cand.key(), {}
        for fid, verdict, detail in _filter_chain(cand, notes):
            events.append(FilterEvent(key, fid, verdict, detail))
        # the chain's last event is the candidate's verdict
        if verdict == "eliminated":
            notes.update(status=verdict, filter_id=fid, reason=detail)
        else:
            notes["status"] = "final"
            if fid == "none":  # a fiber-type candidate keeps why no filter applied
                notes["reason"] = detail
        candidates[i] = cand._replace(**notes)
    return events


class Transcript(namedtuple("Transcript", "case bare events final thresholds contractions notes")):
    """Ordered record of one case: bare set, filter log, final set, extras; a value."""

    _make = wps._checked_make

    def __new__(cls, case: CenterCase, *fields) -> Transcript:
        return super().__new__(cls, case, *map(tuple, fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"case {self.case.name}: a transcript is read-only")

    def text(self) -> str:
        """The transcript as ``link`` prints it, rendered on the first call only."""
        if self.__dict__:  # nothing else can be assigned, so this holds _text
            return self._text
        case = self.case
        lines = [f"=== sarkisov case {case.name} ==="]
        lines.append(f"center: {case.description}")
        lines.append("alpha values: " + ", ".join(str(a) for a in case.alphas))
        lines.append(
            f"governing equation (k={case.k}): "
            f"{case.k}*qhat = {Q}*s{case.k} + ({Q}*beta{case.k} - {case.k}*alpha)*e"
        )
        for alpha in case.alphas:
            D, _, rep_D, _ = _equation(case, alpha, case.k)
            rep = Fraction(rep_D, D)  # the class's representative in [0, 1)
            lines.append(f"beta{case.k} congruence class at alpha={alpha}: {rep} (mod 1)")
        lines.append("dim |kA|: " + " ".join(f"{k}:{dim}" for k, dim in DIMS.items()))
        lines.append(
            "admissible qhat: "
            + " ".join(str(q) for q in ALLOWED_FANO_INDICES)
            + " (fiber type only for qhat <= 3)"
        )
        lines += ["", f"bare solutions: {len(self.bare)}"]
        for cand in self.bare:
            flag = "  [extra: beyond the reference solution list]" if cand.extra else ""
            splits = " ".join(str(sp) for sp in cand.splits[case.k])
            lines.append(f"  [{cand.key()}] splits k={case.k}: {splits}{flag}")
        lines += ["", "filter log:"]
        if not self.events:
            lines.append("  (no candidates)")
        for ev in self.events:
            lines.append(f"  [{ev.candidate}] {ev.filter_id} {ev.verdict}: {ev.detail}")
        lines += ["", f"final solutions: {len(self.final)}"]
        for cand in self.final:
            lines.append(f"  [{cand.key()}] target: {cand.target or 'unidentified'}")
            if not cand.birational:  # no filter ran: the reason apply_filters recorded
                lines.append(f"    {cand.reason}")
                continue
            lines += [f"    k={k}: " + " ".join(map(str, cand.admissible[k])) for k in DIMS]
            if cand.d is not None:
                lines.append(f"    d = {cand.d}, |T(target)| = d/e = {Fraction(cand.d, cand.e)}")
            else:
                lines.append(f"    |T(target)| options: {cand.torsion_options}")
        for key, ct in self.thresholds:
            lines.append(f"canonical threshold ct(X, |{_CT_DEGREE}A|) at [{key}]: {ct}")
        for key, sol in self.contractions:
            gammas = " ".join(f"gamma{k}={g}" for k, g in sol.gammas)
            lines.append(
                f"second contraction at [{key}]: minimal delta = {sol.delta}, "
                f"b = {sol.b}, {gammas}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        self.__dict__["_text"] = text = "\n".join(lines)
        return text

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
                {
                    "candidate": ev.candidate, "filter": ev.filter_id,
                    "verdict": ev.verdict, "detail": ev.detail,
                }
                for ev in self.events
            ],
            "final": [c.key() for c in self.final],
            "thresholds": {key: str(ct) for key, ct in self.thresholds},
            "second_contractions": {
                key: {
                    "delta": sol.delta, "b": str(sol.b),
                    "gammas": {str(k): str(g) for k, g in sol.gammas},
                }
                for key, sol in self.contractions
            },
            "notes": list(self.notes),
        }


_TRANSCRIPTS: dict[CenterCase, Transcript] = wps.memo()  # run_case's transcripts, by case


def run_case(name: str) -> Transcript:
    """Enumerate, split, filter and report one center case, deterministically, once while kept."""
    case = CASES[name.upper()]
    transcript = _TRANSCRIPTS.get(case)
    if transcript is not None:
        return transcript
    bare = enumerate_bare(case)
    events = apply_filters(bare)
    # one exact re-check covers every split, the solver's and the filters' alike
    for cand in bare:
        if not verify_equation(cand):
            raise AssertionError(f"candidate {cand.key()} fails after split extension")
    final = [c for c in bare if c.status == "final"]

    thresholds: list[tuple[str, Fraction]] = []
    contractions: list[tuple[str, SecondContractionSolution]] = []
    for cand in final:
        if cand.birational:
            thresholds.append((cand.key(), canonical_threshold(cand)))
            s = _forced_s(cand.admissible)
            sol = second_contraction(cand.e, cand.qhat, s, cand.target is not None) if s else None
            if sol:
                contractions.append((cand.key(), sol))

    notes: list[str] = []
    if case.name == "NG" and bare:
        forced = sorted({(c.qhat, c.alpha * c.e) for c in bare})
        if forced == [(11, Fraction(2))]:
            notes.append(
                f"every bare solution satisfies qhat + alpha*e = 0 (mod {Q}) and is "
                "forced to qhat = 11, alpha*e = 2"
            )
        else:
            pairs = ", ".join(f"({q}, {ae})" for q, ae in forced)
            notes.append(f"bare (qhat, alpha*e) pairs: {pairs}")
    extras = [c for c in bare if c.extra]
    for c in extras:
        notes.append(
            f"bare solution [{c.key()}] goes beyond the reference case list; "
            f"status: {c.status}"
            + (f" by {c.filter_id}" if c.filter_id else "")
        )
    transcript = Transcript(case, bare, events, final, thresholds, contractions, notes)
    return wps.keep(_TRANSCRIPTS, case, transcript)  # a raise stores nothing
