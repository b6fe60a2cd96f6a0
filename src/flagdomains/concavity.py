"""Sufficient pseudoconcavity test for flag domains.

The criterion asks for a single compact root b such that, for every
noncompact root a of negative grading, the b-string through a is either
{a, a+b} with a+b in the parabolic or {a, a+b, a+2b} with a+2b in the
parabolic. The checker sweeps compact roots of both signs and keeps the
full per-root verdict trail, so a concrete witness is available to the
downstream matrix certificates.
"""

from __future__ import annotations

from typing import NamedTuple

from .realform import classify_roots
from .rootsys import GradingElement, RootSystem, root_string

# A string in a reduced root system has at most four roots (Humphreys,
# Introduction to Lie Algebras and Representation Theory, 9.4), so r + q <= 3
# names every shape a sweep can meet.
_SHAPE_FAILURES = {
    (r, q): f"string shape (r, q) = ({r}, {q})" for r in range(4) for q in range(4 - r)
}
_ENDPOINT_FAILURES = {
    1: "endpoint a+b has negative grading",
    2: "endpoint a+2b has negative grading",
}


class ConcavityReport(NamedTuple):
    """Verdict of the sweep, with every witness and the full detail map:
    each compact root to the JSON entries of its strings, in sweep order;
    rs and grading are the system and grading it was computed for. Every
    root is named by its index in ``rs.roots``. The entries of one report
    share their coefficient lists: every ``alpha`` or ``endpoint`` naming
    the same root is the same list, so treat the entries as read-only."""

    satisfied: bool
    witnesses: tuple[int, ...]
    noncompact_negatives: tuple[int, ...]
    detail: dict
    rs: RootSystem
    grading: GradingElement

    def to_json_dict(self) -> dict:
        roots, witnesses = self.rs.roots, set(self.witnesses)
        return {
            "satisfied": self.satisfied,
            "witnesses": [list(roots[j].coeffs) for j in self.witnesses],
            "noncompact_negatives": [
                list(roots[i].coeffs) for i in self.noncompact_negatives
            ],
            "detail": [
                {
                    "beta": list(roots[j].coeffs),
                    "is_witness": j in witnesses,
                    "verdicts": list(self.detail[j]),
                }
                for j in sorted(self.detail, key=roots.__getitem__)
            ],
        }


def check_pseudoconcavity(rs: RootSystem, e: GradingElement) -> ConcavityReport:
    """Sweep all compact roots for one that certifies every noncompact
    negative root, and report the witnesses with full detail."""
    if e.is_zero:
        raise ValueError("trivial grading defines no proper parabolic")
    if any(n < 0 for n in e.coeffs):
        raise ValueError("grading coefficients must be nonnegative")
    values = classify_roots(rs, e).values
    # one list per root per sweep, shared by every entry that names the root
    coeffs = [list(a.coeffs) for a in rs.roots]
    # the noncompact negative roots, in sweep order
    alphas = tuple(i for i, v in enumerate(values) if v % 2 and v < 0)
    detail: dict[int, tuple[dict, ...]] = {}
    witnesses = []
    for j, vb in enumerate(values):
        if vb % 2:
            continue
        verdicts = []
        certified = True
        for i in alphas:
            r, q, top = root_string(rs, i, j)
            # the grading is linear: the top alpha + q beta has value va + q vb
            endpoint_in_p = values[i] + q * vb >= 0
            # the two allowed shapes: (r, q) = (0, 1) or (0, 2)
            if r or not 0 < q < 3:
                verdict, reason, certified = "FAIL", _SHAPE_FAILURES[r, q], False
            elif endpoint_in_p:
                verdict, reason = ("OK_TYPE_A" if q == 1 else "OK_TYPE_B"), None
            else:
                verdict, reason, certified = "FAIL", _ENDPOINT_FAILURES[q], False
            verdicts.append({
                "alpha": coeffs[i],
                "r": r,
                "q": q,
                "endpoint": coeffs[top],
                "endpoint_in_p": endpoint_in_p,
                "verdict": verdict,
                "reason": reason,
            })
        detail[j] = tuple(verdicts)
        if certified:
            witnesses.append(j)
    return ConcavityReport(
        satisfied=bool(witnesses),
        witnesses=tuple(witnesses),
        noncompact_negatives=alphas,
        detail=detail,
        rs=rs,
        grading=e,
    )
