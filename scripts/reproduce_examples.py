#!/usr/bin/env python3
"""Recompute the worked examples end to end and print the reports.

Covers the three flag-domain analyses (the rank-two cases in both
orientations plus the symplectic rank-two case), the matching numeric
certificates, and the period-domain reports for weight 3 with Hodge
numbers (1,1,1,1) and weight 2 with (2,1,2).

Exits 1, naming each failed claim on stderr, when any certificate line it
prints (fixed-point, sl2 Cayley closed forms) has ``pass`` other than True;
0 otherwise.

    python scripts/reproduce_examples.py
"""

import json
import sys

from flagdomains.concavity import check_pseudoconcavity
from flagdomains.hodge import HodgeNumbers, period_report, sl2_cayley_checks
from flagdomains.leviform import DefiningFunction, levi_analyze
from flagdomains.matrixrep import fundamental_rep, verify_fixed_point
from flagdomains.rootsys import LieType, build_root_system, from_cartan_matrix, grading


def show(title, payload):
    print(f"== {title}")
    print(json.dumps(payload, sort_keys=True, indent=2))
    print()


def main() -> int:
    a2 = build_root_system(LieType("A", 2))
    show("su(2,1) picture: A2 with grading (1,1)",
         check_pseudoconcavity(a2, grading((1, 1))).to_json_dict())

    so5 = from_cartan_matrix([[2, -1], [-2, 2]])
    show("so(5) labeling: grading (1,0)",
         check_pseudoconcavity(so5, grading((1, 0))).to_json_dict())

    c2 = build_root_system(LieType("C", 2))
    show("sp(4) picture: C2 with grading (1,1)",
         check_pseudoconcavity(c2, grading((1, 1))).to_json_dict())

    # the fixed-point certificate gives one line per witness of the sweep and
    # eps; each of these sweeps has a single witness
    certificates = []
    for title, rs, coeffs in (("A2 witness (1,1)", a2, (1, 1)),
                              ("so(5) witness (2,1)", so5, (1, 0))):
        report = check_pseudoconcavity(rs, grading(coeffs))
        (line,) = verify_fixed_point(fundamental_rep(rs), report, [0.1])
        show(f"fixed-point certificate, {title}, eps=0.1", line)
        certificates.append(line)

    show("period domain, weight 3, h = (1,1,1,1)",
         period_report(HodgeNumbers.from_descending(3, [1, 1, 1, 1])))
    show("period domain, weight 2, h = (2,1,2)",
         period_report(HodgeNumbers.from_descending(2, [2, 1, 2])))

    for kind in ("I", "II"):
        lines = sl2_cayley_checks(kind)
        show(f"sl2 Cayley closed forms, type {kind}", lines)
        certificates += lines

    # |z|^2 - 1 on C^3
    terms = [{"c": 1, "z": e, "zbar": e} for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    ball = DefiningFunction.from_polynomial(3, [1, 0, 0], terms + [{"c": -1}])
    show("Levi form on the unit sphere from inside", levi_analyze(ball))

    failed = [line["claim"] for line in certificates if line["pass"] is not True]
    for claim in failed:
        print(f"FAILED: {claim}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
