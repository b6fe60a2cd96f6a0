"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math

import numpy as np
from hodge_oracle import validate_diamond
from lie_oracles import negative, parabolic_data, plus, simple_roots, table_constant
from matrix_oracle import cayley_matrix

from flagdomains.chevalley import (
    jacobi_violations,
    structure_constants,
    verify_bracket_identities,
)
from flagdomains.cli import main as cli_main
from flagdomains.concavity import check_pseudoconcavity
from flagdomains.hodge import (
    DegenerationSpec,
    HodgeNumbers,
    group_of_period_domain,
    limit_diamond,
    period_report,
    sl2_cayley_checks,
)
from flagdomains.leviform import DefiningFunction, levi_analyze
from flagdomains.matrixrep import fundamental_rep, verify_cayley_conjugation, verify_fixed_point
from flagdomains.rootsys import (
    LieType,
    build_root_system,
    from_cartan_matrix,
    grading,
    root,
    root_string,
)

SO5_CARTAN = [[2, -1], [-2, 2]]


def done(num, text):
    print(f"criterion {num:02d} ({text}): PASS")


def test_c01_a2_grading_11_reproduction(capsys):
    rs = build_root_system(LieType("A", 2))
    report = check_pseudoconcavity(rs, grading((1, 1)))
    assert report.satisfied
    assert {rs.roots[j].coeffs for j in report.witnesses} == {(1, 1)}
    assert all(rs.roots[j].coeffs in ((1, 1), (-1, -1)) for j in report.witnesses)
    assert {rs.roots[i].coeffs for i in report.noncompact_negatives} == {(-1, 0), (0, -1)}
    code = cli_main(["theorem1", "--family", "A", "--rank", "2", "--grading", "1,1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is True and doc["witnesses"] == [[1, 1]]
    done(1, "A2 grading (1,1) pseudoconcave with witness s1+s2")


def test_c02_so5_labeling_reproduction():
    rs = from_cartan_matrix(SO5_CARTAN)
    report = check_pseudoconcavity(rs, grading((1, 0)))
    assert report.satisfied
    assert {rs.roots[j].coeffs for j in report.witnesses} == {(2, 1)}
    assert all(rs.roots[j].coeffs in ((2, 1), (-2, -1)) for j in report.witnesses)
    assert {rs.roots[i].coeffs for i in report.noncompact_negatives} == {(-1, 0), (-1, -1)}
    done(2, "so(5)-labeled grading (1,0) pseudoconcave with witness 2s1+s2")


def test_c03_c2_grading_11_not_satisfied():
    rs = build_root_system(LieType("C", 2))
    report = check_pseudoconcavity(rs, grading((1, 1)))
    assert not report.satisfied and report.witnesses == ()
    i, j = rs.roots.index(root((0, -1))), rs.roots.index(root((1, 1)))
    by_alpha = {tuple(v["alpha"]): v for v in report.detail[j]}
    v = by_alpha[(0, -1)]
    assert v["verdict"] == "OK_TYPE_B"
    assert (v["r"], v["q"]) == (0, 2)
    r, q, top = root_string(rs, i, j)
    members = (rs.roots[i], rs.roots[rs.add[i][j]], rs.roots[top])
    assert (r, q) == (0, 2) and [m.coeffs for m in members] == [(0, -1), (1, 0), (2, 1)]
    for verdicts in report.detail.values():
        for v in verdicts:
            if v["alpha"] == [-1, 0]:
                assert v["verdict"] == "FAIL"
    done(3, "C2 grading (1,1) not satisfied; -s2 certified, -s1 fails everywhere")


def test_c04_chevalley_property_suite():
    keys = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 4)]
    for fam, rank in keys:
        rs = build_root_system(LieType(fam, rank))
        cc = structure_constants(rs)
        for i, a in enumerate(rs.roots):
            for j, b in enumerate(rs.roots):
                s = plus(a, b)
                if not any(s.coeffs) or s not in rs.roots:
                    continue
                c = table_constant(cc, a, b)
                assert c == -table_constant(cc, b, a)
                assert c == -table_constant(cc, negative(a), negative(b))
                assert abs(c) == root_string(rs, i, j)[0] + 1
        assert jacobi_violations(cc) == []
        report = verify_bracket_identities(cc)
        assert report.violations == []
    done(4, "chevalley suite on A1-A3, B2, C2, D4 with zero violations")


def test_c05_cayley_conjugation_suite():
    for fam, rank in [("A", 2), ("A", 3), ("B", 2), ("C", 2)]:
        lines = verify_cayley_conjugation(fundamental_rep(build_root_system(LieType(fam, rank))))
        assert lines
        for chk in lines:
            assert chk["residual"] < 1e-9
            assert chk["sign"] in (1, -1)
            assert chk["info"]["target"] == chk["info"]["expected"]
    done(5, "squared-Cayley conjugation on every eligible pair, residual < 1e-9")


def test_c06_rank1_cayley_matrix():
    rs = build_root_system(LieType("A", 1))
    rep = fundamental_rep(rs)
    alpha = simple_roots(rs)[0]
    c = cayley_matrix(rep, alpha)
    want = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2)
    assert np.max(np.abs(c - want)) < 1e-12
    o = np.array([1.0, 0.0], dtype=complex)
    c_o = c @ o
    assert abs(c_o[0] - c_o[1]) < 1e-12 and abs(c_o[0]) > 0.1
    c2_o = c @ c @ o
    assert abs(c2_o[0]) < 1e-12 and abs(c2_o[1]) > 0.1
    done(6, "rank-1 Cayley matrix and the moved flags (1,1), (0,1)")


def test_c07_fixed_point_certificates():
    cases = [
        (build_root_system(LieType("A", 2)), grading((1, 1)), root((1, 1))),
        (from_cartan_matrix(SO5_CARTAN), grading((1, 0)), root((2, 1))),
    ]
    for rs, e, beta in cases:
        report = check_pseudoconcavity(rs, e)
        lines = verify_fixed_point(fundamental_rep(rs), report, (0.01, 0.1, 1.0))
        assert [chk["claim"] for chk in lines] == [
            f"cayley-fixed-point beta={beta} eps={eps}" for eps in (0.01, 0.1, 1.0)
        ]
        assert all(chk["pass"] and chk["residual"] < 1e-9 for chk in lines)
    done(7, "conjugated neighborhood generators in P for eps 0.01, 0.1, 1.0")


def test_c08_sl2_cayley_closed_forms():
    for kind in ("I", "II"):
        checks = sl2_cayley_checks(kind)
        assert all(c["pass"] and c["residual"] == 0.0 for c in checks)
    names = {c["claim"] for c in sl2_cayley_checks("II")}
    assert any("d(N^2 v)" in n for n in names)
    done(8, "sl2 Cayley closed forms hold exactly over the Gaussian rationals")


def test_c09_weight3_degenerations():
    h = HodgeNumbers.from_descending(3, [1, 1, 1, 1])
    degenerations = period_report(h)["degenerations"]
    assert [(d["spec"]["kind"], d["spec"]["p0"]) for d in degenerations] == [("I", 0), ("I", 1)]
    verdicts = {d["spec"]["p0"]: d["boundary"] for d in degenerations}
    assert verdicts[1]["condition_met"] and verdicts[1]["witness_p"] == 3
    assert not verdicts[0]["condition_met"]
    for d in degenerations:
        spec = DegenerationSpec(**d["spec"])
        dia = limit_diamond(h, spec)
        assert validate_diamond(h, spec, dia) == []
        assert sum(dia["entries"].values()) == 4
    done(9, "weight-3 minimal degenerations: two shapes, met / not met")


def test_c10_group_formulas_and_dimension():
    h3 = HodgeNumbers.from_descending(3, [1, 1, 1, 1])
    g3 = group_of_period_domain(h3)
    assert g3["family"] == "symplectic" and g3["parameters"] == [2]
    h2 = HodgeNumbers.from_descending(2, [2, 1, 2])
    g2 = group_of_period_domain(h2)
    assert g2["family"] == "indefinite-orthogonal" and g2["parameters"] == [4, 1]
    assert g2["note"] is not None and "SO(2,1)" in g2["note"]
    rs = from_cartan_matrix(SO5_CARTAN)
    assert parabolic_data(rs, grading((1, 0))).dim_domain == 3
    done(10, "group formulas with the SO(4,1) note and dim check = 3")


def test_c11_levi_suite():
    def modulus(k, c):
        unit = [1 if i == k else 0 for i in range(3)]
        return {"c": c, "z": unit, "zbar": unit}

    def ball(sign):
        terms = [modulus(k, sign) for k in range(3)] + [{"c": -sign}]
        return DefiningFunction.from_polynomial(3, [1, 0, 0], terms)

    inside = levi_analyze(ball(1.0))
    assert inside["negatives"] == 0 and not inside["pseudoconcave_point"]
    assert np.allclose(inside["eigenvalues"], [1.0, 1.0], rtol=0, atol=1e-12)
    outside = levi_analyze(ball(-1.0))
    assert outside["negatives"] == 2 and outside["pseudoconcave_point"]
    assert np.allclose(outside["eigenvalues"], [-1.0, -1.0], rtol=0, atol=1e-12)
    lam2, lam3 = -2.0, 3.0
    # 2 Re z_1 + lam2 |z_2|^2 + lam3 |z_3|^2
    terms = [{"c": 2, "z": [1, 0, 0]}, modulus(1, lam2), modulus(2, lam3)]
    normal = levi_analyze(DefiningFunction.from_polynomial(3, [0, 0, 0], terms))
    assert normal["negatives"] == 1 and normal["pseudoconcave_point"]
    assert np.allclose(normal["eigenvalues"], [lam2, lam3], rtol=0, atol=1e-12)
    done(11, "Levi signatures for ball, complement and normal form within 1e-12")
