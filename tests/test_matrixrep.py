"""Matrix realizations, Cayley matrices and the numeric certificates."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import CLASSICAL, ORACLE_SYSTEMS
from lie_oracles import (
    cartan_integer,
    euclid_cartan_integer,
    euclid_roots,
    negative,
    plus,
    reference_eligible_pairs,
    simple_roots,
    table_constant,
    to_euclid,
)
from matrix_oracle import (
    FloatRealization,
    below_filtration,
    cartan_diagonal,
    cartan_element,
    coroot,
    cayley_check,
    cayley_matrix,
    dense,
    fixed_point_check,
    invariant_form,
    root_vector,
    shear_product,
    sparse,
    weyl_dense,
)

from flagdomains import chevalley, matrixrep
from flagdomains.chevalley import structure_constants
from flagdomains.cli import main as cli_main
from flagdomains.concavity import check_pseudoconcavity
from flagdomains.exact import combo, exp_nilpotent, product
from flagdomains.matrixrep import (
    MatrixRealization,
    WeylElement,
    fundamental_rep,
    verify_cayley_conjugation,
    verify_fixed_point,
)
from flagdomains.rootsys import (
    LieType,
    build_root_system,
    from_cartan_matrix,
    grading,
    root,
    root_string,
)

REP_SYSTEMS = CLASSICAL


@pytest.fixture(scope="module")
def reps(systems):
    return {key: fundamental_rep(rs) for key, rs in systems.items()}


def _cayley_line(rep, a, b) -> dict:
    """The prop33 line of the pair (a, b) of roots."""
    claim = f"cayley-conjugation a={a} b={b}"
    return next(chk for chk in verify_cayley_conjugation(rep) if chk["claim"] == claim)


def _bent(rep, x) -> MatrixRealization:
    """The root vectors x with rep's Weyl elements. verify_cayley_conjugation
    builds the Weyl element of every eligible b, and one built from a bent
    vector need not be a signed permutation; the pair under test bends no
    vector of its own b, so its Weyl element is the same either way."""
    bent = MatrixRealization(rep.rs, rep.dim, tuple(x))
    bent._weyl.update((j, rep.weyl(j)) for j in range(len(x)))
    return bent


@pytest.mark.parametrize("key", REP_SYSTEMS)
def test_bracket_relations_exact(key, systems, reps):
    rs = systems[key]
    rep = reps[key]
    cc = structure_constants(rs)
    x = FloatRealization(rep).x
    for a in rs.roots:
        ha = cartan_element(rep, a)
        comm = x[a] @ x[negative(a)] - x[negative(a)] @ x[a]
        assert np.linalg.norm(comm - ha) < 1e-12
        for s in simple_roots(rs):
            hs = dense(coroot(rep, s), rep.dim)
            comm = hs @ x[a] - x[a] @ hs
            assert np.linalg.norm(comm - cartan_integer(rs, a, s) * x[a]) < 1e-12
        for b in rs.roots:
            if not any(plus(a, b).coeffs):
                continue
            comm = x[a] @ x[b] - x[b] @ x[a]
            if plus(a, b) in rs.roots:
                c = table_constant(cc, a, b)
                assert np.linalg.norm(comm - c * x[plus(a, b)]) < 1e-12
            else:
                assert np.linalg.norm(comm) < 1e-12


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_root_vector_brackets_match_the_table_exactly(key):
    # [x^a, x^b] = c(a, b) x^{a+b} on the int matrices: the realization and
    # the table are built apart, each from the extraspecial pairs of rs.steps
    rs = build_root_system(LieType(*key))
    x, table, add = fundamental_rep(rs).x, structure_constants(rs).table, rs.add
    for i, j in itertools.product(range(len(rs.roots)), repeat=2):
        if i == rs.neg[j]:
            continue
        bracket = combo((1, product(x[i], x[j])), (-1, product(x[j], x[i])))
        k = add[i][j]
        assert bracket == (combo((table[i][j], x[k])) if k >= 0 else {}), (i, j)
        assert (k >= 0) == bool(bracket)


@pytest.mark.parametrize(
    "key", [("A", 6), ("B", 6), ("C", 6), ("D", 6)], ids=lambda k: f"{k[0]}{k[1]}"
)
def test_the_realization_reads_one_string_per_step_and_no_constants_table(monkeypatch, key):
    rs = build_root_system(LieType(*key))
    strings = []

    def counting(*args):
        strings.append(args)
        return root_string(*args)

    def refused(*args):
        raise AssertionError("the realization built a constants table")

    monkeypatch.setattr(matrixrep, "root_string", counting)
    monkeypatch.setattr(chevalley, "structure_constants", refused)
    fundamental_rep(rs)
    assert strings == [(rs, rs.simple[s], p) for _, p, s in rs.steps]
    assert len(strings) == rs.half - rs.rank


@pytest.mark.parametrize(
    "suite", [["prop33"], ["fixed-point", "--grading", "0,1,0,0,0,0"]], ids=lambda s: s[0]
)
def test_prop33_and_fixed_point_build_no_constants_table(monkeypatch, capsys, suite):
    calls = []
    original = chevalley.structure_constants
    monkeypatch.setattr(chevalley, "structure_constants", lambda rs: calls.append(rs) or original(rs))
    assert cli_main(["verify", "--family", "B", "--rank", "6", "--suite", *suite]) == 0
    assert capsys.readouterr().out and calls == []
    # the counter sees the chevalley suite, so the empty list above is not vacuous
    assert cli_main(["verify", "--family", "C", "--rank", "2", "--suite", "chevalley"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("key", REP_SYSTEMS)
def test_membership_in_classical_algebra(key, systems, reps):
    rs = systems[key]
    rep = reps[key]
    form = invariant_form(rep)
    coroots = [coroot(rep, s) for s in simple_roots(rs)]
    elements = [dense(m, rep.dim) for m in [*rep.x, *coroots]]
    for m in elements:
        if form is None:
            assert abs(np.trace(m)) < 1e-12
        else:
            assert np.linalg.norm(m.T @ form + form @ m) < 1e-12


def test_a1_matches_standard_triple():
    rs = build_root_system(LieType("A", 1))
    rep = fundamental_rep(rs)
    alpha = simple_roots(rs)[0]
    assert np.array_equal(dense(root_vector(rep, alpha), 2).real, [[0, 1], [0, 0]])
    assert np.array_equal(dense(root_vector(rep, negative(alpha)), 2).real, [[0, 0], [1, 0]])
    assert coroot(rep, alpha) == {(0, 0): 1, (1, 1): -1}


def test_a2_root_vectors_are_signed_elementary(a2):
    rep = fundamental_rep(a2)
    for xa in rep.x:
        m = dense(xa, rep.dim)
        nonzero = np.argwhere(np.abs(m) > 0)
        assert len(nonzero) == 1
        assert abs(abs(m[tuple(nonzero[0])]) - 1.0) < 1e-15
    for s in simple_roots(a2):
        hs = dense(coroot(rep, s), rep.dim)
        assert np.linalg.norm(hs - np.diag(np.diag(hs))) == 0.0


def test_c2_double_constant(c2):
    rep = fundamental_rep(c2)
    t1, t2 = simple_roots(c2)
    x = FloatRealization(rep).x
    comm = x[t1] @ x[plus(t1, t2)] - x[plus(t1, t2)] @ x[t1]
    target = x[root((2, 1))]
    assert (
        np.linalg.norm(comm - 2 * target) < 1e-12
        or np.linalg.norm(comm + 2 * target) < 1e-12
    )


def test_cayley_matrix_a1():
    rs = build_root_system(LieType("A", 1))
    rep = fundamental_rep(rs)
    alpha = simple_roots(rs)[0]
    c = cayley_matrix(rep, alpha)
    want = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
    assert np.linalg.norm(c - want) < 1e-12
    o = np.array([1.0, 0.0])
    c_o = c @ o
    assert abs(c_o[0] - c_o[1]) < 1e-12  # proportional to (1, 1)
    c2_o = c @ c @ o
    assert abs(c2_o[0]) < 1e-12 and abs(abs(c2_o[1]) - 1.0) < 1e-12


@pytest.mark.parametrize("key", ORACLE_SYSTEMS)
def test_exponential_inverse(key):
    # the exponentials are exact, so exp(x) exp(-x) = I holds entry for entry
    rs = build_root_system(LieType(*key))
    rep = fundamental_rep(rs)
    eye = np.eye(rep.dim)
    for x in rep.x:
        minus = {k: -v for k, v in x.items()}
        inverse = product(exp_nilpotent(x, rep.dim), exp_nilpotent(minus, rep.dim))
        assert np.array_equal(dense(inverse, rep.dim), eye)


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_unipotent_factors_match_expm(key):
    rs = build_root_system(LieType(*key))
    rep = fundamental_rep(rs)
    eye = np.eye(rep.dim)
    for j, a in enumerate(rs.roots):
        xa, xna = dense(rep.x[j], rep.dim), dense(root_vector(rep, negative(a)), rep.dim)
        assert not (xa @ xa @ xa).any()
        assert np.linalg.norm(dense(exp_nilpotent(rep.x[j], rep.dim), rep.dim) - expm(xa)) < 1e-12
        weyl = weyl_dense(rep.weyl(j))
        assert np.linalg.norm(weyl - expm((math.pi / 2) * (xa - xna))) < 1e-12
        assert np.array_equal(weyl @ shear_product(xa, xna, -1, -1), eye)
        assert np.array_equal(weyl, shear_product(xa, xna, 1, 1))
        assert np.linalg.norm(cayley_matrix(rep, a) - expm((math.pi / 4) * (xna - xa))) < 1e-12


def test_exp_nilpotent_rejects_non_nilpotent(reps):
    rep = reps[("A", 2)]
    a = root((1, 1))
    # x^a and x^{-a} have disjoint supports
    xa, xna = root_vector(rep, a), root_vector(rep, negative(a))
    difference = {**xa, **{k: -v for k, v in xna.items()}}
    with pytest.raises(ValueError):
        exp_nilpotent(difference, rep.dim)


@pytest.mark.parametrize("key", [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 4)])
def test_cayley_conjugation_all_eligible_pairs(key, systems, reps):
    lines = verify_cayley_conjugation(reps[key])
    assert lines
    for chk in lines:
        assert chk["pass"], (chk["claim"], chk["residual"])
        assert chk["residual"] < 1e-9
        assert chk["sign"] in (1, -1)
        assert chk["info"]["target"] == chk["info"]["expected"]


def test_cayley_conjugation_examples(reps):
    chk = _cayley_line(reps[("A", 2)], root((-1, 0)), root((1, 1)))
    assert chk["info"]["target"] == [0, 1]

    chk = _cayley_line(reps[("C", 2)], root((0, -1)), root((1, 1)))
    assert chk["info"]["target"] == [2, 1]
    assert chk["info"]["string"] == [0, 2]


@pytest.mark.parametrize("key", [("B", 2), ("C", 3)])
def test_cayley_conjugation_fails_on_a_swapped_endpoint(key, systems, reps):
    rs = systems[key]
    rep = reps[key]
    pairs = reference_eligible_pairs(rs)
    for (a, b), chk in zip(pairs, verify_cayley_conjugation(rep), strict=True):
        i, j = rs.roots.index(a), rs.roots.index(b)
        expected = rs.roots.index(root(chk["info"]["expected"]))
        other = next(g for g in range(len(rs.roots)) if g not in (i, j, rs.neg[j], expected))
        x = list(rep.x)
        x[expected], x[other] = rep.x[other], rep.x[expected]
        mutant = _bent(rep, x)
        chk = _cayley_line(mutant, a, b)
        assert not chk["pass"], (a, b)
        assert chk["info"]["target"] is None and chk["sign"] is None
        # the residual is the distance from the nearer of +-x^{a+qb}
        oracle = cayley_check(FloatRealization(mutant), a, b)
        assert math.isclose(chk["residual"], oracle["residual"], rel_tol=1e-12)


@pytest.mark.parametrize("key", [("B", 2), ("C", 3)])
def test_cayley_residual_is_the_distance_from_the_nearer_sign(key, systems, reps):
    # the string top bent to -Ad(w_b) x^a with one entry dropped: the image
    # is nearer to minus the top, at the distance of the dropped entry
    rs = systems[key]
    rep = reps[key]
    a, b = next((a, b) for a, b in reference_eligible_pairs(rs) if len(root_vector(rep, a)) == 2)
    i, j = rs.roots.index(a), rs.roots.index(b)
    top = rs.roots.index(root(_cayley_line(rep, a, b)["info"]["expected"]))
    (_, dropped), *kept = rep.weyl(j).conjugate(rep.x[i]).items()
    x = list(rep.x)
    x[top] = {k: -v for k, v in kept}
    mutant = _bent(rep, x)
    chk = _cayley_line(mutant, a, b)
    assert not chk["pass"] and chk["residual"] == abs(dropped)
    oracle = cayley_check(FloatRealization(mutant), a, b)
    assert math.isclose(chk["residual"], oracle["residual"], rel_tol=1e-12)


def test_fixed_point_certificates(reps):
    rep = reps[("A", 2)]
    report = check_pseudoconcavity(rep.rs, grading((1, 1)))
    lines = verify_fixed_point(rep, report, (0.01, 0.1, 1.0))
    assert [chk["claim"] for chk in lines] == [
        f"cayley-fixed-point beta=(1,1) eps={eps}" for eps in (0.01, 0.1, 1.0)
    ]
    assert all(chk["pass"] and chk["residual"] < 1e-9 for chk in lines)

    so5 = from_cartan_matrix([[2, -1], [-2, 2]])
    report2 = check_pseudoconcavity(so5, grading((1, 0)))
    lines = verify_fixed_point(fundamental_rep(so5), report2, (0.01, 0.1, 1.0))
    assert [chk["claim"] for chk in lines] == [
        f"cayley-fixed-point beta=(2,1) eps={eps}" for eps in (0.01, 0.1, 1.0)
    ]
    assert all(chk["pass"] and chk["residual"] < 1e-9 for chk in lines)


def test_fixed_point_examines_no_root_string(monkeypatch):
    # the witnesses and their noncompact negative roots are read off the sweep
    import sys

    from flagdomains import rootsys

    rs = build_root_system(LieType("B", 4))
    rep = fundamental_rep(rs)
    e = grading((0, 1, 0, 0))
    report = check_pseudoconcavity(rs, e)
    calls = []
    original = rootsys.root_string

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("flagdomains") and hasattr(module, "root_string"):
            monkeypatch.setattr(module, "root_string", counting)
    lines = verify_fixed_point(rep, report, [0.5])
    assert lines and all(chk["pass"] and chk["info"]["alphas"] for chk in lines)
    assert calls == []
    # the counter sees the sweep's strings, so the empty list above is not vacuous
    check_pseudoconcavity(rs, e)
    assert calls


def test_fixed_point_lines_are_the_witnesses_by_eps(reps):
    # C3 with grading (2, 2, 2) has 18 witnesses: one line per witness and
    # eps, witness by witness in sweep order, then eps in the given order
    rep = reps[("C", 3)]
    rs = rep.rs
    report = check_pseudoconcavity(rs, grading((2, 2, 2)))
    eps_values = (1.0, 0.5, 0.01)
    lines = verify_fixed_point(rep, report, eps_values)
    assert len(report.witnesses) == 18
    assert [chk["claim"] for chk in lines] == [
        f"cayley-fixed-point beta={rs.roots[j]} eps={eps}"
        for j in report.witnesses
        for eps in eps_values
    ]
    # each line has its own info, so changing one changes no other
    lines[0]["info"]["alphas"].append("x")
    assert all(chk["info"] == {"alphas": []} for chk in lines[1:])
    # a sweep without a witness gives its one failing line, whatever the eps
    rep = reps[("C", 2)]
    report = check_pseudoconcavity(rep.rs, grading((1, 1)))
    assert not report.witnesses
    assert verify_fixed_point(rep, report, eps_values) == [{
        "claim": "fixed-point witness exists C2 grading [1, 1]",
        "residual": 1.0,
        "tolerance": 0.0,
        "pass": False,
        "sign": None,
        "info": None,
    }]


def _count_fixed_point_work(monkeypatch):
    """Counters of grading_diagonal and of matrixrep's exp_nilpotent calls."""
    counts = {"diagonal": 0, "exp": 0}
    diagonal, exp = MatrixRealization.grading_diagonal, matrixrep.exp_nilpotent

    def counting_diagonal(self, e):
        counts["diagonal"] += 1
        return diagonal(self, e)

    def counting_exp(*args):
        counts["exp"] += 1
        return exp(*args)

    monkeypatch.setattr(MatrixRealization, "grading_diagonal", counting_diagonal)
    monkeypatch.setattr(matrixrep, "exp_nilpotent", counting_exp)
    return counts


@pytest.mark.parametrize(
    "key,coeffs,copies",
    [
        (("A", 2), (1, 1), 1),
        # the one witness three times over: the work does not grow with it
        (("A", 2), (1, 1), 3),
        (("B", 4), (0, 1, 0, 0), 1),
        (("B", 4), (0, 1, 0, 0), 4),
        # a vacuous sweep, with 24 witnesses and no noncompact negative root
        (("D", 4), (2, 0, 0, 2), 1),
    ],
)
def test_fixed_point_builds_the_diagonal_once_and_a_generator_per_eps(
    monkeypatch, key, coeffs, copies
):
    rs = build_root_system(LieType(*key))
    rep = fundamental_rep(rs)
    report = check_pseudoconcavity(rs, grading(coeffs))
    report = report._replace(witnesses=report.witnesses * copies)
    counts = _count_fixed_point_work(monkeypatch)
    eps_values = (0.01, 0.5, 1.0)
    lines = verify_fixed_point(rep, report, eps_values)
    assert len(lines) == len(report.witnesses) * len(eps_values) > 0
    assert counts == {
        "diagonal": 1,
        "exp": len(eps_values) * len(report.noncompact_negatives),
    }


def test_the_widest_fixed_point_request_builds_one_diagonal(monkeypatch, capsys):
    # B6 with grading (2,0,0,2,0,0) at 16 eps prints 1,152 lines, 72
    # witnesses by 16 eps, from a single grading diagonal
    counts = _count_fixed_point_work(monkeypatch)
    eps = ",".join(f"{k / 16:g}" for k in range(1, 17))
    argv = ["verify", "--suite", "fixed-point", "--family", "B", "--rank", "6",
            "--grading", "2,0,0,2,0,0", "--eps", eps]
    assert cli_main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1152
    assert counts == {"diagonal": 1, "exp": 0}


def test_fixed_point_rejects_a_report_for_another_system(reps):
    # a B3 sweep handed to the C3 realization: same rank, another system
    report = check_pseudoconcavity(build_root_system(LieType("B", 3)), grading((0, 1, 0)))
    with pytest.raises(ValueError, match="another root system"):
        verify_fixed_point(reps[("C", 3)], report, [0.5])


def test_fixed_point_rejects_eps_outside_the_unit_interval(reps):
    rep = reps[("A", 2)]
    report = check_pseudoconcavity(rep.rs, grading((1, 1)))
    # C2 with grading (1, 1) has no witness, so no line depends on eps
    rep2 = reps[("C", 2)]
    report2 = check_pseudoconcavity(rep2.rs, grading((1, 1)))
    for eps in (1.5, 0.0, -0.0, 1e-400, -0.1, math.nan):
        for r, rpt in ((rep, report), (rep2, report2)):
            with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
                verify_fixed_point(r, rpt, [0.5, eps])


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4)],
)
def test_fixed_point_accepts_exactly_the_sweep_witnesses(family, rank):
    rs = build_root_system(LieType(family, rank))
    rep = fundamental_rep(rs)
    for bits in itertools.product((0, 1), repeat=rs.rank):
        if not any(bits):
            continue
        e = grading(bits)
        report = check_pseudoconcavity(rs, e)
        alphas = [list(rs.roots[i].coeffs) for i in report.noncompact_negatives]
        lines = verify_fixed_point(rep, report, [1.0])
        if report.witnesses:
            assert [chk["claim"] for chk in lines] == [
                f"cayley-fixed-point beta={rs.roots[j]} eps=1.0" for j in report.witnesses
            ]
            assert all(chk["info"]["alphas"] == alphas for chk in lines)
        else:
            (chk,) = lines
            assert chk["claim"] == f"fixed-point witness exists {rs.lie_type} grading {list(bits)}"
            assert not chk["pass"]


def _c2_fixed_point_case():
    """C2 with the grading (1, 0), its witness, and a copy of its realization
    whose Weyl element for the witness is the identity."""
    rep = fundamental_rep(build_root_system(LieType("C", 2)))
    report = check_pseudoconcavity(rep.rs, grading((1, 0)))
    (beta,) = report.witnesses
    return rep, _with_identity_weyl(rep, beta), report, beta


def _with_identity_weyl(rep, *betas):
    """A copy of rep whose Weyl element for each root index in betas is the
    identity."""
    mutant = MatrixRealization(rep.rs, rep.dim, rep.x)
    for beta in betas:
        mutant._weyl[beta] = WeylElement(tuple(range(rep.dim)), (1,) * rep.dim)
    return mutant


@pytest.mark.parametrize("eps", [0.1, 1e-9, 1e-10, 1e-12, 1e-200])
def test_fixed_point_fails_without_the_conjugation_at_every_eps(eps):
    # the generator leaves P by entries of size eps, so a float threshold
    # would pass it once eps fell below that threshold
    rep, mutant, report, beta = _c2_fixed_point_case()
    assert verify_fixed_point(rep, report, [eps])[0]["pass"]
    (chk,) = verify_fixed_point(mutant, report, [eps])
    assert not chk["pass"] and 0.0 < chk["residual"] < 10 * eps


@given(eps=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@settings(max_examples=60, deadline=None)
def test_fixed_point_passes_exactly_when_nothing_lies_below_the_filtration(eps):
    rep, mutant, report, beta = _c2_fixed_point_case()
    e = report.grading
    t = Fraction(str(eps))
    xi = {(i, i): 1 for i in range(rep.dim)}
    for alpha in report.noncompact_negatives:
        xa = root_vector(rep, rep.rs.roots[alpha])
        xi = product(xi, exp_nilpotent({k: t * v for k, v in xa.items()}, rep.dim))
    for r, passes in ((rep, True), (mutant, False)):
        below = below_filtration(r, e, r.weyl(beta).conjugate(xi))
        (chk,) = verify_fixed_point(r, report, [eps])
        assert chk["pass"] == (not below) == passes
        # the printed size of a failure may underflow to 0.0, the verdict not
        assert math.isclose(chk["residual"], math.hypot(*below), rel_tol=1e-12)


def _pairs_certify(rep, report, beta) -> bool:
    """Whether the prop33 lines of beta's pairs all pass, with every target
    alpha + q beta of nonnegative grading."""
    roots = rep.rs.roots
    for alpha in report.noncompact_negatives:
        chk = _cayley_line(rep, roots[alpha], roots[beta])
        if not (chk["pass"] and report.grading.value(root(chk["info"]["expected"])) >= 0):
            return False
    return True


@pytest.mark.parametrize(
    "key",
    [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4)],
    ids=lambda k: f"{k[0]}{k[1]}",
)
def test_fixed_point_agrees_with_the_conjugation_lines_of_its_pairs(key):
    # Ad(w_beta) is an automorphism and s_beta(alpha) = alpha + q beta on a
    # string with r = 0, so the fixed point follows from the pairs' lines
    rs = build_root_system(LieType(*key))
    rep = fundamental_rep(rs)
    mutant = _with_identity_weyl(rep, *range(len(rs.roots)))
    for coeffs in itertools.product((0, 1, 2), repeat=rs.rank):
        if not any(coeffs):
            continue
        report = check_pseudoconcavity(rs, grading(coeffs))
        if not report.witnesses:
            continue
        lines = verify_fixed_point(rep, report, [0.5])
        for beta, chk in zip(report.witnesses, lines, strict=True):
            assert chk["pass"] == _pairs_certify(rep, report, beta), (coeffs, beta)
        if report.noncompact_negatives:
            # without the conjugation both sides fail
            assert not any(chk["pass"] for chk in verify_fixed_point(mutant, report, [0.5]))
            assert not any(_pairs_certify(mutant, report, beta) for beta in report.witnesses)


def test_flag_residual_invariant_under_parabolic_factors(reps):
    def residual(m):
        return math.hypot(*map(abs, below_filtration(rep, e, sparse(m))))

    rep = reps[("A", 2)]
    rs = rep.rs
    e = grading((1, 1))
    beta = root((1, 1))
    x = FloatRealization(rep).x
    arg = (math.pi / 2) * (x[beta] - x[negative(beta)])
    m = expm(arg)
    xi = expm(0.1 * x[root((-1, 0))]) @ expm(0.1 * x[root((0, -1))])
    conj = m @ xi @ expm(-arg)
    assert residual(conj) < 1e-9
    for gamma in rs.roots:
        if e.value(gamma) >= 0:
            shifted = conj @ expm(0.3 * x[gamma])
            assert residual(shifted) < 1e-9


def test_grading_diagonal_matches_weight_eigenvalues(reps):
    from fractions import Fraction

    diag = reps[("C", 2)].grading_diagonal(grading((1, 1)))
    assert sorted(diag) == [
        Fraction(-3, 2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(3, 2),
    ]


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_grading_diagonal_matches_the_cartan_solve(key):
    rs = build_root_system(LieType(*key))
    rep = fundamental_rep(rs)
    values = (0, 1, 2) if rs.rank <= 4 else (0, 1)
    for coeffs in itertools.product(values, repeat=rs.rank):
        e = grading(coeffs)
        assert rep.grading_diagonal(e) == cartan_diagonal(rep, e), coeffs


def test_grading_diagonal_rejects_an_unlinked_basis(reps):
    # without x^{s_1}, no simple root vector reaches e_0 in A2
    rep = reps[("A", 2)]
    x = list(rep.x)
    x[rep.rs.simple[0]] = {}
    unlinked = MatrixRealization(rep.rs, rep.dim, tuple(x))
    with pytest.raises(ArithmeticError, match="do not link the basis"):
        unlinked.grading_diagonal(grading((1, 1)))


@pytest.mark.parametrize("coeffs", [(1,), (1, 1, 0)], ids=["short", "long"])
def test_grading_diagonal_refuses_a_grading_of_another_rank(reps, coeffs):
    # one coefficient per simple root vector: none is dropped or left unpaired
    with pytest.raises(ValueError):
        reps[("A", 2)].grading_diagonal(grading(coeffs))


def test_rep_requires_detected_family():
    # a valid finite-type matrix outside the supported families
    g2 = from_cartan_matrix([[2, -1], [-3, 2]])
    assert g2.lie_type is None
    with pytest.raises(ValueError):
        fundamental_rep(g2)


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_eligible_pairs_match_root_arithmetic(key):
    # one line per ordered pair with a (0,1)/(0,2) string, in root order. The
    # pairs come from the Euclidean model, not from rs.roots or a string walk:
    # r - q = <a, b^v> (Humphreys 8.4), so r = 0 when a - b is no root, and
    # then q = -<a, b^v>
    rs = build_root_system(LieType(*key))
    euclid = euclid_roots(*key)
    vectors = [to_euclid(*key, a.coeffs) for a in rs.roots]
    pairs = [
        f"cayley-conjugation a={rs.roots[i]} b={rs.roots[j]}"
        for (i, a), (j, b) in itertools.product(enumerate(vectors), repeat=2)
        if any(x + y for x, y in zip(a, b))
        and tuple(x - y for x, y in zip(a, b)) not in euclid
        and -euclid_cartan_integer(a, b) in (1, 2)
    ]
    assert [chk["claim"] for chk in verify_cayley_conjugation(fundamental_rep(rs))] == pairs


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_exact_cayley_checks_match_the_float_oracle(key):
    rs = build_root_system(LieType(*key))
    rep = fundamental_rep(rs)
    frep = FloatRealization(rep)
    exact = verify_cayley_conjugation(rep)
    assert exact == [cayley_check(frep, a, b) for a, b in reference_eligible_pairs(rs)]
    assert all(chk["residual"] == 0.0 for chk in exact)
    if key[1] == 6:
        # 3,780 pairs over A6, B6, C6 and D6
        assert len(exact) == {"A": 420, "B": 1200, "C": 1200, "D": 960}[key[0]]


@pytest.mark.parametrize(
    "key", [k for k in ORACLE_SYSTEMS if k[1] >= 2], ids=lambda k: f"{k[0]}{k[1]}"
)
def test_exact_fixed_point_checks_match_the_float_oracle(key):
    rs = build_root_system(LieType(*key))
    rep = fundamental_rep(rs)
    frep = FloatRealization(rep)
    for coeffs in itertools.product((0, 1), repeat=rs.rank):
        e = grading(coeffs)
        if e.is_zero:
            continue
        report = check_pseudoconcavity(rs, e)
        if not report.witnesses:
            continue
        eps_values = (0.01, 0.1, 1.0)
        exact = verify_fixed_point(rep, report, eps_values)
        assert exact == [
            fixed_point_check(frep, e, rs.roots[beta], eps)
            for beta in report.witnesses
            for eps in eps_values
        ]
        assert all(chk["pass"] and chk["residual"] == 0.0 for chk in exact)


@pytest.mark.parametrize(
    "key,coeffs", [(("A", 2), (1, 1)), (("B", 3), (0, 1, 0)), (("C", 3), (1, 0, 0)), (("D", 4), (0, 1, 0, 0))]
)
def test_exact_fixed_point_residual_matches_the_oracle_when_it_fails(key, coeffs, systems):
    # a realization whose noncompact negative root vectors are replaced by
    # positive ones: the conjugated generator leaves P
    rs = systems[key]
    rep = fundamental_rep(rs)
    e = grading(coeffs)
    report = check_pseudoconcavity(rs, e)
    (beta,) = report.witnesses
    x = list(rep.x)
    for alpha in report.noncompact_negatives:
        x[alpha] = root_vector(rep, negative(rs.roots[alpha]))
    bent = MatrixRealization(rep.rs, rep.dim, tuple(x))
    eps_values = (0.01, 0.1, 1.0)
    for eps, exact in zip(eps_values, verify_fixed_point(bent, report, eps_values), strict=True):
        oracle = fixed_point_check(FloatRealization(bent), e, rs.roots[beta], eps)
        assert not exact["pass"] and not oracle["pass"]
        assert math.isclose(exact["residual"], oracle["residual"], rel_tol=1e-12)


def test_weyl_elements_are_built_once_per_root(reps):
    rep = reps[("B", 3)]
    b = rep.rs.roots.index(root((0, 1, 1)))
    assert rep.weyl(b) is rep.weyl(b)
    w = rep.weyl(b)
    assert sorted(w.perm) == list(range(rep.dim))


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_root_vectors_are_integral_and_weyl_elements_signed_permutations(key):
    # the basis spans an admissible lattice, so no entry is a fraction
    rep = fundamental_rep(build_root_system(LieType(*key)))
    for m in rep.x:
        assert m and all(type(v) is int and abs(v) in (1, 2) for v in m.values())
    for j in range(len(rep.x)):
        w = rep.weyl(j)
        assert sorted(w.perm) == list(range(rep.dim))
        assert all(type(s) is int and s in (1, -1) for s in w.sign)


def test_a_bracket_its_constant_does_not_divide_is_refused(monkeypatch):
    # the so(2r+1) short root vectors off the admissible lattice, as
    # E_{u_r, w} - E_{w, v_r} and 2 E_{w, u_r} - 2 E_{v_r, w}: some bracket
    # with constant 2 has an odd entry
    so_odd = matrixrep._BUILDERS["B"]

    def off_lattice(r):
        dim, xs, ys = so_odd(r)
        xs[-1] = {(r - 1, 2 * r): 1, (2 * r, 2 * r - 1): -1}
        ys[-1] = {(2 * r, r - 1): 2, (2 * r - 1, 2 * r): -2}
        return dim, xs, ys

    monkeypatch.setitem(matrixrep._BUILDERS, "B", off_lattice)
    with pytest.raises(ArithmeticError, match="is not a multiple of 2"):
        fundamental_rep(build_root_system(LieType("B", 3)))


@pytest.mark.parametrize(
    "scale,neg_scale",
    # not monomial; monomial with scalars 2 and -1/2
    [(2, 1), (2, Fraction(1, 2))],
)
def test_a_weyl_element_off_the_signed_permutations_is_refused(reps, scale, neg_scale):
    rep = reps[("A", 2)]
    j = rep.rs.simple[0]
    x = list(rep.x)
    x[j] = {k: scale * v for k, v in x[j].items()}
    x[rep.rs.neg[j]] = {k: neg_scale * v for k, v in x[rep.rs.neg[j]].items()}
    bent = MatrixRealization(rep.rs, rep.dim, tuple(x))
    with pytest.raises(ArithmeticError, match="not a signed permutation matrix"):
        bent.weyl(j)


@pytest.mark.parametrize(
    "key", [("A", 4), ("B", 4), ("C", 4), ("D", 4)], ids=lambda k: f"{k[0]}{k[1]}"
)
def test_cayley_lines_read_strings_and_weyl_elements_by_index(monkeypatch, key):
    import sys

    from flagdomains import rootsys

    rs = build_root_system(LieType(*key))
    bs = {b for _, b in reference_eligible_pairs(rs)}
    # a fresh copy, so no earlier test has built its Weyl elements
    rep = MatrixRealization(rs, fundamental_rep(rs).dim, fundamental_rep(rs).x)
    strings = []
    original_string = rootsys.root_string

    def counting_string(*args):
        strings.append(args)
        return original_string(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("flagdomains") and hasattr(module, "root_string"):
            monkeypatch.setattr(module, "root_string", counting_string)
    lines = verify_cayley_conjugation(rep)
    assert lines and all(chk["pass"] for chk in lines)
    n = len(rs.roots)
    # one string per ordered pair i != +-j, read once
    assert len(strings) == n * (n - 2)
    # one Weyl element per distinct b of an eligible pair
    assert len(rep._weyl) == len(bs)
