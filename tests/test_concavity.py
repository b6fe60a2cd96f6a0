"""The string criterion: worked examples, brute-force soundness, symmetry."""

from itertools import product

import pytest
from conftest import (
    E6_CARTAN,
    F4_CARTAN,
    G2_CARTANS,
    ORACLE_SYSTEMS,
    RELABELLED_B4,
    relabelled_cartan,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lie_oracles import (
    analyze_string_condition,
    is_classical,
    plus,
    reference_report,
    reference_string,
    times,
    verdict_on_string,
)

from flagdomains import concavity
from flagdomains.cli import MAX_GRADING
from flagdomains.concavity import check_pseudoconcavity
from flagdomains.realform import classify_roots
from flagdomains.rootsys import (
    GradingElement,
    LieType,
    build_root_system,
    from_cartan_matrix,
    grading,
    root,
    root_string,
    standard_cartan,
)


def test_a2_satisfied(a2):
    report = check_pseudoconcavity(a2, grading((1, 1)))
    assert report.satisfied
    assert [a2.roots[j].coeffs for j in report.witnesses] == [(1, 1)]
    assert {a2.roots[i].coeffs for i in report.noncompact_negatives} == {(-1, 0), (0, -1)}
    for v in report.detail[a2.roots.index(root((1, 1)))]:
        assert v["verdict"] == "OK_TYPE_A"


def test_so5_labeling_satisfied(so5_labeled):
    report = check_pseudoconcavity(so5_labeled, grading((1, 0)))
    assert report.satisfied
    roots = so5_labeled.roots
    assert [roots[j].coeffs for j in report.witnesses] == [(2, 1)]
    assert {roots[i].coeffs for i in report.noncompact_negatives} == {(-1, 0), (-1, -1)}


def test_c2_not_satisfied(c2):
    report = check_pseudoconcavity(c2, grading((1, 1)))
    assert not report.satisfied
    assert report.witnesses == ()
    beta = c2.roots.index(root((1, 1)))
    verdicts = {tuple(v["alpha"]): v for v in report.detail[beta]}
    v_sigma2 = verdicts[(0, -1)]
    assert v_sigma2["verdict"] == "OK_TYPE_B"
    assert v_sigma2["endpoint"] == [2, 1]
    # alpha = -s1 fails for every compact beta
    for b, vs in report.detail.items():
        for v in vs:
            if v["alpha"] == [-1, 0]:
                assert v["verdict"] == "FAIL"


def test_analyze_string_condition_examples(a2, c2):
    v = analyze_string_condition(a2, grading((1, 1)), root((1, 1)), root((-1, 0)))
    assert v["verdict"] == "OK_TYPE_A"
    assert v["endpoint"] == [0, 1]
    assert v["endpoint_in_p"]

    v = analyze_string_condition(c2, grading((1, 1)), root((1, 1)), root((0, -1)))
    assert v["verdict"] == "OK_TYPE_B"
    assert v["endpoint"] == [2, 1]

    v = analyze_string_condition(c2, grading((1, 1)), root((1, 1)), root((-1, 0)))
    assert v["verdict"] == "FAIL"
    assert (v["r"], v["q"]) == (1, 1)


def test_analyze_string_condition_preconditions(a2):
    e = grading((1, 1))
    with pytest.raises(ValueError):
        # beta noncompact
        analyze_string_condition(a2, e, root((1, 0)), root((0, -1)))
    with pytest.raises(ValueError):
        # alpha compact
        analyze_string_condition(a2, e, root((1, 1)), root((-1, -1)))
    with pytest.raises(ValueError):
        # alpha not negatively graded
        analyze_string_condition(a2, e, root((1, 1)), root((1, 0)))


def test_check_rejects_bad_gradings(a2):
    with pytest.raises(ValueError, match="trivial grading"):
        check_pseudoconcavity(a2, grading((0, 0)))
    with pytest.raises(ValueError, match="nonnegative"):
        check_pseudoconcavity(a2, grading((1, -1)))


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1, 1)], ids=["short", "long"])
@pytest.mark.parametrize("decide", [check_pseudoconcavity, classify_roots])
def test_gradings_of_another_rank_are_refused(decide, coeffs):
    rs = build_root_system(LieType("B", 3))
    message = f"grading has {len(coeffs)} coefficients, the system has rank 3"
    with pytest.raises(ValueError, match=message):
        decide(rs, grading(coeffs))


def brute_force_verdict(rs, e):
    """Independent scan using only strings, membership and parity."""
    compact = [a for a in rs.roots if e.value(a) % 2 == 0]
    alphas = [a for a in rs.roots if e.value(a) % 2 != 0 and e.value(a) < 0]
    winners = []
    for beta in compact:
        good = True
        for alpha in alphas:
            r, q, _ = reference_string(rs, alpha, beta)
            if (r, q) == (0, 1):
                ok = e.value(plus(alpha, beta)) >= 0
            elif (r, q) == (0, 2):
                ok = e.value(plus(alpha, times(2, beta))) >= 0
            else:
                ok = False
            if not ok:
                good = False
                break
        if good:
            winners.append(beta)
    return bool(winners), set(winners)


RANK_LE_3 = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3)]


@pytest.mark.parametrize("family,rank", RANK_LE_3)
def test_agreement_with_brute_force(family, rank):
    rs = build_root_system(LieType(family, rank))
    for bits in product((0, 1), repeat=rs.rank):
        if not any(bits):
            continue
        e = grading(bits)
        report = check_pseudoconcavity(rs, e)
        sat, winners = brute_force_verdict(rs, e)
        assert report.satisfied == sat
        assert {rs.roots[j] for j in report.witnesses} == winners


def permuted_grading(bits, perm):
    out = [0] * len(bits)
    for i, j in enumerate(perm):
        out[j] = bits[i]
    return grading(out)


def test_diagram_automorphism_invariance_a3():
    rs = build_root_system(LieType("A", 3))
    reversal = (2, 1, 0)
    for bits in product((0, 1), repeat=3):
        if not any(bits):
            continue
        left = check_pseudoconcavity(rs, grading(bits)).satisfied
        right = check_pseudoconcavity(rs, permuted_grading(bits, reversal)).satisfied
        assert left == right


def test_diagram_automorphism_invariance_d4():
    rs = build_root_system(LieType("D", 4))
    # node 2 is the center; nodes 1, 3, 4 may be permuted arbitrarily
    automorphisms = [
        (0, 1, 2, 3),
        (2, 1, 0, 3),
        (3, 1, 2, 0),
        (0, 1, 3, 2),
        (2, 1, 3, 0),
        (3, 1, 0, 2),
    ]
    for bits in product((0, 1), repeat=4):
        if not any(bits):
            continue
        values = {
            check_pseudoconcavity(rs, permuted_grading(bits, perm)).satisfied
            for perm in automorphisms
        }
        assert len(values) == 1


def test_satisfied_iff_witnesses(systems):
    for rs in systems.values():
        e = grading((1,) * rs.rank)
        report = check_pseudoconcavity(rs, e)
        assert report.satisfied == bool(report.witnesses)


def test_detail_covers_all_compact_roots(c2):
    e = grading((1, 1))
    report = check_pseudoconcavity(c2, e)
    assert {c2.roots[j] for j in report.detail} == set(classify_roots(c2, e).compact)
    n_alphas = sum(1 for a in classify_roots(c2, e).noncompact if e.value(a) < 0)
    for verdicts in report.detail.values():
        assert len(verdicts) == n_alphas


@pytest.mark.parametrize("family,rank", ORACLE_SYSTEMS)
def test_report_json_matches_the_string_verdict_oracle(family, rank):
    rs = build_root_system(LieType(family, rank))
    for bits in product((0, 1), repeat=rank):
        if any(bits):
            e = grading(bits)
            assert check_pseudoconcavity(rs, e).to_json_dict() == reference_report(rs, e), bits


def test_report_json_matches_the_oracle_on_the_grading_scan():
    from perfbench.workloads import SCAN_SYSTEMS, grading_pairs

    systems = {s: build_root_system(LieType(*s)) for s in SCAN_SYSTEMS}
    stream = grading_pairs(1)
    # the first 380 decisions of seed 1, 20 rounds over the 19 scanned systems
    for _ in range(20 * len(SCAN_SYSTEMS)):
        family, rank, coeffs = next(stream)
        rs, e = systems[(family, rank)], grading(coeffs)
        assert check_pseudoconcavity(rs, e).to_json_dict() == reference_report(rs, e), coeffs


@st.composite
def graded_scan_systems(draw):
    """A system of the grading scan, under its standard labelling or with
    its simple roots renamed, and a nonzero grading in 0..MAX_GRADING."""
    from perfbench.workloads import SCAN_SYSTEMS

    family, rank = draw(st.sampled_from(SCAN_SYSTEMS))
    perm = draw(st.just(tuple(range(rank))) | st.permutations(range(rank)))
    rs = from_cartan_matrix(relabelled_cartan(LieType(family, rank), perm))
    coeffs = draw(
        st.lists(st.integers(0, MAX_GRADING), min_size=rank, max_size=rank).filter(any)
    )
    return rs, grading(coeffs)


@given(case=graded_scan_systems())
@example(case=(from_cartan_matrix(RELABELLED_B4), grading((1, 0, 1, 0))))
@example(case=(from_cartan_matrix(RELABELLED_B4), grading((16, 3, 0, 15))))
@settings(max_examples=150, deadline=None)
def test_sweep_matches_the_oracles_on_gradings_up_to_the_bound(case):
    # string tops valued by linearity against tops valued by root arithmetic,
    # on coefficients past the 0..3 of the grading scan
    rs, e = case
    report = check_pseudoconcavity(rs, e)
    assert report.to_json_dict() == reference_report(rs, e)
    table = classify_roots(rs, e)
    assert table.compact == tuple(a for a in rs.roots if e.value(a) % 2 == 0)
    assert table.noncompact == tuple(a for a in rs.roots if e.value(a) % 2 == 1)
    assert table.values == tuple(e.value(a) for a in rs.roots)
    assert tuple(rs.roots[i] for i in report.noncompact_negatives) == tuple(
        a for a in table.noncompact if e.value(a) < 0
    )
    assert report.rs is rs and report.grading is e


@pytest.mark.parametrize(
    "key,coeffs",
    [(("A", 4), (1, 0, 0, 1)), (("B", 4), (0, 1, 0, 0)), (("C", 4), (1, 0, 1, 0)),
     (("D", 4), (0, 1, 0, 0))],
    ids=["A4", "B4", "C4", "D4"],
)
def test_sweep_reads_one_string_per_pair_by_index(monkeypatch, key, coeffs):
    rs = build_root_system(LieType(*key))
    e = grading(coeffs)
    table = classify_roots(rs, e)
    pairs = len(table.compact) * sum(1 for a in table.noncompact if e.value(a) < 0)
    strings, values = [], []
    original_string, original_value = concavity.root_string, GradingElement.value

    def counting_string(*args):
        strings.append(args)
        return original_string(*args)

    def counting_value(self, a):
        values.append(a)
        return original_value(self, a)

    monkeypatch.setattr(concavity, "root_string", counting_string)
    monkeypatch.setattr(GradingElement, "value", counting_value)
    report = check_pseudoconcavity(rs, e)
    assert len(strings) == pairs > 0
    # strings are read by index, and no root is graded by a dot product:
    # the values come off one step per positive root past the simple ones
    assert values == []
    assert len(rs.steps) == rs.half - rs.rank
    # the entries share one coefficient list per root
    lists = {
        id(v[field])
        for entries in report.detail.values()
        for v in entries
        for field in ("alpha", "endpoint")
    }
    assert len(lists) <= len(rs.roots)


# every grading with coefficients 0..3 on these systems: 2,277 of them
CLASSICAL_SCAN = [(f, r) for f in "ABC" for r in (2, 3, 4)] + [("D", 4), ("D", 5)]


def test_satisfied_domains_are_non_classical():
    # the paper's results are about non-classical domains: a classical one
    # carries nonconstant holomorphic functions and cannot be pseudoconcave
    vacuous = satisfied = 0
    for key in CLASSICAL_SCAN:
        rs = build_root_system(LieType(*key))
        for coeffs in product(range(4), repeat=rs.rank):
            if not any(coeffs):
                continue
            e = grading(coeffs)
            report = check_pseudoconcavity(rs, e)
            if not report.noncompact_negatives:
                vacuous += 1
            elif report.satisfied:
                satisfied += 1
                assert not is_classical(rs, e), (key, coeffs)
    assert (vacuous, satisfied) == (121, 156)


def test_classical_oracle_on_the_hermitian_symmetric_nodes():
    # a single crossed node gives a classical domain exactly at the nodes
    # whose coefficient in the highest root is 1
    hermitian = {
        "A": lambda n: list(range(1, n + 1)),
        "B": lambda n: [1],
        "C": lambda n: [n],
        "D": lambda n: [1, n - 1, n],
    }
    for family, rank in CLASSICAL_SCAN:
        rs = build_root_system(LieType(family, rank))
        nodes = range(1, rank + 1)
        found = [k for k in nodes if is_classical(rs, grading(int(i == k) for i in nodes))]
        assert found == hermitian[family](rank), (family, rank)
    for key, coeffs in ((("A", 2), (1, 1)), (("C", 2), (1, 0)), (("B", 2), (0, 1))):
        assert not is_classical(build_root_system(LieType(*key)), grading(coeffs)), key


@pytest.mark.parametrize(
    "cartan",
    [standard_cartan(LieType(*key)) for key in CLASSICAL_SCAN] + list(G2_CARTANS),
    ids=[f"{f}{r}" for f, r in CLASSICAL_SCAN] + ["G2", "G2-long-first"],
)
def test_every_detail_entry_matches_root_arithmetic(cartan):
    # every grading 0..3, entry by entry: alpha, r, q, endpoint, endpoint_in_p,
    # verdict and the reason text, against strings walked by root arithmetic
    rs = from_cartan_matrix(cartan)
    strings = {}
    for coeffs in product(range(4), repeat=rs.rank):
        if not any(coeffs):
            continue
        e = grading(coeffs)
        report = check_pseudoconcavity(rs, e)
        betas = [b for b in rs.roots if e.value(b) % 2 == 0]
        alphas = [a for a in rs.roots if e.value(a) % 2 and e.value(a) < 0]
        assert [rs.roots[j] for j in report.detail] == betas, coeffs
        for j, entries in report.detail.items():
            beta = rs.roots[j]
            assert len(entries) == len(alphas)
            for alpha, entry in zip(alphas, entries):
                if (alpha, beta) not in strings:
                    strings[alpha, beta] = reference_string(rs, alpha, beta)
                expected = verdict_on_string(e, beta, alpha, strings[alpha, beta])
                assert entry == expected.to_json_dict(), (coeffs, beta, alpha)
        assert report.witnesses == tuple(
            j for j, entries in report.detail.items()
            if all(v["verdict"] != "FAIL" for v in entries)
        ), coeffs


def test_every_string_shape_has_its_reason():
    # the classical systems up to rank 6, G2 both ways, F4, E6 and B2 x A1
    cartans = (
        [standard_cartan(LieType(*key)) for key in ORACLE_SYSTEMS]
        + list(G2_CARTANS)
        + [F4_CARTAN, E6_CARTAN, [[2, -2, 0], [-1, 2, 0], [0, 0, 2]]]
    )
    shapes = set()
    for cartan in cartans:
        rs = from_cartan_matrix(cartan)
        for i in range(len(rs.roots)):
            for j in range(len(rs.roots)):
                if j != i and j != rs.neg[i]:
                    shapes.add(root_string(rs, i, j)[:2])
    assert shapes <= concavity._SHAPE_FAILURES.keys()
    # G2 reaches the longest strings, four roots
    assert {(0, 3), (3, 0)} <= shapes
    for (r, q), reason in concavity._SHAPE_FAILURES.items():
        assert reason == f"string shape (r, q) = ({r}, {q})"
