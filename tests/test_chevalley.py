"""Structure constants: sign normalization, magnitudes, Jacobi, string brackets."""

import itertools
import re

import pytest

from conftest import CLASSICAL, ORACLE_SYSTEMS, RELABELLED_B4
from corpus import CARTANS
from lie_oracles import (
    jacobi_violations as jacobi_scan,
    negative,
    plus,
    positive_sum_table,
    reference_bracket_entries,
    reference_constant,
    reference_structure_table,
    simple_roots,
    table_constant,
    times,
)

from flagdomains import chevalley
from flagdomains.chevalley import (
    ChevalleyConstants,
    jacobi_violations,
    structure_constants,
    verify_bracket_identities,
)
from flagdomains.rootsys import (
    LieType,
    RootSystem,
    build_root_system,
    from_cartan_matrix,
    root,
    root_string,
    standard_cartan,
)

RANK_LE_4 = CLASSICAL + [("A", 4), ("B", 4), ("C", 4), ("D", 3)]


def test_a1_table_empty():
    cc = structure_constants(build_root_system(LieType("A", 1)))
    assert positive_sum_table(cc) == {}


def test_magnitude_examples(a2, c2):
    cc = structure_constants(a2)
    s1, s2 = simple_roots(a2)
    assert abs(table_constant(cc, s1, s2)) == 1
    cc2 = structure_constants(c2)
    t1, t2 = simple_roots(c2)
    assert abs(table_constant(cc2, t1, plus(t1, t2))) == 2


def test_constant_zero_when_sum_not_root(a2):
    cc = structure_constants(a2)
    s1, s2 = simple_roots(a2)
    assert table_constant(cc, plus(s1, s2), s2) == 0


def test_table_is_zero_in_the_cartan_direction():
    # [x^a, x^{-a}] is a Cartan element, not a multiple of a root vector
    for key in RANK_LE_4:
        cc = structure_constants(build_root_system(LieType(*key)))
        assert all(table_constant(cc, a, negative(a)) == 0 for a in cc.rs.roots), key


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_sign_normalization_and_magnitude(family, rank):
    rs = build_root_system(LieType(family, rank))
    cc = structure_constants(rs)
    roots = frozenset(rs.roots)
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            s = plus(a, b)
            if not any(s.coeffs) or s not in roots:
                continue
            c = table_constant(cc, a, b)
            assert c != 0
            assert c == -table_constant(cc, b, a)
            assert c == -table_constant(cc, negative(a), negative(b))
            assert abs(c) == root_string(rs, j, i)[0] + 1
            assert abs(c) == root_string(rs, i, j)[0] + 1


@pytest.mark.parametrize("family,rank", CLASSICAL + [("D", 3)])
def test_jacobi_scan(family, rank):
    cc = structure_constants(build_root_system(LieType(family, rank)))
    assert jacobi_violations(cc) == []


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_string_bracket_identity(family, rank):
    cc = structure_constants(build_root_system(LieType(family, rank)))
    report = verify_bracket_identities(cc)
    assert report.violations == []


def test_string_bracket_coefficients(a2, c2):
    cc = structure_constants(a2)
    report = verify_bracket_identities(cc)
    s1, s2 = simple_roots(a2)
    by_pair = {(a, b): (c, want) for a, b, c, want in report.entries}
    assert by_pair[(s1, s2)] == (1, 1)

    cc2 = structure_constants(c2)
    report2 = verify_bracket_identities(cc2)
    t1, t2 = simple_roots(c2)
    by_pair2 = {(a, b): (c, want) for a, b, c, want in report2.entries}
    assert by_pair2[(negative(t2), plus(t1, t2))] == (2, 2)
    # orthogonal-string pair: neither sum nor difference is a root
    assert by_pair2[(t2, root((2, 1)))] == (0, 0)


def test_double_step_chain_value(c2):
    cc = structure_constants(c2)
    t1, t2 = simple_roots(c2)
    alpha, beta = negative(t2), plus(t1, t2)
    up = table_constant(cc, beta, plus(alpha, beta))
    assert up * table_constant(cc, negative(beta), plus(alpha, times(2, beta))) == 2
    report = verify_bracket_identities(cc)
    assert report.chain_entries
    assert all(product == 2 for _, _, product in report.chain_entries)


def test_extraspecial_signs_are_positive(c2):
    # the minimal special pairs carry the positive sign by construction
    cc = structure_constants(c2)
    t1, t2 = simple_roots(c2)
    assert table_constant(cc, t2, t1) == 1
    assert table_constant(cc, t1, plus(t1, t2)) == 2


def test_json_dump_golden(a2):
    cc = structure_constants(a2)
    table = {(a.coeffs, b.coeffs): v for (a, b), v in positive_sum_table(cc).items()}
    assert table == {
        ((0, 1), (1, 0)): 1,
        ((1, 0), (0, 1)): -1,
        ((1, 1), (-1, 0)): 1,
        ((-1, 0), (1, 1)): -1,
        ((1, 1), (0, -1)): -1,
        ((0, -1), (1, 1)): 1,
    }


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_jacobi_matches_the_scan(family, rank):
    cc = structure_constants(build_root_system(LieType(family, rank)))
    assert jacobi_violations(cc) == jacobi_scan(cc) == []


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
@pytest.mark.parametrize("mode", ["flipped", "zeroed"])
def test_jacobi_matches_the_scan_on_a_broken_table(family, rank, mode):
    rs = build_root_system(LieType(family, rank))
    cc = structure_constants(rs)
    keys = [(i, j) for i, row in enumerate(rs.add) for j, s in enumerate(row) if s >= rs.half]
    for key in (keys[0], keys[len(keys) // 2], keys[-1]):
        table = [list(row) for row in cc.table]
        # the entry and its sign partner c(-a, -b) = -c(a, b)
        for i, j in (key, (rs.neg[key[0]], rs.neg[key[1]])):
            table[i][j] = -table[i][j] if mode == "flipped" else 0
        broken = ChevalleyConstants(rs, tuple(map(tuple, table)))
        found = jacobi_violations(broken)
        assert found, key
        assert found == jacobi_scan(broken), key


@pytest.mark.parametrize("name,products", [("B6", 25_624), ("G2", 464)])
def test_jacobi_makes_one_product_per_double_bracket_term(monkeypatch, name, products):
    rs = build_root_system(LieType("B", 6)) if name == "B6" else from_cartan_matrix(CARTANS[name])
    rows = chevalley._bracket_rows(structure_constants(rs))
    made = []

    class Counted(int):
        def __mul__(self, other):
            made.append(None)
            return int.__mul__(self, other)

    def terms(a, b, c):
        # [[e_a, e_b], e_c]: one product per term of [e_a, e_b] and term of [e_m, e_c]
        return sum(len(rows[m][c]) for m, _ in rows[a][b])

    expected = sum(
        terms(i, j, k) + terms(j, k, i) + terms(k, i, j)
        for i, j, k in itertools.combinations(range(len(rows)), 3)
    )
    counted = [[tuple((m, Counted(v)) for m, v in cell) for cell in row] for row in rows]
    monkeypatch.setattr(chevalley, "_bracket_rows", lambda cc: counted)
    assert jacobi_violations(structure_constants(rs)) == []
    assert len(made) == expected == products


def _assert_matches_root_arithmetic(rs):
    cc = structure_constants(rs)
    assert positive_sum_table(cc) == reference_structure_table(rs)
    for a in rs.roots:
        for b in rs.roots:
            if a != negative(b):
                assert table_constant(cc, a, b) == reference_constant(cc, a, b)
    report = verify_bracket_identities(cc)
    assert (report.entries, report.chain_entries) == reference_bracket_entries(cc)


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_constants_and_brackets_match_root_arithmetic(key):
    _assert_matches_root_arithmetic(build_root_system(LieType(*key)))


def test_constants_and_brackets_match_root_arithmetic_relabelled():
    rs = from_cartan_matrix(RELABELLED_B4)
    assert rs.lie_type is None
    _assert_matches_root_arithmetic(rs)
    assert jacobi_violations(structure_constants(rs)) == []


@pytest.mark.parametrize("name", ["G2", "G2_TRANSPOSED", "F4", "E6", "A1xA1", "B2xA1"])
def test_constants_and_brackets_match_root_arithmetic_beyond_the_classical(name):
    rs = from_cartan_matrix(CARTANS[name])
    _assert_matches_root_arithmetic(rs)


def test_a_non_integral_triple_is_refused():
    b2 = build_root_system(LieType("B", 2))
    # the short root (-1,-1) given the long squared length
    norms = list(b2.norms)
    assert b2.roots[1] == root((-1, -1)) and norms[1] == 1
    norms[1] = 2
    rs = RootSystem(b2.lie_type, b2.cartan, b2.lengths, b2.roots, tuple(norms))
    with pytest.raises(ArithmeticError, match=re.escape("((1,0), (-1,-1))")):
        structure_constants(rs)


@pytest.mark.parametrize(
    "cartan", [standard_cartan(LieType("B", 6)), CARTANS["G2"]], ids=["B6", "G2"]
)
def test_one_root_string_per_non_simple_positive_root(cartan, monkeypatch):
    rs = from_cartan_matrix(cartan)
    calls = []

    def counted(*args):
        calls.append(args)
        return root_string(*args)

    monkeypatch.setattr(chevalley, "root_string", counted)
    cc = structure_constants(rs)
    # the extraspecial pair of each non-simple positive root, from rs.steps
    assert calls == [(rs, rs.simple[s], p) for _, p, s in rs.steps]
    assert len(calls) == rs.half - rs.rank
    # the bracket identities read one string per ordered pair a != +-b
    calls.clear()
    verify_bracket_identities(cc)
    n = len(rs.roots)
    assert len(calls) == n * (n - 2)
