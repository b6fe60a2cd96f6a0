"""Root enumeration, strings, gradings and parabolic data."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import product

from conftest import (
    CLASSICAL,
    E6_CARTAN,
    F4_CARTAN,
    ORACLE_SYSTEMS,
    RELABELLED_B4,
    relabelled_cartan,
)
from corpus import CARTANS
from lie_oracles import (
    cartan_integer,
    euclid_cartan_integer,
    euclid_roots,
    graded_pieces,
    inner,
    is_positive,
    negative,
    parabolic_data,
    plus,
    positive_roots_within,
    reference_string,
    root_index,
    simple_roots,
    special_pairs,
    to_euclid,
)

from flagdomains.concavity import check_pseudoconcavity
from flagdomains.exact import exact_int
from flagdomains.realform import classify_roots
from flagdomains.rootsys import (
    LieType,
    build_root_system,
    from_cartan_matrix,
    grading,
    root,
    root_string,
    standard_cartan,
)

EXPECTED_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
}


@pytest.mark.parametrize("family,rank", CLASSICAL + [("A", 4), ("B", 4), ("C", 4), ("D", 3)])
def test_root_counts_and_closure(family, rank):
    rs = build_root_system(LieType(family, rank))
    assert len(rs.roots) == EXPECTED_COUNTS[family](rank)
    assert all(negative(a) in rs.roots for a in rs.roots)
    positives = {a for a in rs.roots if is_positive(a)}
    assert positives == set(rs.roots[rs.half:])
    assert 2 * len(positives) == len(rs.roots)


@pytest.mark.parametrize("family,rank", CLASSICAL)
def test_roots_match_euclidean_oracle(family, rank):
    rs = build_root_system(LieType(family, rank))
    enumerated = {to_euclid(family, rank, a.coeffs) for a in rs.roots}
    assert enumerated == euclid_roots(family, rank)


@pytest.mark.parametrize("family,rank", CLASSICAL)
def test_cartan_integers_match_euclidean_oracle(family, rank):
    rs = build_root_system(LieType(family, rank))
    roots = rs.roots
    for a in roots:
        for b in roots:
            got = cartan_integer(rs, a, b)
            want = euclid_cartan_integer(
                to_euclid(family, rank, a.coeffs), to_euclid(family, rank, b.coeffs)
            )
            assert got == want


def test_a2_has_expected_roots(a2):
    assert {a.coeffs for a in a2.roots} == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)
    }


def test_c2_has_long_root(c2):
    assert root((2, 1)) in c2.roots
    assert root((1, 2)) not in c2.roots


def test_a1_roots():
    rs = build_root_system(LieType("A", 1))
    assert {a.coeffs for a in rs.roots} == {(1,), (-1,)}


def test_cartan_integer_examples(a2, c2):
    s1, s2 = simple_roots(a2)
    assert cartan_integer(a2, s1, s2) == -1
    t1, t2 = simple_roots(c2)
    assert {cartan_integer(c2, t1, t2), cartan_integer(c2, t2, t1)} == {-1, -2}
    for a in a2.roots:
        assert cartan_integer(a2, a, a) == 2


def test_cartan_integer_rejects_nonroot(a2):
    with pytest.raises(ValueError):
        cartan_integer(a2, root((2, 0)), root((1, 0)))


def test_root_string_examples(a2, c2):
    pos = root_index(a2)
    s1, s2 = simple_roots(a2)
    assert root_string(a2, pos[negative(s1)], pos[plus(s1, s2)]) == (0, 1, pos[root((0, 1))])

    pos = root_index(c2)
    t1, t2 = simple_roots(c2)
    assert root_string(c2, pos[negative(t2)], pos[plus(t1, t2)]) == (0, 2, pos[root((2, 1))])
    assert root_string(c2, pos[negative(t1)], pos[plus(t1, t2)]) == (1, 1, pos[root((0, 1))])


def test_root_string_rejects_proportional(a2):
    i = a2.simple[0]
    with pytest.raises(ValueError, match="needs i != j"):
        root_string(a2, i, i)
    with pytest.raises(ValueError, match="needs i != j"):
        root_string(a2, i, a2.neg[i])


@pytest.mark.parametrize("family,rank", CLASSICAL)
def test_string_extents_equal_cartan_integer(family, rank):
    rs = build_root_system(LieType(family, rank))
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            if a == b or a == negative(b):
                continue
            r, q, _ = root_string(rs, i, j)
            assert r - q == cartan_integer(rs, a, b)
            assert root_string(rs, rs.neg[i], j)[:2] == (q, r)


def _assert_strings_match_root_arithmetic(rs):
    roots, neg = rs.roots, rs.neg
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            if i == j or i == neg[j]:
                with pytest.raises(ValueError):
                    root_string(rs, i, j)
                continue
            r, q, top = root_string(rs, i, j)
            expected_r, expected_q, members = reference_string(rs, a, b)
            assert (r, q, roots[top]) == (expected_r, expected_q, members[-1])
            # the string through -a is the mirror image of the one through a
            assert root_string(rs, neg[i], j)[:2] == (q, r)


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_root_strings_match_root_arithmetic(key):
    _assert_strings_match_root_arithmetic(build_root_system(LieType(*key)))


def test_root_strings_match_root_arithmetic_relabelled():
    rs = from_cartan_matrix(RELABELLED_B4)
    assert rs.lie_type is None
    _assert_strings_match_root_arithmetic(rs)


# B3 on the first three simple roots, A2 on the last two
B3_A2_CARTAN = [
    [2, -1, 0, 0, 0],
    [-1, 2, -2, 0, 0],
    [0, -1, 2, 0, 0],
    [0, 0, 0, 2, -1],
    [0, 0, 0, -1, 2],
]

TABLE_CARTANS = (
    [standard_cartan(LieType(*key)) for key in ORACLE_SYSTEMS]
    + [RELABELLED_B4, [[2, -1], [-3, 2]], F4_CARTAN, E6_CARTAN, B3_A2_CARTAN]
    + [[[2, -3], [-1, 2]], [[2, 0], [0, 2]], [[2, -2, 0], [-1, 2, 0], [0, 0, 2]]]
)


def _assert_tables_match_root_arithmetic(cartan):
    rs = from_cartan_matrix(cartan)
    positives = positive_roots_within(cartan)
    heights = [sum(a.coeffs) for a in rs.roots]
    assert heights == sorted(heights)
    assert list(rs.roots) == [negative(a) for a in reversed(positives)] + positives
    assert rs.roots[rs.half:] == tuple(positives)
    members = frozenset(rs.roots)
    assert len(members) == len(rs.roots) == 2 * rs.half
    assert tuple(rs.roots[s] for s in rs.simple) == simple_roots(rs)
    for i, a in enumerate(rs.roots):
        assert rs.roots[rs.neg[i]] == negative(a)
        assert rs.norms[i] == inner(rs, a, a)
        assert (i >= rs.half) == is_positive(a)
        for j, b in enumerate(rs.roots):
            s = rs.add[i][j]
            assert (s >= 0) == (plus(a, b) in members)
            if s >= 0:
                assert rs.roots[s] == plus(a, b)


def test_index_tables():
    for cartan in TABLE_CARTANS:
        _assert_tables_match_root_arithmetic(cartan)


@pytest.mark.parametrize("cartan", TABLE_CARTANS)
def test_steps_build_each_positive_root_from_a_lower_one(cartan):
    rs = from_cartan_matrix(cartan)
    assert [k for k, _, _ in rs.steps] == [
        k for k in range(rs.half, len(rs.roots)) if sum(rs.roots[k].coeffs) >= 2
    ]
    for k, p, s in rs.steps:
        assert rs.half <= p < k
        unit = tuple(int(t == s) for t in range(rs.rank))
        assert rs.roots[k].coeffs == tuple(map(sum, zip(rs.roots[p].coeffs, unit)))


STEPS_SYSTEMS = {f"{f}{r}": standard_cartan(LieType(f, r)) for f, r in ORACLE_SYSTEMS}
STEPS_SYSTEMS.update(
    (name, CARTANS[name]) for name in ("G2", "G2_TRANSPOSED", "F4", "E6", "A1xA1", "B2xA1")
)


@pytest.mark.parametrize("name", STEPS_SYSTEMS)
def test_each_step_is_the_extraspecial_pair(name):
    # the constants table and the matrix realization both read the pair here
    rs = from_cartan_matrix(STEPS_SYSTEMS[name])
    for k, p, s in rs.steps:
        assert special_pairs(rs, rs.roots[k])[0] == (rs.roots[rs.simple[s]], rs.roots[p])


@st.composite
def graded_table_systems(draw):
    """A system of TABLE_CARTANS and a grading of any sign on it."""
    rs = from_cartan_matrix(draw(st.sampled_from(TABLE_CARTANS)))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=rs.rank, max_size=rs.rank))
    return rs, grading(coeffs)


@given(case=graded_table_systems())
@settings(max_examples=150, deadline=None)
def test_values_along_the_steps_equal_the_dot_products(case):
    rs, e = case
    assert classify_roots(rs, e).values == tuple(e.value(a) for a in rs.roots)


def test_root_strings_match_root_arithmetic_on_the_table_cartans():
    # the tests above cover the classical systems and RELABELLED_B4
    for cartan in TABLE_CARTANS[TABLE_CARTANS.index(RELABELLED_B4) + 1:]:
        _assert_strings_match_root_arithmetic(from_cartan_matrix(cartan))


def test_index_is_built_on_first_use():
    rs = from_cartan_matrix(relabelled_cartan(LieType("C", 3), (1, 2, 0)))
    # the norms come with the roots, from the same reflection orbit
    assert "norms" in vars(rs) and len(rs.norms) == len(rs.roots)
    assert not {"simple", "add", "neg", "steps", "strings"} & set(vars(rs))
    root_string(rs, *rs.simple[:2])
    assert {"simple", "add", "neg", "strings"} <= set(vars(rs))
    # a root string needs no steps; grading the roots builds them
    assert "steps" not in vars(rs)
    e = grading((1, 0, 1))
    classify_roots(rs, e)
    assert "steps" in vars(rs)
    # a sweep of a system it has swept before builds nothing new
    check_pseudoconcavity(rs, e)
    built = dict(vars(rs))
    check_pseudoconcavity(rs, e)
    assert vars(rs).keys() == built.keys()
    assert all(vars(rs)[name] is table for name, table in built.items())


class _Unread:
    """Stands in for a table that must not be read."""

    def __getitem__(self, index):
        raise AssertionError("a root string read add or neg after the string table was built")


def test_root_strings_read_only_the_string_table():
    rs = build_root_system(LieType("B", 4))
    e = grading((0, 1, 0, 0))
    n = len(rs.roots)
    proportional = {(i, j) for j in range(n) for i in (j, rs.neg[j])}
    pairs = [(i, j) for i in range(n) for j in range(n) if (i, j) not in proportional]
    expected = [root_string(rs, i, j) for i, j in pairs]
    report = check_pseudoconcavity(rs, e)
    vars(rs).update(add=_Unread(), neg=_Unread())
    assert [root_string(rs, i, j) for i, j in pairs] == expected
    for i, j in proportional:
        with pytest.raises(ValueError, match="needs i != j"):
            root_string(rs, i, j)
    # the sweep reads its strings and the steps, which are built already
    assert check_pseudoconcavity(rs, e) == report


@pytest.mark.parametrize("cartan", TABLE_CARTANS)
def test_string_table_shares_equal_cells(cartan):
    # one tuple per distinct (r, q, top): with r + q <= 3 there are at most
    # ten shapes per top, so the table holds at most 10 |Phi| triples
    rs = from_cartan_matrix(cartan)
    n = len(rs.roots)
    for j, row in enumerate(rs.strings):
        assert len(row) == n
        assert [i for i, s in enumerate(row) if s is None] == sorted({j, rs.neg[j]})
    cells = [s for row in rs.strings for s in row if s is not None]
    assert len({id(s) for s in cells}) == len(set(cells)) <= 10 * n


def test_graded_pieces_a1():
    rs = build_root_system(LieType("A", 1))
    pieces = graded_pieces(rs, grading((1,)))
    assert {k: {a.coeffs for a in v} for k, v in pieces.items()} == {
        1: {(1,)},
        -1: {(-1,)},
    }


def test_graded_pieces_a2(a2):
    pieces = graded_pieces(a2, grading((1, 1)))
    assert {a.coeffs for a in pieces[2]} == {(1, 1)}
    assert {a.coeffs for a in pieces[1]} == {(1, 0), (0, 1)}
    assert {a.coeffs for a in pieces[-1]} == {(-1, 0), (0, -1)}
    assert {a.coeffs for a in pieces[-2]} == {(-1, -1)}


def test_graded_pieces_so5_labeling(so5_labeled):
    pieces = graded_pieces(so5_labeled, grading((1, 0)))
    negatives = set()
    for k, v in pieces.items():
        if k < 0:
            negatives |= {a.coeffs for a in v}
    assert negatives == {(-1, 0), (-1, -1), (-2, -1)}


grading_vectors = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4)


@given(
    key=st.sampled_from(CLASSICAL),
    raw=st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_graded_pieces_properties(key, raw):
    rs = build_root_system(LieType(*key))
    e = grading(raw[: rs.rank])
    pieces = graded_pieces(rs, e)
    assert sum(len(v) for v in pieces.values()) == len(rs.roots)
    for k, v in pieces.items():
        assert len(pieces.get(-k, frozenset())) == len(v)
        for a in v:
            assert e.value(a) == k
    # the bracket grading at root level
    for a in rs.roots:
        for b in rs.roots:
            s = plus(a, b)
            if s in rs.roots:
                assert e.value(s) == e.value(a) + e.value(b)


def test_parabolic_data_examples(a2, so5_labeled):
    rs1 = build_root_system(LieType("A", 1))
    pd = parabolic_data(rs1, grading((1,)))
    assert {a.coeffs for a in pd.parabolic_roots} == {(1,)}
    assert pd.crossed_nodes == (1,)
    assert pd.dim_domain == 1

    assert parabolic_data(a2, grading((1, 1))).dim_domain == 3
    assert parabolic_data(so5_labeled, grading((1, 0))).dim_domain == 3


def test_invalid_types():
    with pytest.raises(ValueError):
        LieType("E", 6)
    with pytest.raises(ValueError):
        LieType("D", 2)
    with pytest.raises(ValueError):
        LieType("B", 1)


def test_invalid_cartan_matrices():
    with pytest.raises(ValueError):
        from_cartan_matrix([[2, -1], [0, 2]])
    with pytest.raises(ValueError):
        from_cartan_matrix([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        from_cartan_matrix([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        # affine A1 tilde, not finite type
        from_cartan_matrix([[2, -2], [-2, 2]])


@pytest.mark.parametrize("rank", [3, 4])
def test_nonfinite_type_rejected_before_enumeration(rank):
    # all off-diagonals -2: symmetrizable, not of finite type; enumerating the
    # rank-4 matrix up to the old height guard took over 30 s
    cartan = [[2 if i == j else -2 for j in range(rank)] for i in range(rank)]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="does not define a finite root system"):
        from_cartan_matrix(cartan)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("family,rank", ORACLE_SYSTEMS)
def test_classical_systems_pass_the_finite_type_check(family, rank):
    rs = build_root_system(LieType(family, rank))
    assert len(rs.roots) == EXPECTED_COUNTS[family](rank)


def test_g2_passes_the_finite_type_check():
    g2 = from_cartan_matrix([[2, -1], [-3, 2]])
    assert g2.lie_type is None and len(g2.roots) == 12


def test_finite_type_check_agrees_with_enumeration():
    verdicts = []
    for a, b in product((0, -1, -2, -3), repeat=2):
        if (a == 0) != (b == 0):
            continue  # not a Cartan matrix: the zero pattern is not symmetric
        cartan = [[2, a], [b, 2]]
        enumerated = positive_roots_within(cartan)
        try:
            rs = from_cartan_matrix(cartan)
        except ValueError:
            rs = None
        assert (rs is None) == (enumerated is None), cartan
        if rs is not None:
            assert sorted(rs.roots[rs.half:]) == sorted(enumerated)
        verdicts.append(rs is not None)
    # A1xA1, A2, and B2 and G2 in both orientations; affine A1 and three
    # hyperbolic matrices
    assert verdicts.count(True) == 6 and verdicts.count(False) == 4


def test_override_matches_family(c2, so5_labeled):
    assert so5_labeled == c2
    assert so5_labeled.lie_type == LieType("C", 2)
    bourbaki_b2 = from_cartan_matrix([[2, -2], [-1, 2]])
    assert bourbaki_b2.lie_type == LieType("B", 2)
    assert {a.coeffs for a in bourbaki_b2.roots[bourbaki_b2.half:]} == {
        (1, 0), (0, 1), (1, 1), (1, 2)
    }


def test_json_round_trip(systems):
    for rs in systems.values():
        doc = json.loads(json.dumps(rs.to_json_dict(), sort_keys=True))
        rebuilt = from_cartan_matrix(doc["cartan"])
        assert rebuilt == rs
        assert rebuilt.to_json_dict() == rs.to_json_dict()
        assert all(isinstance(v, int) for row in doc["cartan"] for v in row)
        assert all(isinstance(v, int) for rt in doc["roots"] for v in rt)


def test_detected_family_appears_in_json(so5_labeled):
    assert json.loads(json.dumps(so5_labeled.to_json_dict()))["family"] == "C"


@pytest.mark.parametrize("value,expected", [(2, 2), (-3, -3), (2.0, 2), (-0.0, 0), (1e20, 10**20)])
def test_exact_int_accepts_exact_integers(value, expected):
    got = exact_int(value)
    assert got == expected and type(got) is int


@pytest.mark.parametrize(
    "value",
    [True, False, 1.5, -1.7, 1.9, float("nan"), float("inf"), "3", "1.5", None, [1], Fraction(1, 2)],
)
def test_exact_int_refuses_what_is_not_an_integer(value):
    with pytest.raises(ValueError):
        exact_int(value)


def test_constructors_refuse_truncated_numbers():
    with pytest.raises(ValueError):
        from_cartan_matrix([[2, -1.5], [-1, 2]])
    with pytest.raises(ValueError):
        grading((1.9, 1))
    with pytest.raises(ValueError):
        root((True, 0))
    assert from_cartan_matrix([[2.0, -1.0], [-1, 2]]).lie_type == LieType("A", 2)
    assert grading((1.0, 0)).coeffs == (1, 0) and root((1, 1.0)).coeffs == (1, 1)


@pytest.mark.parametrize("coeffs", [(1, 0), (1, 0, 0, 0)])
def test_grading_value_refuses_a_root_of_another_rank(coeffs):
    e = grading((1, 2, 3))
    with pytest.raises(ValueError, match="differ in rank"):
        e.value(root(coeffs))
    assert e.value(root((1, 1, -1))) == 0
