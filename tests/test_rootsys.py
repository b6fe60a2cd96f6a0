"""Root enumeration, strings, gradings and parabolic data."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import islice, permutations, product

from conftest import CLASSICAL, ORACLE_SYSTEMS, RELABELLED_B4, relabelled_cartan
from lie_oracles import (
    cartan_integer,
    euclid_cartan_integer,
    euclid_roots,
    graded_pieces,
    is_positive,
    parabolic_data,
    positive_roots_within,
    reference_string,
    to_euclid,
)

from flagdomains.chevalley import structure_constants
from flagdomains.rootsys import (
    LieType,
    _build_cached,
    build_root_system,
    exact_int,
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
    assert all(-a in rs.roots for a in rs.roots)
    positives = {a for a in rs.roots if is_positive(a)}
    assert positives == set(rs.positive_roots)
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
    s1, s2 = a2.simple_roots()
    assert cartan_integer(a2, s1, s2) == -1
    t1, t2 = c2.simple_roots()
    assert {cartan_integer(c2, t1, t2), cartan_integer(c2, t2, t1)} == {-1, -2}
    for a in a2.roots:
        assert cartan_integer(a2, a, a) == 2


def test_cartan_integer_rejects_nonroot(a2):
    with pytest.raises(ValueError):
        cartan_integer(a2, root((2, 0)), root((1, 0)))


def test_root_string_examples(a2, c2):
    s1, s2 = a2.simple_roots()
    assert root_string(a2, -s1, s1 + s2) == (0, 1, (root((-1, 0)), root((0, 1))))

    t1, t2 = c2.simple_roots()
    assert root_string(c2, -t2, t1 + t2) == (
        0, 2, (root((0, -1)), root((1, 0)), root((2, 1)))
    )
    assert root_string(c2, -t1, t1 + t2) == (
        1, 1, (root((-2, -1)), root((-1, 0)), root((0, 1)))
    )


def test_root_string_rejects_proportional(a2):
    s1, _ = a2.simple_roots()
    with pytest.raises(ValueError):
        root_string(a2, s1, s1)
    with pytest.raises(ValueError):
        root_string(a2, s1, -s1)


@pytest.mark.parametrize("family,rank", CLASSICAL)
def test_string_extents_equal_cartan_integer(family, rank):
    rs = build_root_system(LieType(family, rank))
    for a in rs.roots:
        for b in rs.roots:
            if a == b or a == -b:
                continue
            r, q, _ = root_string(rs, a, b)
            assert r - q == cartan_integer(rs, a, b)
            assert root_string(rs, -a, b)[:2] == (q, r)


def _assert_strings_match_root_arithmetic(rs):
    for a in rs.roots:
        for b in rs.roots:
            if a == b or a == -b:
                continue
            assert root_string(rs, a, b) == reference_string(rs, a, b)


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_root_strings_match_root_arithmetic(key):
    _assert_strings_match_root_arithmetic(build_root_system(LieType(*key)))


def test_root_strings_match_root_arithmetic_relabelled():
    rs = from_cartan_matrix(RELABELLED_B4)
    assert rs.lie_type is None
    _assert_strings_match_root_arithmetic(rs)


F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
E6_CARTAN = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]
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
)


def _assert_tables_match_root_arithmetic(cartan):
    rs = from_cartan_matrix(cartan)
    positives = positive_roots_within(cartan)
    heights = [a.height for a in rs.roots]
    assert heights == sorted(heights)
    assert list(rs.roots) == [-a for a in reversed(positives)] + positives
    assert rs.positive_roots == rs.roots[rs.half:] == tuple(positives)
    members = frozenset(rs.roots)
    assert len(members) == len(rs.pos) == len(rs.roots) == 2 * rs.half
    assert all(rs.pos[a] == i for i, a in enumerate(rs.roots))
    for i, a in enumerate(rs.roots):
        assert rs.roots[rs.neg[i]] == -a
        assert rs.norms[i] == rs.length2(a)
        assert (i >= rs.half) == is_positive(a)
        for j, b in enumerate(rs.roots):
            s = rs.add[i][j]
            assert (s >= 0) == ((a + b) in members)
            if s >= 0:
                assert rs.roots[s] == a + b


def test_index_tables():
    for cartan in TABLE_CARTANS:
        _assert_tables_match_root_arithmetic(cartan)


def test_index_is_built_on_first_use():
    # built past the cache, which may hold this system with its tables from an earlier test
    cartan = tuple(map(tuple, relabelled_cartan(LieType("C", 3), (1, 2, 0))))
    rs = _build_cached.__wrapped__(cartan)
    assert not {"pos", "add", "neg", "norms"} & set(vars(rs))
    root_string(rs, *rs.simple_roots()[:2])
    assert {"pos", "add", "neg"} <= set(vars(rs)) and "norms" not in vars(rs)


def test_caches_stay_bounded():
    size = _build_cached.cache_info().maxsize
    assert size >= 32 and structure_constants.cache_info().maxsize >= 32
    # distinct relabellings of A5, more of them than either cache keeps
    a5 = LieType("A", 5)
    matrices = {
        tuple(map(tuple, relabelled_cartan(a5, p))) for p in islice(permutations(range(5)), 200)
    }
    assert len(matrices) > size + 8
    for m in sorted(matrices)[: size + 8]:
        structure_constants(from_cartan_matrix(m))
    assert _build_cached.cache_info().currsize <= size
    assert (
        structure_constants.cache_info().currsize
        <= structure_constants.cache_info().maxsize
    )


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
            s = a + b
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
            assert sorted(rs.positive_roots) == sorted(enumerated)
        verdicts.append(rs is not None)
    # A1xA1, A2, and B2 and G2 in both orientations; affine A1 and three
    # hyperbolic matrices
    assert verdicts.count(True) == 6 and verdicts.count(False) == 4


def test_override_matches_family(c2, so5_labeled):
    assert so5_labeled == c2
    assert so5_labeled.lie_type == LieType("C", 2)
    bourbaki_b2 = from_cartan_matrix([[2, -2], [-1, 2]])
    assert bourbaki_b2.lie_type == LieType("B", 2)
    assert {a.coeffs for a in bourbaki_b2.positive_roots} == {
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
