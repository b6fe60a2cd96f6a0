"""Compactness classification by grading parity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLASSICAL, ORACLE_SYSTEMS
from lie_oracles import negative, plus

from flagdomains.concavity import check_pseudoconcavity
from flagdomains.realform import classify_roots
from flagdomains.rootsys import LieType, build_root_system, grading


def coeffset(roots):
    return {a.coeffs for a in roots}


def test_a2_classification(a2):
    table = classify_roots(a2, grading((1, 1)))
    assert coeffset(table.compact) == {(1, 1), (-1, -1)}
    assert coeffset(table.noncompact) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_so5_labeling_classification(so5_labeled):
    table = classify_roots(so5_labeled, grading((1, 0)))
    assert coeffset(table.compact) == {(0, 1), (0, -1), (2, 1), (-2, -1)}
    assert coeffset(table.noncompact) == {(1, 0), (-1, 0), (1, 1), (-1, -1)}


def test_c2_classification(c2):
    table = classify_roots(c2, grading((1, 1)))
    assert coeffset(table.compact) == {(1, 1), (-1, -1)}
    assert coeffset(table.noncompact) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (2, 1), (-2, -1)
    }


def noncompact_negatives(rs, e):
    return tuple(rs.roots[i] for i in check_pseudoconcavity(rs, e).noncompact_negatives)


def test_noncompact_negatives_examples(a2, so5_labeled):
    assert coeffset(noncompact_negatives(a2, grading((1, 1)))) == {(-1, 0), (0, -1)}
    assert coeffset(noncompact_negatives(so5_labeled, grading((1, 0)))) == {(-1, 0), (-1, -1)}
    a1 = build_root_system(LieType("A", 1))
    assert coeffset(noncompact_negatives(a1, grading((1,)))) == {(-1,)}


@given(
    key=st.sampled_from(CLASSICAL),
    raw=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_partition_and_parity_additivity(key, raw):
    rs = build_root_system(LieType(*key))
    e = grading(raw[: rs.rank])
    table = classify_roots(rs, e)
    assert set(table.compact) | set(table.noncompact) == set(rs.roots)
    assert not set(table.compact) & set(table.noncompact)
    assert {negative(a) for a in table.compact} == set(table.compact)
    assert {negative(a) for a in table.noncompact} == set(table.noncompact)
    for a in table.compact:
        for b in table.compact:
            s = plus(a, b)
            if s in rs.roots:
                assert s in table.compact
    if any(e.coeffs):
        negs = noncompact_negatives(rs, e)
        assert set(negs) == {a for a in table.noncompact if e.value(a) < 0}


@pytest.mark.parametrize("key", ORACLE_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
def test_classify_roots_partitions_the_roots_in_their_order(key):
    rs = build_root_system(LieType(*key))
    for e in (grading((1,) * rs.rank), grading((0,) * (rs.rank - 1) + (1,)), grading((2,) * rs.rank)):
        table = classify_roots(rs, e)
        assert table.values == tuple(e.value(a) for a in rs.roots)
        assert table.compact == tuple(a for a in rs.roots if e.value(a) % 2 == 0)
        assert table.noncompact == tuple(a for a in rs.roots if e.value(a) % 2 != 0)
        assert noncompact_negatives(rs, e) == tuple(
            a for a in table.noncompact if e.value(a) < 0
        )
