"""The library's records: immutable, compared by value, validated when built."""

import pytest

from flagdomains.chevalley import structure_constants, verify_bracket_identities
from flagdomains.concavity import check_pseudoconcavity
from flagdomains.hodge import DegenerationSpec, HodgeNumbers
from flagdomains.leviform import DefiningFunction
from flagdomains.matrixrep import fundamental_rep
from flagdomains.realform import classify_roots
from flagdomains.rootsys import (
    GradingElement,
    LieType,
    Root,
    RootSystem,
    build_root_system,
    from_cartan_matrix,
    grading,
    root,
    standard_cartan,
)


def _a2():
    return build_root_system(LieType("A", 2))


RECORDS = {
    "LieType": lambda: LieType("A", 2),
    "Root": lambda: root((1, 0)),
    "GradingElement": lambda: grading((1, 0)),
    "RootSystem": _a2,
    "CompactnessTable": lambda: classify_roots(_a2(), grading((1, 1))),
    "ConcavityReport": lambda: check_pseudoconcavity(_a2(), grading((1, 1))),
    "ChevalleyConstants": lambda: structure_constants(_a2()),
    "BracketReport": lambda: verify_bracket_identities(structure_constants(_a2())),
    "DefiningFunction": lambda: DefiningFunction.from_polynomial(1, [0], [{"c": 1}]),
    "MatrixRealization": lambda: fundamental_rep(_a2()),
    "WeylElement": lambda: fundamental_rep(_a2()).weyl(_a2().roots.index(root((1, 0)))),
    "HodgeNumbers": lambda: HodgeNumbers(1, (1, 1)),
    "DegenerationSpec": lambda: DegenerationSpec("I", 0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_attributes_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = next(iter(getattr(record, "_fields", None) or vars(record)))
    before = getattr(record, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    assert getattr(record, field) is before and not hasattr(record, "extra")


def test_roots_equal_only_roots():
    a = Root((1, 0))
    assert a == root([1, 0]) and hash(a) == hash(root([1, 0]))
    assert a != GradingElement((1, 0)) and GradingElement((1, 0)) != a
    assert a != ((1, 0),) and ((1, 0),) != a
    assert not a == GradingElement((1, 0)) and not a == ((1, 0),)
    assert {a: 1}.get(Root((1, 0))) == 1 and ((1, 0),) not in {a}


@pytest.mark.parametrize("make", [root, grading], ids=["Root", "GradingElement"])
def test_roots_and_gradings_define_no_arithmetic(make):
    # as tuples they would concatenate and repeat: a leftover a + b in an
    # oracle would build a nested tuple instead of failing
    a, b = make((1, 0)), make((0, 1))
    ops = (lambda: a + b, lambda: (1, 0) + a, lambda: a * 2, lambda: 2 * a, lambda: a - b, lambda: -a)
    for op in ops:
        with pytest.raises(TypeError):
            op()


def test_roots_sort_by_their_coefficients():
    for family, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4)):
        roots = build_root_system(LieType(family, rank)).roots
        assert sorted(roots) == sorted(roots, key=lambda a: a.coeffs)


def test_root_systems_compare_by_their_cartan_data():
    cartan = standard_cartan(LieType("B", 3))
    built = build_root_system(LieType("B", 3))
    copy = RootSystem(
        built.lie_type, cartan, built.lengths, built.roots[::-1], built.norms[::-1]
    )
    assert copy == built and hash(copy) == hash(built)
    assert from_cartan_matrix([list(row) for row in cartan]) == built
    assert built != build_root_system(LieType("C", 3)) and built != cartan


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: LieType("E", 6), "unknown family 'E'"),
        (lambda: LieType("A", 2)._replace(rank=0), "family A needs rank >= 1, got 0"),
        (lambda: HodgeNumbers(2, (1, 0, 2)), "Hodge numbers must be conjugation symmetric"),
        (lambda: HodgeNumbers(1, (1, 1))._replace(weight=2), "need 3 Hodge numbers for weight 2"),
        (lambda: HodgeNumbers(-1, ()), "total dimension must be positive"),
        (lambda: DegenerationSpec("I"), "type I needs a pivot p0"),
        (lambda: DegenerationSpec("II")._replace(kind="III"), "kind must be 'I' or 'II'"),
    ],
    ids=["lie-type", "lie-type-replace", "hodge", "hodge-replace", "hodge-negative-weight",
         "spec", "spec-replace"],
)
def test_validating_records_refuse_bad_fields(make, message):
    with pytest.raises(ValueError, match=message):
        make()
