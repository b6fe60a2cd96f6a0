"""Library results are plain JSON values: what the CLI prints, unwrapped."""

import json

import pytest

from flagdomains.concavity import check_pseudoconcavity
from flagdomains.exact import make_check
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
from flagdomains.rootsys import LieType, build_root_system, grading


def _cayley():
    return verify_cayley_conjugation(fundamental_rep(build_root_system(LieType("B", 2))))


def _fixed_point(family, coeffs):
    rs = build_root_system(LieType(family, len(coeffs)))
    report = check_pseudoconcavity(rs, grading(coeffs))
    return verify_fixed_point(fundamental_rep(rs), report, [0.1, 1.0])


def _boundary(h, spec):
    """The boundary verdict of one degeneration shape."""
    return period_report(h, spec)["degenerations"][0]["boundary"]


def _levi():
    terms = [{"c": 1, "z": [1, 0], "zbar": [1, 0]}, {"c": -1, "z": [0, 1], "zbar": [0, 1]}]
    return levi_analyze(DefiningFunction.from_polynomial(2, [1, 0], terms + [{"c": -1}]))


RESULTS = {
    "make_check": lambda: make_check("claim", 1, False, sign=-1, info={"string": [0, 1]}),
    "cayley": _cayley,
    "fixed_point": lambda: _fixed_point("A", (1, 1)),
    "fixed_point_no_witness": lambda: _fixed_point("C", (1, 1)),
    "sl2_checks_I": lambda: sl2_cayley_checks("I"),
    "sl2_checks_II": lambda: sl2_cayley_checks("II"),
    "levi": _levi,
    "group_odd": lambda: group_of_period_domain(HodgeNumbers(weight=3, h=(1, 1, 1, 1))),
    "group_even": lambda: group_of_period_domain(HodgeNumbers(weight=2, h=(2, 1, 2))),
    "limit_diamond": lambda: limit_diamond(
        HodgeNumbers(weight=2, h=(2, 1, 2)), DegenerationSpec("II")
    ),
    "boundary_met": lambda: _boundary(
        HodgeNumbers(weight=3, h=(1, 1, 1, 1)), DegenerationSpec("I", 1)
    ),
    "boundary_not_met": lambda: _boundary(
        HodgeNumbers(weight=1, h=(1, 1)), DegenerationSpec("I", 0)
    ),
}


@pytest.mark.parametrize("make", RESULTS.values(), ids=RESULTS.keys())
def test_result_is_a_plain_json_value(make):
    result = make()
    assert json.loads(json.dumps(result)) == result
