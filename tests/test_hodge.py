"""Period-domain groups, limit diamonds, boundary condition, sl2 Cayley forms."""

from fractions import Fraction
from itertools import product

import hodge_oracle
import numpy as np
import pytest
from hodge_oracle import cell, validate_diamond
from matrix_oracle import dense
from hypothesis import given, settings
from hypothesis import strategies as st

from flagdomains import exact, hodge
from flagdomains.hodge import (
    DegenerationSpec,
    HodgeNumbers,
    InfeasibleDegeneration,
    grading_values_on_V,
    group_of_period_domain,
    limit_diamond,
    period_report,
    sl2_cayley_checks,
)


def weight_eigenvalues(h: HodgeNumbers) -> tuple[Fraction, ...]:
    """Grading eigenvalues repeated with multiplicity, descending."""
    values = grading_values_on_V(h)
    out: list[Fraction] = []
    for p in range(h.weight, -1, -1):
        out.extend([values[p]] * h.hp(p))
    return tuple(out)


H3 = HodgeNumbers.from_descending(3, [1, 1, 1, 1])
H2 = HodgeNumbers.from_descending(2, [2, 1, 2])


def test_hodge_numbers_validation():
    with pytest.raises(ValueError):
        HodgeNumbers.from_descending(2, [1, 0, 2])  # not symmetric
    with pytest.raises(ValueError):
        HodgeNumbers.from_descending(1, [0, 0])
    with pytest.raises(ValueError):
        HodgeNumbers.from_descending(2, [1, 1])  # wrong length
    with pytest.raises(ValueError):
        HodgeNumbers.from_descending(1, [1.5, 1.5])  # int() would read 1
    assert HodgeNumbers.from_descending(1, [1.0, 1.0]).h == (1, 1)


def test_group_weight3():
    g = group_of_period_domain(H3)
    assert g["family"] == "symplectic"
    assert g["parameters"] == [2]
    assert g["isotropy"] == "U(1) x U(1)"
    assert g["note"] is None


def test_group_weight2_with_label_note():
    g = group_of_period_domain(H2)
    assert g["family"] == "indefinite-orthogonal"
    assert g["parameters"] == [4, 1]
    assert g["isotropy"] == "U(2) x SO(1)"
    assert g["note"] is not None and "SO(2,1)" in g["note"] and "SO(4,1)" in g["note"]


def test_group_weight0_trivial():
    h = HodgeNumbers.from_descending(0, [5])
    g = group_of_period_domain(h)
    assert g["family"] == "indefinite-orthogonal"
    assert g["parameters"] == [5, 0]
    assert g["trivial"]


def test_group_half_dimension():
    # conjugation symmetry forces an even total dimension for odd weight,
    # so the half parameter is always integral
    h = HodgeNumbers.from_descending(3, [1, 2, 2, 1])
    assert group_of_period_domain(h)["parameters"] == [3]
    assert group_of_period_domain(HodgeNumbers(weight=1, h=(1, 1)))["parameters"] == [1]


def test_grading_values():
    vals = grading_values_on_V(H3)
    assert vals == {
        0: Fraction(-3, 2),
        1: Fraction(-1, 2),
        2: Fraction(1, 2),
        3: Fraction(3, 2),
    }
    eigs = weight_eigenvalues(H2)
    assert list(eigs) == [1, 1, 0, -1, -1]
    assert sum(weight_eigenvalues(H3)) == 0
    assert grading_values_on_V(HodgeNumbers.from_descending(2, [1, 1, 1]))[1] == 0


def test_limit_diamond_weight3_pivot1():
    dia = limit_diamond(H3, DegenerationSpec(kind="I", p0=1))
    assert dia == {
        "weight": 3,
        "entries": {"0,3": 1, "1,1": 1, "2,2": 1, "3,0": 1},
        "rank_N": 1,
    }


def test_limit_diamond_weight3_pivot0():
    dia = limit_diamond(H3, DegenerationSpec(kind="I", p0=0))
    # nothing is left on the weight row
    assert dia == {
        "weight": 3,
        "entries": {"0,2": 1, "1,3": 1, "2,0": 1, "3,1": 1},
        "rank_N": 2,
    }


def test_limit_diamond_weight2_type2():
    dia = limit_diamond(H2, DegenerationSpec(kind="II"))
    assert dia == {
        "weight": 2,
        "entries": {"0,0": 1, "0,2": 1, "1,1": 1, "2,0": 1, "2,2": 1},
        "rank_N": 2,
    }


def test_limit_diamond_weight2_type1_center_pair():
    # the center class must host the chain image and its conjugate
    h = HodgeNumbers.from_descending(2, [1, 20, 1])
    dia = limit_diamond(h, DegenerationSpec(kind="I", p0=0))
    assert dia == {
        "weight": 2,
        "entries": {"0,1": 1, "1,0": 1, "1,1": 18, "1,2": 1, "2,1": 1},
        "rank_N": 2,
    }
    assert sum(dia["entries"].values()) == h.dim()


def test_clause_validation_pass(systems=None):
    for h, spec in [
        (H3, DegenerationSpec(kind="I", p0=0)),
        (H3, DegenerationSpec(kind="I", p0=1)),
        (H2, DegenerationSpec(kind="II")),
        (HodgeNumbers.from_descending(4, [1, 2, 3, 2, 1]), DegenerationSpec(kind="I", p0=0)),
        (HodgeNumbers.from_descending(4, [1, 2, 3, 2, 1]), DegenerationSpec(kind="II")),
    ]:
        dia = limit_diamond(h, spec)
        assert validate_diamond(h, spec, dia) == []


def test_infeasible_specs():
    with pytest.raises(InfeasibleDegeneration):
        limit_diamond(H3, DegenerationSpec(kind="II"))  # odd weight
    with pytest.raises(InfeasibleDegeneration):
        limit_diamond(H3, DegenerationSpec(kind="I", p0=2))  # 2 p0 >= n
    with pytest.raises(InfeasibleDegeneration):
        # center class too small for the chain image plus conjugate
        limit_diamond(H2, DegenerationSpec(kind="I", p0=0))
    with pytest.raises(InfeasibleDegeneration):
        # type II needs a nonzero center
        limit_diamond(
            HodgeNumbers.from_descending(2, [2, 0, 2]), DegenerationSpec(kind="II")
        )
    h = HodgeNumbers.from_descending(3, [1, 0, 0, 1])
    with pytest.raises(InfeasibleDegeneration):
        limit_diamond(h, DegenerationSpec(kind="I", p0=1))


def test_infeasible_messages():
    def message(h, spec):
        with pytest.raises(InfeasibleDegeneration) as info:
            limit_diamond(h, spec)
        return str(info.value)

    assert message(H3, DegenerationSpec(kind="II")) == "type II needs an even weight"
    assert message(H3, DegenerationSpec(kind="I", p0=2)) == "type I needs 2*p0 < n, got p0=2"
    assert message(H2, DegenerationSpec(kind="I", p0=0)) == "type I with p0=0 needs h^{1,1} >= 2"
    h = HodgeNumbers.from_descending(2, [2, 0, 2])
    assert message(h, DegenerationSpec(kind="II")) == "type II needs h^{1,1} >= 1"
    h = HodgeNumbers.from_descending(2, [0, 1, 0])
    assert message(h, DegenerationSpec(kind="II")) == "type II needs h^{0,2} >= 1"
    # string cells outside [0, n]^2: a negative pivot, and type II at weight 0
    h = HodgeNumbers.from_descending(0, [3])
    assert message(h, DegenerationSpec(kind="II")) == "type II puts i^{1,1} outside [0, 0]^2"
    assert (
        message(H3, DegenerationSpec(kind="I", p0=-1))
        == "type I with p0=-1 puts i^{0,4} outside [0, 3]^2"
    )


def test_spec_constructor_validation():
    with pytest.raises(ValueError):
        DegenerationSpec(kind="III")
    with pytest.raises(ValueError):
        DegenerationSpec(kind="I")
    with pytest.raises(ValueError):
        DegenerationSpec(kind="II", p0=1)
    for pivot in (True, False, 1.5, "1"):
        with pytest.raises(ValueError, match="^p0 must be an integer$"):
            DegenerationSpec(kind="I", p0=pivot)
    # an integral float reads as its int, as JSON gives one number type
    assert DegenerationSpec(kind="I", p0=1.0) == ("I", 1) and type(DegenerationSpec("I", 1.0).p0) is int


def boundary(h, spec):
    """The boundary verdict of period_report for one degeneration shape."""
    return period_report(h, spec)["degenerations"][0]["boundary"]


def test_boundary_condition_examples():
    rep = boundary(H3, DegenerationSpec(kind="I", p0=1))
    assert rep["condition_met"] and rep["witness_p"] == 3 and rep["witness_ell"] == 1
    rep = boundary(H3, DegenerationSpec(kind="I", p0=0))
    assert not rep["condition_met"] and rep["witness_p"] is None
    rep = boundary(H2, DegenerationSpec(kind="II"))
    assert rep["condition_met"] and rep["witness_p"] == 2 and rep["witness_ell"] == 0


def minimal_degenerations(h):
    """Every admissible shape of period_report, with its boundary verdict."""
    return [
        (DegenerationSpec(**d["spec"]), d["boundary"]) for d in period_report(h)["degenerations"]
    ]


def test_enumeration_examples():
    pairs = minimal_degenerations(H3)
    assert [(s.kind, s.p0) for s, _ in pairs] == [("I", 0), ("I", 1)]
    assert [r["condition_met"] for _, r in pairs] == [False, True]

    pairs = minimal_degenerations(H2)
    assert [(s.kind, s.p0) for s, _ in pairs] == [("II", None)]

    pairs = minimal_degenerations(HodgeNumbers.from_descending(1, [1, 1]))
    assert [(s.kind, s.p0) for s, _ in pairs] == [("I", 0)]


def _brute_admissible(spec, n, p):
    if spec.kind == "I":
        d = p - spec.p0
        return (d >= 2 and d % 2 == 0) or (d <= -1 and (1 - d) % 2 == 0)
    m = n // 2
    return (p - m - 1) % 2 == 0


def _brute_ell(spec, n, p):
    """ell of an admissible p, with 0 for the positive branch and 1 for the other."""
    if spec.kind == "I":
        d = p - spec.p0
        return (d // 2, 0) if d >= 2 else ((1 - d) // 2, 1)
    ell = (p - n // 2 - 1) // 2
    return ell, int(ell < 0)


def _brute_boundary(h, spec):
    """The verdict over every admissible p: the witness (p, ell) with the
    smallest |ell|, positive branch first, or (None, None)."""
    dia = limit_diamond(h, spec)
    n = h.weight
    hits = [
        (abs(ell), branch, p, ell)
        for p in range(-n, 2 * n + 1)
        if _brute_admissible(spec, n, p) and cell(dia, p, n - p) != 0
        for ell, branch in [_brute_ell(spec, n, p)]
    ]
    _, _, p, ell = min(hits, default=(None, None, None, None))
    return {"condition_met": bool(hits), "witness_p": p, "witness_ell": ell}


small_h = st.integers(min_value=0, max_value=3)


@given(weight=st.integers(min_value=1, max_value=6), data=st.data())
@settings(max_examples=120, deadline=None)
def test_boundary_condition_agrees_with_brute_force(weight, data):
    half = [data.draw(small_h) for _ in range((weight + 1) // 2 + (weight % 2 == 0))]
    # build a symmetric descending vector
    if weight % 2 == 0:
        values = half + half[-2::-1]
    else:
        values = half + half[::-1]
    assert len(values) == weight + 1
    if sum(values) == 0:
        values[0] = values[-1] = 1
    h = HodgeNumbers.from_descending(weight, values)
    for spec, verdict in minimal_degenerations(h):
        assert verdict == _brute_boundary(h, spec)
        dia = limit_diamond(h, spec)
        assert validate_diamond(h, spec, dia) == []
        assert sum(dia["entries"].values()) == h.dim()
        assert all(v >= 0 for v in dia["entries"].values())


def _symmetric_hodge(weight: int, top: int):
    """Every conjugation-symmetric Hodge vector of the weight with entries <= top."""
    for half in product(range(top + 1), repeat=weight // 2 + 1):
        values = list(half) + list(half[: (weight + 1) // 2][::-1])
        if any(values):
            yield HodgeNumbers.from_descending(weight, values)


def _specs(weight: int):
    """Type I at every pivot from -1 to n+1, and type II."""
    return [DegenerationSpec(kind="I", p0=p0) for p0 in range(-1, weight + 2)] + [
        DegenerationSpec(kind="II")
    ]


def _assert_rule_matches_oracle(h, spec):
    try:
        want = hodge_oracle.limit_diamond(h, spec)
    except InfeasibleDegeneration:
        want = None
    try:
        got = limit_diamond(h, spec)
    except InfeasibleDegeneration:
        got = None
    assert (got is None) == (want is None), (h, spec)
    if got is not None:
        assert got == want, (h, spec)
        assert validate_diamond(h, spec, got) == [], (h, spec)


@pytest.mark.parametrize("weight", range(11))
def test_string_rule_matches_oracle_exhaustively(weight):
    for h in _symmetric_hodge(weight, 2):
        for spec in _specs(weight):
            _assert_rule_matches_oracle(h, spec)


@given(weight=st.integers(min_value=0, max_value=12), data=st.data())
@settings(max_examples=200, deadline=None)
def test_string_rule_matches_oracle_for_larger_hodge_numbers(weight, data):
    half = data.draw(st.lists(st.integers(0, 40), min_size=weight // 2 + 1, max_size=weight // 2 + 1))
    values = half + half[: (weight + 1) // 2][::-1]
    if not any(values):
        values[0] = values[-1] = 1
    h = HodgeNumbers.from_descending(weight, values)
    spec = data.draw(st.sampled_from(_specs(weight)))
    _assert_rule_matches_oracle(h, spec)


DIMS = {"I": 2, "II": 3}


def unrealify(m: dict, dim: int) -> np.ndarray:
    """The complex dim x dim matrix A + iB of its real block matrix [[A, -B], [B, A]]."""
    big = dense(m, 2 * dim).real
    return big[:dim, :dim] + 1j * big[dim:, :dim]


def cayley_dense(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The package's d and d^-1 as complex arrays, type I's sqrt 2 taken out."""
    d, d_inv = hodge._cayley(kind)
    scale = np.sqrt(2) if kind == "I" else 1.0
    return unrealify(d, DIMS[kind]) / scale, unrealify(d_inv, DIMS[kind]) * scale


def expm_cayley(kind: str) -> np.ndarray:
    from scipy.linalg import expm

    nplus, _, nmat = hodge_oracle.sl2_model(kind)
    return expm(1j * np.pi / 4 * (nplus + nmat))


def test_sl2_cayley_type1():
    checks = sl2_cayley_checks("I")
    assert all(c["pass"] and c["residual"] == 0.0 for c in checks)
    d, _ = cayley_dense("I")
    assert np.abs(d - expm_cayley("I")).max() < 1e-12
    # explicit value: d(e1) = (e1 + i e2)/sqrt(2)
    assert np.abs(d[:, 0] - np.array([1, 1j]) / np.sqrt(2)).max() < 1e-12


def test_sl2_cayley_type2():
    checks = sl2_cayley_checks("II")
    assert all(c["pass"] and c["residual"] == 0.0 for c in checks)
    names = {c["claim"] for c in checks}
    assert any("d(N^2 v)" in n for n in names)
    d, _ = cayley_dense("II")
    assert np.abs(d - expm_cayley("II")).max() < 1e-12


def test_sl2_cayley_guard():
    with pytest.raises(ValueError):
        sl2_cayley_checks("III")


def sl2_x(kind: str) -> dict:
    """X = N+ + N of the package's triple."""
    _, nplus, _, nmat = hodge._sl2_model(kind)
    return exact.combo((1, nplus), (1, nmat))


def test_sl2_minimal_polynomials():
    x = sl2_x("I")
    assert exact.product(x, x) == {(0, 0): 1, (1, 1): 1}
    x = sl2_x("II")
    assert exact.product(exact.product(x, x), x) == exact.combo((4, x))


@pytest.mark.parametrize("kind", ["I", "II"])
def test_sl2_cayley_inverse_is_exact(kind):
    d, d_inv = hodge._cayley(kind)
    assert exact.product(d, d_inv) == {(r, r): 1 for r in range(2 * DIMS[kind])}
    # and every entry is an int or a Fraction
    assert all(type(v) in (int, Fraction) for v in (*d.values(), *d_inv.values()))


@pytest.mark.parametrize("kind,dim", [("I", 2), ("II", 3)])
def test_sl2_cayley_element_matches_the_float_shear_products(kind, dim):
    # the oracle builds d as a float three-shear product, the package from
    # the minimal polynomial of N+ + N
    assert not hasattr(hodge, "shear_product")
    d, d_inv = hodge_oracle.sl2_shear_products(kind)
    got, got_inv = cayley_dense(kind)
    assert got.shape == (dim, dim)
    assert np.abs(got - d).max() < 1e-15
    assert np.abs(got_inv - d_inv).max() < 1e-15
    # the float model checks the same claims, in the same order, to rounding
    floats = hodge_oracle.sl2_cayley_residuals(kind)
    assert [c["claim"] for c in sl2_cayley_checks(kind)] == [claim for claim, _ in floats]
    assert all(r < 1e-12 for _, r in floats)


def constant_off_by(monkeypatch, delta):
    """Patch the constant coefficient of d, and not of its inverse, by delta."""
    cayley = hodge._cayley

    def patched(kind):
        d, d_inv = cayley(kind)
        one = {(r, r): 1 for r in range(2 * DIMS[kind])}
        return exact.combo((1, d), (delta, one)), d_inv

    monkeypatch.setattr(hodge, "_cayley", patched)


def test_sl2_residual_is_not_vacuous(monkeypatch):
    constant_off_by(monkeypatch, Fraction(1, 2))
    for kind in ("I", "II"):
        first = sl2_cayley_checks(kind)[0]
        assert first["claim"] == f"sl2-cayley-{kind} d(v)"
        assert first["residual"] > 0.0 and not first["pass"]


def test_sl2_checks_fail_on_a_coefficient_off_by_1e_20(monkeypatch):
    # every residual stays below 1e-19, so a float threshold of 1e-12 passed it
    constant_off_by(monkeypatch, Fraction(1, 10**20))
    for kind in ("I", "II"):
        failed = [c for c in sl2_cayley_checks(kind) if not c["pass"]]
        assert failed and all(0.0 < c["residual"] < 1e-19 for c in failed)


def test_realified_arithmetic_matches_complex_numbers():
    rng = np.random.default_rng(3)
    dim = 3

    def gaussian_rational():
        """A random matrix with Gaussian-rational entries, realified and as numpy."""
        re, im = (rng.integers(-9, 10, (dim, dim)) for _ in "ab")
        parts = ({key: Fraction(int(v), 7) for key, v in np.ndenumerate(m)} for m in (re, im))
        return exact.combo((1, hodge._realify(*parts, dim))), (re + 1j * im) / 7

    for _ in range(50):
        (a, ca), (b, cb) = gaussian_rational(), gaussian_rational()
        assert np.abs(unrealify(exact.product(a, b), dim) - ca @ cb).max() < 1e-12
        assert np.abs(unrealify(exact.combo((1, a), (1, b)), dim) - (ca + cb)).max() < 1e-12
        # a vector a + ib is the column [a; b], and its conjugate negates the lower half
        column = {(r, 0): v for (r, c), v in a.items() if c == 0}
        conj = {(r, c): -v if r >= dim else v for (r, c), v in column.items()}
        got = dense(conj, 2 * dim).real[:, 0]
        assert np.abs(got[:dim] + 1j * got[dim:] - np.conj(ca[:, 0])).max() < 1e-12
