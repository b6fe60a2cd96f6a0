"""Levi form analysis from closed-form Wirtinger derivatives."""

import math
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from levi_oracle import fd_levi_analyze, polynomial_value

from flagdomains import leviform
from flagdomains.leviform import DefiningFunction, levi_analyze


def unit(n, k):
    return [1 if i == k else 0 for i in range(n)]


def modulus_terms(coeffs):
    """Terms of sum_k c_k |z_k|^2."""
    n = len(coeffs)
    return [{"c": c, "z": unit(n, k), "zbar": unit(n, k)} for k, c in enumerate(coeffs)]


def hermitian_terms(h):
    """Terms of conj(z)^T H z = sum_{k,l} H_kl conj(z_k) z_l."""
    n = len(h)
    return [
        {"c": [h[k, ell].real, h[k, ell].imag], "z": unit(n, ell), "zbar": unit(n, k)}
        for k in range(n)
        for ell in range(n)
    ]


def linear_terms(b):
    """Terms of 2 Re(b . z), whose Wirtinger gradient is b everywhere."""
    n = len(b)
    return [{"c": [2 * bk.real, 2 * bk.imag], "z": unit(n, k)} for k, bk in enumerate(b)]


def sphere(n, sign=1.0, radius=1.0):
    return DefiningFunction.from_polynomial(
        n, [radius] + [0.0] * (n - 1), modulus_terms([sign] * n) + [{"c": -sign * radius}]
    )


def normal_form(lam2, lam3, scale=1.0):
    """scale * (2 Re z_1 + lam2 |z_2|^2 + lam3 |z_3|^2) as terms."""
    linear = linear_terms(np.array([scale, 0, 0], dtype=complex))
    return linear + modulus_terms([0, scale * lam2, scale * lam3])


def test_ball_boundary_not_pseudoconcave():
    report = levi_analyze(sphere(3))
    assert len(report["eigenvalues"]) == 2
    assert report["negatives"] == 0
    assert not report["pseudoconcave_point"]
    assert np.allclose(report["eigenvalues"], [1.0, 1.0], rtol=0, atol=1e-12)


def test_ball_complement_pseudoconcave():
    report = levi_analyze(sphere(3, sign=-1.0))
    assert report["negatives"] == 2
    assert report["pseudoconcave_point"]
    assert np.allclose(report["eigenvalues"], [-1.0, -1.0], rtol=0, atol=1e-12)


def test_normal_form_mixed_signature():
    lam2, lam3 = -2.5, 0.75
    f = DefiningFunction.from_polynomial(3, [0, 0, 0], normal_form(lam2, lam3))
    report = levi_analyze(f)
    assert report["negatives"] == 1
    assert report["pseudoconcave_point"]
    assert np.allclose(report["eigenvalues"], [lam2, lam3], rtol=0, atol=1e-12)


def test_vanishing_gradient_rejected():
    f = DefiningFunction.from_polynomial(2, [0, 0], modulus_terms([1, 1]))
    with pytest.raises(ValueError):
        levi_analyze(f)


def test_quadratic_hessian_accuracy():
    rng = np.random.default_rng(7)
    n = 3
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = 0.5 * (a + a.conj().T)
    terms = linear_terms(np.array(unit(n, 0), dtype=complex)) + hermitian_terms(herm)
    report = levi_analyze(DefiningFunction.from_polynomial(n, [0] * n, terms))
    # restrict exactly: the plane is w[0] = 0
    exact = np.linalg.eigvalsh(herm[1:, 1:])
    assert np.allclose(sorted(report["eigenvalues"]), sorted(exact), rtol=0, atol=1e-12)


@given(scale=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=20, deadline=None)
def test_signature_invariant_under_positive_scaling(scale):
    terms = normal_form(-1.5, 2.0, scale)
    report = levi_analyze(DefiningFunction.from_polynomial(3, [0, 0, 0], terms))
    assert report["negatives"] == 1
    assert sum(1 for v in report["eigenvalues"] if v > 0) == 1


def test_signature_invariant_under_unitary_change():
    lam = np.array([-1.0, 0.5, 2.0])
    rng = np.random.default_rng(11)
    # base(w) = 2 Re w_1 + sum_k lam_k |w_k|^2
    base_terms = linear_terms(np.array([1, 0, 0], dtype=complex)) + modulus_terms(lam)
    base_report = levi_analyze(DefiningFunction.from_polynomial(3, [0, 0, 0], base_terms))
    for _ in range(5):
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(raw)
        # base(u z): 2 Re (u z)_1 + conj(z)^T (u^H diag(lam) u) z
        terms = linear_terms(u[0]) + hermitian_terms(u.conj().T @ np.diag(lam) @ u)
        report = levi_analyze(DefiningFunction.from_polynomial(3, [0, 0, 0], terms))
        assert report["negatives"] + sum(1 for v in report["eigenvalues"] if v > 0) == 2
        # full signature on the respective tangent planes can differ only by
        # the plane; the count of negative directions of the ambient form is
        # preserved, and for these diagonal models the restricted counts agree
        assert report["negatives"] == base_report["negatives"]


def test_polynomial_mode_matches_callback():
    f = sphere(3)

    def ball(z):
        return float(np.sum(np.abs(z) ** 2).real) - 1.0

    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert abs(polynomial_value(f)(z) - ball(z)) < 1e-12
    report = levi_analyze(f)
    direct = fd_levi_analyze(ball, f.z0)
    assert np.allclose(report["eigenvalues"], direct["eigenvalues"], atol=1e-9)
    assert report["negatives"] == direct["negatives"]


def test_polynomial_validation():
    with pytest.raises(ValueError):
        DefiningFunction.from_polynomial(2, [0, 0], [{"c": 1, "z": [1], "zbar": [0, 0]}])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_hermitian_form_plus_linear_term_is_exact(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = 0.5 * (a + a.conj().T)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    # the tangent plane is {w : b . w = 0}; an orthonormal basis of it is the
    # complement of conj(b) in a QR factorization, independent of the SVD
    q = np.linalg.qr(np.column_stack([b.conj(), np.eye(n)[:, : n - 1]]))[0][:, 1:]
    exact = np.linalg.eigvalsh(q.conj().T @ herm @ q)
    norm = float(np.linalg.norm(herm))
    # eigenvalues within the zero threshold are reported as 0.0; tested above
    assume(np.min(np.abs(exact)) > 1e-5 * norm)
    f = DefiningFunction.from_polynomial(n, [0] * n, linear_terms(b) + hermitian_terms(herm))
    report = levi_analyze(f)
    assert np.allclose(report["eigenvalues"], exact, rtol=0, atol=1e-12 * (1 + norm))
    assert report["negatives"] == int(np.sum(exact < 0))
    assert abs(report["gradient_norm"] - np.linalg.norm(b)) <= 1e-12 * np.linalg.norm(b)


def random_polynomial(rng, n):
    """A real polynomial P + conj P of degree up to 4, some exponents negative."""
    terms = []
    for _ in range(int(rng.integers(3, 8))):
        e = [int(v) for v in rng.integers(-1, 3, size=n)]
        f = [int(v) for v in rng.integers(0, 3, size=n)]
        c = complex(rng.normal(), rng.normal())
        terms.append({"c": [c.real, c.imag], "z": e, "zbar": f})
        terms.append({"c": [c.real, -c.imag], "z": f, "zbar": e})
    return terms


def test_closed_form_matches_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        # off the origin, every coordinate of modulus in [0.8, 1.2]; the
        # tolerance bounds the oracle's own truncation error, which grows
        # with the degree and with 1/|z| for the negative exponents
        z0 = rng.uniform(0.8, 1.2, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
        f = DefiningFunction.from_polynomial(n, list(z0), random_polynomial(rng, n))
        report = levi_analyze(f)
        oracle = fd_levi_analyze(polynomial_value(f), z0)
        scale = 1.0 + max(abs(v) for v in report["eigenvalues"])
        assert np.allclose(report["eigenvalues"], oracle["eigenvalues"], rtol=0, atol=1e-6 * scale)
        assert abs(report["gradient_norm"] - oracle["gradient_norm"]) <= 1e-6 * report["gradient_norm"]


def test_negative_exponent_at_a_zero_coordinate_rejected():
    terms = [{"c": 1, "z": [-1, 0]}, {"c": 1, "z": [0, 1]}]
    with pytest.raises(ValueError, match="negative exponent"):
        levi_analyze(DefiningFunction.from_polynomial(2, [0, 1], terms))
    # the power rule holds at any nonzero point: Re(1/z_1) + |z_2|^2 at (1, 0)
    terms = [{"c": 1, "z": [-1, 0]}, {"c": 1, "z": [0, 1], "zbar": [0, 1]}]
    report = levi_analyze(DefiningFunction.from_polynomial(2, [1, 0], terms))
    assert report["eigenvalues"] == [1.0] and report["gradient_norm"] == 0.5


@pytest.mark.parametrize("obj", [DefiningFunction, leviform._derivatives, levi_analyze])
def test_annotations_resolve_without_a_module_level_numpy(obj):
    # the module uses the standard library only, so no annotation may name numpy
    assert "np" not in vars(leviform)
    assert typing.get_type_hints(obj)


def test_boundary_point_is_a_tuple_of_python_complex():
    z0 = sphere(2).z0
    assert z0 == (1 + 0j, 0j) and all(type(v) is complex for v in z0)


def hermitian_with_spectrum(rng, values):
    n = len(values)
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    h = q @ np.diag(values) @ q.conj().T
    return 0.5 * (h + h.conj().T)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 16),
    kind=st.sampled_from(["dense", "repeated", "diagonal", "zero"]),
)
@settings(max_examples=80, deadline=None)
def test_jacobi_matches_eigvalsh(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = 0.5 * (a + a.conj().T)
    elif kind == "repeated":
        # at most three distinct eigenvalues, each repeated, in a random basis
        h = hermitian_with_spectrum(rng, rng.choice(rng.normal(size=3), size=n))
    elif kind == "diagonal":
        h = np.diag(rng.normal(size=n)).astype(complex)
    else:
        h = np.zeros((n, n), dtype=complex)
    got = sorted(leviform._hermitian_eigenvalues([[complex(x) for x in row] for row in h]))
    want = np.linalg.eigvalsh(h) if n else np.array([])
    assert len(got) == n and all(type(v) is float for v in got)
    assert np.all(np.abs(np.array(got) - want) <= 1e-12 * np.linalg.norm(h))


def test_jacobi_sweep_cap_raises_arithmetic_error():
    # no entry compares above a NaN tolerance, so no sweep ever ends clean
    nan = complex(float("nan"), 0)
    with pytest.raises(ArithmeticError, match="did not converge"):
        leviform._hermitian_eigenvalues([[0j, nan], [nan, 0j]])


@pytest.mark.parametrize("power", [0, 520, 1000])
def test_large_finite_derivatives_are_answered(power):
    # scaling the polynomial by 2**power scales every derivative exactly; at
    # 2**520 the squared entries overflow a float, at 2**1000 the entries are
    # within a factor 2**24 of the largest float
    scale = 2.0**power
    lam2, lam3 = -2.5, 0.75
    f = DefiningFunction.from_polynomial(3, [0, 0, 0], normal_form(lam2, lam3, scale))
    report = levi_analyze(f)
    assert report["negatives"] == 1 and report["gradient_norm"] == scale
    assert np.allclose(report["eigenvalues"], [lam2 * scale, lam3 * scale], rtol=1e-12, atol=0)


# coordinates (x12, x13, x14, x23, x24, x34) of the unipotent chart of C^4,
# v_i = e_i + sum_{j>i} x_ij e_j
CHART = ("12", "13", "14", "23", "24", "34")


def squared_modulus(sign, *monomials):
    """Terms of sign |sum s m|^2 over the (s, m) pairs, each m the names of
    its chart coordinates, as in "12 23 34"."""

    def exponents(m):
        return [m.split().count(name) for name in CHART]

    return [
        {"c": sign * s * t, "z": exponents(m), "zbar": exponents(mb)}
        for s, m in monomials
        for t, mb in monomials
    ]


# rho = det Gram(F_3) for h = diag(1, 1, -1, -1), F_3 = span(v_1, v_2, v_3), by
# Cauchy-Binet over the 3 x 3 minors of (v_1 v_2 v_3): 22 terms; the boundary
# piece of the open orbit of sign sequence (+, -, +, -) where F_3 degenerates
RHO_F3 = (
    squared_modulus(-1, (1, ""))
    + squared_modulus(-1, (1, "34"))
    + squared_modulus(1, (1, "24"), (-1, "23 34"))
    + squared_modulus(1, (1, "14"), (-1, "13 34"), (-1, "12 24"), (1, "12 23 34"))
)
RHO_F3_POINT = [
    [10.154454611390175, 0.3451496968690866],
    [-1.446608948396503, -0.13834039168633228],
    [3.857117006465681, 0.9005477047674437],
    [-0.29993100016580965, 0.3001932315862401],
    [-3.380524046742389, -2.3794946671686095],
    [-0.7399992092178458, 10.090124312465951],
]


def test_a_small_negative_eigenvalue_beside_a_large_hessian_is_counted():
    # rho is 4.2e-13 at the point and |H|_F is 1.1e4; the eigenvalue -9.65e-3
    # lies below 1e-6 |H|_F, where a fixed relative zero threshold took it for
    # 0. rho depends on F_3 alone, 3 of the 6 coordinates, so the other three
    # directions give exact zeros, which stay 0.0
    assert len(RHO_F3) == 22
    report = levi_analyze(DefiningFunction.from_polynomial(6, RHO_F3_POINT, RHO_F3))
    assert report["negatives"] == 1 and report["pseudoconcave_point"]
    negative, *zeros, positive = report["eigenvalues"]
    assert zeros == [0.0, 0.0, 0.0]
    assert math.isclose(negative, -9.645773096e-3, rel_tol=1e-6)
    assert math.isclose(positive, 1.0159611856, rel_tol=1e-6)
    assert math.isclose(report["gradient_norm"], 1049.5508509, rel_tol=1e-9)


@pytest.mark.parametrize(
    "terms",
    [
        # 2 Re z_1 - |z_1|^2 + |z_2|^2, constant along z_3
        linear_terms(np.array([1, 0, 0], dtype=complex)) + modulus_terms([-1, 1, 0]),
        # 2 Re z_1 - |z_1|^2 + |z_2 + z_3|^2, constant along z_2 - z_3
        linear_terms(np.array([1, 0, 0], dtype=complex)) + modulus_terms([-1, 0, 0])
        + hermitian_terms(np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=complex)),
    ],
    ids=["z3", "z2-z3"],
)
def test_an_exact_zero_eigenvalue_prints_as_zero(terms):
    # rounding leaves the zero at 7.9e-17 and 2.1e-16 before the bound applies
    z0 = [[0.3, 0.4], [1.1, -0.2], [-0.5, 0.9]]
    report = levi_analyze(DefiningFunction.from_polynomial(3, z0, terms))
    negative, zero = report["eigenvalues"]
    assert negative < 0 and zero == 0.0 and report["negatives"] == 1


def _times(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _exact_power(z, a):
    """z**a for a complex float z, exactly, as a pair of dyadic Fractions
    (rational ones for a < 0)."""
    out, base = (Fraction(1), Fraction(0)), (Fraction(z.real), Fraction(z.imag))
    for bit in bin(abs(a))[2:]:
        out = _times(out, out)
        if bit == "1":
            out = _times(out, base)
    if a < 0:
        norm = out[0] ** 2 + out[1] ** 2
        out = out[0] / norm, -out[1] / norm
    return out


def _exact_derivatives(f):
    """The gradient and Hessian that _derivatives rounds, as exact pairs."""
    zero, half = (Fraction(0), Fraction(0)), Fraction(1, 2)

    def monomial(c, m, e, fb):
        if not m:
            return zero
        out = (Fraction(c.real) * m, Fraction(c.imag) * m)
        for zk, a, b in zip(f.z0, e, fb):
            out = _times(_times(out, _exact_power(zk, a)), _exact_power(zk.conjugate(), b))
        return out

    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    def mean(x, y):
        # (x + conj y) / 2
        return half * (x[0] + y[0]), half * (x[1] - y[1])

    def lowered(e, k):
        return e[:k] + (e[k] - 1,) + e[k + 1 :]

    n = f.n
    dz, dzb = [zero] * n, [zero] * n
    mixed = [[zero] * n for _ in range(n)]
    for c, e, fb in f.terms:
        for k in range(n):
            dz[k] = add(dz[k], monomial(c, e[k], lowered(e, k), fb))
            dzb[k] = add(dzb[k], monomial(c, fb[k], e, lowered(fb, k)))
            for ell in range(n):
                v = monomial(c, e[k] * fb[ell], lowered(e, k), lowered(fb, ell))
                mixed[k][ell] = add(mixed[k][ell], v)
    grad = [mean(a, b) for a, b in zip(dz, dzb)]
    hess = [[mean(mixed[k][ell], mixed[ell][k]) for ell in range(n)] for k in range(n)]
    return grad, hess


def _squared_error(computed, exact):
    return sum((Fraction(v.real) - x) ** 2 + (Fraction(v.imag) - y) ** 2
               for v, (x, y) in zip(computed, exact))


@pytest.mark.parametrize(
    "z0,terms",
    [
        # z**164 errs by about 5.0 |164| u here, the most a search of 10^5 points found
        ([[-71.37507356689315, -0.13345141157463644]], [{"z": [165]}]),
        ([[-0.017738298328237975, -2.185550527734008e-06]], [{"z": [-163]}]),
        ([[-8.656337937505103, -0.0048966768176913]], [{"z": [300]}]),
        ([[-34.536609610856324, -0.029596539772919584]], [{"z": [165], "zbar": [1]}]),
        ([[-34.536609610856324, -0.029596539772919584]], [{"z": [1], "zbar": [165]}]),
        ([[-34.536609610856324, -0.029596539772919584], [-1.0, 1e-3]],
         [{"z": [165, 200], "zbar": [0, 1]}]),
    ],
    ids=["z165", "z-163", "z300", "z165-zbar", "zbar165", "two-coordinates"],
)
def test_rounding_bounds_hold_for_powers_above_100(z0, terms):
    # above exponent 100 CPython raises a complex to an integer power through
    # hypot, pow and atan2, not a chain of products. With hypot and atan2
    # correctly rounded, |z|^a errs by about |a| u and the phase a atan2(y, x)
    # by up to (2 + pi)|a| u near arg z = pi, so by about 5.2 |a| u in all,
    # within the 6 per degree of the bound. Each point sits near arg pi with
    # |z0|^degree near the float limit, 1e303 for z165
    f = DefiningFunction.from_polynomial(len(z0), z0, terms)
    grad, hess, gerr, herr = leviform._derivatives(f)
    exact_grad, exact_hess = _exact_derivatives(f)
    assert _squared_error(grad, exact_grad) <= Fraction(gerr) ** 2
    flat = [v for row in exact_hess for v in row]
    assert _squared_error([v for row in hess for v in row], flat) <= Fraction(herr) ** 2
