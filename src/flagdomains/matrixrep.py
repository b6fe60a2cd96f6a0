"""Fundamental matrix realizations and Cayley transform certificates.

sl(r+1) acts on C^{r+1}; sp(2r) preserves J = [[0, I], [-I, 0]]; so(2r+1)
and so(2r) preserve the symmetric pairing with blocks [[0, I], [I, 0]]
plus a trailing 1 in the odd case. Only the simple root vectors are
written down by hand; every other root vector is produced by bracketing
and dividing by the structure constant, so the realization reproduces the
abstract table sign for sign. All entries are dyadic rationals, hence
exact in double precision.

The numeric checks certify that conjugation by the squared Cayley matrix
of a compact root maps root vectors onto string endpoints, and that the
conjugated neighborhood generators remain block-triangular for the
grading filtration, which is membership in the parabolic subgroup.
Every root vector is nilpotent, so each group element is a product of
unipotent factors summed as terminating power series; the squared Cayley
matrix is the Weyl element exp(x^b) exp(-x^{-b}) exp(x^b), whose unit
shears keep every entry dyadic and every conjugation bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chevalley import ChevalleyConstants, structure_constants
from .concavity import witness_alphas
from .rootsys import (
    GradingElement,
    Root,
    RootSystem,
    check_grading,
    coroot_coefficients,
    grading_cartan_coefficients,
    root_string,
)

TOL_BRACKET = 1e-12
TOL_CONJUGATION = 1e-9

DEFAULT_MAX_RANK = 6


@dataclass(frozen=True, eq=False)
class NumericCheck:
    """One verified numeric claim: pass means residual < tolerance."""

    claim: str
    residual: float
    tolerance: float
    passed: bool
    sign: int | None = None
    info: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "sign": self.sign,
            "info": self.info,
        }


def make_check(claim, residual, tolerance, sign=None, info=None) -> NumericCheck:
    residual = float(residual)
    return NumericCheck(
        claim=claim,
        residual=residual,
        tolerance=tolerance,
        passed=residual < tolerance,
        sign=sign,
        info=info,
    )


@dataclass(frozen=True, eq=False)
class MatrixRealization:
    """Root vectors and simple coroots of a classical algebra as matrices."""

    rs: RootSystem
    cc: ChevalleyConstants
    dim: int
    x: dict
    h: dict

    def cartan_element(self, a: Root) -> np.ndarray:
        """The coroot of a as a matrix, an integer combination of the H^{s_i}."""
        coeffs = coroot_coefficients(self.rs, a)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for s, c in zip(self.rs.simple_roots(), coeffs):
            if c:
                out += c * self.h[s]
        return out

    def grading_diagonal(self, e: GradingElement) -> tuple[Fraction, ...]:
        """Exact eigenvalues of the grading element on the representation."""
        check_grading(self.rs, e)
        w = grading_cartan_coefficients(self.rs, e)
        diag = [Fraction(0)] * self.dim
        for wk, s in zip(w, self.rs.simple_roots()):
            hs = self.h[s]
            for t in range(self.dim):
                diag[t] += wk * int(round(hs[t, t].real))
        return tuple(diag)


def _basis(n: int):
    def e(i: int, j: int) -> np.ndarray:
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1.0
        return m

    return e


def _simple_sl(r: int):
    n = r + 1
    e = _basis(n)
    xs, ys, hs = [], [], []
    for k in range(r):
        xs.append(e(k, k + 1))
        ys.append(e(k + 1, k))
        hs.append(e(k, k) - e(k + 1, k + 1))
    return n, xs, ys, hs


def _first_type_generators(e, r: int, k: int):
    # e_{k+1} - e_{k+2} on the paired basis u_1..u_r, v_1..v_r.
    x = e(k, k + 1) - e(r + k + 1, r + k)
    y = e(k + 1, k) - e(r + k, r + k + 1)
    h = e(k, k) - e(k + 1, k + 1) - e(r + k, r + k) + e(r + k + 1, r + k + 1)
    return x, y, h


def _simple_sp(r: int):
    n = 2 * r
    e = _basis(n)
    xs, ys, hs = [], [], []
    for k in range(r - 1):
        x, y, h = _first_type_generators(e, r, k)
        xs.append(x)
        ys.append(y)
        hs.append(h)
    # the long root 2 e_r
    xs.append(e(r - 1, 2 * r - 1))
    ys.append(e(2 * r - 1, r - 1))
    hs.append(e(r - 1, r - 1) - e(2 * r - 1, 2 * r - 1))
    return n, xs, ys, hs


def _simple_so_odd(r: int):
    n = 2 * r + 1
    e = _basis(n)
    xs, ys, hs = [], [], []
    for k in range(r - 1):
        x, y, h = _first_type_generators(e, r, k)
        xs.append(x)
        ys.append(y)
        hs.append(h)
    # the short root e_r; the asymmetric 2 keeps [x, y] equal to the coroot
    xs.append(e(r - 1, 2 * r) - e(2 * r, 2 * r - 1))
    ys.append(2 * (e(2 * r, r - 1) - e(2 * r - 1, 2 * r)))
    hs.append(2 * (e(r - 1, r - 1) - e(2 * r - 1, 2 * r - 1)))
    return n, xs, ys, hs


def _simple_so_even(r: int):
    n = 2 * r
    e = _basis(n)
    xs, ys, hs = [], [], []
    for k in range(r - 1):
        x, y, h = _first_type_generators(e, r, k)
        xs.append(x)
        ys.append(y)
        hs.append(h)
    # the fork root e_{r-1} + e_r
    xs.append(e(r - 2, 2 * r - 1) - e(r - 1, 2 * r - 2))
    ys.append(e(2 * r - 1, r - 2) - e(2 * r - 2, r - 1))
    hs.append(
        e(r - 2, r - 2)
        + e(r - 1, r - 1)
        - e(2 * r - 2, 2 * r - 2)
        - e(2 * r - 1, 2 * r - 1)
    )
    return n, xs, ys, hs


_BUILDERS = {
    "A": _simple_sl,
    "B": _simple_so_odd,
    "C": _simple_sp,
    "D": _simple_so_even,
}


def invariant_form(rep: MatrixRealization) -> np.ndarray | None:
    """The bilinear form the realization preserves; None for type A."""
    t = rep.rs.lie_type
    if t is None or t.family == "A":
        return None
    r = t.rank
    n = rep.dim
    m = np.zeros((n, n), dtype=complex)
    if t.family == "C":
        m[:r, r:] = np.eye(r)
        m[r:, :r] = -np.eye(r)
    else:
        m[:r, r : 2 * r] = np.eye(r)
        m[r : 2 * r, :r] = np.eye(r)
        if t.family == "B":
            m[2 * r, 2 * r] = 1.0
    return m


def fundamental_rep(
    rs: RootSystem, cc: ChevalleyConstants | None = None
) -> MatrixRealization:
    """Defining representation with root vectors matching the abstract table."""
    t = rs.lie_type
    if t is None:
        raise ValueError(
            "matrix realization needs a system whose Cartan matrix matches a "
            "standard classical labeling"
        )
    if t.rank > DEFAULT_MAX_RANK:
        raise ValueError(f"rank {t.rank} exceeds the supported bound {DEFAULT_MAX_RANK}")
    if cc is None:
        cc = structure_constants(rs)
    dim, xs, ys, hs = _BUILDERS[t.family](t.rank)
    simples = rs.simple_roots()
    x: dict[Root, np.ndarray] = {}
    h: dict[Root, np.ndarray] = {}
    for s, xp, xn, hm in zip(simples, xs, ys, hs):
        x[s] = xp
        x[-s] = xn
        h[s] = hm
    for g in rs.sorted_positive():
        if g.height < 2:
            continue
        for s in simples:
            a = g - s
            if a in rs.positive_roots:
                c = cc.constant(s, a)
                x[g] = (x[s] @ x[a] - x[a] @ x[s]) / c
                x[-g] = (x[-s] @ x[-a] - x[-a] @ x[-s]) / (-c)
                break
        else:
            raise AssertionError(f"{g} has no simple summand")
    return MatrixRealization(rs=rs, cc=cc, dim=dim, x=x, h=h)


def exp_nilpotent(x: np.ndarray) -> np.ndarray:
    """exp(x) of a nilpotent matrix, summed as its terminating power series.

    Raises ValueError when x^dim is not zero, that is, x is not nilpotent.
    """
    out = np.eye(x.shape[0], dtype=x.dtype)
    term = out
    for k in range(1, x.shape[0] + 1):
        term = term @ x / k
        if not term.any():
            return out
        out = out + term
    raise ValueError("matrix is not nilpotent")


def shear_product(e: np.ndarray, f: np.ndarray, t: float, s: float) -> np.ndarray:
    """exp(t e) exp(-s f) exp(t e) for nilpotent e and f.

    When e and f span an sl2 triple with [e, f] = h, [h, e] = 2e and
    [h, f] = -2f, t = tan(theta/2) and s = sin(theta) give exp(theta (e - f));
    t = s = 1 gives the Weyl element exp((pi/2)(e - f)) with no rounding,
    and t = s = -1 its inverse.
    """
    outer = exp_nilpotent(t * e)
    return outer @ exp_nilpotent(-s * f) @ outer


def _weyl_conjugation(rep: MatrixRealization, b: Root, m: np.ndarray) -> np.ndarray:
    """Ad(exp((pi/2)(x^b - x^{-b}))) m, the conjugation by c(-b)^2."""
    xb, xnb = rep.x[b], rep.x[-b]
    return shear_product(xb, xnb, 1, 1) @ m @ shear_product(xb, xnb, -1, -1)


def cayley_matrix(rep: MatrixRealization, a: Root) -> np.ndarray:
    """exp((pi/4)(x^{-a} - x^{a})) in the realization."""
    rep.rs.check_member(a)
    theta = math.pi / 4
    return shear_product(rep.x[-a], rep.x[a], math.tan(theta / 2), math.sin(theta))


def verify_cayley_conjugation(
    rep: MatrixRealization, a: Root, b: Root, tolerance: float = TOL_CONJUGATION
) -> NumericCheck:
    """Certify that Ad(c(-b)^2) x^a is a signed root vector at the string top.

    Requires the b-string through a to have shape (0, 1) or (0, 2). The
    residual is the distance of the image from the nearer of +-x^{a+qb};
    target and sign name the endpoint when it matches and are null
    otherwise.
    """
    rs = rep.rs
    rs.check_member(a)
    rs.check_member(b)
    if a == b or a == -b:
        raise ValueError("the pair must be linearly independent")
    st = root_string(rs, a, b)
    if (st.r, st.q) not in ((0, 1), (0, 2)):
        raise ValueError(
            f"string shape (r, q) = ({st.r}, {st.q}) is outside (0,1)/(0,2)"
        )
    expected = a + st.q * b
    image = _weyl_conjugation(rep, b, rep.x[a])
    res, sign = min(
        (float(np.linalg.norm(image - sign * rep.x[expected])), sign)
        for sign in (1, -1)
    )
    matched = res < tolerance
    return make_check(
        claim=f"cayley-conjugation a={a} b={b}",
        residual=res,
        tolerance=tolerance,
        sign=sign if matched else None,
        info={
            "target": list(expected.coeffs) if matched else None,
            "expected": list(expected.coeffs),
            "string": [st.r, st.q],
        },
    )


def flag_residual(
    rep: MatrixRealization, e: GradingElement, m: np.ndarray
) -> float:
    """Distance of m from block-triangular form for the grading filtration.

    Entry (t, s) is admissible when the grading eigenvalue of row t is at
    least the one of column s; everything below the filtration counts
    toward the residual.
    """
    diag = rep.grading_diagonal(e)
    total = 0.0
    for t in range(rep.dim):
        for s in range(rep.dim):
            if diag[t] < diag[s]:
                total += abs(m[t, s]) ** 2
    return math.sqrt(total)


def verify_fixed_point(
    rep: MatrixRealization,
    e: GradingElement,
    beta: Root,
    eps: float,
    tolerance: float = TOL_CONJUGATION,
) -> NumericCheck:
    """Certify Ad(c(-beta)^2) applied to the neighborhood generator is in P.

    beta must be a witness of the string criterion for this grading. The
    generator is the ordered product of exp(eps x^{a_i}) over the
    noncompact negative roots a_i; membership in the parabolic subgroup is
    tested as block-triangularity for the grading filtration.
    """
    rs = rep.rs
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    alphas = witness_alphas(rs, e, beta)
    xi = np.eye(rep.dim, dtype=complex)
    for alpha in alphas:
        xi = xi @ exp_nilpotent(eps * rep.x[alpha])
    res = flag_residual(rep, e, _weyl_conjugation(rep, beta, xi))
    return make_check(
        claim=f"cayley-fixed-point beta={beta} eps={eps}",
        residual=res,
        tolerance=tolerance,
        info={"alphas": [list(a.coeffs) for a in alphas]},
    )


def eligible_conjugation_pairs(rs: RootSystem) -> list[tuple[Root, Root]]:
    """All ordered (a, b) with a != +-b whose b-string has shape (0,1)/(0,2)."""
    idx = rs.index
    n = len(idx.roots)
    return [
        (idx.roots[a], idx.roots[b])
        for a in range(n)
        for b in range(n)
        if a != b and a != idx.neg[b] and idx.extents(a, b) in ((0, 1), (0, 2))
    ]
