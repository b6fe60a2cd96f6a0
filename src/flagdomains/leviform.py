"""Exact Levi form analysis at smooth boundary points.

The defining function is the real part of a polynomial in z and conj(z).
Its gradient and complex Hessian at the reference point are the
closed-form Wirtinger derivatives of its monomials; the Hessian is
restricted to the analytic tangent plane there, and the eigenvalues of
the restriction decide whether the point is pseudoconcave from inside
the sublevel set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact import exact_int

GRADIENT_TOL = 1e-8
UNIT_ROUNDOFF = math.ulp(1.0) / 2
# the rounding of the projection and of the Jacobi sweep, in units of n u |H|_F
SWEEP_ERROR = 64

# c * prod z_k^{e_k} * prod conj(z_k)^{f_k} as (c, e, f)
Term = tuple[complex, tuple[int, ...], tuple[int, ...]]


def _complex(value, what: str) -> complex:
    """value as a complex number: an int, float or complex, or an [re, im]
    pair of ints and floats. Bools and strings raise ValueError, where
    complex() would read True as 1 and "-1" as -1."""
    pair = isinstance(value, (list, tuple))
    parts = value if pair else (value,)
    kinds = (int, float) if pair else (int, float, complex)
    numbers = [v for v in parts if isinstance(v, kinds) and not isinstance(v, bool)]
    if len(numbers) == len(parts) == 1 + pair:
        return complex(*parts)
    raise ValueError(f"{what} must be a number or an [re, im] pair")


def _exponents(value, n: int) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)) and len(value) == n:
        try:
            return tuple(exact_int(v) for v in value)
        except (TypeError, ValueError):
            pass
    raise ValueError("term exponents must be length-n lists of integers")


class DefiningFunction(NamedTuple):
    """The real part of a polynomial on C^n, with a marked boundary point."""

    n: int
    terms: tuple[Term, ...]
    # Python complex, so that 0 ** -1 raises ZeroDivisionError
    z0: tuple[complex, ...]

    @classmethod
    def from_polynomial(cls, n: int, z0, terms) -> "DefiningFunction":
        """Build from coefficient data; each term is c * prod z^e * prod conj(z)^f.

        ``terms`` is a list of {"c": number or [re, im], "z": [e_1..e_n],
        "zbar": [f_1..f_n]} with integer exponents, and ``z0`` a length-n
        list of numbers or [re, im] pairs. The sum is assumed real valued;
        its real part is used.
        """
        if not isinstance(z0, (list, tuple)) or len(z0) != n:
            raise ValueError("z0 must be a length-n list of [re, im] pairs or numbers")
        if not isinstance(terms, (list, tuple)) or not all(
            isinstance(term, dict) for term in terms
        ):
            raise ValueError("terms must be a list of monomial objects")
        parsed = tuple(
            (
                _complex(term.get("c", 1), "a coefficient"),
                _exponents(term.get("z", [0] * n), n),
                _exponents(term.get("zbar", [0] * n), n),
            )
            for term in terms
        )
        point = tuple(_complex(v, "a z0 entry") for v in z0)
        return cls(n=n, terms=parsed, z0=point)


def _monomial(c: complex, e, f, z, zb) -> complex:
    # zero exponents are skipped, so z^0 = 1 also where z = 0
    for zk, zbk, a, b in zip(z, zb, e, f):
        if a:
            c *= zk**a
        if b:
            c *= zbk**b
    return c


def _lowered(e: tuple[int, ...], k: int) -> tuple[int, ...]:
    return e[:k] + (e[k] - 1,) + e[k + 1 :]


def _derivatives(f: DefiningFunction) -> tuple[list, list, float, float]:
    """Wirtinger gradient and complex Hessian of Re P at z0, in closed form,
    as lists of Python complex numbers, with bounds on the norms of their
    rounding errors.

    For a term c z^e conj(z)^f of P, d_k P gets c e_k z^{e-d_k} conj(z)^f
    and d_k dbar_l P gets c e_k f_l z^{e-d_k} conj(z)^{f-d_l}. For
    Re P = (P + conj P)/2 the gradient is (P_k + conj(P_kbar))/2 and the
    Hessian is the Hermitian part of the mixed table P_{k lbar}; halved
    first, a sum overflows only where its value does.
    An entry sums values of degree at most d + 2 over the T terms of degree
    at most d, so it errs by at most (T + 6(d + 3)) u times the sum of their
    moduli, u the unit roundoff (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1-3.3, Lemma 3.5: 2 sqrt 2 u per complex product,
    a power up to 100 being a chain of them, as much again for divisions; a
    power z^a above 100 goes through hypot, pow and atan2 and errs by up to
    about 5.2 |a| u).
    """
    n = f.n
    z = f.z0
    zb = [v.conjugate() for v in z]
    dz, dzb = [0j] * n, [0j] * n
    mixed = [[0j] * n for _ in range(n)]
    # the sums of the moduli of what each entry adds up
    adz, adzb = [0.0] * n, [0.0] * n
    amixed = [[0.0] * n for _ in range(n)]
    for c, e, fb in f.terms:
        ls = [ell for ell in range(n) if fb[ell]]
        for k in range(n):
            if e[k]:
                ce, ek = c * e[k], _lowered(e, k)
                v = _monomial(ce, ek, fb, z, zb)
                dz[k] += v
                adz[k] += abs(v)
                for ell in ls:
                    v = _monomial(ce * fb[ell], ek, _lowered(fb, ell), z, zb)
                    mixed[k][ell] += v
                    amixed[k][ell] += abs(v)
        for ell in ls:
            v = _monomial(c * fb[ell], e, _lowered(fb, ell), z, zb)
            dzb[ell] += v
            adzb[ell] += abs(v)
    degree = max((sum(map(abs, e)) + sum(map(abs, fb)) for _, e, fb in f.terms), default=0)
    gamma = (len(f.terms) + 6 * (degree + 3)) * UNIT_ROUNDOFF
    gerr = gamma * _norm(0.5 * a + 0.5 * b for a, b in zip(adz, adzb))
    herr = gamma * _norm(
        0.5 * a + 0.5 * b for row, col in zip(amixed, zip(*amixed)) for a, b in zip(row, col)
    )
    half = [[0.5 * x for x in row] for row in mixed]
    grad = [0.5 * a + 0.5 * b.conjugate() for a, b in zip(dz, dzb)]
    hess = [[x + y.conjugate() for x, y in zip(hk, col)] for hk, col in zip(half, zip(*half))]
    return grad, hess, gerr, herr


def _norm(values) -> float:
    # math.hypot scales, so this is inf only where the norm exceeds the float range
    return math.hypot(*(x for v in values for x in (v.real, v.imag)))


def _hermitian_eigenvalues(a: list) -> list[float]:
    """Unsorted eigenvalues of the Hermitian matrix a (rows, overwritten): cyclic
    complex Jacobi sweeps (Golub and Van Loan, Matrix Computations, 4th ed., 8.5)
    until no off-diagonal entry exceeds machine epsilon times the norm, 50 at most."""
    n = len(a)
    tol = math.ulp(1.0) * _norm(v for row in a for v in row)
    for _ in range(50):
        if all(abs(a[p][q]) <= tol for p in range(n) for q in range(p + 1, n)):
            return [row[k].real for k, row in enumerate(a)]
        for p in range(n):
            for q in range(p + 1, n):
                rp, rq = a[p], a[q]
                if (r := abs(rp[q])) > tol:
                    # diag(1, w) makes the entry r, sym.schur2's rotation zeroes it
                    app, aqq, w = rp[p].real, rq[q].real, rp[q].conjugate() / r
                    tau = (aqq - app) / (2 * r)
                    t = math.copysign(1, tau) / (abs(tau) + math.hypot(1, tau))
                    c = 1 / math.hypot(1, t)
                    for k, row in enumerate(a):
                        if k != p and k != q:
                            x, y = row[p], row[q]
                            row[p], row[q] = c * (x - t * w * y), c * (t * x + w * y)
                            rp[k], rq[k] = row[p].conjugate(), row[q].conjugate()
                    rp[p], rq[q], rp[q], rq[p] = app - t * r, aqq + t * r, 0j, 0j
    raise ArithmeticError("the Jacobi sweep did not converge")


def levi_analyze(f: DefiningFunction) -> dict:
    """Sorted eigenvalues of the Levi form on the analytic tangent plane at
    z0, how many are negative, the verdict and the gradient norm.

    Raises when a negative exponent meets a zero coordinate of z0, when a
    power of a z0 coordinate overflows, when the derivatives there, their
    norms or their rounding bounds are not finite, and when the gradient
    vanishes at z0: no smooth boundary there. An eigenvalue within the
    rounding bound of its computation is reported as 0.0, and every other
    one is counted by its sign.
    """
    try:
        grad, hess, gerr, herr = _derivatives(f)
    except ZeroDivisionError:
        raise ValueError("a negative exponent meets a zero coordinate of z0") from None
    except OverflowError:
        raise ValueError("a power of a z0 coordinate overflows") from None
    gnorm, hnorm = _norm(grad), _norm(v for row in hess for v in row)
    # the eigenvalues on the plane are at most hnorm, so they are finite too
    if not all(map(math.isfinite, (gnorm, hnorm, gerr, herr))):
        raise ValueError("the derivatives at z0 are not finite or too large")
    if gnorm < GRADIENT_TOL:
        raise ValueError("gradient vanishes at z0; not a smooth boundary point")
    # the form is sum H_{kl} v_k conj(v_l) on the plane sum g_k v_k = 0, so in
    # y = conj(v) it is y^H H y on the complement of g; H is divided by its norm
    scale = hnorm or 1.0
    h = [[x / scale for x in row] for row in hess]
    # P H P = H - u (Hu)^H - (Hu - b u) u^H for the projector P = I - u u^H on
    # that complement, with u = g / |g| and b = u^H H u
    u = [g / gnorm for g in grad]
    hu = [sum(x * y for x, y in zip(row, u)) for row in h]
    b = sum(x.conjugate() * y for x, y in zip(u, hu)).real
    raw = _hermitian_eigenvalues([
        [x - uk * vl.conjugate() - (vk - b * uk) * ul.conjugate() for x, vl, ul in zip(row, hu, u)]
        for row, uk, vk in zip(h, u, hu)
    ])
    # P H P is 0 on u, off the plane: that eigenvalue is the smallest in modulus
    raw.remove(min(raw, key=abs))
    # by Weyl's inequality an eigenvalue moves at most by the error's norm: the
    # Hessian's, the plane's turn 2 |dg| / |g| and the projection's and sweep's
    # (Golub and Van Loan 8.5; Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13)
    bound = herr / scale + 2 * gerr / gnorm + SWEEP_ERROR * f.n * UNIT_ROUNDOFF
    vals = sorted(0.0 if abs(x) <= bound else scale * x for x in raw)
    negatives = sum(1 for v in vals if v < 0)
    return {
        "eigenvalues": vals,
        "negatives": negatives,
        "pseudoconcave_point": negatives >= 1,
        "gradient_norm": gnorm,
    }
