"""Exact Levi form analysis at smooth boundary points.

The defining function is the real part of a polynomial in z and conj(z).
Its gradient and complex Hessian at the reference point are the
closed-form Wirtinger derivatives of its monomials; the Hessian is
restricted to the analytic tangent plane there, and the eigenvalues of
the restriction decide whether the point is pseudoconcave from inside
the sublevel set.
"""

from __future__ import annotations

from typing import NamedTuple

from .rootsys import exact_int

GRADIENT_TOL = 1e-8
ZERO_EIGEN_REL = 1e-6

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
    # Python complex: 0 ** -1 raises ZeroDivisionError where numpy gives inf
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


def _derivatives(f: DefiningFunction) -> tuple:
    """Wirtinger gradient and complex Hessian of Re P at z0, in closed form,
    as numpy arrays.

    For a term c z^e conj(z)^f of P, d_k P gets c e_k z^{e-d_k} conj(z)^f
    and d_k dbar_l P gets c e_k f_l z^{e-d_k} conj(z)^{f-d_l}. For
    Re P = (P + conj P)/2 the gradient is (P_k + conj(P_kbar))/2 and the
    Hessian is the Hermitian part of the mixed table P_{k lbar}.
    """
    import numpy as np

    n = f.n
    z = f.z0
    zb = [v.conjugate() for v in z]
    dz = np.zeros(n, dtype=complex)
    dzb = np.zeros(n, dtype=complex)
    mixed = np.zeros((n, n), dtype=complex)
    for c, e, fb in f.terms:
        ls = [ell for ell in range(n) if fb[ell]]
        for k in range(n):
            if e[k]:
                ce, ek = c * e[k], _lowered(e, k)
                dz[k] += _monomial(ce, ek, fb, z, zb)
                for ell in ls:
                    mixed[k, ell] += _monomial(ce * fb[ell], ek, _lowered(fb, ell), z, zb)
        for ell in ls:
            dzb[ell] += _monomial(c * fb[ell], e, _lowered(fb, ell), z, zb)
    return 0.5 * (dz + dzb.conj()), 0.5 * (mixed + mixed.conj().T)


def levi_analyze(f: DefiningFunction) -> dict:
    """Sorted eigenvalues of the Levi form on the analytic tangent plane at
    z0, how many are negative, the verdict and the gradient norm.

    Raises when a negative exponent meets a zero coordinate of z0, when a
    power of a z0 coordinate overflows, when the derivatives there are not
    finite or their norms overflow, and when the gradient vanishes at z0,
    since the level set is not a smooth boundary there. Eigenvalues below
    1e-6 of the Hessian norm are reported as exact zeros.
    """
    import numpy as np

    try:
        # an overflow leaves a value that is not finite, which is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            grad, hess = _derivatives(f)
            gnorm, hnorm = float(np.linalg.norm(grad)), float(np.linalg.norm(hess))
    except ZeroDivisionError:
        raise ValueError("a negative exponent meets a zero coordinate of z0") from None
    except OverflowError:
        raise ValueError("a power of a z0 coordinate overflows") from None
    # the norms are sums of squares, finite only while every entry stays
    # below the square root of the largest float, so what follows stays finite
    if not np.isfinite([gnorm, hnorm]).all():
        raise ValueError("the derivatives at z0 are not finite or too large")
    if gnorm < GRADIENT_TOL:
        raise ValueError("gradient vanishes at z0; not a smooth boundary point")
    # the right singular vectors after the first span the kernel of grad
    plane = np.linalg.svd(grad.reshape(1, -1))[2][1:].conj().T
    # the form is sum H_{kl} w_k conj(w_l); in the v* M v convention its
    # matrix is the transpose of the mixed-derivative table
    restricted = plane.conj().T @ hess.T @ plane
    restricted = 0.5 * (restricted + restricted.conj().T)
    raw = np.linalg.eigvalsh(restricted) if f.n > 1 else np.array([])
    threshold = ZERO_EIGEN_REL * hnorm
    vals = sorted(0.0 if abs(v) < threshold else float(v) for v in raw)
    negatives = sum(1 for v in vals if v < 0)
    return {
        "eigenvalues": vals,
        "negatives": negatives,
        "pseudoconcave_point": negatives >= 1,
        "gradient_norm": gnorm,
    }
