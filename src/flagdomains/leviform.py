"""Numeric Levi form analysis at smooth boundary points.

The complex Hessian of a real defining function is estimated with central
finite differences in the underlying real coordinates, restricted to the
analytic tangent plane at the reference point, and its eigenvalues decide
whether the point is pseudoconcave from inside the sublevel set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

GRADIENT_TOL = 1e-8
STEP_SCALE = 1e-4
ZERO_EIGEN_REL = 1e-6


@dataclass(frozen=True, eq=False)
class DefiningFunction:
    """A real scalar field on C^n with a marked boundary point."""

    n: int
    func: Callable[[np.ndarray], float]
    z0: np.ndarray

    @classmethod
    def from_callable(cls, n: int, func, z0) -> "DefiningFunction":
        return cls(n=n, func=func, z0=np.asarray(z0, dtype=complex))

    @classmethod
    def from_polynomial(cls, n: int, z0, terms) -> "DefiningFunction":
        """Build from coefficient data; each term is c * prod z^e * prod conj(z)^f.

        ``terms`` is a list of {"c": number or [re, im], "z": [e_1..e_n],
        "zbar": [f_1..f_n]}. The sum is assumed real valued; its real part
        is used.
        """
        parsed = []
        for term in terms:
            c = term.get("c", 1)
            if isinstance(c, (list, tuple)):
                c = complex(c[0], c[1])
            else:
                c = complex(c)
            ze = tuple(int(v) for v in term.get("z", [0] * n))
            be = tuple(int(v) for v in term.get("zbar", [0] * n))
            if len(ze) != n or len(be) != n:
                raise ValueError("term exponent lists must have length n")
            parsed.append((c, ze, be))

        def func(z: np.ndarray) -> float:
            zb = np.conj(z)
            total = 0j
            for c, ze, be in parsed:
                val = c
                for k in range(n):
                    if ze[k]:
                        val *= z[k] ** ze[k]
                    if be[k]:
                        val *= zb[k] ** be[k]
                total += val
            return float(total.real)

        return cls(n=n, func=func, z0=np.asarray(z0, dtype=complex))


@dataclass(frozen=True, eq=False)
class LeviReport:
    """Sorted eigenvalues on the analytic tangent plane and the verdict."""

    eigenvalues: tuple[float, ...]
    negatives: int
    pseudoconcave_point: bool
    gradient_norm: float

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "negatives": self.negatives,
            "pseudoconcave_point": self.pseudoconcave_point,
            "gradient_norm": self.gradient_norm,
        }


def _shift(z0: np.ndarray, coord: int, delta: float) -> np.ndarray:
    # coord indexes the 2n real coordinates: 2k is Re z_k, 2k+1 is Im z_k
    z = z0.copy()
    if coord % 2 == 0:
        z[coord // 2] += delta
    else:
        z[coord // 2] += 1j * delta
    return z


def _wirtinger_gradient(func, z0: np.ndarray, step: float) -> np.ndarray:
    n = len(z0)
    grad = np.zeros(n, dtype=complex)
    for k in range(n):
        dx = (func(_shift(z0, 2 * k, step)) - func(_shift(z0, 2 * k, -step))) / (
            2 * step
        )
        dy = (func(_shift(z0, 2 * k + 1, step)) - func(_shift(z0, 2 * k + 1, -step))) / (
            2 * step
        )
        grad[k] = 0.5 * (dx - 1j * dy)
    return grad


def _real_hessian(func, z0: np.ndarray, step: float) -> np.ndarray:
    n2 = 2 * len(z0)
    f0 = func(z0)
    hess = np.zeros((n2, n2))
    for a in range(n2):
        hess[a, a] = (
            func(_shift(z0, a, step)) - 2 * f0 + func(_shift(z0, a, -step))
        ) / step**2
        for b in range(a + 1, n2):
            pp = func(_shift(_shift(z0, a, step), b, step))
            pm = func(_shift(_shift(z0, a, step), b, -step))
            mp = func(_shift(_shift(z0, a, -step), b, step))
            mm = func(_shift(_shift(z0, a, -step), b, -step))
            hess[a, b] = hess[b, a] = (pp - pm - mp + mm) / (4 * step**2)
    return hess


def _complex_hessian(func, z0: np.ndarray, step: float) -> np.ndarray:
    n = len(z0)
    real = _real_hessian(func, z0, step)
    hess = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for ell in range(n):
            xx = real[2 * k, 2 * ell]
            yy = real[2 * k + 1, 2 * ell + 1]
            xy = real[2 * k, 2 * ell + 1]
            yx = real[2 * k + 1, 2 * ell]
            hess[k, ell] = 0.25 * ((xx + yy) + 1j * (xy - yx))
    return 0.5 * (hess + hess.conj().T)


def levi_analyze(f: DefiningFunction) -> LeviReport:
    """Eigenvalues of the Levi form on the analytic tangent plane at z0.

    Raises when the gradient vanishes at z0, since the level set is not a
    smooth boundary there. Eigenvalues below 1e-6 of the Hessian norm are
    reported as exact zeros.
    """
    z0 = np.asarray(f.z0, dtype=complex)
    if len(z0) != f.n:
        raise ValueError("z0 must have length n")
    step = STEP_SCALE * (1.0 + float(np.linalg.norm(z0)))
    grad = _wirtinger_gradient(f.func, z0, step)
    gnorm = float(np.linalg.norm(grad))
    if gnorm < GRADIENT_TOL:
        raise ValueError("gradient vanishes at z0; not a smooth boundary point")
    hess = _complex_hessian(f.func, z0, step)
    # the right singular vectors after the first span the kernel of grad
    plane = np.linalg.svd(grad.reshape(1, -1))[2][1:].conj().T
    # the form is sum H_{kl} w_k conj(w_l); in the v* M v convention its
    # matrix is the transpose of the mixed-derivative table
    restricted = plane.conj().T @ hess.T @ plane
    restricted = 0.5 * (restricted + restricted.conj().T)
    raw = np.linalg.eigvalsh(restricted) if f.n > 1 else np.array([])
    threshold = ZERO_EIGEN_REL * float(np.linalg.norm(hess))
    vals = sorted(0.0 if abs(v) < threshold else float(v) for v in raw)
    negatives = sum(1 for v in vals if v < 0)
    return LeviReport(
        eigenvalues=tuple(vals),
        negatives=negatives,
        pseudoconcave_point=negatives >= 1,
        gradient_norm=gnorm,
    )
