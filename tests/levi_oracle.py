"""Finite-difference Levi form: the independent oracle for the closed form.

This is the central-difference path ``flagdomains.leviform`` used before
its derivatives became exact, kept verbatim apart from taking the real
scalar field as a plain callable and from its zero rule. That rule is its
own, not the package's rounding bound: an eigenvalue is 0.0 below the
tolerance numpy.linalg.matrix_rank uses by default, the largest modulus
times the dimension times machine epsilon, so a threshold in the package
that swallows a real eigenvalue shows against it.
"""

from __future__ import annotations

import numpy as np

from flagdomains.leviform import GRADIENT_TOL

STEP_SCALE = 1e-4


def polynomial_value(f):
    """The real part of the polynomial of a DefiningFunction, as a callable."""

    def func(z: np.ndarray) -> float:
        zb = np.conj(z)
        total = 0j
        for c, ze, be in f.terms:
            val = c
            for k in range(f.n):
                if ze[k]:
                    val *= z[k] ** ze[k]
                if be[k]:
                    val *= zb[k] ** be[k]
            total += val
        return float(total.real)

    return func


def _shift(z0: np.ndarray, coord: int, delta: float) -> np.ndarray:
    # coord indexes the 2n real coordinates: 2k is Re z_k, 2k+1 is Im z_k
    z = z0.copy()
    if coord % 2 == 0:
        z[coord // 2] += delta
    else:
        z[coord // 2] += 1j * delta
    return z


def wirtinger_gradient(func, z0: np.ndarray, step: float) -> np.ndarray:
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


def complex_hessian(func, z0: np.ndarray, step: float) -> np.ndarray:
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


def fd_levi_analyze(func, z0) -> dict:
    """The Levi report of a real callable at z0, by central differences."""
    z0 = np.asarray(z0, dtype=complex)
    step = STEP_SCALE * (1.0 + float(np.linalg.norm(z0)))
    grad = wirtinger_gradient(func, z0, step)
    gnorm = float(np.linalg.norm(grad))
    if gnorm < GRADIENT_TOL:
        raise ValueError("gradient vanishes at z0; not a smooth boundary point")
    hess = complex_hessian(func, z0, step)
    plane = np.linalg.svd(grad.reshape(1, -1))[2][1:].conj().T
    restricted = plane.conj().T @ hess.T @ plane
    restricted = 0.5 * (restricted + restricted.conj().T)
    raw = np.linalg.eigvalsh(restricted) if len(z0) > 1 else np.array([])
    threshold = float(np.max(np.abs(raw), initial=0.0)) * len(raw) * np.finfo(float).eps
    vals = sorted(0.0 if abs(v) < threshold else float(v) for v in raw)
    negatives = sum(1 for v in vals if v < 0)
    return {
        "eigenvalues": vals,
        "negatives": negatives,
        "pseudoconcave_point": negatives >= 1,
        "gradient_norm": gnorm,
    }
