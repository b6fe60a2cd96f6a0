"""Float reference for the exact matrix layer: the numpy path it replaced.

``dense`` turns a sparse exact matrix of ``flagdomains.exact`` into a
complex numpy array. The certificates below are the float versions of
``verify_cayley_conjugation`` and ``verify_fixed_point``: Weyl elements as
products of numerically summed unipotent factors, conjugation by matrix
products, residuals as float norms. ``cartan_diagonal`` is the exact
reference for ``grading_diagonal``: E solved over the simple coroots from
the Cartan matrix, which ``below_filtration`` reads to list the entries
of a matrix outside the parabolic. The oracles take `Root`s and read the
realization, which is indexed like ``rs.roots``, through ``root_vector``.
"""

import math
from fractions import Fraction

import numpy as np
from lie_oracles import check_grading, negative, plus, reference_string, simple_roots, times

from flagdomains.exact import make_check, product
from flagdomains.rootsys import coroot_coefficients

# float products carry rounding, so the float certificates pass below this
TOL = 1e-9


def dense(m: dict, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    for (i, j), v in m.items():
        out[i, j] = complex(v)
    return out


def weyl_dense(w) -> np.ndarray:
    """The signed permutation matrix of a WeylElement: column j holds sign[j] in row perm[j]."""
    out = np.zeros((len(w.perm), len(w.perm)), dtype=complex)
    for j, (i, s) in enumerate(zip(w.perm, w.sign)):
        out[i, j] = s
    return out


def sparse(m: np.ndarray) -> dict:
    return {(int(i), int(j)): complex(m[i, j]) for i, j in np.argwhere(m != 0)}


def root_vector(rep, a) -> dict:
    """x^a for the root a; ValueError when a is not a root."""
    return rep.x[rep.rs.roots.index(a)]


def coroot(rep, s) -> dict:
    """[x^s, x^{-s}], exact and sparse."""
    xs, xns = root_vector(rep, s), root_vector(rep, negative(s))
    out = product(xs, xns)
    for key, v in product(xns, xs).items():
        out[key] = out.get(key, 0) - v
    return {key: v for key, v in out.items() if v}


def cartan_element(rep, a) -> np.ndarray:
    """The coroot of a as a matrix, an integer combination of the simple
    coroots [x^s, x^{-s}]."""
    coeffs = coroot_coefficients(rep.rs, rep.rs.roots.index(a))
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for s, c in zip(simple_roots(rep.rs), coeffs):
        if c:
            out += c * dense(coroot(rep, s), rep.dim)
    return out


def grading_cartan_coefficients(rs, e) -> tuple[Fraction, ...]:
    """Rational w with e = sum_k w_k H^{s_k}, solved from the Cartan matrix."""
    check_grading(rs, e)
    r = rs.rank
    # Gaussian elimination over Fractions on [C | n].
    aug = [
        [Fraction(rs.cartan[i][k]) for k in range(r)] + [Fraction(e.coeffs[i])]
        for i in range(r)
    ]
    for col in range(r):
        pivot = next(row for row in range(col, r) if aug[row][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for row in range(r):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col]
                aug[row] = [v - factor * w for v, w in zip(aug[row], aug[col])]
    return tuple(aug[i][r] for i in range(r))


def cartan_diagonal(rep, e) -> tuple[Fraction, ...]:
    """The diagonal of E = sum_k w_k [x^{s_k}, x^{-s_k}], exact."""
    w = grading_cartan_coefficients(rep.rs, e)
    diag = [Fraction(0)] * rep.dim
    for wk, s in zip(w, simple_roots(rep.rs)):
        hs = coroot(rep, s)
        for t in range(rep.dim):
            diag[t] += wk * hs.get((t, t), 0)
    return tuple(diag)


def below_filtration(rep, e, m: dict) -> list:
    """The entries of the sparse matrix m below the grading filtration.

    Entry (t, s) is admissible when the grading eigenvalue of row t is at
    least the one of column s, so m is block-triangular exactly when the
    list is empty; the eigenvalues are those of ``cartan_diagonal``.
    """
    diag = cartan_diagonal(rep, e)
    return [v for (t, s), v in m.items() if diag[t] < diag[s]]


def invariant_form(rep) -> np.ndarray | None:
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
            m[2 * r, 2 * r] = 2.0
    return m


def exp_nilpotent(x: np.ndarray) -> np.ndarray:
    """exp(x) of a nilpotent matrix, summed as its terminating power series."""
    out = np.eye(x.shape[0], dtype=x.dtype)
    term = out
    for k in range(1, x.shape[0] + 1):
        term = term @ x / k
        if not term.any():
            return out
        out = out + term
    raise ValueError("matrix is not nilpotent")


def shear_product(e: np.ndarray, f: np.ndarray, t: float, s: float) -> np.ndarray:
    """exp(t e) exp(-s f) exp(t e); t = s = 1 gives the Weyl element of an
    sl2 triple, t = s = -1 its inverse."""
    outer = exp_nilpotent(t * e)
    return outer @ exp_nilpotent(-s * f) @ outer


def cayley_matrix(rep, a) -> np.ndarray:
    """exp((pi/4)(x^{-a} - x^{a})) in the realization."""
    theta = math.pi / 4
    xna, xa = dense(root_vector(rep, negative(a)), rep.dim), dense(root_vector(rep, a), rep.dim)
    return shear_product(xna, xa, math.tan(theta / 2), math.sin(theta))


class FloatRealization:
    """Dense float copies of a realization's root vectors and Weyl elements,
    keyed by `Root`."""

    def __init__(self, rep):
        self.rep = rep
        self.x = {a: dense(m, rep.dim) for a, m in zip(rep.rs.roots, rep.x, strict=True)}
        self._weyl = {}

    def weyl(self, b):
        if b not in self._weyl:
            xb, xnb = self.x[b], self.x[negative(b)]
            self._weyl[b] = (shear_product(xb, xnb, 1, 1), shear_product(xb, xnb, -1, -1))
        return self._weyl[b]

    def conjugate(self, b, m: np.ndarray) -> np.ndarray:
        w, w_inv = self.weyl(b)
        return w @ m @ w_inv


def flag_residual(rep, e, m: np.ndarray) -> float:
    diag = rep.grading_diagonal(e)
    total = 0.0
    for t in range(rep.dim):
        for s in range(rep.dim):
            if diag[t] < diag[s]:
                total += abs(m[t, s]) ** 2
    return math.sqrt(total)


def cayley_check(frep: FloatRealization, a, b, tol=TOL):
    r, q, _ = reference_string(frep.rep.rs, a, b)
    expected = plus(a, times(q, b))
    image = frep.conjugate(b, frep.x[a])
    res, sign = min(
        (float(np.linalg.norm(image - sign * frep.x[expected])), sign) for sign in (1, -1)
    )
    matched = res < tol
    return make_check(
        claim=f"cayley-conjugation a={a} b={b}",
        residual=res,
        passed=matched,
        sign=sign if matched else None,
        info={
            "target": list(expected.coeffs) if matched else None,
            "expected": list(expected.coeffs),
            "string": [r, q],
        },
    )


def fixed_point_check(frep: FloatRealization, e, beta, eps, tol=TOL):
    """The float certificate for a witness beta of grading e; the noncompact
    negative roots are those of odd negative grading, in root order."""
    rep = frep.rep
    alphas = [a for a in rep.rs.roots if (v := e.value(a)) < 0 and v % 2]
    xi = np.eye(rep.dim, dtype=complex)
    for alpha in alphas:
        xi = xi @ exp_nilpotent(eps * frep.x[alpha])
    res = flag_residual(rep, e, frep.conjugate(beta, xi))
    return make_check(
        claim=f"cayley-fixed-point beta={beta} eps={eps}",
        residual=res,
        passed=res < tol,
        info={"alphas": [list(a.coeffs) for a in alphas]},
    )
