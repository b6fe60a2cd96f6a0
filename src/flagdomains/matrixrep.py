"""Fundamental matrix realizations and exact Cayley transform certificates.

sl(r+1) acts on C^{r+1}; sp(2r) preserves J = [[0, I], [-I, 0]]; so(2r+1)
and so(2r) preserve the symmetric pairing with blocks [[0, I], [I, 0]]
plus a trailing 2 in the odd case. Only the simple root vectors are
written by hand; every other one is a bracket along an extraspecial pair
of RootSystem.steps divided exactly by r + 1, the convention of the
`chevalley` table, which the realization so reproduces without reading it.
The coroot of a is [x^a, x^{-a}]. The basis spans an admissible lattice
(Steinberg, Lectures on Chevalley Groups, section 2; Humphreys,
Introduction to Lie Algebras, section 27): every root vector is an int
matrix with at most two nonzero entries, each in {+-1, +-2}.

The certificates conjugate by the squared Cayley matrix of a compact root
b, the Weyl element w_b = exp(x^b) exp(-x^{-b}) exp(x^b), Tits' lift of
the reflection in b. On this lattice w_b is a signed permutation matrix
(Steinberg, section 3): it sends e_j to s_j e_{p(j)} for a permutation p
and signs s_j in {+-1}. Ad(w_b) moves entry (k, l) of a matrix to
(p(k), p(l)) and negates it when s_k and s_l differ, so a conjugation
check compares a few integers, and the fixed-point check, with eps read
exactly from its decimal text, is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .exact import combo, exp_nilpotent, make_check, product, shear_product
from .rootsys import GradingElement, RootSystem, _frozen, root_string


def _divided(m: dict, c: int) -> dict:
    """m / c entry for entry; ArithmeticError when c does not divide an entry."""
    out = {}
    for key, v in m.items():
        q, rest = divmod(v, c)
        if rest:
            raise ArithmeticError(f"{v} is not a multiple of {c}")
        out[key] = q
    return out


class WeylElement(NamedTuple):
    """A signed permutation matrix: e_j goes to sign[j] e_{perm[j]}."""

    perm: tuple[int, ...]
    sign: tuple[int, ...]

    def conjugate(self, m: dict) -> dict:
        """Ad(w) m = w m w^{-1}."""
        p, s = self.perm, self.sign
        return {(p[k], p[l]): v if s[k] == s[l] else -v for (k, l), v in m.items()}


class MatrixRealization:
    """Root vectors of a classical algebra as sparse exact matrices, read-only.

    ``x[i]`` is the root vector of rs.roots[i], an int matrix with entries
    in {+-1, +-2}; ``weyl`` is indexed the same way.
    """

    def __init__(self, rs: RootSystem, dim: int, x: tuple):
        vars(self).update(rs=rs, dim=dim, x=x, _weyl={})

    __setattr__ = __delattr__ = _frozen

    def weyl(self, j: int) -> WeylElement:
        """w_b = exp(x^b) exp(-x^{-b}) exp(x^b) for b = rs.roots[j], built once
        per root; ArithmeticError when it is not a signed permutation matrix."""
        if j not in self._weyl:
            w = shear_product(self.x[j], combo((-1, self.x[self.rs.neg[j]])), self.dim)
            cols = {c: (r, int(v)) for (r, c), v in w.items() if v in (1, -1)}
            if len(cols) != len(w) or len(cols) != self.dim:
                raise ArithmeticError("the Weyl element is not a signed permutation matrix")
            self._weyl[j] = WeylElement(*zip(*(cols[c] for c in range(self.dim))))
        return self._weyl[j]

    def grading_diagonal(self, e: GradingElement) -> tuple[Fraction, ...]:
        """Exact eigenvalues of the grading element on the representation.

        [E, x^s] = n_s x^s, so an entry (k, l) of x^s puts the eigenvalue of
        e_k exactly n_s above the one of e_l. They are propagated from
        e_0 = 0 along the simple root vectors, each link from a known row k
        to its column l (on the A-D bases no link needs the other way),
        then shifted so that E is traceless. ValueError when e has not one
        coefficient per simple root, ArithmeticError when those vectors do
        not link the basis.
        """
        links = [
            (k, l, n) for s, n in zip(self.rs.simple, e.coeffs, strict=True) for k, l in self.x[s]
        ]
        diag = {0: Fraction(0)}
        while len(diag) < self.dim:
            known = len(diag)
            for k, l, n in links:
                if k in diag and l not in diag:
                    diag[l] = diag[k] - n
            if len(diag) == known:
                raise ArithmeticError("the simple root vectors do not link the basis")
        mean = sum(diag.values()) / self.dim
        return tuple(diag[t] - mean for t in range(self.dim))


def _simple_sl(r: int):
    xs = [{(k, k + 1): 1} for k in range(r)]
    ys = [{(k + 1, k): 1} for k in range(r)]
    return r + 1, xs, ys


def _first_type(r: int):
    # e_{k+1} - e_{k+2} on the paired basis u_1..u_r, v_1..v_r, for k < r - 1
    ks = range(r - 1)
    xs = [{(k, k + 1): 1, (r + k + 1, r + k): -1} for k in ks]
    ys = [{(k + 1, k): 1, (r + k, r + k + 1): -1} for k in ks]
    return xs, ys


def _simple_sp(r: int):
    xs, ys = _first_type(r)
    # the long root 2 e_r
    xs.append({(r - 1, 2 * r - 1): 1})
    ys.append({(2 * r - 1, r - 1): 1})
    return 2 * r, xs, ys


def _simple_so_odd(r: int):
    xs, ys = _first_type(r)
    # the short root e_r, scaled so that the basis spans an admissible
    # lattice; [x, y] is its coroot, with entries +-2
    xs.append({(r - 1, 2 * r): 2, (2 * r, 2 * r - 1): -1})
    ys.append({(2 * r, r - 1): 1, (2 * r - 1, 2 * r): -2})
    return 2 * r + 1, xs, ys


def _simple_so_even(r: int):
    xs, ys = _first_type(r)
    # the fork root e_{r-1} + e_r
    u, v = 2 * r - 2, 2 * r - 1
    xs.append({(r - 2, v): 1, (r - 1, u): -1})
    ys.append({(v, r - 2): 1, (u, r - 1): -1})
    return 2 * r, xs, ys


_BUILDERS = {
    "A": _simple_sl,
    "B": _simple_so_odd,
    "C": _simple_sp,
    "D": _simple_so_even,
}


def fundamental_rep(rs: RootSystem) -> MatrixRealization:
    """Defining representation in a Chevalley basis with extraspecial signs.

    Each bracket along an extraspecial pair (s, a) of rs.steps is divided by
    r + 1 for the a-string through s; ArithmeticError when it does not divide.
    Every call builds a new realization; none is kept between calls.
    """
    t = rs.lie_type
    if t is None:
        raise ValueError(
            "matrix realization needs a system whose Cartan matrix matches a "
            "standard classical labeling"
        )
    dim, xs, ys = _BUILDERS[t.family](t.rank)
    neg, simples = rs.neg, rs.simple
    x: list = [None] * len(rs.roots)
    for s, xp, xn in zip(simples, xs, ys):
        x[s], x[neg[s]] = xp, xn
    for g, a, k in rs.steps:
        # roots[g] = roots[a] + the k-th simple root, in height order
        s = simples[k]
        c = root_string(rs, s, a)[0] + 1
        xs, xa, ys, ya = x[s], x[a], x[neg[s]], x[neg[a]]
        x[g] = _divided(combo((1, product(xs, xa)), (-1, product(xa, xs))), c)
        x[neg[g]] = _divided(combo((1, product(ya, ys)), (-1, product(ys, ya))), c)
    return MatrixRealization(rs=rs, dim=dim, x=tuple(x))


def verify_cayley_conjugation(rep: MatrixRealization) -> list[dict]:
    """Certify that Ad(c(-b)^2) x^a is a signed root vector at the string top,
    for every ordered pair a = rs.roots[i], b = rs.roots[j] with a != +-b
    whose b-string through a has shape (0, 1) or (0, 2).

    One line per such pair, i then j in root order. The residual is the
    distance of the image from the nearer of +-x^{a+qb}, exactly 0.0 on a
    match; target and sign name the endpoint when it matches and are null
    otherwise.
    """
    rs = rep.rs
    n, neg = len(rs.roots), rs.neg
    lines = []
    for i, j in itertools.product(range(n), repeat=2):
        if i == j or i == neg[j]:
            continue
        r, q, top = root_string(rs, i, j)
        if (r, q) not in ((0, 1), (0, 2)):
            continue
        image, target = rep.weyl(j).conjugate(rep.x[i]), rep.x[top]
        sign = next((s for s in (1, -1) if image == combo((s, target))), None)
        res = 0.0
        if sign is None:
            # the distance from the nearer of +-x^{a+qb}
            keys = image.keys() | target.keys()
            res = min(
                math.hypot(*(image.get(k, 0) - s * target.get(k, 0) for k in keys))
                for s in (1, -1)
            )
        expected = list(rs.roots[top].coeffs)
        lines.append(
            make_check(
                claim=f"cayley-conjugation a={rs.roots[i]} b={rs.roots[j]}",
                residual=res,
                passed=sign is not None,
                sign=sign,
                info={
                    "target": None if sign is None else expected,
                    "expected": expected,
                    "string": [r, q],
                },
            )
        )
    return lines


def check_eps(eps_values) -> None:
    """Refuse an eps outside (0, 1]: at eps 0 the generator is the identity,
    which every conjugation fixes."""
    if not all(0.0 < eps <= 1.0 for eps in eps_values):
        raise ValueError("eps must lie in (0, 1]")


def verify_fixed_point(rep: MatrixRealization, report, eps_values) -> list[dict]:
    """Certify Ad(c(-beta)^2) applied to the neighborhood generator is in P,
    for every witness beta of the sweep and every eps in eps_values.

    report is the sweep (a ConcavityReport) for rep's system and a grading.
    The generator is the ordered product of exp(eps x^{a_i}) over the
    report's noncompact negative roots a_i, with eps taken exactly as the
    decimal it prints as; membership in the parabolic subgroup is tested as
    block-triangularity for the grading filtration: entry (k, l) is
    admissible when the grading eigenvalue of e_k is at least the one of
    e_l. One line per witness and eps, witnesses in sweep order and eps in
    the given order; a sweep without a witness gives one failing line.
    """
    check_eps(eps_values)
    rs = rep.rs
    if report.rs != rs:
        raise ValueError("the report is for another root system")
    e, alphas = report.grading, report.noncompact_negatives
    if not report.witnesses:
        claim = f"fixed-point witness exists {rs.lie_type} grading {list(e.coeffs)}"
        return [make_check(claim=claim, residual=1.0, passed=False)]
    diag = rep.grading_diagonal(e)
    one = {(k, k): 1 for k in range(rep.dim)}
    generators = []
    for eps in eps_values:
        t, xi = Fraction(str(eps)), one
        for i in alphas:
            # xi exp(t x) = xi + xi (exp(t x) - 1), where the second factor is sparse
            step = combo((1, exp_nilpotent(combo((t, rep.x[i])), rep.dim)), (-1, one))
            xi = combo((1, xi), (1, product(xi, step)))
        generators.append((eps, xi))
    lines = []
    for j in report.witnesses:
        w = rep.weyl(j)
        for eps, xi in generators:
            below = [v for (k, l), v in w.conjugate(xi).items() if diag[k] < diag[l]]
            claim = f"cayley-fixed-point beta={rs.roots[j]} eps={eps}"
            info = {"alphas": [list(rs.roots[i].coeffs) for i in alphas]}
            lines.append(make_check(claim, math.hypot(*below), not below, info=info))
    return lines
