"""Period-domain bookkeeping for polarized Hodge structures.

Covers the symmetry group determined by the Hodge numbers, the grading
eigenvalues on the underlying space, limit mixed Hodge diamonds of the
two minimal degeneration types, the boundary pseudoconcavity condition
on those diamonds, and exact verification of the closed forms for the
quarter-turn Cayley element built from an sl2 triple.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial

from .exact import combo, exact_int, make_check, product


class InfeasibleDegeneration(ValueError):
    """The degeneration kind cannot occur for the given Hodge numbers."""


class HodgeNumbers(namedtuple("HodgeNumbers", "weight h")):
    """Hodge numbers of one weight; h[p] is the dimension in bidegree (p, n-p)."""

    __slots__ = ()
    # _replace builds through _make, which is validated like the constructor
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, weight: int, h: tuple[int, ...]):
        if len(h) != weight + 1:
            raise ValueError(f"need {weight + 1} Hodge numbers for weight {weight}")
        if any(v < 0 for v in h):
            raise ValueError("Hodge numbers must be nonnegative")
        if sum(h) <= 0:
            raise ValueError("total dimension must be positive")
        for p in range(weight + 1):
            if h[p] != h[weight - p]:
                raise ValueError("Hodge numbers must be conjugation symmetric")
        return super().__new__(cls, weight, h)

    @classmethod
    def from_descending(cls, weight: int, values) -> "HodgeNumbers":
        """Build from [h^{n,0}, ..., h^{0,n}] as used on the command line;
        h^p = h^{n-p}, so that list is h read in either order."""
        return cls(weight=weight, h=tuple(exact_int(v) for v in values))

    def hp(self, p: int) -> int:
        return self.h[p] if 0 <= p <= self.weight else 0

    def dim(self) -> int:
        return sum(self.h)


_ORTHOGONAL_LABEL_NOTE = (
    "some sources label this example SO(2,1); the even-weight formula gives "
    "m_ev = 4, m_od = 1, hence SO(4,1), whose quotient by U(2) has complex "
    "dimension 3, matching the count of negatively graded roots"
)


def group_of_period_domain(h: HodgeNumbers) -> dict:
    """The real symmetry group of the period domain and its isotropy:
    symplectic for odd weight, indefinite orthogonal for even."""
    n = h.weight
    k = n // 2
    factors = [f"U({h.hp(p)})" for p in range(n, k, -1)]
    note = None
    if n % 2 == 1:
        family, parameters = "symplectic", [h.dim() // 2]
    else:
        factors.append(f"SO({h.hp(k)})")
        m_ev = sum(h.hp(p) for p in range(0, n + 1, 2))
        m_od = sum(h.hp(p) for p in range(1, n + 1, 2))
        family, parameters = "indefinite-orthogonal", [m_ev, m_od]
        if n == 2 and (h.hp(2), h.hp(1)) == (2, 1):
            note = _ORTHOGONAL_LABEL_NOTE
    return {
        "family": family,
        "parameters": parameters,
        "isotropy": " x ".join(factors),
        "trivial": n == 0,
        "note": note,
    }


def grading_values_on_V(h: HodgeNumbers) -> dict[int, Fraction]:
    """Eigenvalue (2p - n)/2 of the Hodge grading element in bidegree (p, n-p)."""
    n = h.weight
    return {p: Fraction(2 * p - n, 2) for p in range(n + 1)}


class DegenerationSpec(namedtuple("DegenerationSpec", "kind p0", defaults=(None,))):
    """A minimal degeneration shape: type I with a pivot p0, or type II."""

    __slots__ = ()
    # _replace builds through _make, which is validated like the constructor
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, kind: str, p0: int | None = None):
        if kind not in ("I", "II"):
            raise ValueError("kind must be 'I' or 'II'")
        if kind == "I" and p0 is None:
            raise ValueError("type I needs a pivot p0")
        if kind == "II" and p0 is not None:
            raise ValueError("type II takes no pivot")
        return super().__new__(cls, kind, None if p0 is None else exact_int(p0, "p0"))

    def label(self) -> str:
        return f"type I with p0={self.p0}" if self.kind == "I" else "type II"

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "p0": self.p0}


def limit_diamond(h: HodgeNumbers, d: DegenerationSpec) -> dict:
    """Deligne diamond of the limit mixed structure of a minimal degeneration:
    the weight n, the nonzero dimensions i^{p,q} keyed "p,q" in (p, q)
    order, and rank_N.

    The bigrading is spanned by N-strings (Cattani-Kaplan-Schmid 1986).
    Type I has the string (p0+1, n-p0) -> (p0, n-p0-1) and its conjugate,
    one string when n = 2 p0 + 1; type II has (m+1, m+1) -> (m, m) ->
    (m-1, m-1) with m = n/2. The off-row cells are the string cells, and
    since every column sums to h^p, the weight-row cell of column p is
    h^p minus the off-row cells there. The shape is infeasible when a
    string cell leaves [0, n]^2 or a row cell falls below what the strings
    put on the row. rank_N is the number of arrows.
    """
    n = h.weight
    if d.kind == "I":
        if 2 * d.p0 >= n:
            raise InfeasibleDegeneration(f"type I needs 2*p0 < n, got p0={d.p0}")
        string = ((d.p0 + 1, n - d.p0), (d.p0, n - d.p0 - 1))
    else:
        if n % 2 != 0:
            raise InfeasibleDegeneration("type II needs an even weight")
        m = n // 2
        string = ((m + 1, m + 1), (m, m), (m - 1, m - 1))
    # the string and its conjugate, kept once when they coincide
    strings = dict.fromkeys((string, tuple((q, p) for p, q in string)))
    cells = Counter(c for s in strings for c in s)
    for p, q in cells:
        if not (0 <= p <= n and 0 <= q <= n):
            raise InfeasibleDegeneration(f"{d.label()} puts i^{{{p},{q}}} outside [0, {n}]^2")
    entries = {c: v for c, v in cells.items() if sum(c) != n}
    for p in range(n + 1):
        in_column = sum(v for (a, _), v in cells.items() if a == p)
        if h.hp(p) < in_column:
            raise InfeasibleDegeneration(f"{d.label()} needs h^{{{p},{n - p}}} >= {in_column}")
        # h^p minus the off-row string cells of column p
        row = h.hp(p) - in_column + cells[(p, n - p)]
        if row:
            entries[(p, n - p)] = row
    return {
        "weight": n,
        "entries": {f"{p},{q}": v for (p, q), v in sorted(entries.items())},
        "rank_N": sum(len(s) - 1 for s in strings),
    }


def _candidate_ps(n: int, d: DegenerationSpec):
    """Admissible p values ordered by |ell|, positive branch first."""
    if d.kind == "I":
        for ell in range(1, n + 2):
            yield d.p0 + 2 * ell, ell
            yield d.p0 - 2 * ell + 1, ell
    else:
        # the negative branch p = m + 1 - 2 ell never gives the first witness:
        # its cell mirrors the one at p = m - 1 + 2 ell, tried one step earlier
        m = n // 2
        for ell in range(n + 2):
            yield m + 2 * ell + 1, ell


def _boundary(d: DegenerationSpec, dia: dict) -> dict:
    """The boundary verdict read off a diamond already built for d:
    condition_met, with the witness p and ell or nulls.

    The witness with the smallest |ell| is returned, the positive branch
    first. Type II reads only p > m = n/2: a weight-row cell left of the
    middle equals its mirror p -> n - p by conjugation symmetry.
    """
    n = dia["weight"]
    for p, ell in _candidate_ps(n, d):
        if 0 <= p <= n and f"{p},{n - p}" in dia["entries"]:
            return {"condition_met": True, "witness_p": p, "witness_ell": ell}
    return {"condition_met": False, "witness_p": None, "witness_ell": None}


def _minimal_diamonds(h: HodgeNumbers) -> list[tuple[DegenerationSpec, dict]]:
    """Every admissible degeneration shape with its diamond, type I first."""
    specs = [DegenerationSpec(kind="I", p0=p0) for p0 in range(h.weight + 1)]
    out = []
    for spec in specs + [DegenerationSpec(kind="II")]:
        try:
            out.append((spec, limit_diamond(h, spec)))
        except InfeasibleDegeneration:
            pass
    return out


def _sl2_model(kind: str) -> tuple[int, dict, dict, dict]:
    """Standard triple in the representation matching the degeneration kind.

    Type I uses the two-dimensional representation (the highest vector has
    Y-eigenvalue 1), type II the three-dimensional one (eigenvalue 2);
    Y = [N+, N]. Returns dim, N+, Y and N as sparse matrices.
    """
    if kind == "I":
        dim, nplus, nminus = 2, {(0, 1): 1}, {(1, 0): 1}
    elif kind == "II":
        dim, nplus, nminus = 3, {(0, 1): 2, (1, 2): 2}, {(1, 0): 1, (2, 1): 1}
    else:
        raise ValueError("kind must be 'I' or 'II'")
    y = combo((1, product(nplus, nminus)), (-1, product(nminus, nplus)))
    return dim, nplus, y, nminus


def _realify(re: dict, im: dict, dim: int) -> dict:
    """The complex dim x dim matrix A + iB as the real block matrix
    [[A, -B], [B, A]]; a complex vector a + ib is the column [a; b]."""
    out = {}
    for (r, c), v in re.items():
        out[r, c] = out[r + dim, c + dim] = v
    for (r, c), v in im.items():
        out[r + dim, c], out[r, c + dim] = v, -v
    return out


def _cayley(kind: str) -> tuple[dict, dict]:
    """d = exp(i pi/4 X) for X = N+ + N and its inverse, realified; for type I,
    sqrt 2 d. exp(i theta X) is the polynomial in X that agrees with
    exp(i theta x) on the eigenvalues x of X (Higham, Functions of Matrices,
    1.2): X^2 = 1 in type I gives d = (1 + iX)/sqrt 2, X^3 = 4X in type II
    gives d = 1 + iX/2 - X^2/4. The inverse is the same polynomial with
    i -> -i, halved for sqrt 2 d since (1 + iX)(1 - iX) = 2."""
    dim, nplus, _, nmat = _sl2_model(kind)
    x = combo((1, nplus), (1, nmat))
    one = {(r, r): 1 for r in range(dim)}
    if kind == "I":
        re, im, scale = one, x, Fraction(1, 2)
    else:
        re = combo((1, one), (Fraction(-1, 4), product(x, x)))
        im, scale = combo((Fraction(1, 2), x)), 1
    return _realify(re, im, dim), _realify(combo((scale, re)), combo((-scale, im)), dim)


def sl2_cayley_checks(kind: str) -> list[dict]:
    """All closed-form identities for d = exp(i pi/4 (N+ + N)), one check each.

    d is a polynomial in N+ + N read off its minimal polynomial (`_cayley`),
    and every complex matrix is held as its real block matrix, so the
    entries are ints and Fractions and a check passes when the exact
    difference is zero. Every type I claim is homogeneous in d, so type I
    checks sqrt 2 d, whose entries are Gaussian integers. A failing line's
    residual is the float norm of the realified difference, for type I the
    difference for sqrt 2 d.
    """
    dim, *triple = _sl2_model(kind)
    nplus, y, nmat = (_realify(m, {}, dim) for m in triple)
    d, d_inv = _cayley(kind)
    # i is the block matrix J, and conjugating a vector negates its lower half
    i = partial(product, _realify({}, {(r, r): 1 for r in range(dim)}, dim))
    conj = partial(product, {(r, r): 1 if r < dim else -1 for r in range(2 * dim)})

    # a vector is a one-column matrix
    v = {(0, 0): 1}
    nv = product(nmat, v)
    half = Fraction(1, 2)
    checks = []

    def check(claim, got, want):
        diff = combo((1, got), (-1, want))
        residual = math.hypot(*map(float, diff.values()))
        checks.append(make_check(f"sl2-cayley-{kind} {claim}", residual, not diff))

    if kind == "I":
        check("d(v)", product(d, v), combo((1, v), (1, i(nv))))
        check("d(Nv)", product(d, nv), combo((1, i(v)), (1, nv)))
        check("d(conj v)", product(d, conj(v)), i(conj(product(d, nv))))
        check("d(N conj v)", product(product(d, nmat), conj(v)), i(conj(product(d, v))))
        eigen_pairs = [(v, 1), (nv, -1)]
    else:
        n2v = product(nmat, nv)
        check("d(v)", product(d, v), combo((half, v), (half, i(nv)), (-half / 2, n2v)))
        check("d(Nv)", product(d, nv), i(combo((1, v), (half, n2v))))
        check("d(N^2 v)", product(d, n2v), combo((-2, conj(product(d, v)))))
        eigen_pairs = [(v, 2), (nv, 0), (n2v, -2)]

    def ad(m):
        return product(product(d, m), d_inv)

    # conjugated triple closed forms; Ad(d) Y is the grading of the eigenvalue checks
    z = ad(y)
    check("Ad(d) Y", z, i(combo((1, nmat), (-1, nplus))))
    check("Ad(d) N", ad(nmat), combo((half, nmat), (half, nplus), (half, i(y))))
    check("Ad(d) N+", ad(nplus), combo((half, nmat), (half, nplus), (-half, i(y))))
    for vec, scalar in eigen_pairs:
        w = product(d, vec)
        check(f"grading eigenvalue {scalar:+.0f}", product(z, w), combo((scalar, w)))
    return checks


def period_report(h: HodgeNumbers, only: DegenerationSpec | None = None) -> dict:
    """JSON-ready summary: group, grading eigenvalues, degeneration verdicts."""
    group = group_of_period_domain(h)
    eigs = [
        {"p": p, "eigenvalue": str(val), "multiplicity": h.hp(p)}
        for p, val in sorted(grading_values_on_V(h).items(), reverse=True)
        if h.hp(p)
    ]
    if only is not None:
        pairs = [(only, limit_diamond(h, only))]
    else:
        pairs = _minimal_diamonds(h)
    degenerations = [
        {
            "spec": spec.to_json_dict(),
            "diamond": dia,
            "boundary": _boundary(spec, dia),
        }
        for spec, dia in pairs
    ]
    return {
        "weight": h.weight,
        "hodge_numbers": list(h.h),
        "group": group,
        "grading_values": eigs,
        "degenerations": degenerations,
    }
