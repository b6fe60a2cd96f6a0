"""The hand-written limit diamond construction, kept as an oracle.

This is the clause-by-clause construction the package used before it
read the diamond off the N-strings of the degeneration: `validate_spec`
states the feasibility clauses, `limit_diamond` fills the weight row from
special cases and mirrors it, and `validate_diamond` is an independent
pass over the defining clauses, conjugation symmetry and chain symmetry.

`sl2_cayley_residuals` is a float model of the sl2 closed forms that
derives d independently of the package: the package reads d off the
minimal polynomial of N+ + N, the model takes the three-shear product
exp(t e) exp(-s f) exp(t e) on dense complex numpy matrices, with
t = tan(pi/8) and s = sin(pi/4) as floats and residuals as float norms.
"""

from __future__ import annotations

import math

import numpy as np
from matrix_oracle import shear_product

from flagdomains.hodge import DegenerationSpec, HodgeNumbers, InfeasibleDegeneration


def validate_spec(h: HodgeNumbers, d: DegenerationSpec) -> None:
    """Raise InfeasibleDegeneration unless the shape fits the Hodge numbers."""
    n = h.weight
    if d.kind == "I":
        if 2 * d.p0 >= n:
            raise InfeasibleDegeneration(f"type I needs 2*p0 < n, got p0={d.p0}")
        if h.hp(d.p0) < 1 or h.hp(d.p0 + 1) < 1:
            raise InfeasibleDegeneration(
                f"type I with p0={d.p0} needs h^{{{d.p0},{n - d.p0}}} and "
                f"h^{{{d.p0 + 1},{n - d.p0 - 1}}} at least 1"
            )
        if n == 2 * d.p0 + 2 and h.hp(d.p0 + 1) < 2:
            # both chain images d(I^{p0+1,n-p0}) and d(I^{n-p0-1,p0}) land in
            # the center class V^{n/2,n/2}, so it must hold two dimensions
            raise InfeasibleDegeneration(
                f"type I with p0={d.p0} and weight {n} needs "
                f"h^{{{d.p0 + 1},{d.p0 + 1}}} >= 2"
            )
        return
    if n % 2 != 0:
        raise InfeasibleDegeneration("type II needs an even weight")
    m = n // 2
    # the length-three chain occupies one dimension of h^{m-1,m+1} and one
    # of h^{m,m}, so both must be nonzero
    if h.hp(m - 1) < 1:
        raise InfeasibleDegeneration(f"type II needs h^{{{m - 1},{m + 1}}} >= 1")
    if h.hp(m) < 1:
        raise InfeasibleDegeneration(f"type II needs h^{{{m},{m}}} >= 1")


def limit_diamond(h: HodgeNumbers, d: DegenerationSpec) -> dict:
    """Deligne diamond of the limit mixed structure of a minimal degeneration.

    The off-row classes and the two decremented row entries are fixed by
    the degeneration type; the rest of the weight row copies the Hodge
    numbers, and everything is completed by conjugation symmetry and the
    nilpotent chain pairing.
    """
    validate_spec(h, d)
    n = h.weight
    entries: dict[tuple[int, int], int] = {}

    def put(p: int, q: int, v: int) -> None:
        if v:
            entries[(p, q)] = v

    def row_value(p: int) -> int:
        # entries of the weight row for 2p <= n, before mirroring
        if d.kind == "I":
            drop = 1 if p in (d.p0, d.p0 + 1) else 0
            if n == 2 * d.p0 + 2 and p == d.p0 + 1:
                # the center hosts the chain image and its conjugate
                drop = 2
        else:
            drop = 1 if p == n // 2 - 1 else 0
            if p == n // 2:
                # the chain middle restores the center of the row
                return h.hp(p)
        return h.hp(p) - drop

    for p in range(0, n // 2 + 1):
        put(p, n - p, row_value(p))
    for p in range(n // 2 + 1, n + 1):
        put(p, n - p, entries.get((n - p, p), 0))

    if d.kind == "I":
        p0 = d.p0
        put(p0 + 1, n - p0, 1)
        put(n - p0, p0 + 1, 1)
        put(p0, n - p0 - 1, 1)
        put(n - p0 - 1, p0, 1)
        rank = 1 if n == 2 * p0 + 1 else 2
    else:
        m = n // 2
        put(m + 1, m + 1, 1)
        put(m - 1, m - 1, 1)
        rank = 2

    diamond = {
        "weight": n,
        "entries": {f"{p},{q}": v for (p, q), v in sorted(entries.items())},
        "rank_N": rank,
    }
    problems = validate_diamond(h, d, diamond)
    if problems:
        raise AssertionError("diamond construction broke an invariant: " + "; ".join(problems))
    return diamond


def cell(dia: dict, p: int, q: int) -> int:
    """The dimension i^{p,q} of a diamond, 0 off its entries."""
    return dia["entries"].get(f"{p},{q}", 0)


def validate_diamond(h: HodgeNumbers, d: DegenerationSpec, dia: dict) -> list[str]:
    """Independent pass over the defining clauses and symmetries; empty means good."""
    n = h.weight
    problems = []
    total = sum(dia["entries"].values())
    if total != h.dim():
        problems.append(f"total {total} != dim {h.dim()}")
    for key, v in dia["entries"].items():
        p, q = map(int, key.split(","))
        if cell(dia, q, p) != v:
            problems.append(f"conjugation symmetry fails at ({p},{q})")
        if cell(dia, n - q, n - p) != v:
            problems.append(f"chain symmetry fails at ({p},{q})")
    if d.kind == "I":
        p0 = d.p0
        if cell(dia, p0 + 1, n - p0) != 1 or cell(dia, p0, n - p0 - 1) != 1:
            problems.append("clause (i) fails")
        if cell(dia, p0, n - p0) != h.hp(p0) - 1:
            problems.append("clause (ii) fails at p0")
        # when n = 2 p0 + 2 the cell (p0+1, n-p0-1) is its own conjugate
        # partner, so it sheds two dimensions instead of one
        center_drop = 2 if n == 2 * p0 + 2 else 1
        if cell(dia, p0 + 1, n - p0 - 1) != h.hp(p0 + 1) - center_drop:
            problems.append("clause (ii) fails at p0+1")
        for p in range(0, n + 1):
            if 2 * p < n and p not in (p0, p0 + 1):
                if cell(dia, p, n - p) != h.hp(p):
                    problems.append(f"clause (iii) fails at p={p}")
    else:
        m = n // 2
        if cell(dia, m - 1, m - 1) != 1 or cell(dia, m + 1, m + 1) != 1:
            problems.append("clause (i) fails")
        if cell(dia, m - 1, m + 1) != h.hp(m - 1) - 1:
            problems.append("clause (ii) fails at m-1")
        if cell(dia, m + 1, m - 1) != h.hp(m + 1) - 1:
            problems.append("clause (ii) fails at m+1")
        for p in range(0, n + 1):
            if 2 * p < n and p != m - 1:
                if cell(dia, p, n - p) != h.hp(p):
                    problems.append(f"clause (iii) fails at p={p}")
    return problems


def sl2_model(kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N+, Y = [N+, N] and N as dense complex matrices."""
    if kind == "I":
        nminus = np.array([[0, 0], [1, 0]], dtype=complex)
        nplus = np.array([[0, 1], [0, 0]], dtype=complex)
    elif kind == "II":
        nminus = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
        nplus = np.array([[0, 2, 0], [0, 0, 2], [0, 0, 0]], dtype=complex)
    else:
        raise ValueError("kind must be 'I' or 'II'")
    return nplus, nplus @ nminus - nminus @ nplus, nminus


def sl2_shear_products(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """d = exp(t e) exp(-s f) exp(t e) for e = i N+, f = -i N, t = tan(pi/8),
    s = sin(pi/4) in floats, and its inverse with -t, -s."""
    nplus, _, nmat = sl2_model(kind)
    t, s = math.tan(math.pi / 8), math.sin(math.pi / 4)
    e, f = 1j * nplus, -1j * nmat
    return shear_product(e, f, t, s), shear_product(e, f, -t, -s)


def sl2_cayley_residuals(kind: str) -> list[tuple[str, float]]:
    """(claim, float residual) of every closed-form identity, in the
    package's order."""
    nplus, y, nmat = sl2_model(kind)
    d, d_inv = sl2_shear_products(kind)
    v = np.zeros(len(y), dtype=complex)
    v[0] = 1.0
    nv = nmat @ v
    out = []

    def check(claim, got, want):
        out.append((f"sl2-cayley-{kind} {claim}", float(np.linalg.norm(got - want))))

    if kind == "I":
        check("d(v)", d @ v, (v + 1j * nv) / math.sqrt(2))
        check("d(Nv)", d @ nv, (1j / math.sqrt(2)) * (v - 1j * nv))
        check("d(conj v)", d @ np.conj(v), 1j * np.conj(d @ nv))
        check("d(N conj v)", d @ nmat @ np.conj(v), 1j * np.conj(d @ v))
        eigen_pairs = [(v, 1.0), (nv, -1.0)]
    else:
        n2v = nmat @ nv
        check("d(v)", d @ v, 0.5 * v + 0.5j * nv - 0.25 * n2v)
        check("d(Nv)", d @ nv, 1j * (v + 0.5 * n2v))
        check("d(N^2 v)", d @ n2v, -2.0 * np.conj(d @ v))
        eigen_pairs = [(v, 2.0), (nv, 0.0), (n2v, -2.0)]
    check("Ad(d) Y", d @ y @ d_inv, 1j * (nmat - nplus))
    check("Ad(d) N", d @ nmat @ d_inv, 0.5 * (nmat + nplus + 1j * y))
    check("Ad(d) N+", d @ nplus @ d_inv, 0.5 * (nmat + nplus - 1j * y))
    z = d @ y @ d_inv
    for vec, scalar in eigen_pairs:
        w = d @ vec
        check(f"grading eigenvalue {scalar:+.0f}", z @ w, scalar * w)
    return out
