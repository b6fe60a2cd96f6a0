"""Exact sparse matrices and the verify line built from an exact verdict.

A matrix is a sparse map from (row, column) to an exact number, an int or
a Fraction; no zero entry is stored, so {} is the zero matrix. The
root-condition certificates in `matrixrep` and the sl2 identities in
`hodge` both compute in this format, `hodge` holding a complex matrix
A + iB as the real block matrix [[A, -B], [B, A]], and `exact_int` reads
the integers of every parsed request. The module imports nothing from
the package.
"""

import operator
from fractions import Fraction


def exact_int(value, what: str = "a coefficient") -> int:
    """value as an int when it is exactly one: an int, or an integral float
    such as 2.0, since JSON has one number type. Bools, other floats,
    strings and everything else raise ValueError, where int() would read
    1.7 as 1, True as 1 and "3" as 3."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer")


def make_check(claim, residual, passed, sign=None, info=None) -> dict:
    """One verified claim as its JSON line. passed is the exact verdict, and
    residual the float size of a failure, 0.0 on a pass."""
    return {
        "claim": claim,
        "residual": float(residual),
        "tolerance": 0.0,
        "pass": passed,
        "sign": sign,
        "info": info,
    }


def product(a: dict, b: dict) -> dict:
    """The product of two sparse matrices, without zero entries."""
    rows: dict[int, list] = {}
    for (k, l), v in b.items():
        rows.setdefault(k, []).append((l, v))
    out: dict = {}
    for (i, k), u in a.items():
        for l, v in rows.get(k, ()):
            out[i, l] = out.get((i, l), 0) + u * v
    return {key: v for key, v in out.items() if v}


def combo(*terms) -> dict:
    """The sum of c * m over the (c, m) terms, without zero entries; a term
    with c = 1 adds its entries as they are, with no multiplication."""
    out: dict = {}
    for c, m in terms:
        if c != 1:
            m = {key: c * v for key, v in m.items()} if c else {}
        if not out:
            out = dict(m)
            continue
        for key, v in m.items():
            out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if v}


def exp_nilpotent(x: dict, dim: int) -> dict:
    """exp(x) of a nilpotent dim x dim matrix, summed as its terminating
    power series; ValueError when x is not nilpotent."""
    terms, term = [(1, {(i, i): 1 for i in range(dim)})], x
    for k in range(2, dim + 2):
        terms.append((1, term))
        term = combo((Fraction(1, k), product(term, x)))
        if not term:
            return combo(*terms)
    raise ValueError("matrix is not nilpotent")


def shear_product(x: dict, y: dict, dim: int) -> dict:
    """exp(x) exp(y) exp(x) of two nilpotent dim x dim matrices."""
    outer = exp_nilpotent(x, dim)
    return product(product(outer, exp_nilpotent(y, dim)), outer)
