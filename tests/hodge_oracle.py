"""The hand-written limit diamond construction, kept as an oracle.

This is the clause-by-clause construction the package used before it
read the diamond off the N-strings of the degeneration: `validate_spec`
states the feasibility clauses, `limit_diamond` fills the weight row from
special cases and mirrors it, and `validate_diamond` is an independent
pass over the defining clauses, conjugation symmetry and chain symmetry.
"""

from __future__ import annotations

from flagdomains.hodge import (
    DegenerationSpec,
    DeligneDiamond,
    HodgeNumbers,
    InfeasibleDegeneration,
)


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


def limit_diamond(h: HodgeNumbers, d: DegenerationSpec) -> DeligneDiamond:
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

    diamond = DeligneDiamond(weight=n, entries=entries, rank_nilpotent=rank)
    problems = validate_diamond(h, d, diamond)
    if problems:
        raise AssertionError("diamond construction broke an invariant: " + "; ".join(problems))
    return diamond


def validate_diamond(
    h: HodgeNumbers, d: DegenerationSpec, dia: DeligneDiamond
) -> list[str]:
    """Independent pass over the defining clauses and symmetries; empty means good."""
    n = h.weight
    problems = []
    if dia.total() != h.dim():
        problems.append(f"total {dia.total()} != dim {h.dim()}")
    for (p, q), v in dia.entries.items():
        if dia.i(q, p) != v:
            problems.append(f"conjugation symmetry fails at ({p},{q})")
        if dia.i(n - q, n - p) != v:
            problems.append(f"chain symmetry fails at ({p},{q})")
    if d.kind == "I":
        p0 = d.p0
        if dia.i(p0 + 1, n - p0) != 1 or dia.i(p0, n - p0 - 1) != 1:
            problems.append("clause (i) fails")
        if dia.i(p0, n - p0) != h.hp(p0) - 1:
            problems.append("clause (ii) fails at p0")
        # when n = 2 p0 + 2 the cell (p0+1, n-p0-1) is its own conjugate
        # partner, so it sheds two dimensions instead of one
        center_drop = 2 if n == 2 * p0 + 2 else 1
        if dia.i(p0 + 1, n - p0 - 1) != h.hp(p0 + 1) - center_drop:
            problems.append("clause (ii) fails at p0+1")
        for p in range(0, n + 1):
            if 2 * p < n and p not in (p0, p0 + 1):
                if dia.i(p, n - p) != h.hp(p):
                    problems.append(f"clause (iii) fails at p={p}")
    else:
        m = n // 2
        if dia.i(m - 1, m - 1) != 1 or dia.i(m + 1, m + 1) != 1:
            problems.append("clause (i) fails")
        if dia.i(m - 1, m + 1) != h.hp(m - 1) - 1:
            problems.append("clause (ii) fails at m-1")
        if dia.i(m + 1, m - 1) != h.hp(m + 1) - 1:
            problems.append("clause (ii) fails at m+1")
        for p in range(0, n + 1):
            if 2 * p < n and p != m - 1:
                if dia.i(p, n - p) != h.hp(p):
                    problems.append(f"clause (iii) fails at p={p}")
    return problems
