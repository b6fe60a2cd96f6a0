"""Signed structure constants of a Chevalley basis.

Positive roots are ordered by height and then lexicographically. For each
non-simple positive root the minimal special pair summing to it, the
extraspecial pair that RootSystem.steps names, gets the positive sign, and
the others follow from lower heights (Carter, Simple Groups of Lie Type,
4.1). Each pair fills its triple a + b + c = 0 through antisymmetry and
c(a, b)/(c, c) = c(b, c)/(a, a) = c(c, a)/(b, b). The resulting table
satisfies

    c(a, b) = -c(b, a) = -c(-a, -b),    |c(a, b)| = r + 1,

where r is the down extent of the b-string through a. The table holds
every pair of root indices; a negative sum takes the sign of
c(-a, -b) = -c(a, b).
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import make_check
from .rootsys import Root, RootSystem, coroot_coefficients, root_string


class ChevalleyConstants(NamedTuple):
    """The constants c(a, b) with [x^a, x^b] = c(a, b) x^{a+b}: ``table[i][j]``
    is c(rs.roots[i], rs.roots[j]), and 0 where the sum is not a root."""

    rs: RootSystem
    table: tuple[tuple[int, ...], ...]


def structure_constants(rs: RootSystem) -> ChevalleyConstants:
    """Build the constants table with the extraspecial sign convention."""
    roots, add, neg, l2 = rs.roots, rs.add, rs.neg, rs.norms
    n = len(roots)
    table = [[0] * n for _ in range(n)]

    def put(a: int, b: int, v) -> None:
        # the 12 constants of the triple a + b + c = 0, from c(a, b) = v
        c = neg[add[a][b]]
        for x, y, w in ((a, b, v), (b, c, v * l2[a] / l2[c]), (c, a, v * l2[b] / l2[c])):
            if w.denominator != 1 or w == 0:
                raise ArithmeticError(
                    f"inconsistent structure constant for ({roots[x]}, {roots[y]})"
                )
            w = int(w)
            table[x][y] = table[neg[y]][neg[x]] = w
            table[y][x] = table[neg[x]][neg[y]] = -w

    for g, b1, s in rs.steps:
        # the positive roots past the simple ones, in height order, each with
        # its extraspecial pair (a1, b1) and then the other special pairs a < b
        a1 = rs.simple[s]
        put(a1, b1, root_string(rs, a1, b1)[0] + 1)
        for a in range(a1 + 1, g):
            b = add[g][neg[a]]
            if b < a:
                continue
            # every constant read here lies on a triple of lower height
            t = 0
            d = add[a1][neg[a]]
            if d >= 0:
                t += table[neg[a]][a1] * table[d][b1]
            d = add[b1][neg[a]]
            if d >= 0:
                t += table[b1][neg[a]] * table[d][a1]
            put(a, b, t * l2[g] / (l2[b] * table[a1][b1]))
    return ChevalleyConstants(rs=rs, table=tuple(map(tuple, table)))


class BracketReport(NamedTuple):
    """``entries`` holds (alpha, beta, coefficient, expected): the coefficient
    of x^alpha in [x^{-beta}, [x^beta, x^alpha]] against q(r+1).
    ``chain_entries`` holds (alpha, beta, product): the double-step product
    c(beta, alpha+beta) c(-beta, alpha+2 beta) on a (0, 2) string, which
    must be 2."""

    entries: tuple[tuple[Root, Root, int, int], ...]
    chain_entries: tuple[tuple[Root, Root, int], ...]

    @property
    def violations(self) -> list:
        bad = [e for e in self.entries if e[2] != e[3]]
        bad.extend(e for e in self.chain_entries if e[2] != 2)
        return bad


def verify_bracket_identities(cc: ChevalleyConstants) -> BracketReport:
    """Check the string identity on every linearly independent root pair.

    For each ordered pair (a, b) with a != +-b the coefficient of x^a in
    [x^{-b}, [x^b, x^a]] must equal q(r+1) for the b-string through a.
    A pair with a (0, 2) string also records c(b, a+b) c(-b, a+2b) = 2 in
    ``chain_entries``; that is the coefficient of the pair (a+b, b), whose
    expected value is 2, so it repeats a check ``entries`` already holds.
    """
    rs = cc.rs
    roots, add, neg = rs.roots, rs.add, rs.neg
    c = cc.table
    entries = []
    chains = []
    for a in range(len(roots)):
        for b in range(len(roots)):
            if a == b or a == neg[b]:
                continue
            r, q, _ = root_string(rs, a, b)
            up = add[a][b]
            coeff = c[b][a] * c[neg[b]][up] if up >= 0 else 0
            entries.append((roots[a], roots[b], coeff, q * (r + 1)))
            if r == 0 and q == 2:
                prod = c[b][up] * c[neg[b]][add[up][b]]
                chains.append((roots[a], roots[b], prod))
    return BracketReport(tuple(entries), tuple(chains))


def _bracket_rows(cc: ChevalleyConstants) -> list[list[tuple]]:
    """The bracket on the basis {x^a} then {H^{s_i}} as sparse rows.

    Basis index p < len(roots) is x^{roots[p]}, and len(roots) + i is
    H^{s_i}; ``out[p][q]`` lists the (m, coefficient) terms of [e_p, e_q].
    """
    rs = cc.rs
    roots, add, neg = rs.roots, rs.add, rs.neg
    c = cc.table
    n_roots = len(roots)
    n = n_roots + rs.rank
    out: list[list[tuple]] = [[()] * n for _ in range(n)]
    for p, a in enumerate(roots):
        row = out[p]
        for q, s in enumerate(add[p]):
            if s >= 0:
                if c[p][q]:
                    row[q] = ((s, c[p][q]),)
            elif q == neg[p]:
                row[q] = tuple(
                    (n_roots + i, v)
                    for i, v in enumerate(coroot_coefficients(rs, p))
                    if v
                )
        for i in range(rs.rank):
            pairing = sum(v * rs.cartan[j][i] for j, v in enumerate(a.coeffs))
            if pairing:
                out[n_roots + i][p] = ((p, pairing),)
                row[n_roots + i] = ((p, -pairing),)
    return out


def jacobi_violations(cc: ChevalleyConstants) -> list:
    """Triples of basis symbols whose cyclic double brackets do not cancel.

    A symbol is ("x", root) or ("h", i). Triples come in basis order
    (roots in height order, then the simple coroots), each as i < j < k,
    sorted lexicographically.
    """
    out = _bracket_rows(cc)
    n = len(out)
    rows = [[(q, v) for q, v in enumerate(row) if v] for row in out]
    # pre[m]: the pairs p < q whose bracket has an e_m term, with its coefficient
    pre: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for p in range(n):
        for q, v in rows[p]:
            if p < q:
                for m, coef in v:
                    pre[m].append((p, q, coef))
    syms = [("x", a) for a in cc.rs.roots]
    syms.extend(("h", i) for i in range(cc.rs.rank))
    violations = []
    for i in range(n):
        # acc[(j * n + k) * n + t]: coefficient of e_t in the cyclic sum of (i, j, k)
        acc: dict[int, int] = {}
        # [[e_i, e_j], e_k]
        for j, v in rows[i]:
            if j <= i:
                continue
            for m, c1 in v:
                for k, w in rows[m]:
                    if k <= j:
                        continue
                    base = (j * n + k) * n
                    for t, c2 in w:
                        acc[base + t] = acc.get(base + t, 0) + c1 * c2
        # [[e_j, e_k], e_i]
        for m in range(n):
            w = out[m][i]
            if not w:
                continue
            for j, k, c1 in pre[m]:
                if j <= i:
                    continue
                base = (j * n + k) * n
                for t, c2 in w:
                    acc[base + t] = acc.get(base + t, 0) + c1 * c2
        # [[e_k, e_i], e_j]
        for k in range(i + 1, n):
            for m, c1 in out[k][i]:
                for j, w in rows[m]:
                    if j >= k:
                        break
                    if j <= i:
                        continue
                    base = (j * n + k) * n
                    for t, c2 in w:
                        acc[base + t] = acc.get(base + t, 0) + c1 * c2
        bad = sorted({key // n for key, v in acc.items() if v})
        violations.extend((syms[i], syms[jk // n], syms[jk % n]) for jk in bad)
    return violations


def chevalley_checks(rs: RootSystem) -> list[dict]:
    """The chevalley suite's two lines for rs: the string-bracket identities,
    marked vacuous when rs has no linearly independent root pair, and the
    Jacobi identity on the whole basis."""
    name = str(rs.lie_type) if rs.lie_type else f"rank{rs.rank}"
    cc = structure_constants(rs)
    report = verify_bracket_identities(cc)
    violations = jacobi_violations(cc)
    return [
        make_check(
            claim=f"chevalley-string-brackets {name}",
            residual=len(report.violations),
            passed=not report.violations,
            info={"pairs": len(report.entries), "vacuous": not report.entries},
        ),
        make_check(
            claim=f"chevalley-jacobi {name}", residual=len(violations), passed=not violations
        ),
    ]
