"""Independent models used as oracles for the package.

Euclidean coordinates: roots are generated directly in orthonormal
coordinates, without touching the package's Cartan-matrix enumeration,
and compared after translating simple-root coefficient vectors into the
same coordinates.

Height-bounded enumeration: a level-by-level closure of the simple roots
that probes root strings over `Root` objects, with a height guard that
answers None for a matrix of infinite type. It shares nothing with the
package, which enumerates the roots as the orbit of the simple roots
under the simple reflections, on integer tuples.

Root arithmetic: `plus`, `minus`, `negative` and `times` act on `Root`
coefficient vectors, which define no arithmetic of their own. The
root-string, structure-constant, bracket-identity, eligible-pair and
Jacobi computations are written with them, with `Fraction` inner products
and dict-based brackets, and each structure constant is derived on demand
by a recursive lookup through antisymmetry: the slow paths that the
package's indexed tables and its triple-at-a-time fill replace.

String verdicts: each (beta, alpha) string classified into a
`StringVerdict` object by root arithmetic, as the package did before its
sweep built the JSON entries directly, and the theorem1 report assembled
from them.

Test-only helpers, which the package itself does not use: positivity of
a coefficient vector, the bilinear form built from the Cartan matrix and
the simple-root lengths (the package keeps only the squared length of
each root, carried along its reflection orbit), a grading's length
check of its own, the partition of the roots by grading value, the
Cartan integer of two roots, the parabolic cut out by a grading, the
checked classification of a single (beta, alpha) string, and whether the
flag domain of a grading is classical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import combinations

from flagdomains.chevalley import ChevalleyConstants
from flagdomains.rootsys import GradingElement, Root, RootSystem, coroot_coefficients


def check_grading(rs: RootSystem, e: GradingElement) -> None:
    """One coefficient per simple root, checked apart from the package's rule."""
    if len(e.coeffs) != len(rs.cartan):
        raise ValueError(f"grading {e} does not fit a system of rank {len(rs.cartan)}")


def plus(a: Root, b: Root) -> Root:
    return Root(tuple(x + y for x, y in zip(a.coeffs, b.coeffs, strict=True)))


def minus(a: Root, b: Root) -> Root:
    return Root(tuple(x - y for x, y in zip(a.coeffs, b.coeffs, strict=True)))


def negative(a: Root) -> Root:
    return Root(tuple(-x for x in a.coeffs))


def times(k: int, a: Root) -> Root:
    return Root(tuple(k * x for x in a.coeffs))


def is_positive(a: Root) -> bool:
    return any(a.coeffs) and min(a.coeffs) >= 0


def inner(rs: RootSystem, a: Root, b: Root) -> Fraction:
    """The symmetrized bilinear form (a, b), exact: sum_j b_j <a, s_j^v> (s_j, s_j)/2
    over the simple roots s_j, from ``rs.cartan`` and ``rs.lengths`` alone."""
    total = Fraction(0)
    for j, bj in enumerate(b.coeffs):
        pairing = sum(ai * rs.cartan[i][j] for i, ai in enumerate(a.coeffs))
        total += bj * pairing * rs.lengths[j]
    return total / 2


def graded_pieces(rs, e) -> dict[int, frozenset[Root]]:
    """Partition of the roots by grading value; only nonempty pieces appear."""
    check_grading(rs, e)
    out: dict[int, set[Root]] = {}
    for a in rs.roots:
        out.setdefault(e.value(a), set()).add(a)
    return {k: frozenset(v) for k, v in sorted(out.items())}


def cartan_integer(rs: RootSystem, a: Root, b: Root) -> int:
    """The pairing 2(a, b)/(b, b); an integer for roots of the system."""
    rs.roots.index(a)
    rs.roots.index(b)
    v = 2 * inner(rs, a, b) / inner(rs, b, b)
    if v.denominator != 1:
        raise ArithmeticError(f"pairing <{a},{b}> is not integral")
    return int(v)


@dataclass(frozen=True)
class ParabolicData:
    """The parabolic cut out by a grading element.

    ``crossed_nodes`` are the 1-based simple-root indices i with n_i > 0,
    exactly the nodes whose negative simple root spaces fall outside the
    parabolic. ``dim_domain`` is the number of negatively graded roots,
    the complex dimension of the corresponding flag variety.
    """

    parabolic_roots: frozenset[Root]
    crossed_nodes: tuple[int, ...]
    dim_domain: int


def parabolic_data(rs: RootSystem, e: GradingElement) -> ParabolicData:
    check_grading(rs, e)
    nonneg = frozenset(a for a in rs.roots if e.value(a) >= 0)
    crossed = tuple(i + 1 for i, n in enumerate(e.coeffs) if n > 0)
    dim_domain = sum(1 for a in rs.roots if e.value(a) < 0)
    return ParabolicData(nonneg, crossed, dim_domain)


def is_classical(rs: RootSystem, e: GradingElement) -> bool:
    """Whether the flag domain of grading e is classical: it fibres
    holomorphically over a Hermitian symmetric domain, so it carries
    nonconstant holomorphic functions and is not pseudoconcave.

    In root terms the noncompact negative roots are stable under the
    compact ones: no compact b and noncompact negative a have a + b a
    noncompact positive root (Griffiths, Robles and Toledo, "Quotients of
    non-classical flag domains are not algebraic", Algebraic Geometry 1
    (2014); Green, Griffiths and Kerr, Mumford-Tate Groups and Domains
    (2012), ch. IV). a + b has odd value, so a root there is noncompact.
    """
    check_grading(rs, e)
    roots = _root_set(rs)
    compact = [b for b in rs.roots if e.value(b) % 2 == 0]
    negatives = [a for a in rs.roots if e.value(a) % 2 and e.value(a) < 0]
    return not any(
        plus(a, b) in roots and e.value(plus(a, b)) > 0 for a in negatives for b in compact
    )


def analyze_string_condition(
    rs: RootSystem, e: GradingElement, beta: Root, alpha: Root
) -> dict:
    """Classify the beta-string through alpha against the two allowed shapes."""
    check_grading(rs, e)
    rs.roots.index(beta)
    rs.roots.index(alpha)
    if e.value(beta) % 2 != 0:
        raise ValueError(f"beta {beta} is not compact for this grading")
    va = e.value(alpha)
    if va % 2 == 0 or va >= 0:
        raise ValueError(
            f"alpha {alpha} is not a noncompact root of negative grading"
        )
    return reference_verdict(rs, e, beta, alpha).to_json_dict()


class VerdictKind(str, Enum):
    TYPE_A = "OK_TYPE_A"
    TYPE_B = "OK_TYPE_B"
    FAIL = "FAIL"


@dataclass(frozen=True)
class StringVerdict:
    """Outcome of the string condition for one (alpha, beta) pair."""

    alpha: Root
    beta: Root
    r: int
    q: int
    endpoint: Root
    endpoint_in_p: bool
    verdict: VerdictKind
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "alpha": list(self.alpha.coeffs),
            "r": self.r,
            "q": self.q,
            "endpoint": list(self.endpoint.coeffs),
            "endpoint_in_p": self.endpoint_in_p,
            "verdict": self.verdict.value,
            "reason": self.reason,
        }


def reference_verdict(
    rs: RootSystem, e: GradingElement, beta: Root, alpha: Root
) -> StringVerdict:
    """The verdict on the beta-string through alpha, by root arithmetic."""
    return verdict_on_string(e, beta, alpha, reference_string(rs, alpha, beta))


def verdict_on_string(e: GradingElement, beta: Root, alpha: Root, string) -> StringVerdict:
    """The verdict on the beta-string through alpha, given its
    ``reference_string`` (r, q, members); a string depends on the system
    alone, so a scan over many gradings can walk each one once."""
    r, q, members = string
    endpoint = members[-1]
    endpoint_in_p = e.value(endpoint) >= 0
    if (r, q) == (0, 1):
        if endpoint_in_p:
            verdict, reason = VerdictKind.TYPE_A, None
        else:
            verdict, reason = VerdictKind.FAIL, "endpoint a+b has negative grading"
    elif (r, q) == (0, 2):
        if endpoint_in_p:
            verdict, reason = VerdictKind.TYPE_B, None
        else:
            verdict, reason = VerdictKind.FAIL, "endpoint a+2b has negative grading"
    else:
        verdict, reason = VerdictKind.FAIL, f"string shape (r, q) = ({r}, {q})"
    return StringVerdict(alpha, beta, r, q, endpoint, endpoint_in_p, verdict, reason)


def reference_report(rs: RootSystem, e: GradingElement) -> dict:
    """The theorem1 report of a nonzero, nonnegative grading, sweep order
    being the order of ``rs.roots``, assembled from StringVerdicts."""
    check_grading(rs, e)
    betas = [b for b in rs.roots if e.value(b) % 2 == 0]
    alphas = [a for a in rs.roots if e.value(a) % 2 != 0 and e.value(a) < 0]
    detail = {b: [reference_verdict(rs, e, b, a) for a in alphas] for b in betas}
    witnesses = [
        b for b in betas if all(v.verdict is not VerdictKind.FAIL for v in detail[b])
    ]
    return {
        "satisfied": bool(witnesses),
        "witnesses": [list(b.coeffs) for b in witnesses],
        "noncompact_negatives": [list(a.coeffs) for a in alphas],
        "detail": [
            {
                "beta": list(b.coeffs),
                "is_witness": b in witnesses,
                "verdicts": [v.to_json_dict() for v in detail[b]],
            }
            for b in sorted(betas, key=lambda b: b.coeffs)
        ],
    }


def euclid_simple_roots(family: str, rank: int) -> list[tuple[int, ...]]:
    def e(i: int, dim: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(dim))

    def minus(v, w):
        return tuple(a - b for a, b in zip(v, w))

    def plus(v, w):
        return tuple(a + b for a, b in zip(v, w))

    if family == "A":
        dim = rank + 1
        return [minus(e(i, dim), e(i + 1, dim)) for i in range(rank)]
    dim = rank
    chain = [minus(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)]
    if family == "B":
        return chain + [e(rank - 1, dim)]
    if family == "C":
        return chain + [tuple(2 * v for v in e(rank - 1, dim))]
    if family == "D":
        return chain + [plus(e(rank - 2, dim), e(rank - 1, dim))]
    raise ValueError(family)


def euclid_roots(family: str, rank: int) -> set[tuple[int, ...]]:
    def e(i: int, dim: int) -> list[int]:
        return [1 if j == i else 0 for j in range(dim)]

    out: set[tuple[int, ...]] = set()
    if family == "A":
        dim = rank + 1
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    v = e(i, dim)
                    v[j] -= 1
                    out.add(tuple(v))
        return out
    dim = rank
    for i, j in combinations(range(dim), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [0] * dim
                v[i] = si
                v[j] = sj
                out.add(tuple(v))
    if family == "B":
        for i in range(dim):
            for s in (1, -1):
                v = [0] * dim
                v[i] = s
                out.add(tuple(v))
    elif family == "C":
        for i in range(dim):
            for s in (2, -2):
                v = [0] * dim
                v[i] = s
                out.add(tuple(v))
    elif family != "D":
        raise ValueError(family)
    return out


def to_euclid(family: str, rank: int, coeffs) -> tuple[int, ...]:
    simples = euclid_simple_roots(family, rank)
    dim = len(simples[0])
    acc = [0] * dim
    for c, s in zip(coeffs, simples, strict=True):
        for k in range(dim):
            acc[k] += c * s[k]
    return tuple(acc)


def euclid_cartan_integer(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    dot_ab = sum(x * y for x, y in zip(a, b))
    dot_bb = sum(x * x for x in b)
    val = Fraction(2 * dot_ab, dot_bb)
    assert val.denominator == 1
    return int(val)


def positive_roots_within(cartan, max_height: int = 64) -> list[Root] | None:
    """The positive roots of a Cartan matrix, or None past ``max_height``."""
    r = len(cartan)
    simples = [Root(tuple(1 if j == i else 0 for j in range(r))) for i in range(r)]
    known: set[Root] = set(simples)
    current: set[Root] = set(simples)
    height = 1
    while current:
        nxt: set[Root] = set()
        for a in current:
            for i, s in enumerate(simples):
                pairing = sum(c * cartan[j][i] for j, c in enumerate(a.coeffs))
                down = 0
                probe = minus(a, s)
                while probe in known:
                    down += 1
                    probe = minus(probe, s)
                if down - pairing >= 1 and plus(a, s) not in known:
                    nxt.add(plus(a, s))
        known |= nxt
        current = nxt
        height += 1
        if height > max_height:
            return None
    return sorted(known, key=lambda a: (sum(a.coeffs), a.coeffs))


@cache
def _root_set(rs) -> frozenset:
    return frozenset(rs.roots)


@cache
def root_index(rs) -> dict:
    """Each root of rs to its index in rs.roots, as a dictionary."""
    return {a: i for i, a in enumerate(rs.roots)}


def simple_roots(rs) -> tuple[Root, ...]:
    """The simple roots as unit coefficient vectors, in Cartan-matrix order."""
    r = rs.rank
    return tuple(Root(tuple(int(j == k) for j in range(r))) for k in range(r))


def reference_string(rs, a, b) -> tuple[int, int, tuple]:
    """(r, q, members) of the b-string through a, by root arithmetic."""
    roots = _root_set(rs)
    q = 0
    while plus(a, times(q + 1, b)) in roots:
        q += 1
    r = 0
    while minus(a, times(r + 1, b)) in roots:
        r += 1
    return r, q, tuple(plus(a, times(n, b)) for n in range(-r, q + 1))


def positive_sum_table(cc) -> dict:
    """The constants c(a, b) with a + b a positive root, keyed by (a, b)."""
    rs = cc.rs
    return {
        (rs.roots[i], rs.roots[j]): cc.table[i][j]
        for i, row in enumerate(rs.add)
        for j, s in enumerate(row)
        if s >= rs.half
    }


def table_constant(cc, a, b) -> int:
    """c(a, b) as the package's table holds it, read by the indices of the
    roots a and b: 0 where a + b is not a root, a + b = 0 included."""
    index = root_index(cc.rs)
    return cc.table[index[a]][index[b]]


def reference_constant(cc, a, b) -> int:
    """c(a, b) read from the table where the sum is positive; a negative sum
    is derived from c(-a, -b) = -c(a, b)."""
    pos = root_index(cc.rs)
    s = plus(a, b)
    if s not in pos:
        return 0
    if is_positive(s):
        return cc.table[pos[a]][pos[b]]
    return -cc.table[pos[negative(a)]][pos[negative(b)]]


def special_pairs(rs, g: Root) -> list[tuple[Root, Root]]:
    """The positive pairs (a, b) with a + b = g and a before b in (height,
    coefficients) order, sorted by a: the first is the extraspecial pair."""
    pos = sorted(filter(is_positive, rs.roots), key=lambda a: (sum(a.coeffs), a.coeffs))
    order = {a: i for i, a in enumerate(pos)}
    pairs = []
    for a in pos:
        if order[a] >= order[g]:
            break
        b = minus(g, a)
        if b in order and order[a] < order[b]:
            pairs.append((a, b))
    return pairs


def reference_structure_table(rs) -> dict:
    """The extraspecial-sign constants table, by root arithmetic."""
    pos = sorted(filter(is_positive, rs.roots), key=lambda a: (sum(a.coeffs), a.coeffs))
    order = {a: i for i, a in enumerate(pos)}
    roots = frozenset(rs.roots)

    special: dict = {}

    def down_extent(a, b) -> int:
        k = 0
        while minus(a, times(k + 1, b)) in roots:
            k += 1
        return k

    def lookup(a, b) -> int:
        if is_positive(a) and is_positive(b):
            return special[(a, b)] if order[a] < order[b] else -special[(b, a)]
        na, nb = negative(a), negative(b)
        if is_positive(na) and is_positive(nb):
            return -lookup(na, nb)
        if not is_positive(a):
            return -lookup(b, a)
        s = plus(a, b)
        c = negative(s)
        if is_positive(s):
            val = Fraction(-lookup(nb, s)) * inner(rs, c, c) / inner(rs, a, a)
        else:
            val = Fraction(lookup(c, a)) * inner(rs, c, c) / inner(rs, b, b)
        assert val.denominator == 1 and val != 0
        return int(val)

    for g in pos:
        if sum(g.coeffs) < 2:
            continue
        pairs = special_pairs(rs, g)
        a1, b1 = pairs[0]
        special[(a1, b1)] = down_extent(a1, b1) + 1
        for a, b in pairs[1:]:
            t = Fraction(0)
            if minus(a1, a) in roots:
                t += lookup(negative(a), a1) * lookup(minus(a1, a), b1)
            if minus(b1, a) in roots:
                t += lookup(b1, negative(a)) * lookup(minus(b1, a), a1)
            val = t * inner(rs, g, g) / (inner(rs, b, b) * special[(a1, b1)])
            assert val.denominator == 1 and val != 0
            special[(a, b)] = int(val)

    table = {}
    for a in roots:
        for b in roots:
            s = plus(a, b)
            if s in roots and is_positive(s):
                table[(a, b)] = lookup(a, b)
    return table


def reference_bracket_entries(cc) -> tuple[tuple, tuple]:
    """(alpha, beta, coefficient, expected) string-identity entries and
    (alpha, beta, product) double-step chains, by root arithmetic."""
    rs = cc.rs
    roots = frozenset(rs.roots)
    entries = []
    chains = []
    for a in rs.roots:
        for b in rs.roots:
            if a == b or a == negative(b):
                continue
            r, q, _ = reference_string(rs, a, b)
            if plus(a, b) in roots:
                coeff = reference_constant(cc, b, a) * reference_constant(
                    cc, negative(b), plus(a, b)
                )
            else:
                coeff = 0
            entries.append((a, b, coeff, q * (r + 1)))
            if (r, q) == (0, 2):
                prod = reference_constant(cc, b, plus(a, b)) * reference_constant(
                    cc, negative(b), plus(a, times(2, b))
                )
                chains.append((a, b, prod))
    return tuple(entries), tuple(chains)


def reference_eligible_pairs(rs) -> list:
    """Ordered (a, b), a != +-b, whose b-string through a has shape (0,1)/(0,2)."""
    pairs = []
    for a in rs.roots:
        for b in rs.roots:
            if a == b or a == negative(b):
                continue
            r, q, _ = reference_string(rs, a, b)
            if (r, q) in ((0, 1), (0, 2)):
                pairs.append((a, b))
    return pairs


# Abstract bracket algebra over the basis {x^a} union {H^{s_i}}; elements
# are dicts mapping basis symbols to Fractions.

def _add_into(acc: dict, sym, val: Fraction) -> None:
    cur = acc.get(sym, Fraction(0)) + val
    if cur:
        acc[sym] = cur
    else:
        acc.pop(sym, None)


def _basis_bracket(cc: ChevalleyConstants, s1, s2) -> dict:
    rs = cc.rs
    kind1, data1 = s1
    kind2, data2 = s2
    out: dict = {}
    if kind1 == "x" and kind2 == "x":
        a, b = data1, data2
        s = plus(a, b)
        if not any(s.coeffs):
            for i, coef in enumerate(coroot_coefficients(rs, rs.roots.index(a))):
                if coef:
                    _add_into(out, ("h", i), Fraction(coef))
        elif s in root_index(rs):
            _add_into(out, ("x", s), Fraction(reference_constant(cc, a, b)))
        return out
    if kind1 == "h" and kind2 == "x":
        i, a = data1, data2
        pairing = sum(c * rs.cartan[j][i] for j, c in enumerate(a.coeffs))
        if pairing:
            _add_into(out, ("x", a), Fraction(pairing))
        return out
    if kind1 == "x" and kind2 == "h":
        inner = _basis_bracket(cc, s2, s1)
        return {sym: -v for sym, v in inner.items()}
    return out


def abstract_bracket(cc: ChevalleyConstants, e1: dict, e2: dict) -> dict:
    """Bilinear extension of the basis bracket to free-module elements."""
    out: dict = {}
    for s1, v1 in e1.items():
        for s2, v2 in e2.items():
            for sym, v in _basis_bracket(cc, s1, s2).items():
                _add_into(out, sym, v1 * v2 * v)
    return out


def basis_symbols(cc: ChevalleyConstants) -> list:
    syms = [("x", a) for a in cc.rs.roots]
    syms.extend(("h", i) for i in range(cc.rs.rank))
    return syms


def jacobi_violations(cc: ChevalleyConstants) -> list:
    """Triples of basis symbols whose cyclic double brackets do not cancel."""
    syms = basis_symbols(cc)
    violations = []
    for i, s1 in enumerate(syms):
        e1 = {s1: Fraction(1)}
        for j in range(i + 1, len(syms)):
            s2 = syms[j]
            e2 = {s2: Fraction(1)}
            b12 = _basis_bracket(cc, s1, s2)
            for k in range(j + 1, len(syms)):
                s3 = syms[k]
                e3 = {s3: Fraction(1)}
                total: dict = {}
                for sym, v in abstract_bracket(cc, b12, e3).items():
                    _add_into(total, sym, v)
                for sym, v in abstract_bracket(
                    cc, _basis_bracket(cc, s2, s3), e1
                ).items():
                    _add_into(total, sym, v)
                for sym, v in abstract_bracket(
                    cc, _basis_bracket(cc, s3, s1), e2
                ).items():
                    _add_into(total, sym, v)
                if total:
                    violations.append((s1, s2, s3))
    return violations
