"""Exact enumeration of classical root systems and root-string combinatorics.

Roots are integer coefficient vectors over a fixed set of simple roots.
The symmetrized Cartan matrix gives the simple roots their squared
lengths, long roots 2, and a reflection carries them to every root; all
arithmetic is exact. Root systems are built either from a family label
(A, B, C, D) or from an explicit Cartan matrix, which makes both
orientations of the rank-two B/C labelings available.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .exact import exact_int

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

_ROOT_COUNT = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
}


class LieType(namedtuple("LieType", "family rank")):
    """A classical family label together with a rank."""

    __slots__ = ()
    # _replace builds through _make, which is validated like the constructor
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, family: str, rank: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        if rank < _MIN_RANK[family]:
            raise ValueError(
                f"family {family} needs rank >= {_MIN_RANK[family]}, got {rank}"
            )
        return super().__new__(cls, family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"


def _same_class_eq(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


class Root(NamedTuple):
    """Integer coefficient vector in the simple-root basis.

    A Root is a label: the hot paths work on indices into ``rs.roots``, and
    it defines no arithmetic, so + and * raise TypeError rather than act as
    the tuple's concatenation and repetition. A Root equals only a Root;
    hashing and ordering are the tuple's.
    """

    coeffs: tuple[int, ...]

    # object.__ne__ negates __eq__
    __eq__, __ne__, __hash__ = _same_class_eq, object.__ne__, tuple.__hash__
    __add__ = __radd__ = __mul__ = __rmul__ = None

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def root(seq) -> Root:
    """Coerce an iterable of integers to a Root."""
    return Root(tuple(exact_int(c) for c in seq))


class GradingElement(NamedTuple):
    """Integer coefficients over the basis dual to the simple roots.

    The value on a root is the coefficient dot product; it is the
    eigenvalue of that root space in the induced graded decomposition.
    It equals only a GradingElement.
    """

    coeffs: tuple[int, ...]

    __eq__, __ne__, __hash__ = _same_class_eq, object.__ne__, tuple.__hash__
    __add__ = __radd__ = __mul__ = __rmul__ = None

    def value(self, a: Root) -> int:
        coeffs, ac = self.coeffs, a.coeffs
        if len(ac) != len(coeffs):
            raise ValueError(f"root {a} and grading {self} differ in rank")
        return sum(map(mul, coeffs, ac))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self):
        return "E(" + ",".join(str(c) for c in self.coeffs) + ")"


def grading(seq) -> GradingElement:
    """Coerce an iterable of integers to a GradingElement."""
    return GradingElement(tuple(exact_int(c) for c in seq))


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


class RootSystem:
    """A finite root system with exact squared lengths.

    ``lengths`` holds the squared length of each simple root; long roots
    are normalized to squared length 2 within each irreducible component.
    ``roots`` lists every root in height order, negatives first, so index i
    is positive exactly when i >= ``half`` and -roots[i] is roots[n-1-i],
    and ``norms[i]`` is the squared length of roots[i]; both are built
    together. The tables the hot paths walk are built on first use and kept
    on the instance: ``simple[k]`` is the index of the k-th simple root in
    Cartan-matrix order, ``add[i][j]`` that of roots[i] + roots[j] or -1
    when the sum is not a root, ``neg[i]`` that of -roots[i], and ``steps``,
    one (k, p, s) per positive root of height > 1 in index order, with
    roots[k] = roots[p] + the s-th simple root and p < k, so a linear
    function is known on every root from its values on the simple roots
    by one addition per root. The s-th simple root is the one of lowest
    index that fits, so (simple[s], p) is the extraspecial pair of roots[k]
    (Carter, Simple Groups of Lie Type, 4.1-4.2).
    ``strings[j][i]`` is the (r, q, top) of the roots[j]-string through
    roots[i], and None when i == j or i == neg[j]; it is built off ``add``
    in one pass, chain by chain: each string of two or more roots up a
    positive root, walked from its bottom, gives every member's cell in
    that root's row and, read backwards, in its negative's row, and a root
    alone in its string is (0, 0, itself) in both. Equal cells are one
    tuple, and ``root_string(rs, i, j)`` reads one cell.
    Equality and hashing see the Cartan matrix only, which determines the
    rest. Attributes cannot be assigned.
    """

    def __init__(self, lie_type, cartan, lengths, roots, norms):
        vars(self).update(
            lie_type=lie_type, cartan=cartan, lengths=lengths, roots=roots, norms=norms
        )

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self.cartan == other.cartan

    def __hash__(self):
        return hash(self.cartan)

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def half(self) -> int:
        return len(self.roots) // 2

    @cached_property
    def simple(self) -> tuple[int, ...]:
        # the height-1 roots open the positive half, sorted by coefficients,
        # so the last simple root comes first
        return tuple(self.half + self.rank - 1 - k for k in range(self.rank))

    @cached_property
    def add(self) -> tuple[tuple[int, ...], ...]:
        # Coefficients of a sum of two roots lie in [-2m, 2m], so this linear
        # code is injective on them and the code of a + b is code(a) + code(b).
        base = 4 * max(abs(c) for a in self.roots for c in a.coeffs) + 1
        codes = [sum(c * base**k for k, c in enumerate(a.coeffs)) for a in self.roots]
        where = {code: i for i, code in enumerate(codes)}
        return tuple(tuple(where.get(ci + cj, -1) for cj in codes) for ci in codes)

    @cached_property
    def neg(self) -> tuple[int, ...]:
        return tuple(range(len(self.roots) - 1, -1, -1))

    @cached_property
    def steps(self) -> tuple[tuple[int, int, int], ...]:
        # a positive root of height > 1 is a lower positive root plus a simple one (Humphreys 10.2)
        add, down = self.add, [(s, self.neg[self.simple[s]]) for s in reversed(range(self.rank))]
        steps = []
        for k in range(self.half + self.rank, len(self.roots)):
            s, p = next((s, add[k][d]) for s, d in down if add[k][d] >= 0)
            steps.append((k, p, s))
        return tuple(steps)

    @cached_property
    def strings(self) -> tuple[tuple[tuple[int, int, int] | None, ...], ...]:
        # a root alone in its b-string is (0, 0, itself) in the rows of b
        # and -b; a longer chain up b, walked from the bottom of its string,
        # is the (-b)-string read backwards; equal cells share one tuple
        add, neg, n = self.add, self.neg, len(self.roots)
        alone = [(0, 0, i) for i in range(n)]
        rows = [alone[:] for _ in range(n)]
        cells: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        for j in range(self.half, n):
            down = neg[j]
            row, mirror = rows[j], rows[down]
            row[j] = row[down] = mirror[j] = mirror[down] = None
            up, back = [a[j] for a in add], [a[down] for a in add]
            for i, k in enumerate(up):
                if k < 0 or back[i] >= 0:
                    continue
                chain = [i]
                while k >= 0:
                    chain.append(k)
                    k = up[k]
                last, top = len(chain) - 1, chain[-1]
                for pos, m in enumerate(chain):
                    cell = pos, last - pos, top
                    row[m] = cells.setdefault(cell, cell)
                    cell = last - pos, pos, i
                    mirror[m] = cells.setdefault(cell, cell)
        return tuple(map(tuple, rows))

    def to_json_dict(self) -> dict:
        return {
            "family": self.lie_type.family if self.lie_type else None,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "roots": [list(a.coeffs) for a in sorted(self.roots)],
        }


def check_grading(rs: RootSystem, e: GradingElement) -> None:
    """Refuse a grading without one coefficient per simple root of rs."""
    if len(e.coeffs) != rs.rank:
        raise ValueError(
            f"grading has {len(e.coeffs)} coefficients, the system has rank {rs.rank}"
        )


def standard_cartan(t: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entries <s_i, s_j> = 2(s_i,s_j)/(s_j,s_j).

    B has a short last simple root, C a long one, D forks at the end.
    """
    r = t.rank
    m = [[0] * r for _ in range(r)]
    for i in range(r):
        m[i][i] = 2
    for i in range(r - 1):
        m[i][i + 1] = -1
        m[i + 1][i] = -1
    if t.family == "B":
        m[r - 2][r - 1] = -2
    elif t.family == "C":
        m[r - 1][r - 2] = -2
    elif t.family == "D":
        m[r - 1][r - 2] = m[r - 2][r - 1] = 0
        m[r - 1][r - 3] = m[r - 3][r - 1] = -1
    return tuple(tuple(row) for row in m)


def build_root_system(t: LieType) -> RootSystem:
    """Enumerate the root system of a classical family."""
    rs = from_cartan_matrix(standard_cartan(t))
    if rs.lie_type != t:
        # D3 shares its matrix with no other family, A1 with B1/C1 excluded;
        # detection is exact, so a mismatch means a bug.
        raise AssertionError("family detection disagrees with the requested type")
    return rs


def from_cartan_matrix(cartan) -> RootSystem:
    """Enumerate a root system from an explicit Cartan matrix.

    The matrix must be a valid finite-type Cartan matrix: 2 on the
    diagonal, nonpositive integers off it, zeros placed symmetrically,
    and symmetrizable. The family label is recovered when the matrix
    equals a standard one.
    """
    try:
        cartan = tuple(tuple(exact_int(x) for x in row) for row in cartan)
    except (TypeError, ValueError) as exc:
        raise ValueError("Cartan matrix must be a list of integer rows") from exc
    _validate_cartan(cartan)
    lengths = _symmetrizer(cartan)
    if not _positive_definite(cartan, lengths):
        raise ValueError("matrix does not define a finite root system")
    lie_type = _detect_family(cartan)
    orbit = _roots(cartan, lengths)
    rs = RootSystem(
        lie_type=lie_type,
        cartan=cartan,
        lengths=lengths,
        roots=tuple(map(Root, orbit)),
        norms=tuple(orbit.values()),
    )
    if lie_type is not None:
        expected = _ROOT_COUNT[lie_type.family](lie_type.rank)
        if len(rs.roots) != expected:
            raise AssertionError(
                f"{lie_type}: enumerated {len(rs.roots)} roots, expected {expected}"
            )
    return rs


def _validate_cartan(cartan: tuple[tuple[int, ...], ...]) -> None:
    r = len(cartan)
    if r == 0 or any(len(row) != r for row in cartan):
        raise ValueError("Cartan matrix must be square and nonempty")
    for i in range(r):
        if cartan[i][i] != 2:
            raise ValueError("Cartan matrix needs 2 on the diagonal")
        for j in range(r):
            if i == j:
                continue
            if cartan[i][j] > 0:
                raise ValueError("off-diagonal Cartan entries must be <= 0")
            if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise ValueError("zero pattern of a Cartan matrix must be symmetric")


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    """Squared lengths of the simple roots, long roots scaled to 2.

    Propagates length ratios along the Dynkin graph and normalizes per
    connected component. Raises when the matrix is not symmetrizable.
    """
    r = len(cartan)
    lengths: list[Fraction | None] = [None] * r
    for start in range(r):
        if lengths[start] is not None:
            continue
        component = [start]
        lengths[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(r):
                if j == i or cartan[i][j] == 0:
                    continue
                # from C[i][j] len_j = C[j][i] len_i
                ratio = Fraction(cartan[j][i], cartan[i][j])
                if lengths[j] is None:
                    lengths[j] = lengths[i] * ratio
                    component.append(j)
                    queue.append(j)
        top = max(lengths[i] for i in component)
        for i in component:
            lengths[i] = lengths[i] * 2 / top
    assert all(v is not None for v in lengths)
    for i in range(r):
        for j in range(r):
            if cartan[i][j] * lengths[j] != cartan[j][i] * lengths[i]:
                raise ValueError("Cartan matrix is not symmetrizable")
    return tuple(lengths)


def _positive_definite(
    cartan: tuple[tuple[int, ...], ...], lengths: tuple[Fraction, ...]
) -> bool:
    """Whether the symmetrized matrix C[i][j] lengths[j] is positive definite.

    A symmetrizable Cartan matrix is of finite type exactly when this holds
    (Kac, Infinite-Dimensional Lie Algebras, ch. 4). Elimination without
    row exchanges leaves the ratios of consecutive leading minors as pivots.
    """
    r = len(cartan)
    m = [[c * lengths[j] for j, c in enumerate(row)] for row in cartan]
    for k in range(r):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, r):
            factor = m[i][k] / m[k][k]
            for j in range(k + 1, r):
                m[i][j] -= factor * m[k][j]
    return True


def _roots(
    cartan: tuple[tuple[int, ...], ...], lengths: tuple[Fraction, ...]
) -> dict[tuple[int, ...], Fraction]:
    """Every root with its squared length, in the (height, coeffs) order
    that RootSystem indexes, which negation reverses: the orbit of the
    simple roots under the simple reflections r_i(a) = a - <a, s_i^v> s_i,
    since every root is W-conjugate to a simple one (Humphreys, Introduction
    to Lie Algebras and Representation Theory, 10.3). A reflection keeps
    the length, so each image takes that of the root it came from.

    It terminates only for a matrix of finite type, which callers check first.
    """
    r = len(cartan)
    known = {tuple(int(j == i) for j in range(r)): lengths[i] for i in range(r)}
    todo = list(known)
    while todo:
        a = todo.pop()
        for i in range(r):
            pairing = sum(c * cartan[j][i] for j, c in enumerate(a))
            image = a[:i] + (a[i] - pairing,) + a[i + 1:]
            if image not in known:
                known[image] = known[a]
                todo.append(image)
    return dict(sorted(known.items(), key=lambda kv: (sum(kv[0]), kv[0])))


def _detect_family(cartan: tuple[tuple[int, ...], ...]) -> LieType | None:
    r = len(cartan)
    for fam in FAMILIES:
        if r < _MIN_RANK[fam]:
            continue
        t = LieType(fam, r)
        if standard_cartan(t) == cartan:
            return t
    return None


def root_string(rs: RootSystem, i: int, j: int) -> tuple[int, int, int]:
    """(r, q, top) of the roots[j]-string through roots[i]: the unbroken
    progression roots[i] + n roots[j] inside the root set, -r <= n <= q,
    and the index top of its last member roots[i] + q roots[j]."""
    s = rs.strings[j][i]
    if s is None:
        raise ValueError("a root string needs i != j and i != neg[j]")
    return s


def coroot_coefficients(rs: RootSystem, i: int) -> tuple[int, ...]:
    """Integer expansion of the coroot of roots[i] over the simple coroots."""
    a, la = rs.roots[i], rs.norms[i]
    out = []
    for k, c in enumerate(a.coeffs):
        v = Fraction(c) * rs.lengths[k] / la
        if v.denominator != 1:
            raise ArithmeticError(f"coroot expansion of {a} is not integral")
        out.append(int(v))
    return tuple(out)

