"""Exact enumeration of classical root systems and root-string combinatorics.

Roots are integer coefficient vectors over a fixed set of simple roots.
The inner product comes from the symmetrized Cartan matrix, normalized so
long roots have squared length 2, and every operation runs in exact
rational arithmetic. Root systems are built either from a family label
(A, B, C, D) or from an explicit Cartan matrix, which makes both
orientations of the rank-two B/C labelings available.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

FAMILIES = ("A", "B", "C", "D")

# the largest rank the CLI and the matrix realizations accept
MAX_RANK = 6

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

_ROOT_COUNT = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
}


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

    Arithmetic is plain lattice arithmetic; whether a vector is an actual
    root of a given system is checked against that system on use. A Root
    equals only a Root; hashing and ordering are the tuple's.
    """

    coeffs: tuple[int, ...]

    # object.__ne__ negates __eq__
    __eq__, __ne__, __hash__ = _same_class_eq, object.__ne__, tuple.__hash__

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> "Root":
        return Root(tuple(-a for a in self.coeffs))

    def __mul__(self, k: int) -> "Root":
        return Root(tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

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

    def value(self, a: Root) -> int:
        if len(a.coeffs) != len(self.coeffs):
            raise ValueError(f"root {a} and grading {self} differ in rank")
        return sum(map(operator.mul, self.coeffs, a.coeffs))

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
    """A finite root system with exact inner-product data.

    ``lengths`` holds the squared length of each simple root; long roots
    are normalized to squared length 2 within each irreducible component.
    ``roots`` lists every root in height order, negatives first, so index i
    is positive exactly when i >= ``half`` and -roots[i] is roots[n-1-i].
    The tables the hot paths walk are built on first use and kept on the
    instance: ``pos`` inverts ``roots``, ``add[i][j]`` is the index of
    roots[i] + roots[j] or -1 when the sum is not a root, ``neg[i]`` the
    index of -roots[i], and ``norms[i]`` the squared length of roots[i].
    Equality and hashing see the Cartan matrix only, which determines the
    rest. Attributes cannot be assigned.
    """

    def __init__(self, lie_type, cartan, lengths, roots):
        vars(self).update(lie_type=lie_type, cartan=cartan, lengths=lengths, roots=roots)

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

    @property
    def positive_roots(self) -> tuple[Root, ...]:
        return self.roots[self.half:]

    @cached_property
    def pos(self) -> dict[Root, int]:
        return {a: i for i, a in enumerate(self.roots)}

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
    def norms(self) -> tuple[Fraction, ...]:
        return tuple(self.length2(a) for a in self.roots)

    def of(self, a: Root) -> int:
        """The index of a, or ValueError when a is not a root."""
        try:
            return self.pos[a]
        except KeyError:
            raise ValueError(f"{a} is not a root of this system") from None

    def walk(self, i: int, j: int) -> list[int]:
        """Indices of roots[i] + n roots[j] for n = 1, 2, ... while those are roots."""
        add = self.add
        out = []
        k = add[i][j]
        while k >= 0:
            out.append(k)
            k = add[k][j]
        return out

    def extents(self, i: int, j: int) -> tuple[int, int]:
        """(r, q) of the roots[j]-string through roots[i], for i != j, neg[j]."""
        return len(self.walk(i, self.neg[j])), len(self.walk(i, j))

    def simple_roots(self) -> tuple[Root, ...]:
        r = self.rank
        return tuple(
            Root(tuple(1 if j == i else 0 for j in range(r))) for i in range(r)
        )

    def inner(self, a: Root, b: Root) -> Fraction:
        """Symmetrized bilinear form (a, b), exact."""
        total = Fraction(0)
        for j, bj in enumerate(b.coeffs):
            if bj:
                # the integer pairing of a with the simple coroot of s_j
                pairing = sum(ai * self.cartan[i][j] for i, ai in enumerate(a.coeffs))
                total += bj * pairing * self.lengths[j]
        return total / 2

    def length2(self, a: Root) -> Fraction:
        return self.inner(a, a)

    def to_json_dict(self) -> dict:
        return {
            "family": self.lie_type.family if self.lie_type else None,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "roots": [list(a.coeffs) for a in sorted(self.roots)],
        }


def check_grading(rs: RootSystem, e: GradingElement) -> None:
    if len(e.coeffs) != rs.rank:
        raise ValueError(
            f"grading element has {len(e.coeffs)} coefficients, system has rank {rs.rank}"
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
        normalized = tuple(tuple(exact_int(x) for x in row) for row in cartan)
    except (TypeError, ValueError) as exc:
        raise ValueError("Cartan matrix must be a list of integer rows") from exc
    return _build_cached(normalized)


# 32 systems: every classical system up to rank 6, with room to spare
@lru_cache(maxsize=32)
def _build_cached(cartan: tuple[tuple[int, ...], ...]) -> RootSystem:
    _validate_cartan(cartan)
    lengths = _symmetrizer(cartan)
    if not _positive_definite(cartan, lengths):
        raise ValueError("matrix does not define a finite root system")
    lie_type = _detect_family(cartan)
    rs = RootSystem(
        lie_type=lie_type,
        cartan=cartan,
        lengths=lengths,
        roots=tuple(map(Root, _roots(cartan))),
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


def _roots(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Every root, in the (height, coeffs) order that RootSystem indexes,
    which negation reverses: the orbit of the simple roots under the simple
    reflections r_i(a) = a - <a, s_i^v> s_i, since every root is W-conjugate
    to a simple one (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.3).

    It terminates only for a matrix of finite type, which callers check first.
    """
    r = len(cartan)
    known = {tuple(int(j == i) for j in range(r)) for i in range(r)}
    todo = list(known)
    while todo:
        a = todo.pop()
        for i in range(r):
            pairing = sum(c * cartan[j][i] for j, c in enumerate(a))
            image = a[:i] + (a[i] - pairing,) + a[i + 1:]
            if image not in known:
                known.add(image)
                todo.append(image)
    return sorted(known, key=lambda a: (sum(a), a))


def _detect_family(cartan: tuple[tuple[int, ...], ...]) -> LieType | None:
    r = len(cartan)
    for fam in FAMILIES:
        if r < _MIN_RANK[fam]:
            continue
        t = LieType(fam, r)
        if standard_cartan(t) == cartan:
            return t
    return None


def root_string(rs: RootSystem, a: Root, b: Root) -> tuple[int, int, tuple[Root, ...]]:
    """(r, q, members) of the b-string through a: the unbroken progression
    a + n b inside the root set, -r <= n <= q."""
    i, j = rs.of(a), rs.of(b)
    if i == j or i == rs.neg[j]:
        raise ValueError("the string through a in direction b needs a != +-b")
    down = rs.walk(i, rs.neg[j])
    up = rs.walk(i, j)
    r = len(down)
    down.reverse()
    down.append(i)
    down.extend(up)
    return r, len(up), tuple(map(rs.roots.__getitem__, down))


def coroot_coefficients(rs: RootSystem, a: Root) -> tuple[int, ...]:
    """Integer expansion of the coroot of a over the simple coroots."""
    la = rs.norms[rs.of(a)]
    out = []
    for i, c in enumerate(a.coeffs):
        v = Fraction(c) * rs.lengths[i] / la
        if v.denominator != 1:
            raise ArithmeticError(f"coroot expansion of {a} is not integral")
        out.append(int(v))
    return tuple(out)

