import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the checkout root, whose perfbench package holds the benchmark's seeded inputs
sys.path.append(str(Path(__file__).parents[1]))

from flagdomains.rootsys import (
    LieType,
    build_root_system,
    from_cartan_matrix,
    standard_cartan,
)

CLASSICAL = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("B", 2),
    ("B", 3),
    ("C", 2),
    ("C", 3),
    ("D", 4),
]

# every supported family at every rank up to the CLI bound
ORACLE_SYSTEMS = [
    (f, r) for f, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for r in range(low, 7)
]


def relabelled_cartan(t: LieType, perm) -> list[list[int]]:
    """The Cartan matrix of t with simple root i renamed perm[i]."""
    m = standard_cartan(t)
    inv = {p: i for i, p in enumerate(perm)}
    n = len(m)
    return [[m[inv[i]][inv[j]] for j in range(n)] for i in range(n)]


# B4 with its simple roots renamed; no standard labeling matches it
RELABELLED_B4 = relabelled_cartan(LieType("B", 4), (2, 0, 3, 1))

# G2 with its short simple root first, then with its long one first
G2_CARTANS = ([[2, -1], [-3, 2]], [[2, -3], [-1, 2]])
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
E6_CARTAN = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]


@pytest.fixture(scope="session")
def systems():
    return {(f, r): build_root_system(LieType(f, r)) for f, r in CLASSICAL}


@pytest.fixture(scope="session")
def a2(systems):
    return systems[("A", 2)]


@pytest.fixture(scope="session")
def c2(systems):
    return systems[("C", 2)]


@pytest.fixture(scope="session")
def b2(systems):
    return systems[("B", 2)]


@pytest.fixture(scope="session")
def so5_labeled():
    """The rank-two system in the orientation with roots s1, s2, s1+s2, 2s1+s2."""
    return from_cartan_matrix([[2, -1], [-2, 2]])
