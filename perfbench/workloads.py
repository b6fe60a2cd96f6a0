"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed and uses only the standard
library, so the same seed always yields the same requests, and the program
under test only ever sees the generated inputs.

- ``cli-queries``: blocks of 20 one-shot ``flagdomains`` requests over all
  five subcommands, with a fixed share per request kind.
- ``verify-sweep``: for A/B/C/D at ranks 5 and 6, the ``verify`` processes
  for the chevalley, prop33 and fixed-point suites, grouped by system, in
  seeded order; one pass is one operation.
- ``grading-scan``: an endless stream of (system, grading) pairs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

FAMILIES = "ABCD"
MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
MAX_RANK = 6
MAX_WEIGHT = 10
MAX_DIM_V = 64
MAX_GRADING = 16
MAX_LEVI_N = 16

BLOCK_SIZE = 20
# Five blocks give 100 queries, so ten samples lie beyond the 90th percentile.
CLI_MIN_BLOCKS = 5

SWEEP_RANKS = (5, 6)
# Satisfied {0,1} gradings of each swept system; C has two to choose from.
FIXED_POINT_GRADINGS = {
    ("A", 5): ((1, 0, 0, 0, 1),),
    ("A", 6): ((1, 0, 0, 0, 0, 1),),
    ("B", 5): ((0, 1, 0, 0, 0),),
    ("B", 6): ((0, 1, 0, 0, 0, 0),),
    ("C", 5): ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
    ("C", 6): ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
    ("D", 5): ((0, 1, 0, 0, 0),),
    ("D", 6): ((0, 1, 0, 0, 0, 0),),
}
EPS_MENU = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
EPS_PER_RUN = 3

SCAN_SYSTEMS = (
    tuple(("A", r) for r in range(2, 7))
    + tuple(("B", r) for r in range(2, 7))
    + tuple(("C", r) for r in range(2, 7))
    + tuple(("D", r) for r in range(3, 7))
)
SCAN_MAX_COEFF = 3

# Symmetric Cartan matrix with every off-diagonal entry -2: it passes the
# entry checks but is not of finite type, so it must be refused (exit 2).
NONFINITE_CARTAN = ((2, -2, -2), (-2, 2, -2), (-2, -2, 2))


def root_count(family: str, rank: int) -> int:
    """Number of roots of a classical system."""
    if family == "A":
        return rank * (rank + 1)
    if family in ("B", "C"):
        return 2 * rank * rank
    return 2 * rank * (rank - 1)


def standard_cartan(family: str, rank: int) -> list[list[int]]:
    """The documented Cartan matrix: B has a short last root, C a long one."""
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    if family == "B":
        m[rank - 2][rank - 1] = -2
    elif family == "C":
        m[rank - 1][rank - 2] = -2
    elif family == "D":
        m[rank - 1][rank - 2] = m[rank - 2][rank - 1] = 0
        m[rank - 1][rank - 3] = m[rank - 3][rank - 1] = -1
    return m


@dataclass(frozen=True)
class Query:
    """One ``flagdomains`` process: its arguments and what a correct run shows."""

    kind: str
    argv: tuple[str, ...]
    exit_code: int = 0
    expect: dict = field(default_factory=dict, compare=False)


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _random_system(rng: random.Random) -> tuple[str, int]:
    family = rng.choice(FAMILIES)
    return family, rng.randint(MIN_RANK[family], MAX_RANK)


def _nonzero_vector(rng: random.Random, n: int, top: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(0, top) for _ in range(n))
        if any(v):
            return v


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _symmetric_hodge(rng: random.Random, weight: int, low: int, high: int):
    """Descending Hodge numbers h^{n,0}..h^{0,n}, symmetric, 0 < dim <= 64."""
    while True:
        half = [rng.randint(low, high) for _ in range(weight // 2 + 1)]
        h = half + half[: (weight + 1) // 2][::-1]
        if 0 < sum(h) <= MAX_DIM_V:
            return h


def _describe_family(rng):
    family, rank = _random_system(rng)
    return Query(
        "describe",
        ("describe", "--family", family, "--rank", str(rank)),
        expect={"family": family, "rank": rank, "roots": root_count(family, rank)},
    )


def _describe_cartan(rng):
    """A classical Cartan matrix with its simple roots relabelled."""
    family, rank = _random_system(rng)
    m = standard_cartan(family, rank)
    perm = list(range(rank))
    rng.shuffle(perm)
    relabelled = [[m[perm[i]][perm[j]] for j in range(rank)] for i in range(rank)]
    return Query(
        "describe",
        ("describe", "--cartan", _compact(relabelled)),
        expect={"rank": rank, "roots": root_count(family, rank)},
    )


def _theorem1(rng, top: int):
    family, rank = _random_system(rng)
    coeffs = _nonzero_vector(rng, rank, top)
    return Query(
        "theorem1",
        ("theorem1", "--family", family, "--rank", str(rank), "--grading", _csv(coeffs)),
        expect={"rank": rank, "roots": root_count(family, rank), "grading": list(coeffs)},
    )


def _period(rng):
    weight = rng.randint(0, MAX_WEIGHT)
    h = _symmetric_hodge(rng, weight, 0, 4)
    return Query(
        "period",
        ("period", "--weight", str(weight), "--h", _csv(h)),
        expect={"weight": weight, "h": h, "dim": sum(h)},
    )


def _period_degeneration(rng):
    """A feasible minimal degeneration: every Hodge number is at least 2,
    type I has 2*p0 < n and type II an even weight."""
    weight = rng.randint(1, MAX_WEIGHT)
    h = _symmetric_hodge(rng, weight, 2, 4)
    if weight % 2 == 0 and rng.random() < 0.4:
        spec = {"kind": "II"}
    else:
        spec = {"kind": "I", "p0": rng.randint(0, (weight - 1) // 2)}
    return Query(
        "period",
        ("period", "--weight", str(weight), "--h", _csv(h), "--degeneration", _compact(spec)),
        expect={"weight": weight, "h": h, "dim": sum(h), "spec": spec},
    )


def _levi(rng, n: int):
    """A Hermitian quadratic form plus a linear term along one coordinate.

    The form is strictly diagonally dominant with margin at least 1, so its
    restriction to the analytic tangent plane at z0 = 0 (the coordinate
    hyperplane orthogonal to the linear term) has exactly as many negative
    eigenvalues as the remaining diagonal has negative entries, each at
    least 1 away from zero.
    """
    off: dict[tuple[int, int], complex] = {}
    for _ in range(n):
        k, ell = sorted(rng.sample(range(n), 2))
        off[(k, ell)] = complex(rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2))
    row_sum = [0.0] * n
    for (k, ell), c in off.items():
        row_sum[k] += abs(c)
        row_sum[ell] += abs(c)
    diag = [
        rng.choice((-1, 1)) * (math.ceil(row_sum[k]) + rng.randint(1, 3)) for k in range(n)
    ]
    j = rng.randrange(n)
    beta = rng.randint(1, 3)

    def unit(k):
        return [1 if i == k else 0 for i in range(n)]

    terms = [{"c": d, "z": unit(k), "zbar": unit(k)} for k, d in enumerate(diag)]
    for (k, ell), c in sorted(off.items()):
        terms.append({"c": [c.real, c.imag], "z": unit(k), "zbar": unit(ell)})
        terms.append({"c": [c.real, -c.imag], "z": unit(ell), "zbar": unit(k)})
    terms.append({"c": beta, "z": unit(j), "zbar": [0] * n})
    terms.append({"c": beta, "z": [0] * n, "zbar": unit(j)})
    rng.shuffle(terms)
    data = {"n": n, "z0": [[0, 0]] * n, "terms": terms}
    negatives = sum(1 for k, d in enumerate(diag) if k != j and d < 0)
    return Query(
        "levi",
        ("levi", "--spec", _compact(data)),
        expect={"n": n, "negatives": negatives},
    )


def _bad_json(rng):
    argv = rng.choice(
        (
            ("describe", "--cartan", "[[2,-1],[-1,2]"),
            ("levi", "--spec", '{"n": 2, "z0": [[0, 0], [0, 0]],'),
            ("period", "--weight", "2", "--h", "1,1,1", "--degeneration", "{kind: II}"),
        )
    )
    return Query("bad-json", argv, exit_code=3)


def _rank7(rng):
    family = rng.choice(FAMILIES)
    argv = rng.choice(
        (
            ("describe", "--family", family, "--rank", "7"),
            ("describe", "--cartan", _compact(standard_cartan(family, 7))),
            ("theorem1", "--family", family, "--rank", "7", "--grading", "1,0,0,0,0,0,0"),
        )
    )
    return Query("rank7", argv, exit_code=4)


def _infeasible(rng):
    """Type II at an odd weight, or type I with 2*p0 >= n."""
    weight = rng.randint(1, MAX_WEIGHT)
    h = _symmetric_hodge(rng, weight, 1, 3)
    if weight % 2:
        spec = {"kind": "II"}
    else:
        spec = {"kind": "I", "p0": weight // 2}
    return Query(
        "infeasible",
        ("period", "--weight", str(weight), "--h", _csv(h), "--degeneration", _compact(spec)),
        exit_code=5,
    )


def _nonfinite(rng):
    return Query(
        "nonfinite",
        ("describe", "--cartan", _compact([list(r) for r in NONFINITE_CARTAN])),
        exit_code=2,
    )


# One malformed request per block, in this fixed rotation.
_MALFORMED = (_bad_json, _rank7, _infeasible, _nonfinite, _bad_json)


def cli_block(seed: int, index: int) -> list[Query]:
    """Block ``index`` of the cli-queries stream: 20 requests, fixed shares."""
    rng = random.Random(f"cli-queries/{seed}/{index}")
    qs = [_describe_family(rng) for _ in range(2)]
    qs += [_describe_cartan(rng) for _ in range(2)]
    qs += [_theorem1(rng, SCAN_MAX_COEFF) for _ in range(3)]
    qs.append(_theorem1(rng, MAX_GRADING))
    qs += [_period(rng) for _ in range(2)]
    qs += [_period_degeneration(rng) for _ in range(2)]
    qs.append(_levi(rng, MAX_LEVI_N))
    qs += [_levi(rng, rng.randint(2, MAX_LEVI_N - 1)) for _ in range(2)]
    qs.append(Query("verify", ("verify", "--suite", "lemma41")))
    for _ in range(3):
        eps = sorted(rng.sample(EPS_MENU, EPS_PER_RUN))
        qs.append(Query("verify", ("verify", "--suite", "all", "--eps", _csv(eps))))
    qs.append(_MALFORMED[index % len(_MALFORMED)](rng))
    rng.shuffle(qs)
    return qs


def verify_sweep(seed: int) -> list[tuple[Query, ...]]:
    """One pass: for every swept system, in seeded order, one operation that
    certifies it, made of its chevalley, prop33 and fixed-point processes in
    seeded order."""
    rng = random.Random(f"verify-sweep/{seed}")
    ops = []
    for family in FAMILIES:
        for rank in SWEEP_RANKS:
            system = ("--family", family, "--rank", str(rank))
            grading = rng.choice(FIXED_POINT_GRADINGS[(family, rank)])
            eps = sorted(rng.sample(EPS_MENU, EPS_PER_RUN))
            op = [
                Query("chevalley", ("verify", "--suite", "chevalley") + system),
                Query("prop33", ("verify", "--suite", "prop33") + system),
                Query(
                    "fixed-point",
                    ("verify", "--suite", "fixed-point")
                    + system
                    + ("--grading", _csv(grading), "--eps", _csv(eps)),
                    expect={"eps": eps},
                ),
            ]
            rng.shuffle(op)
            ops.append(tuple(op))
    rng.shuffle(ops)
    return ops


def units(workload: str, seed: int):
    """Endless stream of measurement units for a subprocess workload. A unit
    is a list of operations, an operation a tuple of queries whose summed
    wall time is one latency sample: a 20-query block with one query per
    operation, or a whole sweep pass as one operation. Per-system samples
    of a pass were too few (8) and too unevenly spread for a steady 90th
    percentile."""
    index = 0
    while True:
        if workload == "cli-queries":
            yield [(q,) for q in cli_block(seed, index)]
        else:
            yield [tuple(q for op in verify_sweep(seed) for q in op)]
        index += 1


def min_units(workload: str) -> int:
    return CLI_MIN_BLOCKS if workload == "cli-queries" else 1


def grading_pairs(seed: int):
    """Endless stream of (family, rank, coeffs): every system once per round,
    coefficients a nonzero vector over 0..3."""
    rng = random.Random(f"grading-scan/{seed}")
    while True:
        order = list(SCAN_SYSTEMS)
        rng.shuffle(order)
        for family, rank in order:
            yield family, rank, _nonzero_vector(rng, rank, SCAN_MAX_COEFF)
