"""A committed stdout corpus: CLI requests and a digest of what each prints.

Each request runs in process through ``flagdomains.cli.main``. Its digest
is the first 16 hex digits of the sha256 of its (stdout, stderr, exit
code). ``corpus.txt`` next to this file holds one line per request: the
digest, a tab, and the argv as JSON.

    PYTHONPATH=src python tests/corpus.py           # replay; print changed argv
    PYTHONPATH=src python tests/corpus.py --write   # regenerate corpus.txt

Without ``PYTHONPATH=src`` the replay checks the installed package. A
change that alters stdout regenerates the file and names the changed
requests. Refusals that argparse itself prints (an unknown suite, a
non-integer --rank) are left out: their wording and line wrapping belong
to the interpreter and the terminal width, not to the package.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from flagdomains import cli

PATH = Path(__file__).with_name("corpus.txt")

MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

CARTANS = {
    "G2": [[2, -1], [-3, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "E6": [
        [2, 0, -1, 0, 0, 0],
        [0, 2, 0, -1, 0, 0],
        [-1, 0, 2, -1, 0, 0],
        [0, -1, -1, 2, -1, 0],
        [0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, -1, 2],
    ],
    # B4 with its simple roots renamed (2, 0, 3, 1), as RELABELLED_B4 in conftest
    "RELABELLED_B4": [[2, 0, -1, -1], [0, 2, 0, -1], [-1, 0, 2, 0], [-1, -2, 0, 2]],
    # G2 with the long simple root first
    "G2_TRANSPOSED": [[2, -3], [-1, 2]],
    "A1xA1": [[2, 0], [0, 2]],
    "B2xA1": [[2, -2, 0], [-1, 2, 0], [0, 0, 2]],
}

# fixed-point requests on systems given by a Cartan matrix, with and without
# a witness: none of these systems has a matrix realization
FIXED_POINT_CARTANS = [
    (CARTANS["G2"], "1,0"),
    (CARTANS["G2"], "0,1"),
    (CARTANS["G2"], "1,1"),
    (CARTANS["RELABELLED_B4"], "1,0,0,0"),
    (CARTANS["RELABELLED_B4"], "0,1,0,0"),
    ([[2, 0], [0, 2]], "1,2"),
]

SIXTEEN_EPS = ",".join(f"{k / 16:g}" for k in range(1, 17))

# fixed-point requests with a given eps list: the first three gradings are
# vacuous sweeps with many witnesses, which pin the order witness by
# witness, then eps by eps; the last has one witness
FIXED_POINT_EPS = [
    (["--family", "C", "--rank", "3", "--grading", "2,2,2"], "0.5,1"),
    (["--family", "D", "--rank", "4", "--grading", "2,0,0,2"], "0.01,0.25,0.5,1"),
    (["--family", "B", "--rank", "6", "--grading", "2,0,0,2,0,0"], SIXTEEN_EPS),
    (["--family", "B", "--rank", "6", "--grading", "0,1,0,0,0,0"], SIXTEEN_EPS),
]

# suite all on a given system, with a grading that has a witness; each
# system also runs without one, where the fixed-point suite is skipped
SUITE_ALL_GRADINGS = {"A": "1,0,1", "B": "0,1,0", "C": "1,0,0", "D": "0,1,1"}

REFUSALS = [
    ["describe"],
    ["describe", "--family", "E", "--rank", "6"],
    ["describe", "--family", "B", "--rank", "1"],
    ["describe", "--family", "A", "--rank", "7"],
    ["describe", "--cartan", "5"],
    ["describe", "--cartan", "[[2,"],
    ["describe", "--cartan", "[[2,-1.5],[-1,2]]"],
    ["describe", "--cartan", "[[2,-1],[-1,2]]", "--rank", "3"],
    ["describe", "--cartan", "[[2,-1],[-1,2]]", "--family", "B"],
    ["describe", "--cartan", "[[2,-2],[-2,2]]"],
    ["describe", "--cartan", json.dumps([[2] + [0] * 6] * 7)],
    ["theorem1", "--family", "A", "--rank", "2"],
    ["theorem1", "--family", "A", "--rank", "2", "--grading", "1"],
    ["theorem1", "--family", "A", "--rank", "2", "--grading", "1,x"],
    ["theorem1", "--family", "A", "--rank", "2", "--grading", "1_0,1"],
    ["theorem1", "--family", "A", "--rank", "2", "--grading=-1,1"],
    ["theorem1", "--family", "A", "--rank", "2", "--grading", "17,1"],
    ["period"],
    ["period", "--weight", "11", "--h", "1,1"],
    ["period", "--weight", "2", "--h", "1,2"],
    ["period", "--weight", "2", "--h", "22,22,22"],
    ["period", "--weight", "3", "--h", "1,1,1,1", "--degeneration", "[1]"],
    ["period", "--weight", "3", "--h", "1,1,1,1", "--degeneration", '{"kind": "III"}'],
    ["period", "--weight", "3", "--h", "1,1,1,1", "--degeneration", '{"kind": "I", "p0": 5}'],
    ["period", "--weight", "0", "--h", "1", "--degeneration", '{"kind": "II", "p0": 0}'],
    ["verify", "--grading", "1,1"],
    ["verify", "--suite", "fixed-point", "--family", "A", "--rank", "2"],
    ["verify", "--suite", "prop33", "--cartan", json.dumps(CARTANS["G2"])],
    ["verify", "--suite", "lemma41", "--eps", "0"],
    ["verify", "--suite", "lemma41", "--eps", "1.5"],
    ["verify", "--suite", "lemma41", "--eps", "x"],
    ["verify", "--suite", "lemma41", "--eps", ",".join(["0.5"] * 17)],
    ["verify", "--suite", "all", "--family", "A", "--rank", "2", "--grading", "1,1", "--eps", "2"],
    ["verify", "--suite", "fixed-point", "--family", "A", "--rank", "2", "--grading", "0,0"],
    ["verify", "--family", "A", "--rank", "2", "--grading", "0,0"],
    ["verify", "--suite", "fixed-point", "--cartan", json.dumps(CARTANS["G2"])],
    # suite all on a system without a matrix realization
    ["verify", "--cartan", json.dumps(CARTANS["G2"])],
    ["verify", "--cartan", json.dumps(CARTANS["E6"]), "--grading", "1,0,0,0,0,0"],
    ["levi"],
    ["levi", "--spec", "[]"],
    ["levi", "--spec", '{"n": 17}'],
    ["levi", "--spec", '{"n": 2, "z0": [[1, 0]], "terms": []}'],
]


def _systems(ranks):
    for family, rank in itertools.product("ABCD", ranks):
        if rank >= MIN_RANK[family]:
            yield ["--family", family, "--rank", str(rank)]


def _gradings(rank, values):
    for coeffs in itertools.product(values, repeat=rank):
        yield ["--grading", ",".join(map(str, coeffs))]


def _hodge_vectors(weight):
    """Every symmetric h^{n,0}, ..., h^{0,n} with entries 0..2."""
    half = weight // 2 + 1
    for head in itertools.product((0, 1, 2), repeat=half):
        yield ",".join(map(str, head + head[: (weight + 1) // 2][::-1]))


def _levi_spec(n: int) -> str:
    """|z_k|^2 with alternating signs, neighbours coupled by a complex
    coefficient and a linear term in z_0, at a point off the origin."""

    def unit(k):
        return [int(i == k) for i in range(n)]

    terms = [{"c": (-1) ** k * (k + 2), "z": unit(k), "zbar": unit(k)} for k in range(n)]
    for k in range(n - 1):
        terms.append({"c": [1, 0.5], "z": unit(k), "zbar": unit(k + 1)})
        terms.append({"c": [1, -0.5], "z": unit(k + 1), "zbar": unit(k)})
    terms += [{"c": 3, "z": unit(0)}, {"c": 3, "zbar": unit(0)}]
    return json.dumps({"n": n, "z0": [[0.5, -0.25]] + [[0, 0]] * (n - 1), "terms": terms})


def requests() -> list[list[str]]:
    out = []
    for system in _systems(range(1, 7)):
        out.append(["describe", *system])
        out.append(["verify", "--suite", "chevalley", *system])
        out.append(["verify", "--suite", "prop33", *system])
    for system in _systems(range(1, 7)):
        rank = int(system[-1])
        values = (0, 1, 2) if rank <= 4 else (0, 1)
        for g in _gradings(rank, values):
            out.append(["theorem1", *system, *g])
            if rank <= 4:
                out.append(["theorem1", *system, *g, "--pretty"])
    for system in _systems(range(1, 5)):
        for g in _gradings(int(system[-1]), (0, 1)):
            if g[-1].strip("0,"):
                out.append(["verify", "--suite", "fixed-point", *system, *g])
    for weight in range(7):
        for h in _hodge_vectors(weight):
            out.append(["period", "--weight", str(weight), "--h", h])
            out.append(["period", "--weight", str(weight), "--h", h, "--pretty"])
    out += [["verify"], ["verify", "--pretty"]]
    for family, g in SUITE_ALL_GRADINGS.items():
        system = ["--family", family, "--rank", "3"]
        out += [["verify", *system], ["verify", *system, "--grading", g]]
    # only the fixed-point suite sweeps the grading, so the others take a trivial one
    for suite in ("chevalley", "prop33"):
        out.append(["verify", "--suite", suite, "--family", "A", "--rank", "2", "--grading", "0,0"])
    for cartan in CARTANS.values():
        system = ["--cartan", json.dumps(cartan)]
        rank = len(cartan)
        out.append(["describe", *system])
        out.append(["describe", *system, "--pretty"])
        out.append(["verify", "--suite", "chevalley", *system])
        for g in ((1,) * rank, (1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (2,)):
            out.append(["theorem1", *system, "--grading", ",".join(map(str, g))])
    for cartan, g in FIXED_POINT_CARTANS:
        system = ["--cartan", json.dumps(cartan)]
        out.append(["verify", "--suite", "fixed-point", *system, "--grading", g])
    for system, eps in FIXED_POINT_EPS:
        out.append(["verify", "--suite", "fixed-point", *system, "--eps", eps])
    out.append(["verify", "--suite", "fixed-point", *FIXED_POINT_EPS[1][0], "--eps",
                FIXED_POINT_EPS[1][1], "--pretty"])
    for n in range(1, 17):
        out.append(["levi", "--spec", _levi_spec(n)])
    out += [["levi", "--spec", _levi_spec(n), "--pretty"] for n in (1, 2, 3)]
    return out + REFUSALS


def run(argv: list[str]) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of one request, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # as a real process: the traceback, then exit 1
            traceback.print_exc()
            code = 1
    return out.getvalue(), err.getvalue(), code


def digest(argv: list[str]) -> str:
    blob = json.dumps(run(argv)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load() -> dict[tuple[str, ...], str]:
    """The recorded digest of each request in corpus.txt."""
    recorded = {}
    for line in PATH.read_text().splitlines():
        d, argv = line.split("\t")
        recorded[tuple(json.loads(argv))] = d
    return recorded


def changed() -> list[list[str]]:
    """The requests whose digest differs from the recorded one, then those
    recorded but no longer requested."""
    recorded = load()
    current = requests()
    out = [argv for argv in current if recorded.get(tuple(argv)) != digest(argv)]
    gone = recorded.keys() - {tuple(argv) for argv in current}
    return out + [list(argv) for argv in recorded if argv in gone]


def write() -> int:
    lines = [f"{digest(argv)}\t{json.dumps(argv)}\n" for argv in requests()]
    PATH.write_text("".join(lines))
    return len(lines)


def main(args: list[str]) -> int:
    if args == ["--write"]:
        print(f"wrote {write()} digests to {PATH.name}")
        return 0
    if args:
        print("usage: corpus.py [--write]", file=sys.stderr)
        return 2
    diffs = changed()
    for argv in diffs:
        print(json.dumps(argv))
    print(f"{len(diffs)} of {len(load())} recorded requests differ", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
