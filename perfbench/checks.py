"""Correctness checks for benchmark answers.

``check_query`` and ``check_decision`` test invariants that hold for every
seed; each returns a list of problems, empty when the answer is right.
``query_verdict`` and ``decision_verdict`` pick out the verdict fields that
are compared against the golden file for the default seed. They leave out
residuals, eigenvalues and any field not named here, so exact arithmetic
or added JSON fields do not count as a change of verdict.
"""

from __future__ import annotations

import hashlib
import json

from .workloads import Query, root_count


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _grading_value(coeffs, root) -> int:
    return sum(c * r for c, r in zip(coeffs, root))


def _check_roots(q: Query, doc: dict) -> list[str]:
    roots = doc["roots"]
    problems = []
    if len(roots) != q.expect["roots"]:
        problems.append(f"{len(roots)} roots, expected {q.expect['roots']}")
    if doc["rank"] != q.expect["rank"]:
        problems.append(f"rank {doc['rank']}, expected {q.expect['rank']}")
    if "family" in q.expect and doc["family"] != q.expect["family"]:
        problems.append(f"family {doc['family']}, expected {q.expect['family']}")
    as_set = {tuple(r) for r in roots}
    if len(as_set) != len(roots) or any(tuple(-c for c in r) not in as_set for r in as_set):
        problems.append("roots repeat or are not closed under negation")
    return problems


def _check_concavity(doc: dict, coeffs, n_roots: int) -> list[str]:
    """Invariants of a theorem1 payload or a report's to_json_dict."""
    problems = []
    witnesses = doc["witnesses"]
    if doc["satisfied"] != bool(witnesses):
        problems.append("satisfied disagrees with the witness list")
    marked = []
    for entry in doc["detail"]:
        failed = any(v["verdict"] == "FAIL" for v in entry["verdicts"])
        if entry["is_witness"] == failed:
            problems.append(f"beta {entry['beta']} is_witness={entry['is_witness']} with FAIL={failed}")
        if entry["is_witness"]:
            marked.append(entry["beta"])
    if sorted(marked) != sorted(witnesses):
        problems.append("witness list differs from the witnesses in detail")
    for a in doc["noncompact_negatives"]:
        value = _grading_value(coeffs, a)
        if value >= 0 or value % 2 == 0:
            problems.append(f"{a} is listed as noncompact negative with grading value {value}")
    if "compact_roots" in doc:
        if len(doc["compact_roots"]) + len(doc["noncompact_roots"]) != n_roots:
            problems.append("compact and noncompact roots do not partition the roots")
        if any(_grading_value(coeffs, a) % 2 for a in doc["compact_roots"]):
            problems.append("a compact root has odd grading value")
        if any(_grading_value(coeffs, a) % 2 == 0 for a in doc["noncompact_roots"]):
            problems.append("a noncompact root has even grading value")
    return problems


def _check_period(q: Query, doc: dict) -> list[str]:
    problems = []
    if doc["weight"] != q.expect["weight"] or doc["hodge_numbers"] != q.expect["h"]:
        problems.append("weight or Hodge numbers not echoed")
    for entry in doc["degenerations"]:
        total = sum(entry["diamond"]["entries"].values())
        if total != q.expect["dim"]:
            problems.append(f"diamond total {total} != dim V {q.expect['dim']}")
    spec = q.expect.get("spec")
    if spec is not None:
        want = {"kind": spec["kind"], "p0": spec.get("p0")}
        if [e["spec"] for e in doc["degenerations"]] != [want]:
            problems.append("the requested degeneration is not the one reported")
    return problems


def _check_levi(q: Query, doc: dict) -> list[str]:
    problems = []
    n = q.expect["n"]
    if len(doc["eigenvalues"]) != n - 1:
        problems.append(f"{len(doc['eigenvalues'])} eigenvalues on a tangent plane of dimension {n - 1}")
    if doc["negatives"] != q.expect["negatives"]:
        problems.append(f"negatives {doc['negatives']}, exact form has {q.expect['negatives']}")
    if doc["pseudoconcave_point"] != (doc["negatives"] >= 1):
        problems.append("pseudoconcave_point disagrees with negatives")
    return problems


def _check_verify(q: Query, lines: list[dict]) -> list[str]:
    problems = []
    if not lines:
        problems.append("verify printed no checks")
    for line in lines:
        if line["pass"] is not True:
            problems.append(f"check failed: {line['claim']}")
        if line["claim"].startswith("cayley-conjugation"):
            info = line["info"]
            if info["target"] != info["expected"]:
                problems.append(f"wrong target: {line['claim']}")
    eps = q.expect.get("eps")
    if eps is not None:
        claimed = [ln["claim"] for ln in lines if ln["claim"].startswith("cayley-fixed-point")]
        if not claimed or len(claimed) % len(eps) or any(
            not any(c.endswith(f"eps={e}") for e in eps) for c in claimed
        ):
            problems.append("fixed-point checks do not cover the requested eps list")
    return problems


def _parse(q: Query, stdout: str):
    if q.kind in ("verify", "chevalley", "prop33", "fixed-point"):
        return [json.loads(line) for line in stdout.splitlines()]
    return json.loads(stdout)


def check_query(q: Query, code, stdout: str, stderr: str) -> list[str]:
    """Problems with one process's exit code and output."""
    if code is None:
        return ["timed out"]
    problems = []
    if code != q.exit_code:
        problems.append(f"exit code {code}, expected {q.exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems
    if q.exit_code != 0:
        return ["output on a refused request"] if stdout.strip() else []
    try:
        doc = _parse(q, stdout)
        if q.kind == "describe":
            return _check_roots(q, doc)
        if q.kind == "theorem1":
            if doc["grading"] != q.expect["grading"]:
                return ["grading not echoed"]
            return _check_concavity(doc, q.expect["grading"], q.expect["roots"])
        if q.kind == "period":
            return _check_period(q, doc)
        if q.kind == "levi":
            return _check_levi(q, doc)
        return _check_verify(q, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def query_verdict(q: Query, code, stdout: str) -> dict:
    """Verdict fields of one process, for the golden comparison."""
    out = {"kind": q.kind, "argv": digest(q.argv), "exit": code}
    if code != 0:
        return out
    doc = _parse(q, stdout)
    if q.kind == "describe":
        out.update(family=doc["family"], rank=doc["rank"], roots=digest(doc["roots"]))
    elif q.kind == "theorem1":
        out.update(
            satisfied=doc["satisfied"],
            witnesses=doc["witnesses"],
            noncompact_negatives=doc["noncompact_negatives"],
            compact=len(doc["compact_roots"]),
        )
    elif q.kind == "period":
        out.update(
            group=[doc["group"]["family"], doc["group"]["parameters"]],
            degenerations=[
                [e["spec"], e["diamond"]["entries"], e["boundary"]] for e in doc["degenerations"]
            ],
        )
    elif q.kind == "levi":
        out.update(negatives=doc["negatives"], pseudoconcave_point=doc["pseudoconcave_point"])
    else:
        rows = [
            [
                line["claim"],
                line["pass"],
                line["sign"],
                {k: v for k, v in (line["info"] or {}).items() if k in ("target", "expected", "string")},
            ]
            for line in doc
        ]
        out.update(checks=len(rows), verdicts=digest(rows))
    return out


def check_decision(family: str, rank: int, coeffs, report: dict, compact, noncompact) -> list[str]:
    """Problems with one grading-scan decision: the report's to_json_dict and
    the coefficient vectors of the compact and noncompact roots."""
    doc = dict(report, compact_roots=compact, noncompact_roots=noncompact)
    return _check_concavity(doc, coeffs, root_count(family, rank))


def decision_verdict(family: str, rank: int, coeffs, report: dict) -> dict:
    return {
        "system": f"{family}{rank}",
        "grading": list(coeffs),
        "satisfied": report["satisfied"],
        "witnesses": report["witnesses"],
        "noncompact_negatives": report["noncompact_negatives"],
    }


def compare_golden(got: list[dict], golden: list[dict]) -> list[str]:
    """Differences between recorded verdicts and the golden prefix."""
    problems = []
    for i, (g, want) in enumerate(zip(got, golden)):
        if g != want:
            fields = sorted(k for k in set(g) | set(want) if g.get(k) != want.get(k))
            problems.append(f"item {i}: verdict differs from golden in {fields}")
    return problems
