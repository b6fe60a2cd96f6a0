"""Record the golden verdicts of the default seed.

Usage, from the root of a checkout: python3 perfbench/golden.py

Runs the first pass of every workload for the default seed (100
cli-queries requests, one verify-sweep pass, the first 300 grading-scan
decisions), checks each answer, and writes the verdict fields that
``checks`` extracts to ``perfbench/golden/seed<DEFAULT_SEED>.json``. Runs of
the default seed compare against this file. Re-record it only when a
verdict is meant to change.
"""

import json
import sys

from run import GOLDEN, SRC, _decide, child_env, run_process, workloads  # noqa: E402

from perfbench import checks  # noqa: E402

SCAN_DECISIONS = 300


def record_queries(name: str, env) -> list[dict]:
    verdicts = []
    units = workloads.units(name, workloads.DEFAULT_SEED)
    for _ in range(workloads.min_units(name)):
        for q in (q for op in next(units) for q in op):
            code, out, err, _ = run_process([sys.executable, "-m", "flagdomains", *q.argv], env)
            problems = checks.check_query(q, code, out, err)
            if problems:
                raise SystemExit(f"{' '.join(q.argv)[:120]}: {problems}")
            verdicts.append(checks.query_verdict(q, code, out))
    return verdicts


def record_scan() -> list[dict]:
    sys.path.insert(0, str(SRC))
    import flagdomains as fd

    systems = {s: fd.build_root_system(fd.LieType(*s)) for s in workloads.SCAN_SYSTEMS}
    verdicts = []
    stream = workloads.grading_pairs(workloads.DEFAULT_SEED)
    for _ in range(SCAN_DECISIONS):
        family, rank, coeffs = next(stream)
        report, _ = _decide(fd, systems, family, rank, coeffs)
        verdicts.append(checks.decision_verdict(family, rank, coeffs, report))
    return verdicts


def main() -> int:
    env = child_env()
    golden = {
        "cli-queries": record_queries("cli-queries", env),
        "verify-sweep": record_queries("verify-sweep", env),
        "grading-scan": record_scan(),
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    # one verdict per line keeps the file small and its diffs readable
    lines = []
    for name, verdicts in golden.items():
        rows = ",\n".join(json.dumps(v, sort_keys=True) for v in verdicts)
        lines.append(f"{json.dumps(name)}: [\n{rows}\n]")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
