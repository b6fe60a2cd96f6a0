"""Benchmark of the flagdomains package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-queries, verify-sweep, grading-scan (see README.md). The
last line on stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced replay with --trace 1. Progress and problems go to
stderr. Exits 2 without a result when the checkout holds no flagdomains
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in every measured process, this one included (grading-scan
# imports numpy here). With the default of one thread per core, a process's
# wall time on a shared 2-core machine depended on whether the other core was
# free: the same query took 0.54 s or 0.74 s minutes apart.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import checks, spans, workloads  # noqa: E402
from perfbench.shim import SPANS_MARKER  # noqa: E402

WORKLOADS = ("cli-queries", "verify-sweep", "grading-scan")
# Set-up is timed this many times before the measured loop and again after
# it; the machine's speed drifts over minutes, so one cluster of samples
# at the start of a run read it at a single moment.
SETUP_REPEATS = 3
QUERY_TIMEOUT_S = 60.0
# No new operation starts after this, so a run ends well within 180 s.
RUN_LIMIT_S = 150.0
SCAN_TRACE_DECISIONS = 400
GOLDEN = Path(__file__).resolve().parent / "golden" / f"seed{workloads.DEFAULT_SEED}.json"
SUITE_METRIC = {
    "chevalley": "suite.chevalley_s",
    "prop33": "suite.prop33_s",
    "fixed-point": "suite.fixedpoint_s",
}
SCAN_SETUP_CODE = (
    "import flagdomains as fd\n"
    f"for f, r in {list(workloads.SCAN_SYSTEMS)!r}:\n"
    "    fd.build_root_system(fd.LieType(f, r))\n"
)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, env, timeout=QUERY_TIMEOUT_S):
    """(exit code or None on timeout, stdout, stderr, wall seconds)."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", "", time.perf_counter() - t0
    return p.returncode, p.stdout, p.stderr, time.perf_counter() - t0


def measure_setup(code: str, env) -> list[float]:
    """Wall times of fresh interpreters running ``code``."""
    walls = []
    for _ in range(SETUP_REPEATS):
        rc, _, err, wall = run_process([sys.executable, "-c", code], env)
        if rc != 0:
            raise RuntimeError(f"set-up failed: {err.strip()[-500:]}")
        walls.append(wall)
    return walls


def p90(values) -> float:
    """90th percentile, interpolated; a single sample is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(latencies, setup_s: float, rss_kb: int) -> dict:
    """The end-to-end metrics of one run; latencies in seconds."""
    values = {
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_p90_ms": (p90(latencies) * 1e3, "ms"),
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(values: dict) -> dict:
    units = dict(spans.PER_LAYER)
    return {name: {"value": values.get(name, 0), "unit": units[name]} for name, _ in spans.PER_LAYER}


class Tally:
    """Attempted and failed operations, plus golden verdicts of the default seed."""

    def __init__(self, workload: str, seed: int):
        self.attempted = 0
        self.failed = 0
        self.verdicts: list[dict] = []
        self.golden: list[dict] | None = None
        if seed == workloads.DEFAULT_SEED and GOLDEN.is_file():
            self.golden = json.loads(GOLDEN.read_text())[workload]

    def record(self, what: str, problems: list[str], verdict=None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAIL {what}: {'; '.join(problems)[:400]}")
        if verdict is not None and self.golden is not None and len(self.verdicts) < len(self.golden):
            self.verdicts.append(verdict)

    def fail(self, what: str, problem: str) -> None:
        """A failure found after the operation was counted."""
        self.failed += 1
        log(f"FAIL {what}: {problem}")

    def result(self, metrics: dict) -> dict:
        if self.golden is not None:
            mismatches = checks.compare_golden(self.verdicts, self.golden)
            for problem in mismatches:
                log(f"GOLDEN {problem}")
            self.failed += len(mismatches)
            log(f"compared {len(self.verdicts)} verdicts against {GOLDEN.name}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_query(q, env, tally: Tally):
    """One plain ``flagdomains`` process, checked; returns (code, stdout, wall)."""
    code, out, err, wall = run_process([sys.executable, "-m", "flagdomains", *q.argv], env)
    problems = checks.check_query(q, code, out, err)
    # a failed answer keeps its place so later verdicts stay aligned with golden
    verdict = {"failed": problems[0]} if problems else checks.query_verdict(q, code, out)
    tally.record(" ".join(q.argv)[:120], problems, verdict)
    return code, out, wall


def traced_query(q, run_id: int, code, out: str, env, tally: Tally):
    """Replay one query through the shim; check that stdout and exit code
    match the untraced run. Returns (wall seconds, shim payload)."""
    shim = [sys.executable, str(ROOT / "perfbench" / "shim.py"), str(run_id), *q.argv]
    t_code, t_out, t_err, wall = run_process(shim, env)
    problems = []
    if (t_code, t_out) != (code, out):
        problems.append("traced stdout or exit code differs from the untraced run")
    payload = [ln for ln in t_err.splitlines() if ln.startswith(SPANS_MARKER)]
    data = {"spans": [], "cache": [0, 0]}
    if payload:
        data = json.loads(payload[-1][len(SPANS_MARKER):])
    else:
        problems.append("traced run wrote no spans")
    tally.record("traced " + " ".join(q.argv)[:110], problems)
    return wall, data


def trace_totals(operations: int, untraced_s: float, traced_s: float) -> dict:
    return {
        "trace.operations": operations,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }


def subprocess_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """cli-queries or verify-sweep: whole units until ``seconds`` have passed
    and at least the workload's minimum is done; with ``trace`` exactly the
    minimum, each query followed by its traced replay."""
    env = child_env()
    tally = Tally(name, seed)
    if not trace:
        setup_walls = measure_setup("import flagdomains.cli", env)
    t_start = time.perf_counter()
    latencies = []
    suites: dict[str, float] = {}
    span_lists, hits, misses, traced_s = [], 0, 0, 0.0
    for index, unit in enumerate(workloads.units(name, seed)):
        elapsed = time.perf_counter() - t_start
        if elapsed >= RUN_LIMIT_S or (
            index >= workloads.min_units(name) and (trace or elapsed >= seconds)
        ):
            break
        for op in unit:
            if time.perf_counter() - t_start >= RUN_LIMIT_S:
                log(f"stopped at the {RUN_LIMIT_S:.0f} s run limit after {len(latencies)} operations")
                break
            op_wall = 0.0
            for q in op:
                code, out, wall = run_query(q, env, tally)
                op_wall += wall
                if q.kind in SUITE_METRIC:
                    suites[SUITE_METRIC[q.kind]] = suites.get(SUITE_METRIC[q.kind], 0.0) + wall
                if trace:
                    t_wall, data = traced_query(q, tally.attempted, code, out, env, tally)
                    traced_s += t_wall
                    span_lists.append(data["spans"])
                    hits, misses = hits + data["cache"][0], misses + data["cache"][1]
            latencies.append(op_wall)
    for suite, total in sorted(suites.items()):
        log(f"{suite} = {total:.3f} s")
    if not trace:
        setup_walls += measure_setup("import flagdomains.cli", env)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return tally.result(end_to_end(latencies, statistics.median(setup_walls), rss_kb))
    values = spans.layer_metrics(span_lists, (hits, misses))
    values.update(suites)
    values.update(trace_totals(len(latencies), sum(latencies), traced_s))
    return tally.result(per_layer(values))


def _decide(fd, systems, family, rank, coeffs):
    """One grading-scan decision through the public functions theorem1 uses."""
    rs = systems[(family, rank)]
    e = fd.grading(coeffs)
    report = fd.check_pseudoconcavity(rs, e)
    table = fd.classify_roots(rs, e)
    return report.to_json_dict(), table


def _scan(fd, systems, pairs, tally: Tally, record_verdicts: bool):
    """Decide each pair; returns per-decision seconds and the reports."""
    latencies, reports = [], []
    for family, rank, coeffs in pairs:
        t0 = time.perf_counter()
        report, table = _decide(fd, systems, family, rank, coeffs)
        latencies.append(time.perf_counter() - t0)
        compact = [a.coeffs for a in table.compact]
        noncompact = [a.coeffs for a in table.noncompact]
        problems = checks.check_decision(family, rank, coeffs, report, compact, noncompact)
        verdict = checks.decision_verdict(family, rank, coeffs, report) if record_verdicts else None
        tally.record(f"{family}{rank} {list(coeffs)}", problems, verdict)
        reports.append(report)
    return latencies, reports


def grading_scan(seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    tally = Tally("grading-scan", seed)
    if not trace:
        setup_walls = measure_setup(SCAN_SETUP_CODE, child_env())
        import flagdomains as fd

        systems = {s: fd.build_root_system(fd.LieType(*s)) for s in workloads.SCAN_SYSTEMS}
        # One operation is a round: one grading for every scanned system.
        # Single decisions range from 0.2 ms to 30 ms with a sparse middle,
        # which made their median jump between runs.
        latencies = []
        stream = workloads.grading_pairs(seed)
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            round_ = [next(stream) for _ in workloads.SCAN_SYSTEMS]
            lat, _ = _scan(fd, systems, round_, tally, True)
            latencies.append(sum(lat))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_walls += measure_setup(SCAN_SETUP_CODE, child_env())
        return tally.result(end_to_end(latencies, statistics.median(setup_walls), rss_kb))

    # Traced replay: import and set-up builds are traced too. The decisions
    # run untraced first, then traced, so the spans the traced pass keeps in
    # memory burden only that pass (its garbage collections) and the
    # difference is the tracing overhead.
    tracer = spans.Tracer()
    tracer.run = -1
    with tracer.span("cli.import"):
        import flagdomains as fd
    tracer.install()
    systems = {s: fd.build_root_system(fd.LieType(*s)) for s in workloads.SCAN_SYSTEMS}
    tracer.uninstall()
    stream = workloads.grading_pairs(seed)
    pairs = [next(stream) for _ in range(SCAN_TRACE_DECISIONS)]
    plain_lat, plain_reports = _scan(fd, systems, pairs, tally, False)
    tracer.install()
    traced_lat, traced_reports = [], []
    for i, pair in enumerate(pairs):
        tracer.run = i
        lat, reps = _scan(fd, systems, [pair], tally, True)
        traced_lat += lat
        traced_reports += reps
    tracer.uninstall()
    for i, (a, b) in enumerate(zip(traced_reports, plain_reports)):
        if a != b:
            tally.fail(f"decision {i}", "traced report differs from the untraced one")
    values = spans.layer_metrics([tracer.spans])
    values.update(trace_totals(len(pairs), sum(plain_lat), sum(traced_lat)))
    return tally.result(per_layer(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flagdomains" / "cli.py").is_file():
        log(f"no flagdomains sources under {SRC}; run from the root of a checkout")
        return 2
    if args.workload == "grading-scan":
        result = grading_scan(args.seed, args.seconds, bool(args.trace))
    else:
        result = subprocess_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
