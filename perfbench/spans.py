"""Spans around calls into flagdomains, recorded from the benchmark's side.

A ``Tracer`` wraps the public functions of each flagdomains module and
rebinds the wrapper in every flagdomains module namespace that holds the
original (callers bind them with ``from .x import y``). Each call records
a span ``[name, start_ns, end_ns, parent, run, raised, info]`` in memory;
``layer_metrics`` turns one or more span lists into the per-layer metrics,
using self time: a span's duration minus the part its children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from math import comb

NAME, START, END, PARENT, RUN, RAISED, INFO = range(7)


def _sweep_info(args, report):
    rs, e = args[0], args[1]
    key = f"{rs.cartan}|{tuple(e.coeffs)}"
    return [key, sum(len(v) for v in report.detail.values())]


def _jacobi_info(args, _result):
    rs = args[0].rs
    return comb(len(rs.roots) + rs.rank, 3)


def _bracket_info(_args, report):
    return len(report.entries) + len(report.chain_entries)


def _count_info(_args, result):
    return len(result)


# (span name, flagdomains module, public function, info from (args, result))
LAYER_FUNCTIONS = (
    ("rootsys.build", "rootsys", "build_root_system", None),
    ("rootsys.build", "rootsys", "from_cartan_matrix", None),
    ("rootsys.root_string", "rootsys", "root_string", None),
    ("chevalley.structure_constants", "chevalley", "structure_constants", None),
    ("chevalley.bracket_identities", "chevalley", "verify_bracket_identities", _bracket_info),
    ("chevalley.jacobi", "chevalley", "jacobi_violations", _jacobi_info),
    ("realform.classify", "realform", "classify_roots", None),
    ("realform.classify", "realform", "noncompact_negative_roots", None),
    ("concavity.sweep", "concavity", "check_pseudoconcavity", _sweep_info),
    ("matrixrep.fundamental_rep", "matrixrep", "fundamental_rep", None),
    ("matrixrep.eligible_pairs", "matrixrep", "eligible_conjugation_pairs", _count_info),
    ("matrixrep.cayley", "matrixrep", "verify_cayley_conjugation", None),
    ("matrixrep.fixed_point", "matrixrep", "verify_fixed_point", None),
    # scipy.linalg.expm as bound in matrixrep; hodge holds the same object
    ("matrixrep.expm", "matrixrep", "expm", None),
    ("hodge.period_report", "hodge", "period_report", None),
    ("hodge.sl2_checks", "hodge", "sl2_cayley_checks", None),
    ("leviform.levi", "leviform", "levi_analyze", None),
)

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.errors", "count"),
    ("rootsys.build_ms", "ms"),
    ("rootsys.build_calls", "count"),
    ("rootsys.root_string_ms", "ms"),
    ("rootsys.root_string_calls", "count"),
    ("rootsys.errors", "count"),
    ("chevalley.structure_constants_ms", "ms"),
    ("chevalley.structure_constants_hit_ratio", "ratio"),
    ("chevalley.bracket_identities_ms", "ms"),
    ("chevalley.bracket_entries", "count"),
    ("chevalley.jacobi_ms", "ms"),
    ("chevalley.jacobi_triples", "count"),
    ("chevalley.errors", "count"),
    ("realform.classify_ms", "ms"),
    ("realform.errors", "count"),
    ("concavity.sweep_ms", "ms"),
    ("concavity.sweep_calls", "count"),
    ("concavity.string_verdicts", "count"),
    ("concavity.distinct_sweep_ratio", "ratio"),
    ("concavity.errors", "count"),
    ("matrixrep.fundamental_rep_ms", "ms"),
    ("matrixrep.eligible_pairs_ms", "ms"),
    ("matrixrep.eligible_pairs", "count"),
    ("matrixrep.cayley_ms", "ms"),
    ("matrixrep.cayley_checks", "count"),
    ("matrixrep.fixed_point_ms", "ms"),
    ("matrixrep.fixed_point_checks", "count"),
    ("matrixrep.expm_ms", "ms"),
    ("matrixrep.expm_calls", "count"),
    ("matrixrep.errors", "count"),
    ("hodge.period_report_ms", "ms"),
    ("hodge.sl2_checks_ms", "ms"),
    ("hodge.errors", "count"),
    ("leviform.levi_ms", "ms"),
    ("leviform.errors", "count"),
    ("suite.chevalley_s", "s"),
    ("suite.prop33_s", "s"),
    ("suite.fixedpoint_s", "s"),
    ("trace.operations", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
)

# Span names whose summed self time is reported as "<name>_ms".
_TIMED = {"cli.import"} | {name for name, _, _, _ in LAYER_FUNCTIONS}
# Span names whose call count is reported, under the metric name given.
_COUNTED = {
    "rootsys.root_string": "rootsys.root_string_calls",
    "concavity.sweep": "concavity.sweep_calls",
    "matrixrep.cayley": "matrixrep.cayley_checks",
    "matrixrep.fixed_point": "matrixrep.fixed_point_checks",
    "matrixrep.expm": "matrixrep.expm_calls",
}
# Span names whose integer info is summed, under the metric name given.
_SUMMED_INFO = {
    "chevalley.bracket_identities": "chevalley.bracket_entries",
    "chevalley.jacobi": "chevalley.jacobi_triples",
    "matrixrep.eligible_pairs": "matrixrep.eligible_pairs",
}


class Tracer:
    """In-memory span recorder for one process, single threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run, False, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, raised: bool = False) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self.spans[idx][RAISED] = raised
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        except BaseException:
            self.end(idx, raised=True)
            raise
        self.end(idx)

    def wrap(self, name: str, fn, info=None):
        """A wrapper around ``fn`` that records one span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, raised=True)
                raise
            self.end(idx)
            if info is not None:
                self.spans[idx][INFO] = info(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function of LAYER_FUNCTIONS that the loaded flagdomains
        modules define, and rebind each wrapper in every flagdomains module
        namespace holding the original. Missing functions are skipped."""
        wrappers: dict[int, tuple] = {}
        for name, module, attr, info in LAYER_FUNCTIONS:
            fn = getattr(sys.modules.get(f"flagdomains.{module}"), attr, None)
            if fn is not None and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self.wrap(name, fn, info))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "flagdomains" or modname.startswith("flagdomains.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._restore.append((mod, key, value))

    def uninstall(self) -> None:
        """Put back every original binding that ``install`` replaced."""
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()


def self_times(spans: list[list]) -> list[int]:
    """Per span, its duration minus the union of its children's intervals
    clipped to it, in nanoseconds. Parents index into the same list."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(span_lists, cache_stats=(0, 0)) -> dict[str, float]:
    """Per-layer metrics over several span lists (one per process).

    ``cache_stats`` is the summed (hits, misses) of the structure-constant
    cache. Metrics of layers that never ran read 0.
    """
    m = {name: 0 for name, _ in PER_LAYER if not name.startswith(("suite.", "trace."))}
    distinct = 0
    for spans in span_lists:
        selfs = self_times(spans)
        keys = set()
        for s, own in zip(spans, selfs):
            name = s[NAME]
            if name == "cli.main":
                m["cli.self_ms"] += own / 1e6
            elif name in _TIMED:
                m[f"{name}_ms"] += own / 1e6
            if name in _COUNTED:
                m[_COUNTED[name]] += 1
            if name in _SUMMED_INFO and s[INFO] is not None:
                m[_SUMMED_INFO[name]] += s[INFO]
            if name == "rootsys.build" and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != name):
                m["rootsys.build_calls"] += 1
            if name == "concavity.sweep" and s[INFO] is not None:
                keys.add(s[INFO][0])
                m["concavity.string_verdicts"] += s[INFO][1]
            if s[RAISED]:
                m[f"{name.split('.')[0]}.errors"] += 1
        distinct += len(keys)
    if m["concavity.sweep_calls"]:
        m["concavity.distinct_sweep_ratio"] = distinct / m["concavity.sweep_calls"]
    hits, misses = cache_stats
    if hits + misses:
        m["chevalley.structure_constants_hit_ratio"] = hits / (hits + misses)
    return m
