import json
import sys
from pathlib import Path

import pytest

from perfbench import spans
from perfbench.run import end_to_end

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def span(name, start, end, parent=-1, raised=False, info=None):
    return [name, start, end, parent, 0, raised, info]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span("cli.main", 0, 100),  # 0
        span("chevalley.structure_constants", 10, 40, 0),  # 1
        span("rootsys.root_string", 15, 25, 1),  # 2
        span("matrixrep.cayley", 50, 90, 0),  # 3
        span("matrixrep.expm", 55, 60, 3),  # 4
        span("matrixrep.expm", 58, 70, 3),  # 5, overlaps 4
        span("matrixrep.expm", 85, 120, 3),  # 6, runs past its parent
    ]
    assert spans.self_times(tree) == [100 - 30 - 40, 30 - 10, 10, 40 - 15 - 5, 5, 12, 35]


def test_layer_metrics_sum_self_times_counts_and_info():
    ms = 1_000_000
    tree = [
        span("cli.import", 0, 400 * ms),
        span("cli.main", 400 * ms, 1000 * ms),
        span("rootsys.build", 410 * ms, 430 * ms, 1),
        span("rootsys.build", 411 * ms, 429 * ms, 2),
        span("concavity.sweep", 500 * ms, 600 * ms, 1, info=["A2|(1, 1)", 7]),
        span("concavity.sweep", 600 * ms, 700 * ms, 1, info=["A2|(1, 1)", 7]),
        span("chevalley.jacobi", 700 * ms, 800 * ms, 1, info=56),
        span("hodge.period_report", 800 * ms, 810 * ms, 1, raised=True),
    ]
    m = spans.layer_metrics([tree], cache_stats=(3, 1))
    assert m["cli.import_ms"] == pytest.approx(400)
    assert m["cli.self_ms"] == pytest.approx(600 - 20 - 200 - 100 - 10)
    assert m["rootsys.build_ms"] == pytest.approx(20)
    assert m["rootsys.build_calls"] == 1
    assert m["concavity.sweep_calls"] == 2
    assert m["concavity.string_verdicts"] == 14
    assert m["concavity.distinct_sweep_ratio"] == pytest.approx(0.5)
    assert m["chevalley.jacobi_triples"] == 56
    assert m["chevalley.structure_constants_hit_ratio"] == pytest.approx(0.75)
    assert m["hodge.errors"] == 1 and m["leviform.errors"] == 0


def test_install_rebinds_every_namespace_and_uninstall_restores():
    import flagdomains.cli  # noqa: F401

    concavity = sys.modules["flagdomains.concavity"]
    original = sys.modules["flagdomains.rootsys"].root_string
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert concavity.root_string is not original
        assert sys.modules["flagdomains.chevalley"].root_string is concavity.root_string
        rs = flagdomains.build_root_system(flagdomains.LieType("A", 2))
        report = flagdomains.cli.check_pseudoconcavity(rs, flagdomains.grading((1, 1)))
    finally:
        tracer.uninstall()
    assert concavity.root_string is original
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"rootsys.build", "concavity.sweep", "rootsys.root_string", "realform.classify"} <= names
    sweep = next(s for s in tracer.spans if s[spans.NAME] == "concavity.sweep")
    assert sweep[spans.INFO][1] == sum(len(v) for v in report.detail.values())


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    printed = end_to_end([0.1, 0.2, 0.3], 0.5, 2048)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in printed.items()
    }
