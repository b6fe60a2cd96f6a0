import copy
import json

from perfbench import checks, workloads
from perfbench.workloads import Query

DESCRIBE = Query(
    "describe",
    ("describe", "--family", "A", "--rank", "2"),
    expect={"family": "A", "rank": 2, "roots": 6},
)
A2_ROOTS = [[-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]]


def theorem1_doc():
    return {
        "grading": [1, 1],
        "satisfied": True,
        "witnesses": [[1, 1]],
        "noncompact_negatives": [[-1, 0], [0, -1]],
        "compact_roots": [[-1, -1], [1, 1]],
        "noncompact_roots": [[-1, 0], [0, -1], [0, 1], [1, 0]],
        "detail": [
            {"beta": [-1, -1], "is_witness": False, "verdicts": [{"verdict": "FAIL"}]},
            {"beta": [1, 1], "is_witness": True, "verdicts": [{"verdict": "OK_TYPE_A"}]},
        ],
    }


THEOREM1 = Query(
    "theorem1",
    ("theorem1", "--family", "A", "--rank", "2", "--grading", "1,1"),
    expect={"rank": 2, "roots": 6, "grading": [1, 1]},
)


def problems(q, doc, code=0, err=""):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return checks.check_query(q, code, text, err)


def test_correct_answers_pass():
    assert problems(DESCRIBE, {"family": "A", "rank": 2, "roots": A2_ROOTS}) == []
    assert problems(THEOREM1, theorem1_doc()) == []


def test_wrong_root_count_is_rejected():
    doc = {"family": "A", "rank": 2, "roots": A2_ROOTS[:-1]}
    assert problems(DESCRIBE, doc)


def test_satisfied_without_witnesses_is_rejected():
    doc = theorem1_doc()
    doc["witnesses"] = []
    assert problems(THEOREM1, doc)


def test_witness_with_a_fail_verdict_is_rejected():
    doc = theorem1_doc()
    doc["detail"][1]["verdicts"].append({"verdict": "FAIL"})
    assert problems(THEOREM1, doc)


def test_misclassified_root_is_rejected():
    doc = theorem1_doc()
    doc["compact_roots"].append(doc["noncompact_roots"].pop())
    assert problems(THEOREM1, doc)


def test_wrong_exit_code_and_traceback_are_rejected():
    bad_json = Query("bad-json", ("describe", "--cartan", "[[2"), exit_code=3)
    assert checks.check_query(bad_json, 3, "", "error: malformed JSON") == []
    assert checks.check_query(bad_json, 2, "", "error") != []
    assert checks.check_query(bad_json, 3, "", "Traceback (most recent call last)") != []
    assert checks.check_query(bad_json, None, "", "") == ["timed out"]


def test_wrong_cayley_target_and_failed_check_are_rejected():
    q = Query("prop33", ("verify", "--suite", "prop33"))
    line = {
        "claim": "cayley-conjugation a=(1,0) b=(0,1)",
        "pass": True,
        "residual": 0.0,
        "tolerance": 1e-9,
        "sign": 1,
        "info": {"target": [1, 1], "expected": [1, 1], "string": [0, 1]},
    }
    assert checks.check_query(q, 0, json.dumps(line), "") == []
    wrong = copy.deepcopy(line)
    wrong["info"]["target"] = [0, 1]
    assert checks.check_query(q, 0, json.dumps(wrong), "")
    failed = dict(line, **{"pass": False})
    assert checks.check_query(q, 0, json.dumps(failed), "")


def test_levi_negatives_must_match_the_exact_form():
    q = next(q for q in workloads.cli_block(1, 0) if q.kind == "levi")
    n, neg = q.expect["n"], q.expect["negatives"]
    good = {"eigenvalues": [-1.0] * neg + [1.0] * (n - 1 - neg), "negatives": neg,
            "pseudoconcave_point": neg >= 1, "gradient_norm": 1.0}
    assert problems(q, good) == []
    assert problems(q, dict(good, negatives=neg + 1))


def test_diamond_total_must_equal_dim_v():
    q = Query("period", ("period",), expect={"weight": 1, "h": [1, 1], "dim": 2})
    doc = {
        "weight": 1,
        "hodge_numbers": [1, 1],
        "degenerations": [
            {"spec": {"kind": "I", "p0": 0}, "diamond": {"entries": {"0,0": 1, "1,1": 1}}, "boundary": {}}
        ],
    }
    assert problems(q, doc) == []
    doc["degenerations"][0]["diamond"]["entries"]["1,1"] = 2
    assert problems(q, doc)


def test_golden_comparison_ignores_added_fields_but_not_verdicts():
    doc = theorem1_doc()
    verdict = checks.query_verdict(THEOREM1, 0, json.dumps(doc))
    doc["residual"] = 0.0
    assert checks.query_verdict(THEOREM1, 0, json.dumps(doc)) == verdict
    doc["witnesses"] = [[-1, -1]]
    changed = checks.query_verdict(THEOREM1, 0, json.dumps(doc))
    assert checks.compare_golden([verdict], [verdict]) == []
    assert checks.compare_golden([changed], [verdict])
