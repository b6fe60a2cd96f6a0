"""Command line behavior: payloads, exit codes, determinism, round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagdomains
from flagdomains.cli import EXIT_CLOSED_STDOUT, main

SRC = str(Path(flagdomains.__file__).resolve().parents[1])


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theorem1_a2(capsys):
    code, out, _ = run_cli(
        capsys, "theorem1", "--family", "A", "--rank", "2", "--grading", "1,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is True
    assert doc["witnesses"] == [[1, 1]]
    assert doc["noncompact_negatives"] == [[-1, 0], [0, -1]]


def test_theorem1_exit_zero_on_negative_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "theorem1", "--family", "C", "--rank", "2", "--grading", "1,1"
    )
    assert code == 0
    assert json.loads(out)["satisfied"] is False


def test_describe_a1(capsys):
    code, out, _ = run_cli(capsys, "describe", "--family", "A", "--rank", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["roots"] == [[-1], [1]]


def test_describe_round_trip_via_cartan(capsys):
    code, out1, _ = run_cli(capsys, "describe", "--family", "C", "--rank", "2")
    assert code == 0
    cartan = json.dumps(json.loads(out1)["cartan"])
    code, out2, _ = run_cli(capsys, "describe", "--cartan", cartan)
    assert code == 0
    assert out1 == out2


def test_period_weight3(capsys):
    code, out, _ = run_cli(capsys, "period", "--weight", "3", "--h", "1,1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["family"] == "symplectic"
    specs = [(d["spec"]["kind"], d["spec"]["p0"]) for d in doc["degenerations"]]
    assert specs == [("I", 0), ("I", 1)]
    met = [d["boundary"]["condition_met"] for d in doc["degenerations"]]
    assert met == [False, True]


def test_verify_suite_lines_parse(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma41")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines
    assert all(line["pass"] for line in lines)
    assert all(line["residual"] < line["tolerance"] for line in lines)


def test_verify_fixed_point_suite(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "fixed-point",
        "--family",
        "A",
        "--rank",
        "2",
        "--grading",
        "1,1",
        "--eps",
        "0.05,0.5",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert all(line["pass"] for line in lines)


def test_levi_from_file(tmp_path, capsys):
    payload = {
        "n": 3,
        "z0": [[1, 0], [0, 0], [0, 0]],
        "terms": [
            {"c": 1, "z": [1, 0, 0], "zbar": [1, 0, 0]},
            {"c": 1, "z": [0, 1, 0], "zbar": [0, 1, 0]},
            {"c": 1, "z": [0, 0, 1], "zbar": [0, 0, 1]},
            {"c": -1},
        ],
    }
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "levi", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["negatives"] == 0
    assert doc["pseudoconcave_point"] is False


def test_input_file_mirrors_flags(tmp_path, capsys):
    path = tmp_path / "req.json"
    path.write_text(json.dumps({"family": "A", "rank": 2, "grading": [1, 1]}))
    code, out, _ = run_cli(capsys, "theorem1", "--input", str(path))
    assert code == 0
    assert json.loads(out)["satisfied"] is True


def test_exit_code_bad_json(capsys):
    code, _, err = run_cli(capsys, "describe", "--cartan", "not json")
    assert code == 3
    assert "JSON" in err


def test_exit_code_out_of_bounds(capsys):
    code, _, err = run_cli(capsys, "describe", "--family", "A", "--rank", "9")
    assert code == 4
    code, _, _ = run_cli(capsys, "period", "--weight", "11", "--h", "1")
    assert code == 4


def test_exit_code_infeasible_degeneration(capsys):
    code, _, err = run_cli(
        capsys,
        "period",
        "--weight",
        "3",
        "--h",
        "1,1,1,1",
        "--degeneration",
        '{"kind": "II"}',
    )
    assert code == 5
    assert "even weight" in err


def test_exit_code_bad_request(capsys):
    code, _, _ = run_cli(capsys, "theorem1", "--family", "A", "--rank", "2")
    assert code == 2  # missing grading
    code, _, _ = run_cli(
        capsys, "theorem1", "--family", "Z", "--rank", "2", "--grading", "1,1"
    )
    assert code == 2


def test_determinism_byte_identical(capsys):
    args = ["period", "--weight", "3", "--h", "1,1,1,1"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args = ["verify", "--suite", "lemma41", "--seedless"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_pretty_output_smoke(capsys):
    code, out, _ = run_cli(
        capsys,
        "theorem1",
        "--family",
        "A",
        "--rank",
        "2",
        "--grading",
        "1,1",
        "--pretty",
    )
    assert code == 0
    assert "satisfied: True" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma41", "--pretty")
    assert code == 0
    assert out.startswith("PASS")


def test_prop33_residuals_are_exactly_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "prop33", "--family", "B", "--rank", "4"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 288
    assert all(line["residual"] == 0.0 and line["pass"] for line in lines)
    assert all(line["info"]["target"] == line["info"]["expected"] for line in lines)


def test_closed_stdout_exits_cleanly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "flagdomains", "verify", "--suite", "prop33",
         "--family", "B", "--rank", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    # closing the read end before the first write makes every write fail
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_CLOSED_STDOUT
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, flagdomains.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=child_env(), timeout=60, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_rank_bound_comes_before_enumeration():
    # not of finite type; enumerating it first would not finish
    cartan = [[2 if i == j else -2 for j in range(7)] for i in range(7)]
    proc = subprocess.run(
        [sys.executable, "-m", "flagdomains", "describe", "--cartan", json.dumps(cartan)],
        capture_output=True, text=True, env=child_env(), timeout=10,
    )
    assert proc.returncode == 4
    assert proc.stdout == "" and "Traceback" not in proc.stderr


MALFORMED_LEVI = '{"n": 2, "z0": [[0, 0], [1, 0]], "terms": %s}'
PERIOD_W2 = ["period", "--weight", "2", "--h", "1,1,1"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["describe", "--cartan", "5"], "list of integer rows"),
        (["describe", "--cartan", "[1,2]"], "list of integer rows"),
        (["levi", "--spec", '{"n": 2, "z0": 5, "terms": []}'], "z0 must be"),
        (["levi", "--spec", MALFORMED_LEVI % "[5]"], "terms must be"),
        (["levi", "--spec", MALFORMED_LEVI % '[{"c": 1, "z": 5}]'], "exponents must be"),
        (
            ["levi", "--spec", MALFORMED_LEVI % '[{"c": 1, "z": [-1, 0]}, {"c": 1, "z": [0, 1]}]'],
            "negative exponent meets a zero coordinate",
        ),
        (
            ["levi", "--spec", '{"n": 1, "z0": [1e200], "terms": [{"c": 1e200, "z": [1], "zbar": [1]}]}'],
            "derivatives at z0 are not finite",
        ),
        (["levi", "--spec", '{"n": [2], "z0": [0, 0], "terms": []}'], "n must be an integer"),
        (PERIOD_W2 + ["--degeneration", "5"], "must be a JSON object"),
        (PERIOD_W2 + ["--degeneration", '{"kind": "I", "p0": "x"}'], "p0 must be an integer"),
    ],
    ids=["cartan-scalar", "cartan-flat", "z0-scalar", "term-not-object",
         "exponent-not-list", "negative-exponent-at-zero", "derivative-overflow",
         "n-not-integer", "degeneration-scalar", "pivot-not-integer"],
)
def test_malformed_input_exits_2_without_traceback(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_vacuous_theorem1_verdict(capsys):
    # grading (2,2) makes every root compact: no noncompact root constrains
    # the sweep, so every compact root is a witness and the verdict is true
    code, out, _ = run_cli(capsys, "theorem1", "--family", "A", "--rank", "2",
                           "--grading", "2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is True
    assert doc["noncompact_negatives"] == [] and doc["noncompact_roots"] == []
    assert doc["witnesses"] == doc["compact_roots"] and len(doc["witnesses"]) == 6


def test_reproduce_examples_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_examples.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "== Levi form on the unit sphere from inside" in proc.stdout


@given(
    rows=st.integers(1, 6).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(-3, 2), min_size=r, max_size=r), min_size=r, max_size=r
        )
    ),
    two_on_diagonal=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_any_small_integer_matrix_ends_cleanly_in_bounded_time(rows, two_on_diagonal):
    cartan = [
        [2 if two_on_diagonal and i == j else v for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["describe", "--cartan", json.dumps(cartan)])
    assert time.perf_counter() - start < 2.0
    assert code in (0, 2)
    assert (code == 0) == (err.getvalue() == "")
