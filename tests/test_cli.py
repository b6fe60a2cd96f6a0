"""Command line behavior: payloads, exit codes, determinism, round trips."""

import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flagdomains
from flagdomains.cli import EXIT_CLOSED_STDOUT, main
from flagdomains.leviform import DefiningFunction
from flagdomains.matrixrep import fundamental_rep
from flagdomains.rootsys import LieType, from_cartan_matrix, standard_cartan

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
    assert all(line["pass"] and line["residual"] == 0.0 for line in lines)


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


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["verify", "--family", "C", "--rank", "2", "--grading", "1,0", "--eps", "0.5"]],
    ids=["defaults", "given-system"],
)
def test_verify_shares_one_realization_between_suites(capsys, monkeypatch, argv):
    # prop33 and the fixed-point suite both realize A2 and C2 at the
    # defaults, and the given system under --grading
    rs = from_cartan_matrix(standard_cartan(LieType("C", 2)))
    assert fundamental_rep(rs) is fundamental_rep(rs)
    shared = run_cli(capsys, *argv)
    monkeypatch.setattr(flagdomains.cli, "fundamental_rep", fundamental_rep.__wrapped__)
    assert run_cli(capsys, *argv) == shared and shared[0] == 0


def test_verify_all_without_a_grading_notes_the_skipped_fixed_point_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--family", "B", "--rank", "3")
    assert code == 0
    kinds = collections.Counter(
        json.loads(line)["claim"].split()[0] for line in out.strip().splitlines()
    )
    assert kinds == {
        "cayley-conjugation": 96,
        "sl2-cayley-I": 9,
        "sl2-cayley-II": 9,
        "chevalley-string-brackets": 1,
        "chevalley-jacobi": 1,
    }
    assert err == "note: fixed-point suite skipped: no --grading\n"
    code, _, err = run_cli(capsys, "verify", "--family", "B", "--rank", "3", "--grading", "0,1,0")
    assert code == 0 and err == ""
    # asked for by name, the suite still needs a grading
    code, out, err = run_cli(capsys, "verify", "--suite", "fixed-point", "--family", "B", "--rank", "3")
    assert code == 2 and out == ""
    assert "missing --grading" in err


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


@pytest.mark.parametrize(
    "weight, h, degeneration",
    [
        ("0", "1", '{"kind": "II"}'),
        ("3", "1,1,1,1", '{"kind": "I", "p0": -1}'),
    ],
)
def test_string_cells_outside_the_diamond_exit_infeasible(capsys, weight, h, degeneration):
    code, out, err = run_cli(
        capsys, "period", "--weight", weight, "--h", h, "--degeneration", degeneration
    )
    assert code == 5
    assert out == ""
    assert "outside" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem1", "--family", "A", "--rank", "3", "--grading", "1,,0,1"],
        ["theorem1", "--family", "A", "--rank", "2", "--grading", ",1,1"],
        ["theorem1", "--family", "A", "--rank", "2", "--grading", "1,1,"],
        ["theorem1", "--family", "A", "--rank", "2", "--grading", ""],
        ["period", "--weight", "1", "--h", "1,,1"],
        ["period", "--weight", "1", "--h", "1, "],
        ["verify", "--suite", "fixed-point", "--eps", "0.1,"],
        ["verify", "--suite", "fixed-point", "--eps", ""],
        ["verify", "--suite", "fixed-point", "--eps", "0.1,x"],
    ],
    ids=["grading-inner", "grading-leading", "grading-trailing", "grading-blank",
         "h-inner", "h-trailing-space", "eps-trailing", "eps-blank", "eps-not-a-number"],
)
def test_list_flags_refuse_empty_items(capsys, argv):
    flag = argv[-2]
    kind = "number" if flag == "--eps" else "integer"
    message = f"error: {flag} must be a comma separated {kind} list\n"
    assert run_cli(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "--family", "A", "--rank", "٣"],
        ["describe", "--family", "A", "--rank", "0_3"],
        ["describe", "--family", "A", "--rank", " 3"],
        ["period", "--weight", "٢", "--h", "1,1,1"],
        ["period", "--weight", "0_2", "--h", "1,1,1"],
        ["theorem1", "--family", "A", "--rank", "2", "--grading", "1_0,1"],
        ["theorem1", "--family", "A", "--rank", "2", "--grading", "١,1"],
        ["period", "--weight", "2", "--h", "1,１,1"],
        ["verify", "--suite", "fixed-point", "--family", "A", "--rank", "2",
         "--grading", "1,1", "--eps", "0.1,0.0_5"],
        ["verify", "--suite", "fixed-point", "--family", "A", "--rank", "2",
         "--grading", "1,1", "--eps", "0.1,٠.5"],
    ],
    ids=["rank-arabic-indic", "rank-underscore", "rank-blank", "weight-arabic-indic",
         "weight-underscore", "grading-underscore", "grading-arabic-indic",
         "h-fullwidth", "eps-underscore", "eps-arabic-indic"],
)
def test_command_line_numbers_are_ascii(capsys, argv):
    # int() and float() read each of these; only an optional sign, ASCII
    # digits and, for --eps, a decimal point or exponent are accepted
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing a flag value
        code = exc.code
    assert (code, capsys.readouterr().out) == (2, "")


def test_list_flags_allow_spaces_around_items(capsys):
    for argv in (
        ["theorem1", "--family", "A", "--rank", "2", "--grading", "1,1"],
        ["period", "--weight", "1", "--h", "1,1"],
        ["verify", "--suite", "fixed-point", "--eps", "0.1,0.5"],
    ):
        spaced = argv[:-1] + [argv[-1].replace(",", " , ")]
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0 and run_cli(capsys, *spaced) == plain


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
    args = ["verify", "--suite", "lemma41"]
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


LEVI_N2 = {
    "n": 2, "z0": [[1, 0], [0, 0]],
    "terms": [{"c": -1, "z": [1, 0], "zbar": [1, 0]}, {"c": 2, "z": [0, 1], "zbar": [0, 1]},
              {"c": 1}],
}


def test_exact_subcommands_never_import_numpy():
    # the package's own modules all load, so per-module instrumentation
    # installed after the import still sees every function; with numpy made
    # unimportable, every command, levi included, prints the same
    probe = (
        "import contextlib, io, json, sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['numpy'] = None\n"
        "import flagdomains.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'flagdomains')\n"
        "outputs = []\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        outputs.append([flagdomains.cli.main(argv), buf.getvalue()])\n"
        "print(json.dumps([loaded, sys.modules.get('numpy') is not None, outputs]))\n"
    )
    commands = [
        ["describe", "--family", "B", "--rank", "3"],
        ["theorem1", "--family", "A", "--rank", "2", "--grading", "1,1"],
        ["theorem1", "--family", "C", "--rank", "2", "--grading", "1,1", "--pretty"],
        ["period", "--weight", "3", "--h", "1,1,1,1"],
        ["verify", "--suite", "chevalley", "--family", "B", "--rank", "2"],
        ["verify", "--suite", "prop33", "--family", "B", "--rank", "2"],
        ["verify", "--suite", "fixed-point", "--family", "A", "--rank", "2", "--grading", "1,1"],
        ["verify", "--suite", "lemma41"],
        ["verify", "--suite", "all"],
        ["levi", "--spec", json.dumps(LEVI_N2)],
    ]
    runs = {
        mode: json.loads(subprocess.run(
            [sys.executable, "-c", probe, mode, json.dumps(commands)],
            capture_output=True, text=True, env=child_env(), timeout=60, check=True,
        ).stdout)
        for mode in ("normal", "blocked")
    }
    loaded, numpy_loaded, outputs = runs["normal"]
    package = Path(SRC) / "flagdomains"
    modules = {f"flagdomains.{p.stem}" for p in package.glob("*.py")}
    assert set(loaded) == {"flagdomains"} | modules - {"flagdomains.__init__", "flagdomains.__main__"}
    assert numpy_loaded is False
    assert all(code == 0 and out for code, out in outputs)
    assert runs["blocked"][1:] == [False, outputs]


def test_levi_parses_a_list_z0_and_refuses_a_malformed_request(capsys):
    f = DefiningFunction.from_polynomial(2, [[1, 0], 0.5], [{"c": -1}])
    assert f.z0 == (1, 0.5)
    code, out, err = run_cli(capsys, "levi", "--spec", MALFORMED_LEVI % '[{"c": true}]')
    assert code == 2 and out == "" and err.startswith("error: ")


def test_family_rank_bound_comes_before_enumeration(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "describe", "--family", "A", "--rank", "200")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == "" and "rank 200 exceeds" in err


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
        (["describe", "--cartan", "[[2,-1.5],[-1,2]]"], "list of integer rows"),
        (["levi", "--spec", MALFORMED_LEVI % '[{"c": 1, "z": [1.7, 0]}]'], "exponents must be"),
        (PERIOD_W2 + ["--degeneration", '{"kind": "I", "p0": true}'], "p0 must be an integer"),
        (["levi", "--spec", MALFORMED_LEVI % '[{"c": true}]'], "a coefficient must be"),
        (["levi", "--spec", MALFORMED_LEVI % '[{"c": "-1"}]'], "a coefficient must be"),
        (["levi", "--spec", MALFORMED_LEVI % '[{"c": [true, false]}]'], "a coefficient must be"),
        (["levi", "--spec", '{"n": 1, "z0": ["1"], "terms": []}'], "a z0 entry must be"),
    ],
    ids=["cartan-scalar", "cartan-flat", "z0-scalar", "term-not-object",
         "exponent-not-list", "negative-exponent-at-zero", "derivative-overflow",
         "n-not-integer", "degeneration-scalar", "pivot-not-integer",
         "cartan-non-integral", "exponent-non-integral", "pivot-bool",
         "coefficient-bool", "coefficient-string", "coefficient-bool-pair",
         "z0-string"],
)
def test_malformed_input_exits_2_without_traceback(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


HERMITIAN_1E308 = [
    {"c": 1e308, "z": z, "zbar": zbar}
    for z in ([1, 0, 0], [0, 1, 0]) for zbar in ([1, 0, 0], [0, 1, 0])
]


def run_levi_child(spec):
    # a child process, so that any warning would reach its stderr
    return subprocess.run(
        [sys.executable, "-m", "flagdomains", "levi", "--spec", json.dumps(spec)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )


@pytest.mark.parametrize(
    "spec,message",
    [
        # the true eigenvalue 2e308 of the Hessian on the plane exceeds the float range
        ({"n": 3, "z0": [[0, 0]] * 3, "terms": HERMITIAN_1E308 + [{"c": 1, "z": [0, 0, 1]}]},
         "the derivatives at z0 are not finite or too large"),
        ({"n": 2, "z0": [[2, 0], [0, 0]], "terms": [{"c": 1, "z": [100000000, 0]}]},
         "a power of a z0 coordinate overflows"),
    ],
    ids=["hessian-sum", "power"],
)
def test_levi_overflow_exits_2_with_one_error_line(spec, message):
    proc = run_levi_child(spec)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "spec,gradient_norm",
    [
        # P_1 and conj(P_1bar) are 1e308 each; halved before the sum, the gradient is 1e308
        ({"n": 2, "z0": [[1, 0], [0, 0]],
          "terms": [{"c": 1e308, "z": [1, 0]}, {"c": 1e308, "zbar": [1, 0]}]}, 1e308),
        # the gradient is (4e301, 0.5): its square overflows, its norm does not
        ({"n": 2, "z0": [[2, 0], [1, 0]],
          "terms": [{"c": 1, "z": [0, 1]}, {"c": 1e300, "z": [5, 0]}]}, 4e301),
    ],
    ids=["gradient-sum", "gradient-norm"],
)
def test_levi_large_finite_derivatives_are_answered(spec, gradient_norm):
    proc = run_levi_child(spec)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "eigenvalues": [0.0], "gradient_norm": gradient_norm,
        "negatives": 0, "pseudoconcave_point": False,
    }


def test_verify_grading_needs_a_system(tmp_path, capsys):
    path = tmp_path / "req.json"
    path.write_text(json.dumps({"grading": [2, 0]}))
    for source in (["--grading", "2,0"], ["--input", str(path)]):
        code, out, err = run_cli(capsys, "verify", "--suite", "fixed-point", *source)
        assert code == 2 and out == ""
        assert err == "error: a grading needs --family and --rank, or --cartan\n"


A2_CARTAN = "[[2,-1],[-1,2]]"
G2_CARTAN = "[[2,-1],[-3,2]]"


@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "--family", "B", "--rank", "2", "--cartan", A2_CARTAN],
        ["describe", "--family", "A", "--cartan", G2_CARTAN],
        ["theorem1", "--family", "C", "--cartan", A2_CARTAN, "--grading", "1,1"],
        ["verify", "--suite", "chevalley", "--family", "D", "--cartan", A2_CARTAN],
        ["verify", "--suite", "lemma41", "--family", "b", "--cartan", A2_CARTAN],
    ],
    ids=["describe", "describe-no-family", "theorem1", "verify", "verify-lower-case"],
)
def test_family_must_match_the_cartan_matrix(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: --family disagrees with the Cartan matrix\n"


def test_matching_family_beside_the_cartan_matrix_is_accepted(capsys):
    _, plain, _ = run_cli(capsys, "describe", "--cartan", A2_CARTAN)
    code, out, _ = run_cli(capsys, "describe", "--family", "a", "--cartan", A2_CARTAN)
    assert code == 0 and out == plain


@pytest.mark.parametrize("extra", [["--rank", "3"], ["--family", "B"]], ids=["rank", "family"])
def test_verify_half_a_system_is_refused(capsys, extra):
    code, out, err = run_cli(capsys, "verify", "--suite", "chevalley", *extra)
    assert code == 2 and out == ""
    assert err == "error: need --family and --rank, or --cartan\n"


def test_verify_input_reads_suite_and_eps_and_the_flag_wins(tmp_path, capsys):
    path = tmp_path / "req.json"
    path.write_text(json.dumps({"suite": "lemma41"}))
    assert run_cli(capsys, "verify", "--input", str(path)) == run_cli(
        capsys, "verify", "--suite", "lemma41"
    )
    assert run_cli(capsys, "verify", "--suite", "chevalley", "--input", str(path)) == run_cli(
        capsys, "verify", "--suite", "chevalley"
    )
    system = ["--family", "A", "--rank", "2", "--grading", "1,1"]
    flags = run_cli(capsys, "verify", "--suite", "fixed-point", *system, "--eps", "0.5,1")
    assert flags[0] == 0 and len(flags[1].splitlines()) == 2
    for eps in ("0.5,1", [0.5, 1], [0.5, 1.0]):
        path.write_text(json.dumps({"family": "A", "rank": 2, "grading": [1, 1], "eps": eps}))
        assert run_cli(capsys, "verify", "--suite", "fixed-point", "--input", str(path)) == flags
    path.write_text(json.dumps({"eps": "0.1"}))
    assert run_cli(
        capsys, "verify", "--suite", "fixed-point", *system, "--eps", "0.5,1", "--input", str(path)
    ) == flags


@pytest.mark.parametrize(
    "request_doc,message",
    [
        ({"suite": "bogus"}, "suite must be one of"),
        ({"suite": 3}, "suite must be one of"),
        ({"suite": "fixed-point", "eps": [0.5, True]}, "--eps must be"),
        ({"suite": "fixed-point", "eps": [0.5, "1"]}, "--eps must be"),
        ({"suite": "fixed-point", "eps": 0.5}, "--eps must be"),
        ({"suite": "fixed-point", "eps": []}, "--eps must be"),
        ({"suite": "fixed-point", "eps": "0.5,x"}, "--eps must be"),
    ],
    ids=["suite-unknown", "suite-number", "eps-bool", "eps-string-entry", "eps-scalar",
         "eps-empty", "eps-not-a-number"],
)
def test_verify_input_bad_suite_or_eps_exits_2(tmp_path, capsys, request_doc, message):
    path = tmp_path / "req.json"
    path.write_text(json.dumps(dict(request_doc, family="A", rank=2, grading=[1, 1])))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


NOT_CLASSICAL = (
    "matrix realization needs a system whose Cartan matrix matches a standard classical labeling"
)


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["--suite", "all", "--eps", "x"], 2, "--eps must be a comma separated number list"),
        (["--family", "B", "--rank", "3", "--grading", "1,1"], 2,
         "grading has 2 coefficients, the system has rank 3"),
        (["--family", "A", "--rank", "2", "--grading", "1,99"], 4,
         "grading coefficients must stay within 16"),
        (["--suite", "all", "--eps", "2"], 2, "eps must lie in (0, 1]"),
        (["--suite", "fixed-point", "--family", "A", "--rank", "2", "--grading", "1,1",
          "--eps", "0.1,5"], 2, "eps must lie in (0, 1]"),
        (["--family", "A", "--rank", "2", "--grading", "0,0"], 2,
         "trivial grading defines no proper parabolic"),
        (["--family", "A", "--rank", "2", "--grading", "1,-1"], 2,
         "grading coefficients must be nonnegative"),
        (["--cartan", G2_CARTAN], 2, NOT_CLASSICAL),
        (["--cartan", G2_CARTAN, "--grading", "1,0"], 2, NOT_CLASSICAL),
        (["--suite", "lemma41", "--eps", "x"], 2, "--eps must be a comma separated number list"),
        (["--suite", "chevalley", "--family", "A", "--rank", "2", "--grading", "1,99"], 4,
         "grading coefficients must stay within 16"),
        # C2 with grading (1,1) has no witness, so no fixed-point check reads eps
        (["--suite", "fixed-point", "--family", "C", "--rank", "2", "--grading", "1,1",
          "--eps", "0"], 2, "eps must lie in (0, 1]"),
        (["--suite", "lemma41", "--eps", "5"], 2, "eps must lie in (0, 1]"),
        # each eps costs a fixed-point certificate per witness, so the list is bounded
        (["--suite", "lemma41", "--eps", ",".join(["0.5"] * 17)], 4,
         "17 eps values exceed the bound 16"),
    ],
    ids=["eps", "grading-length", "grading-bound", "eps-range-all", "eps-range-fixed-point",
         "grading-trivial", "grading-negative", "g2-realization", "g2-realization-graded",
         "eps-lemma41", "grading-bound-chevalley", "eps-range-no-witness",
         "eps-range-lemma41", "eps-count"],
)
def test_verify_refuses_fixed_point_inputs_before_any_check(capsys, argv, code, message):
    # every refusal comes before the first check line: all checks are
    # computed, and the given --eps and --grading read whichever suites run,
    # before any check is printed
    assert run_cli(capsys, "verify", *argv) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("eps", ["0", "-0", "1e-400", "0.5,0.0"])
def test_verify_refuses_an_eps_that_reads_as_zero(capsys, eps):
    # at eps 0 the neighbourhood generator is the identity, so the fixed-point
    # check could not fail whatever the conjugation does
    argv = ["--suite", "fixed-point", "--family", "C", "--rank", "2", "--grading", "1,0"]
    assert run_cli(capsys, "verify", *argv, f"--eps={eps}") == (
        2, "", "error: eps must lie in (0, 1]\n"
    )


@pytest.mark.parametrize("system", [["--family", "A", "--rank", "1"], ["--cartan", "[[2]]"]])
def test_verify_refuses_a_request_without_checks(capsys, system):
    # A1 has no linearly independent root pair, so prop33 has nothing to check
    assert run_cli(capsys, "verify", "--suite", "prop33", *system) == (
        2, "", "error: no check applies to this request\n"
    )
    # nor has the string-bracket check a pair: its line is printed, and marked vacuous
    code, out, _ = run_cli(capsys, "verify", "--suite", "chevalley", *system)
    brackets = json.loads(out.splitlines()[0])
    assert code == 0 and brackets["claim"] == "chevalley-string-brackets A1"
    assert brackets["pass"] and brackets["info"] == {"pairs": 0, "vacuous": True}


def test_cli_imports_no_dataclasses_or_inspect():
    for argv in (
        ["-c", "import flagdomains.cli"],
        ["-m", "flagdomains", "describe", "--family", "A", "--rank", "2"],
        ["-m", "flagdomains", "levi", "--spec", json.dumps(LEVI_N2)],
    ):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", *argv],
            capture_output=True, text=True, env=child_env(), timeout=60, check=True,
        ).stderr
        # each line of -X importtime ends in "| <module>"
        loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if "|" in line}
        assert "flagdomains.cli" in loaded
        assert not {"dataclasses", "inspect"} & loaded, argv


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


# JSON values as an --input document may hold them: exact and integral
# numbers, fractions, bools, strings and nested lists
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(float),
    st.sampled_from([-1.5, 0.5, 1.7, 1.9, 1e-9]),
    st.booleans(),
    st.sampled_from(["1", "x", "1,0"]),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
SYSTEMS = [("A", 1), ("A", 2), ("B", 2), ("C", 3), ("D", 4)]


def _near(v):
    """v or v written as a float, or one time in ten any scalar in its place."""
    return st.integers(0, 9).flatmap(
        lambda k: SCALARS if k == 0 else st.just(v if k % 2 else float(v))
    )


def _near_list(values):
    return st.tuples(*map(_near, values)).map(list)


def _same(given_value, echoed) -> bool:
    """Equal as JSON numbers: 2.0 is 2, but no bool stands for a number."""
    if isinstance(given_value, list):
        return isinstance(echoed, list) and len(given_value) == len(echoed) and all(
            _same(a, b) for a, b in zip(given_value, echoed)
        )
    if isinstance(given_value, bool) or isinstance(echoed, bool):
        return False
    return given_value == echoed


def _describe(system):
    rows = standard_cartan(LieType(*system))
    cartan = st.tuples(*map(_near_list, rows)).map(list)
    return st.fixed_dictionaries({"cartan": st.one_of(cartan, VALUES)})


def _theorem1(system):
    family, rank = system
    grading = st.lists(st.integers(0, 2), min_size=rank, max_size=rank).flatmap(_near_list)
    return st.fixed_dictionaries(
        {"family": st.just(family), "rank": _near(rank), "grading": st.one_of(grading, VALUES)}
    )


def _period(weight):
    half = st.lists(st.integers(0, 2), min_size=weight // 2 + 1, max_size=weight // 2 + 1)
    h = half.map(lambda v: v + v[: (weight + 1) // 2][::-1]).flatmap(_near_list)
    return st.fixed_dictionaries({"weight": _near(weight), "h": st.one_of(h, VALUES)})


def _verify(system):
    """A verify request over a small system: any of family, rank, cartan,
    grading and eps may be missing; the suite is always a cheap one."""
    family, rank = system
    rows = standard_cartan(LieType(*system))
    eps = st.lists(st.sampled_from([0.01, 0.5, 1]).flatmap(_near), min_size=1, max_size=3)
    suite = st.integers(0, 9).flatmap(
        lambda k: SCALARS if k == 0 else st.sampled_from(["chevalley", "lemma41"])
    )
    families = st.integers(0, 9).flatmap(
        lambda k: SCALARS if k == 0 else st.sampled_from("ABCDGa") if k < 4 else st.just(family)
    )
    return st.fixed_dictionaries(
        {"suite": suite},
        optional={
            "family": families,
            "rank": _near(rank),
            "cartan": st.one_of(st.tuples(*map(_near_list, rows)).map(list), VALUES),
            "grading": st.lists(st.integers(0, 2), min_size=rank, max_size=rank).flatmap(_near_list),
            "eps": st.one_of(eps, st.sampled_from(["0.5", "0.1,1"]), VALUES),
        },
    )


LEVI_TERM = st.fixed_dictionaries(
    {
        "c": st.one_of(_near(1), SCALARS),
        "z": st.lists(st.integers(0, 2), min_size=2, max_size=2).flatmap(_near_list),
        "zbar": st.lists(st.integers(0, 2), min_size=2, max_size=2).flatmap(_near_list),
    }
)
INPUT_DOCUMENTS = st.one_of(
    st.sampled_from(SYSTEMS).flatmap(_describe).map(lambda d: ("describe", d)),
    st.sampled_from(SYSTEMS).flatmap(_theorem1).map(lambda d: ("theorem1", d)),
    st.integers(0, 4).flatmap(_period).map(lambda d: ("period", d)),
    st.sampled_from([s for s in SYSTEMS if s[1] <= 3]).flatmap(_verify).map(lambda d: ("verify", d)),
    st.fixed_dictionaries(
        {"n": _near(2), "z0": st.just([[1, 0], [0, 0]]), "terms": st.lists(LEVI_TERM, max_size=3)}
    ).map(lambda d: ("levi", d)),
)


@given(doc=INPUT_DOCUMENTS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_input_documents_end_cleanly_and_echo_what_was_given(tmp_path, doc):
    command, data = doc
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", str(path)])
    assert code in (0, 2, 3, 4, 5)
    assert (code == 0) == (err.getvalue() == "")
    if command == "levi" and any(isinstance(t["c"], (bool, str)) for t in data["terms"]):
        # only an n out of bounds is reported before the coefficients
        assert code in (2, 4)
        assert code == 2 or "dimension n" in err.getvalue()
    if command == "verify" and code == 0:
        # a system is named in full, by family and rank or by a matching matrix
        if "cartan" not in data:
            assert ("family" in data) == ("rank" in data)
        elif "family" in data:
            lie_type = from_cartan_matrix(data["cartan"]).lie_type
            assert lie_type is not None and str(data["family"]).upper() == lie_type.family
    if code != 0 or command == "verify":
        return
    report = json.loads(out.getvalue())
    if command == "describe":
        assert _same(data["cartan"], report["cartan"])
    elif command == "theorem1" and isinstance(data["grading"], list):
        assert _same(data["grading"], report["grading"])
    elif command == "period":
        assert _same(data["weight"], report["weight"])
        if isinstance(data["h"], list):
            assert _same(data["h"], report["hodge_numbers"])
