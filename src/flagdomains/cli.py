"""Command line front end emitting deterministic JSON reports.

Subcommands: describe, theorem1, period, verify, levi. Output is JSON on
stdout (one document, or one JSON line per check for verify); --pretty
switches to a human readable rendering. Exit codes: 0 analysis ran
(whatever the verdict), 2 bad request, 3 malformed JSON, 4 parameter out
of bounds, 5 infeasible degeneration shape, 141 stdout closed before the
output was written (as for a process that SIGPIPE ends, e.g. under
`| head`).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .chevalley import chevalley_checks
from .concavity import check_pseudoconcavity
from .exact import exact_int
from .hodge import (
    DegenerationSpec,
    HodgeNumbers,
    InfeasibleDegeneration,
    period_report,
    sl2_cayley_checks,
)
from .leviform import DefiningFunction, levi_analyze
from .matrixrep import check_eps, fundamental_rep, verify_cayley_conjugation, verify_fixed_point
from .rootsys import LieType, build_root_system, check_grading, from_cartan_matrix, grading

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_JSON = 3
EXIT_OUT_OF_BOUNDS = 4
EXIT_INFEASIBLE = 5
EXIT_CLOSED_STDOUT = 141

MAX_RANK = 6
MAX_WEIGHT = 10
MAX_DIM_V = 64
MAX_GRADING = 16
MAX_EPS = 16
MAX_LEVI_N = 16

VERIFY_SUITES = ("all", "chevalley", "prop33", "lemma41", "fixed-point")

_DEFAULT_CHEVALLEY = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 4))
_DEFAULT_CONJUGATION = (("A", 2), ("A", 3), ("B", 2), ("C", 2))
_DEFAULT_FIXED_POINT = ((("A", 2), (1, 1)), (("C", 2), (1, 0)))
_DEFAULT_EPS = (0.01, 0.1, 1.0)

# Numbers on the command line are ASCII: an optional sign, then the digits
# 0-9, with a decimal point and exponent for a float. int() and float()
# alone also read underscores, blanks and non-ASCII digits.
_SYNTAX = {
    int: re.compile(r"[+-]?[0-9]+"),
    float: re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"),
}


class OutOfBoundsError(ValueError):
    pass


class BadJSONError(ValueError):
    pass


# the exit code of each refusal that is not a plain bad request
_REFUSALS = (
    (BadJSONError, EXIT_BAD_JSON),
    (OutOfBoundsError, EXIT_OUT_OF_BOUNDS),
    (InfeasibleDegeneration, EXIT_INFEASIBLE),
)


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadJSONError(f"malformed JSON in {where}: {exc}") from exc


def _load_input(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read input file {path}: {exc}") from exc
    data = _parse_json(text, path)
    if not isinstance(data, dict):
        raise BadJSONError(f"input file {path} must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """Flag values, with the --input file supplying anything left unset."""
    merged = {k: getattr(args, k, None) for k in keys}
    if getattr(args, "input", None):
        fromfile = _load_input(args.input)
        for k in keys:
            if merged[k] is None and k in fromfile:
                merged[k] = fromfile[k]
    return merged


def _int_flag(text: str) -> int:
    """The value of an integer flag, in the ASCII syntax of _SYNTAX."""
    if not _SYNTAX[int].fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_list(value, what: str, number=int) -> tuple:
    """The items of a comma separated string or of a nonempty JSON list, as
    ints, or with number=float as floats. A string item may have spaces
    around it and is otherwise in the ASCII syntax of _SYNTAX."""
    if value is None:
        raise ValueError(f"missing {what}")
    try:
        if isinstance(value, str):
            items = [p.strip(" ") for p in value.split(",")]
            if all(_SYNTAX[number].fullmatch(p) for p in items):
                return tuple(number(p) for p in items)
        elif isinstance(value, list) and value:
            if number is int:
                return tuple(exact_int(v) for v in value)
            if not any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
                return tuple(float(v) for v in value)
    except ValueError:
        pass
    kind = "integer" if number is int else "number"
    raise ValueError(f"{what} must be a comma separated {kind} list")


def _resolve_system(spec: dict):
    family = spec.get("family")
    rank = spec.get("rank")
    cartan = spec.get("cartan")
    if cartan is None:
        if family is None or rank is None:
            raise ValueError("need --family and --rank, or --cartan")
        t = LieType(str(family).upper(), exact_int(rank, "--rank"))
        size = t.rank
    else:
        if isinstance(cartan, str):
            cartan = _parse_json(cartan, "--cartan")
        size = len(cartan) if isinstance(cartan, list) else 0
    # enumeration can run for a long time, so the bound comes first
    if size > MAX_RANK:
        raise OutOfBoundsError(f"rank {size} exceeds the bound {MAX_RANK}")
    if cartan is None:
        return build_root_system(t)
    rs = from_cartan_matrix(cartan)
    if rank is not None and exact_int(rank, "--rank") != rs.rank:
        raise ValueError("--rank disagrees with the Cartan matrix size")
    if family is not None and str(family).upper() != (rs.lie_type and rs.lie_type.family):
        raise ValueError("--family disagrees with the Cartan matrix")
    return rs


def _resolve_grading(rs, spec: dict):
    e = grading(_parse_list(spec.get("grading"), "--grading"))
    check_grading(rs, e)
    if any(abs(c) > MAX_GRADING for c in e.coeffs):
        raise OutOfBoundsError(f"grading coefficients must stay within {MAX_GRADING}")
    return e


def _emit(args, payload, pretty_lines=None) -> None:
    if getattr(args, "pretty", False) and pretty_lines is not None:
        for line in pretty_lines:
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True))


def _cmd_describe(args) -> int:
    spec = _merged(args, ("family", "rank", "cartan"))
    rs = _resolve_system(spec)
    payload = rs.to_json_dict()
    pretty = [
        f"family: {payload['family']}  rank: {payload['rank']}",
        f"roots ({len(payload['roots'])}):",
    ]
    pretty.extend("  " + ",".join(str(c) for c in row) for row in payload["roots"])
    _emit(args, payload, pretty)
    return EXIT_OK


def _cmd_theorem1(args) -> int:
    spec = _merged(args, ("family", "rank", "cartan", "grading"))
    rs = _resolve_system(spec)
    e = _resolve_grading(rs, spec)
    report = check_pseudoconcavity(rs, e)
    payload = report.to_json_dict()
    payload["grading"] = list(e.coeffs)
    roots = rs.roots
    compact = report.detail  # keyed by the indices of exactly the compact roots
    payload["compact_roots"] = sorted(list(roots[j].coeffs) for j in compact)
    payload["noncompact_roots"] = sorted(
        list(a.coeffs) for j, a in enumerate(roots) if j not in compact
    )
    pretty = [
        f"satisfied: {report.satisfied}",
        "witnesses: "
        + (", ".join(str(roots[j]) for j in report.witnesses) or "(none)"),
        "noncompact negatives: "
        + (", ".join(str(roots[i]) for i in report.noncompact_negatives) or "(none)"),
    ]
    _emit(args, payload, pretty)
    return EXIT_OK


def _cmd_period(args) -> int:
    spec = _merged(args, ("weight", "h", "degeneration"))
    if spec.get("weight") is None:
        raise ValueError("missing --weight")
    weight = exact_int(spec["weight"], "--weight")
    if not 0 <= weight <= MAX_WEIGHT:
        raise OutOfBoundsError(f"weight must lie in [0, {MAX_WEIGHT}]")
    hvals = _parse_list(spec.get("h"), "--h")
    h = HodgeNumbers.from_descending(weight, hvals)
    if h.dim() > MAX_DIM_V:
        raise OutOfBoundsError(f"total dimension exceeds the bound {MAX_DIM_V}")
    only = None
    if spec.get("degeneration") is not None:
        deg = spec["degeneration"]
        if isinstance(deg, str):
            deg = _parse_json(deg, "--degeneration")
        if not isinstance(deg, dict):
            raise ValueError("--degeneration must be a JSON object")
        only = DegenerationSpec(deg.get("kind"), deg.get("p0"))
    payload = period_report(h, only)
    pretty = [
        f"group: {payload['group']['family']} {tuple(payload['group']['parameters'])}"
        f"  isotropy: {payload['group']['isotropy']}",
    ]
    if payload["group"]["note"]:
        pretty.append(f"note: {payload['group']['note']}")
    for entry in payload["degenerations"]:
        b = entry["boundary"]
        verdict = f"met at p={b['witness_p']}" if b["condition_met"] else "not met"
        kind = entry["spec"]["kind"]
        p0 = entry["spec"]["p0"]
        label = f"type {kind}" + (f" p0={p0}" if p0 is not None else "")
        pretty.append(f"{label}: boundary condition {verdict}")
    _emit(args, payload, pretty)
    return EXIT_OK


def _systems(system, defaults) -> list:
    """The given system, else the (family, rank) defaults built."""
    return [system] if system else [build_root_system(LieType(f, r)) for f, r in defaults]


def _iter_verify_checks(args):
    spec = _merged(args, ("family", "rank", "cartan", "grading", "suite", "eps"))
    suite = "all" if spec["suite"] is None else spec["suite"]
    if suite not in VERIFY_SUITES:
        raise ValueError(f"suite must be one of {', '.join(VERIFY_SUITES)}")
    system = None
    if any(spec[k] is not None for k in ("family", "rank", "cartan")):
        system = _resolve_system(spec)
    elif spec["grading"] is not None:
        raise ValueError("a grading needs --family and --rank, or --cartan")
    eps_values = _DEFAULT_EPS if spec["eps"] is None else _parse_list(spec["eps"], "--eps", float)
    e = None if spec["grading"] is None else _resolve_grading(system, spec)
    # refused whichever suites run, as a grading is
    if len(eps_values) > MAX_EPS:
        raise OutOfBoundsError(f"{len(eps_values)} eps values exceed the bound {MAX_EPS}")
    check_eps(eps_values)
    # each suite's systems are listed, realized and swept before the first suite runs
    runs = VERIFY_SUITES if suite == "all" else (suite,)
    chevalley = _systems(system, _DEFAULT_CHEVALLEY) if "chevalley" in runs else []
    conjugation = _systems(system, _DEFAULT_CONJUGATION) if "prop33" in runs else []
    targets = []
    if "fixed-point" in runs and not system:
        targets = [(build_root_system(LieType(*t)), grading(g)) for t, g in _DEFAULT_FIXED_POINT]
    elif "fixed-point" in runs and e is not None:
        targets = [(system, e)]
    elif suite == "fixed-point":
        raise ValueError("missing --grading")
    # each distinct system is realized once, here, where one without a realization is refused
    realized = dict.fromkeys(conjugation + [rs for rs, _ in targets])
    reps = {rs: fundamental_rep(rs) for rs in realized}
    sweeps = [(rs, check_pseudoconcavity(rs, e)) for rs, e in targets]
    if suite == "all" and not targets:
        print("note: fixed-point suite skipped: no --grading", file=sys.stderr)
    for rs in chevalley:
        yield from chevalley_checks(rs)
    for rs in conjugation:
        yield from verify_cayley_conjugation(reps[rs])
    if "lemma41" in runs:
        for kind in ("I", "II"):
            yield from sl2_cayley_checks(kind)
    for rs, report in sweeps:
        yield from verify_fixed_point(reps[rs], report, eps_values)


def _cmd_verify(args) -> int:
    # a refused request prints nothing: every check is computed, and every
    # given --eps and --grading read, before the first line
    checks = list(_iter_verify_checks(args))
    if not checks:
        # e.g. prop33 on A1, which has no linearly independent root pair
        raise ValueError("no check applies to this request")
    for check in checks:
        if args.pretty:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"{status} {check['claim']} (residual={check['residual']:.3e})")
        else:
            print(json.dumps(check, sort_keys=True))
    return EXIT_OK


def _cmd_levi(args) -> int:
    if args.input:
        data = _load_input(args.input)
    elif args.spec:
        data = _parse_json(args.spec, "--spec")
    else:
        raise ValueError("levi needs --input FILE or --spec JSON")
    if not isinstance(data, dict):
        raise BadJSONError("levi input must be a JSON object")
    n = exact_int(data.get("n", 0), "n")
    if not 1 <= n <= MAX_LEVI_N:
        raise OutOfBoundsError(f"dimension n must lie in [1, {MAX_LEVI_N}]")
    f = DefiningFunction.from_polynomial(n, data.get("z0"), data.get("terms"))
    payload = levi_analyze(f)
    pretty = [
        "eigenvalues: " + ", ".join(f"{v:.6g}" for v in payload["eigenvalues"]),
        f"negatives: {payload['negatives']}",
        f"pseudoconcave point: {payload['pseudoconcave_point']}",
    ]
    _emit(args, payload, pretty)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagdomains",
        description="Root system pseudoconcavity checks and period domain reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_flags(p):
        p.add_argument("--family", help="A, B, C or D")
        p.add_argument("--rank", type=_int_flag)
        p.add_argument("--cartan", help="explicit Cartan matrix as JSON")
        p.add_argument("--input", help="JSON file mirroring the flags")
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("describe", help="dump a root system as JSON")
    add_system_flags(p)
    p.set_defaults(handler=_cmd_describe)

    p = sub.add_parser("theorem1", help="pseudoconcavity criterion report")
    add_system_flags(p)
    p.add_argument("--grading", help="comma separated grading coefficients")
    p.set_defaults(handler=_cmd_theorem1)

    p = sub.add_parser("period", help="period domain group and degenerations")
    p.add_argument("--weight", type=_int_flag)
    p.add_argument("--h", help="h^{n,0},...,h^{0,n} comma separated")
    p.add_argument("--degeneration", help='e.g. {"kind": "I", "p0": 1}')
    p.add_argument("--input", help="JSON file mirroring the flags")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_period)

    p = sub.add_parser("verify", help="numeric certificate suites as JSON lines")
    add_system_flags(p)
    p.add_argument("--suite", choices=VERIFY_SUITES, help="default: all")
    p.add_argument("--grading", help="grading for the fixed-point suite")
    p.add_argument("--eps", help="comma separated eps list for the fixed-point suite")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("levi", help="Levi form eigenvalues of a polynomial")
    p.add_argument("--input", help="JSON file with n, z0 and terms")
    p.add_argument("--spec", help="the same JSON object inline")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_levi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        # a reader that went away surfaces here rather than at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # send the unflushed rest to devnull so the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _REFUSALS if isinstance(exc, kind)), EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
