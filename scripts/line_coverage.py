"""Line coverage of src/ under the tier-1 tests, with no package beyond pytest.

Runs the tier-1 suite (tests/ and perfbench/tests/) in this process under
sys.settrace, takes the executable lines of every module of src/ from its
compiled code objects (co_lines), and prints each line that no test ran.
Exits 1 when a test fails, when a never-run line is not in ALLOWED below, or
when an ALLOWED entry names no never-run line; 0 otherwise.

    python scripts/line_coverage.py

Code that only a child process runs (the tests that start `python -m
flagdomains`) is not traced, so it is allowlisted here.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# (file under src/, the stripped source line) -> why no tier-1 test runs it
ALLOWED = {
    ("flagdomains/__main__.py", "from .cli import main"):
        "run as `python -m flagdomains`, in a child process only",
    ("flagdomains/__main__.py", "raise SystemExit(main())"):
        "run as `python -m flagdomains`, in a child process only",
    ("flagdomains/cli.py", "devnull = os.open(os.devnull, os.O_WRONLY)"):
        "the BrokenPipe branch: test_closed_stdout_exits_cleanly runs it in a child process",
    ("flagdomains/cli.py", "os.dup2(devnull, sys.stdout.fileno())"):
        "the BrokenPipe branch: test_closed_stdout_exits_cleanly runs it in a child process",
    ("flagdomains/cli.py", "os.close(devnull)"):
        "the BrokenPipe branch: test_closed_stdout_exits_cleanly runs it in a child process",
    ("flagdomains/cli.py", "return EXIT_CLOSED_STDOUT"):
        "the BrokenPipe branch: test_closed_stdout_exits_cleanly runs it in a child process",
    ("flagdomains/cli.py", "raise SystemExit(main())"):
        "the script entry point, run in a child process only",
    ("flagdomains/rootsys.py",
     'raise AssertionError("family detection disagrees with the requested type")'):
        "invariant: a standard Cartan matrix is detected as its own family",
    ("flagdomains/rootsys.py", "raise AssertionError("):
        "invariant: a classical system has its textbook root count",
    ("flagdomains/rootsys.py",
     'f"{lie_type}: enumerated {len(rs.roots)} roots, expected {expected}"'):
        "invariant: a classical system has its textbook root count",
    ("flagdomains/rootsys.py", 'raise ArithmeticError(f"coroot expansion of {a} is not integral")'):
        "invariant: a coroot is an integer combination of the simple coroots",
    ("flagdomains/leviform.py", "except OverflowError:"):
        "a float power that overflows; the tests reach it in a child process only",
    ("flagdomains/leviform.py", 'raise ValueError("a power of a z0 coordinate overflows") from None'):
        "a float power that overflows; the tests reach it in a child process only",
}


def executable_lines(path: Path) -> set[int]:
    """The lines that carry bytecode in the module and every code object in it."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        # None marks no line; 0 is the module's own entry, no source line
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def run_tests(files: set[str]) -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 and record every line of files that runs."""
    import pytest

    seen: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                            str(ROOT / "perfbench" / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main() -> int:
    sys.path.insert(0, str(SRC))
    files = {str(p): p for p in sorted(SRC.rglob("*.py"))}
    code, seen = run_tests(set(files))
    executable = {name: executable_lines(path) for name, path in files.items()}
    missed, allowed = [], set()
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(SRC).as_posix()
        for line in sorted(executable[name] - seen[name]):
            key = (rel, source[line - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
                print(f"{rel}:{line}: allowed ({ALLOWED[key]})")
            else:
                missed.append(f"{rel}:{line}: never run: {key[1]}")
    stale = [f"{rel}: allowed line is run or gone: {text}" for rel, text in sorted(ALLOWED.keys() - allowed)]
    for line in missed + stale:
        print(line)
    total = sum(map(len, executable.values()))
    print(f"{len(missed)} never-run lines not allowed, {len(allowed)} allowed, "
          f"{len(stale)} stale entries, {total} executable lines; tests exit {code}")
    return 1 if code or missed or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
