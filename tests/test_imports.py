"""The import edges between the modules of the package, read from their source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import flagdomains

PACKAGE = Path(flagdomains.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}


def _package_imports(module: str) -> set[str]:
    """The package modules that a module imports, anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # "from .x import y" and "from . import x" name flagdomains.x
            base = ".".join(filter(None, ["flagdomains" if node.level else "", node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in found if name.startswith("flagdomains.")}


def test_exact_is_a_leaf_and_hodge_skips_the_lie_algebra_stack():
    assert _package_imports("exact") == set()
    # period and levi need no root code: exact_int lives in exact
    assert _package_imports("hodge") == {"exact"}
    assert _package_imports("leviform") == {"exact"}
    assert "hodge" not in _package_imports("matrixrep")
    # the fixed-point certificate reads its witness off the caller's sweep
    assert "concavity" not in _package_imports("matrixrep")
    # the realization divides by r + 1 along the extraspecial pairs of
    # rs.steps, which the constants table reads as well
    assert "chevalley" not in _package_imports("matrixrep")
    # theorem1 reads the compact roots off the sweep instead of classifying them again
    assert "realform" not in _package_imports("cli")
    # the reader finds the imports of cli, so the checks above are not vacuous
    assert _package_imports("cli") >= {"exact", "hodge", "matrixrep", "rootsys"}


def _loaded_by(statement: str) -> set[str]:
    """The package modules a fresh interpreter holds after the statement."""
    probe = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    path = os.environ.get("PYTHONPATH")
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60,
        check=True,
    ).stdout
    return {m.split(".")[1] for m in json.loads(out) if m.startswith("flagdomains.")}


def test_the_package_loads_only_the_sweep_and_the_cli_loads_everything():
    # __init__ re-exports only what the benchmark reads as flagdomains.*
    assert _loaded_by("import flagdomains") == {"exact", "rootsys", "realform", "concavity"}
    assert _loaded_by("import flagdomains.cli") == MODULES
    assert {"cli", "matrixrep", "hodge", "leviform", "chevalley"} <= MODULES
