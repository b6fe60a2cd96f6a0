"""The import edges between the modules of the package, read from their source."""

import ast
from pathlib import Path

import flagdomains

PACKAGE = Path(flagdomains.__file__).parent


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
    assert _package_imports("hodge") == {"exact", "rootsys"}
    assert "hodge" not in _package_imports("matrixrep")
    # theorem1 reads the compact roots off the sweep instead of classifying them again
    assert "realform" not in _package_imports("cli")
    # the reader finds the imports of cli, so the checks above are not vacuous
    assert _package_imports("cli") >= {"exact", "hodge", "matrixrep", "rootsys"}
