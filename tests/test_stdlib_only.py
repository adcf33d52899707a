"""The package imports nothing outside the standard library."""

import ast
import pathlib
import sys

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "synchrokit"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    modules = {name.split(".")[0] for path in sources for name in _absolute_imports(path)}
    assert "json" in modules  # the walk sees the imports
    assert modules <= sys.stdlib_module_names, sorted(modules - sys.stdlib_module_names)
