"""Every name a package module imports is used there or exported."""

import ast
import pathlib

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "synchrokit"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_import_is_used_or_exported():
    sources = [path for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "__init__.py"]
    assert len(sources) > 5
    unused = {path.name: sorted(_unused_imports(path)) for path in sources}
    assert {name: names for name, names in unused.items() if names} == {}
