"""Every imported name is used, and every private definition is: stdlib-ast
scans of the package and tests.

The package's ``__init__.py`` is skipped, since its imports are the public
re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for path in [
        *(ROOT / "src" / "polygenocchi").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
    ]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items())
        if name not in used
    ]


def unreferenced_private_definitions(source: str) -> list[str]:
    """Module-level ``_name`` functions and classes that nothing in the
    module names."""
    tree = ast.parse(source)
    defined = {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})"
        for name, line in sorted(defined.items())
        if name not in used
    ]


def test_scan_sees_a_dead_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)",
        "os (line 1)",
    ]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}: {entry}"
        for path in SOURCES
        for entry in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_scan_sees_a_dead_private_definition():
    source = (
        "def _used():\n    pass\n"
        "def _dead():\n    return _used()\n"
        "class _Gone:\n    pass\n"
        "def public():\n    pass\n"
    )
    assert unreferenced_private_definitions(source) == [
        "_Gone (line 5)",
        "_dead (line 3)",
    ]


def test_no_unreferenced_private_definitions():
    found = [
        f"{path.relative_to(ROOT)}: {entry}"
        for path in sorted((ROOT / "src" / "polygenocchi").glob("*.py"))
        for entry in unreferenced_private_definitions(
            path.read_text(encoding="utf-8")
        )
    ]
    assert found == []
