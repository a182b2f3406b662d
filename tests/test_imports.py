"""Every imported name is used: a stdlib-ast scan of the package and tests.

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
