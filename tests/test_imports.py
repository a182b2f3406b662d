"""Every imported name is used, every private definition is, and every
public function, class and method of the package has a caller in the
package: stdlib-ast scans of the package and tests.  Importing the CLI
leaves out the stdlib modules that its start-up does not need.

The package's ``__init__.py`` is skipped, since its imports are the public
re-exports: a name that only ``__init__.py`` exports is not in use.
"""

import ast
import os
import subprocess
import sys
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


def unnamed_public_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level public functions and classes, keyed ``module.name``,
    that no module of ``sources`` (module name -> source) names, and
    public methods, keyed ``module.Class.name``, that no module names as
    an attribute.  Dunders are left out, and so are the methods of a
    class with a base from outside ``sources``: they may override it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    used_attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    classes = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name not in used:
                found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef) and all(
                isinstance(base, ast.Name) and base.id in classes
                for base in node.bases
            ):
                found.extend(
                    f"{module}.{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                    and method.name not in used_attrs
                )
    return sorted(found)


# public names the package need not call itself, each with the reason
UNNAMED_PUBLIC_ALLOWED: set[str] = {
    # the library's entry point to a family's Poly rows, read by the tests;
    # the CLI prints appell_cells and the verifier builds its own rows
    "families.family_series",
    # a Poly's value at a rational point, for library callers and the
    # tests; the CLI reads P_n(0) as a cell
    "series.Poly.evaluate",
}


def test_scan_sees_an_unnamed_public_definition():
    sources = {
        "a": "def used():\n    pass\nclass Gone:\n    pass\n"
        "def _private():\n    pass\n",
        "b": "from .a import used\nused()\ndef orphan():\n    pass\n",
    }
    assert unnamed_public_definitions(sources) == ["a.Gone", "b.orphan"]


def test_scan_sees_an_unnamed_public_method():
    sources = {
        "a": "class Base:\n    def used(self):\n        pass\n"
        "    def dead(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "    def _private(self):\n        pass\n"
        "class Sub(Base):\n    def gone(self):\n        pass\n",
        "b": "import argparse\nfrom .a import Base, Sub\n"
        "class P(argparse.ArgumentParser):\n    def error(self, m):\n"
        "        pass\n"
        "Base().used()\nSub()\nP()\n",
    }
    assert unnamed_public_definitions(sources) == ["a.Base.dead", "a.Sub.gone"]


def test_every_public_definition_has_a_package_caller():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in SOURCES
        if path.parent.name == "polygenocchi"
    }
    found = unnamed_public_definitions(sources)
    unexpected = [name for name in found if name not in UNNAMED_PUBLIC_ALLOWED]
    assert not unexpected, ", ".join(unexpected)
    # an exemption whose name gained a caller is stale
    assert UNNAMED_PUBLIC_ALLOWED <= set(found)


def package_imports(source: str) -> list[str]:
    """The imports of ``source`` that name the package, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found.extend(
            (node.lineno, name)
            for name in names
            if name.split(".")[0] == "polygenocchi"
        )
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_scan_sees_a_package_import():
    source = (
        "import math\nimport polygenocchi.series as s\n"
        "def f():\n    from polygenocchi import errors\n"
        "from fractions import Fraction\n"
    )
    assert package_imports(source) == [
        "polygenocchi.series (line 2)",
        "polygenocchi (line 4)",
    ]


def test_oracles_share_no_code_with_the_package():
    # the reference computations stay separate code from the construction
    source = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert package_imports(source) == []


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """The reads of the process environment in ``source``: ``os.environ``
    and ``os.getenv`` and their bytes twins, as attributes or imported by
    name, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT_READS
        ):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                (node.lineno, f"os.{alias.name}")
                for alias in node.names
                if alias.name in ENVIRONMENT_READS
            )
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_scan_sees_an_environment_read():
    source = (
        "import os\nfrom os import getenv as g\n"
        "x = os.environ.get('A')\ny = os.path.join('a')\n"
    )
    assert environment_reads(source) == ["os.getenv (line 2)", "os.environ (line 3)"]


def test_only_the_cli_reads_the_environment():
    # a library call depends on its arguments alone; the CLI reads
    # SOURCE_DATE_EPOCH and hands its value on
    found = [
        f"{path.name}: {entry}"
        for path in sorted((ROOT / "src" / "polygenocchi").glob("*.py"))
        if path.name != "cli.py"
        for entry in environment_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []
    cli = (ROOT / "src" / "polygenocchi" / "cli.py").read_text(encoding="utf-8")
    assert environment_reads(cli)


# stdlib modules the package does without: dataclasses pulls in inspect
# (and with it ast, dis and tokenize) and runs its generated methods
# through exec, and datetime would stamp one timestamp; each costs start-up
# time on every CLI call
UNLOADED_AT_START = ("dataclasses", "inspect", "datetime")


def test_the_cli_loads_no_dataclasses_inspect_or_datetime():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [
            # -S: no site hooks, so the modules listed are the package's
            sys.executable,
            "-S",
            "-c",
            "import sys, polygenocchi.cli; "
            f"print(*sorted(set({UNLOADED_AT_START!r}) & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
