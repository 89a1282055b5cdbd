"""Every name a module imports is used somewhere in that module.

No linter ships with the project, so this walks the syntax tree of each
source and test file. A name counts as used when it appears as a bare name
or as the root of an attribute chain, anywhere in the module. Package
``__init__`` files, which exist to re-export, are skipped; ``__future__``
imports and names listed in ``__all__`` are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            exported |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads\nprint(sys.argv, loads)\n"
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


def test_the_scan_sees_attribute_roots_and_exports():
    source = "import os.path\nfrom x import y\n__all__ = ['y']\nos.path.join('a')\n"
    assert unused_imports(source) == []


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
        for path in SOURCES
        if path.name != "__init__.py"
    }
    assert {path: names for path, names in found.items() if names} == {}
