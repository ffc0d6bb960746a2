"""Every name a package module imports is used in that module.

There is no linter among the runtime's dependencies, so this parses each
module of ``anick`` (the package ``__init__`` re-exports by design) and
compares the names its imports bind with the names it reads.
"""

import ast
from pathlib import Path

import pytest

import anick

MODULES = sorted(p for p in Path(anick.__file__).parent.glob("*.py") if p.name != "__init__.py")


def quoted_names(annotation: ast.expr) -> set[str]:
    """Names read by the quoted parts of an annotation, as in "Chain | None"."""
    return {
        n.id
        for c in ast.walk(annotation)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
        for n in ast.walk(ast.parse(c.value, mode="eval"))
        if isinstance(n, ast.Name)
    }


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(quoted_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(quoted_names(node.returns))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_reports_an_unused_import():
    source = (
        "from os import path, sep\nimport json\nimport typing as t\n\n"
        "def f(x: 'sep | None') -> 't.Any': ...\n"
    )
    assert unused_imports(source) == ["line 1: path", "line 2: json"]
