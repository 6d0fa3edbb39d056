"""Every module-level import in the package is used by its module.

No linter ships with the test toolchain, so this walks the syntax tree
with the standard library instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ontomesh"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.partition(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    src = "import os\nimport sys\nfrom json import dumps, loads\nsys.exit(loads)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: dumps"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
