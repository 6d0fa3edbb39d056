"""Every module-level import in the package is used by its module, every
module imports only the package modules its layer allows, every private
function, class and method is used somewhere in it, and every identifier
of the package and its tests is ASCII.

No linter ships with the test toolchain, so this walks the syntax tree
with the standard library instead.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ontomesh"


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


# the package modules each module may import.  The oracle stays apart
# from the tableau code, so that it can referee it; peer sits on top.
LAYERS = {
    "__init__": set(),
    "model": set(),
    "io": {"model"},
    "oracle": {"model"},
    "tableau": {"model"},
    "protocol": {"model", "tableau"},
    "peer": {"model", "io", "oracle", "tableau", "protocol"},
}


def package_imports(source: str) -> set[str]:
    """The package modules that source imports anywhere in its tree, as
    `from .x import`, `from . import x`, `import ontomesh.x` or
    `from ontomesh.x import`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module
                         else [alias.name for alias in node.names])
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.partition(".")[2] for name in names
                     if name.startswith("ontomesh."))
    return found


def test_checker_finds_package_imports_at_any_depth():
    src = ("import json\nfrom .model import Atom\nfrom . import io\n"
           "def f():\n    from .tableau import init_graph\n"
           "    import ontomesh.oracle\n"
           "from ontomesh.protocol import drop_holes\n")
    assert package_imports(src) == {"model", "io", "tableau", "oracle",
                                    "protocol"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_its_layers(path):
    assert package_imports(path.read_text()) - LAYERS[path.stem] == set()


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """The _-prefixed module-level functions and classes, and methods, that
    no module of sources mentions by name or attribute.  Dunder names are
    left out: Python calls them."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    mentioned = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
    defined = []
    for name, tree in trees.items():
        for stmt in tree.body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for d in [stmt, *members]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((name, d.lineno, d.name))
    return [f"{name} line {line}: {d}" for name, line, d in defined
            if d.startswith("_") and not d.endswith("__")
            and d not in mentioned]


def test_checker_flags_an_orphaned_private_name():
    src = ("def _used():\n    pass\n\n"
           "def _orphan():\n    _used()\n\n"
           "class _Box:\n    def __init__(self):\n        self._fill()\n"
           "    def _fill(self):\n        pass\n    def _spill(self):\n"
           "        pass\n")
    assert orphaned_private_names({"m.py": src, "n.py": "_Box()\n"}) == [
        "m.py line 4: _orphan", "m.py line 12: _spill"]


def test_no_orphaned_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def non_ascii_identifiers(source: str) -> list[str]:
    """The identifiers of source that are not ASCII: every string field of
    a syntax node (names, attributes, arguments, definitions, aliases,
    keywords) but the value of a constant.  Strings and comments are not
    identifiers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant):
            continue
        for _, value in ast.iter_fields(node):
            for name in value if isinstance(value, list) else [value]:
                if isinstance(name, str) and not name.isascii():
                    found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_flags_a_non_ascii_identifier():
    src = ("\u03c0 = 3\n"
           "def f(\u03b1, *, \u03b2=1):\n    return \u03b1.\u03c9\n"
           "f(1, \u03b2='\u03bb')  # \u03bc\n"
           "import os as \u00f8\n")
    assert non_ascii_identifiers(src) == [
        "line 1: \u03c0", "line 2: \u03b1", "line 2: \u03b2",
        "line 3: \u03b1", "line 3: \u03c9", "line 4: \u03b2",
        "line 5: \u00f8"]


@pytest.mark.parametrize(
    "path", sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_identifiers_are_ascii(path):
    assert non_ascii_identifiers(path.read_text(encoding="utf-8")) == []
