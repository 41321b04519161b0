"""Every exported name has a caller in the package, the demos or the bench.

A name that only tests call belongs in ``tests/references.py``, not in
``src``. A reference is a use of the name (a load, an attribute or an import)
outside the ``def`` or ``class`` that defines it; ``__init__.py`` only
re-exports, so it does not count.
"""

import ast
from pathlib import Path

import hiprox

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    package = ROOT / "src" / "hiprox"
    yield from (path for path in sorted(package.glob("*.py")) if path.name != "__init__.py")
    yield from sorted((ROOT / "demos").glob("*.py"))
    yield from sorted((ROOT / "bench").glob("*.py"))


def _references(tree):
    """Names used in tree, each outside the def or class of the same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_outside_tests():
    used = set()
    for path in _sources():
        used |= _references(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(set(hiprox.__all__) - used) == []
