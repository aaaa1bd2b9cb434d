"""Checks on the package source itself."""

import ast
from pathlib import Path

import mdseries

SRC = Path(mdseries.__file__).resolve().parent

# Imports kept only so that perfbench/layertrace.py can wrap the name in
# this module (ROADMAP item 1 removes them with the next benchmark change).
TRACE_ONLY = {("series", "enumerate_box"), ("momentlab", "compare"),
              ("variety", "primes_up_to")}


def unused_imports(path: Path) -> set:
    """The names that a module's import statements bind and it never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_unused_imports():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in unused_imports(path)}
    assert found - TRACE_ONLY == set()
    # and the allowlist names only imports that are still there and unread
    assert TRACE_ONLY <= found
