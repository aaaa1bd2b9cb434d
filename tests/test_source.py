"""Checks on the package source itself."""

import ast
from pathlib import Path

import mdseries

SRC = Path(mdseries.__file__).resolve().parent

# Imports kept only so that perfbench/layertrace.py can wrap the name in
# this module (ROADMAP item 1 removes them with the next benchmark change).
TRACE_ONLY = {("series", "enumerate_box"), ("momentlab", "compare"),
              ("variety", "primes_up_to")}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(path: Path) -> set:
    """The names that a module's import statements bind and it never reads."""
    tree = parse(path)
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


def reads_environment(path: Path) -> bool:
    """Whether a module uses os.environ or os.getenv, or imports either."""
    for node in ast.walk(parse(path)):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            return True
        if (isinstance(node, ast.ImportFrom) and node.module == "os"
                and {a.name for a in node.names} & {"environ", "getenv"}):
            return True
    return False


def test_only_limits_reads_the_environment():
    # MDS_WORK_CAP is the one setting of the work cap, read by limits.work_cap
    readers = {path.stem for path in SRC.glob("*.py") if reads_environment(path)}
    assert readers == {"limits"}


def test_no_function_takes_a_work_cap():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if "work_cap" in {p.arg for p in params if p is not None}:
                    found.add((path.stem, getattr(node, "name", "<lambda>")))
    assert found == set()
