"""Checks on the package source itself."""

import ast
from pathlib import Path

import mdseries

SRC = Path(mdseries.__file__).resolve().parent

# Imports kept only so that perfbench/layertrace.py can wrap the name in
# this module (ROADMAP item 1 removes them with the next benchmark change).
TRACE_ONLY = {("series", "enumerate_box"), ("series", "eval_product_coefficient"),
              ("momentlab", "compare"), ("variety", "primes_up_to")}


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


def imported_modules(path: Path) -> set:
    """The top-level names of the modules that a module imports."""
    found = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


def test_no_module_imports_dataclasses():
    # a dataclass generates and compiles its methods each time its module
    # is imported; the records are NamedTuples or system.ValidatedRecord
    found = {path.stem for path in SRC.glob("*.py") if "dataclasses" in imported_modules(path)}
    assert found == set()


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


EXP_MODULES = {"np", "numpy", "cmath", "math"}


def enclosing(path: Path, hit) -> set:
    """The innermost function around each node of a module for which
    hit(node) holds (None at module level)."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.add(where)
            visit(child, where)

    visit(parse(path), None)
    return found


def exp_uses(path: Path) -> set:
    """Where a module uses np.exp, cmath.exp or math.exp, or imports exp by
    name."""
    def hit(node):
        if isinstance(node, ast.ImportFrom):
            return node.module in EXP_MODULES and "exp" in {a.name for a in node.names}
        return (isinstance(node, ast.Attribute) and node.attr == "exp"
                and isinstance(node.value, ast.Name) and node.value.id in EXP_MODULES)

    return enclosing(path, hit)


def callers(path: Path, name: str) -> set:
    """Where a module calls `name`, bare or as an attribute."""
    def hit(node):
        f = node.func if isinstance(node, ast.Call) else None
        return (isinstance(f, ast.Name) and f.id == name
                or isinstance(f, ast.Attribute) and f.attr == name)

    return enclosing(path, hit)


def test_one_function_makes_the_powers():
    # series._exp makes every n^(-s) of the direct sum, the Euler kernel and
    # the moment, so a term's bits follow one rule.  variety and arith are
    # not held to it: variety's np.exp widens a float interval that exact
    # integers then decide, and arith._unit_roots makes roots of unity, not
    # powers of n.
    found = {(name, where) for name in ("series", "momentlab")
             for where in exp_uses(SRC / f"{name}.py")}
    assert found == {("series", "_exp")}
    # the check sees a use where there is one
    assert exp_uses(SRC / "variety.py") == {"_ceil_from_log", "_floor_from_log"}


def test_one_function_makes_the_terms():
    # series._terms makes every column's terms c(n) n^(-s) of the direct
    # sum and the moment, and _local_factors the Euler kernel's powers
    # p^(-s e); nothing else calls _exp, and the direct sum multiplies the
    # column terms, not a coefficient product
    found = {(name, where) for name in ("series", "momentlab")
             for where in callers(SRC / f"{name}.py", "_exp")}
    assert found == {("series", "_terms"), ("series", "_local_factors")}
    assert callers(SRC / "series.py", "eval_product_coefficient") == set()
    # the check sees a call where there is one
    assert callers(SRC / "momentlab.py", "_terms") == {"_class_sums", "_plain_product"}
