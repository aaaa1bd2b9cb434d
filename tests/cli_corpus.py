"""A fixed list of `mds` command lines and the output each one gives.

test_cli_corpus.py runs every case in process through `mdseries.cli.main`
and compares its exit code, stdout and stderr byte for byte with
cli_corpus.txt; only the value of "wall_time" is masked.  The bits of the
floats depend on numpy's version and on the SIMD code it dispatches to, so
the expected file records both, and the test skips where they differ.

    PYTHONPATH=src python tests/cli_corpus.py

rewrites cli_corpus.txt from this checkout and prints the name of each
case whose block it changed or added, and of each recorded block no case
gives any more.  A change that rewrites it lists every changed line in
CHANGES.md.  test_cli_corpus.py also runs render() in a child process
with numpy's AVX-512 dispatch disabled, and checks that every block stays
the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "cli_corpus.txt"

_TRIVIAL = {"type": "trivial"}
_DIAG = {"t": 2, "m": 1, "A": [[1, -1]], "omega": ["1"], "omega_prime": ["1"],
         "coefficients": [_TRIVIAL] * 2, "s": [[2, 0]] * 2}


def _twisted_hecke(seed: int) -> dict:
    """perfbench's twisted-hecke-compare descriptor at this seed."""
    from mdseries.arith import primes_up_to
    rng = random.Random(seed)
    lam = {str(p): rng.uniform(-2.0, 2.0) for p in primes_up_to(10_000)}
    return {"t": 4, "m": 2, "A": [[1, 1, -1, 0], [0, 1, 1, -1]],
            "omega": ["6", "5"], "omega_prime": ["1", "3"],
            "coefficients": [_TRIVIAL, {"type": "character", "q": 7, "k": 2},
                             {"type": "hecke_gl2", "lambda": lam}, {"type": "tau"}],
            "s": [[2, 0]] * 4}


def inputs() -> dict:
    """file name -> text of every input file the cases read."""
    docs = {
        "diag.json": _DIAG,
        "hecke7.json": _twisted_hecke(7),
        # 6 n1 n2 = 35 n3
        "twisted.json": {"t": 3, "m": 1, "A": [[1, 1, -1]], "omega": ["6"],
                         "omega_prime": ["35"], "s": [[2, 0]] * 3},
        # every record kind, each written in a form other than its canonical one
        "mixed.json": {"t": 4, "m": 2, "A": [[2, -2, 0, 0], [1, -1, 0, 0]],
                       "omega": ["1", "1"], "omega_prime": ["1", "1"],
                       "coefficients": [
                           {"type": "tau"}, {"type": "character", "q": 7, "k": 9},
                           {"type": "hecke_gl2", "lambda": {"5": 1, "2": [0.25, -1], "3": -0.5}},
                           {"type": "table", "values": {"3^1": 2, "2^2": [0.5, 0], "02^1": 1.5}}],
                       "s": [[2, 0], [2.5, 1], [3, 0], [2, -0.5]]},
        "low.json": dict(_DIAG, s=[[0.9, 0], [2, 0]]),
        "overflow.json": dict(_DIAG, s=[[-51.25, 0], [-51.25, 0]]),
        "badkey.json": dict(_DIAG, coefficients=[
            _TRIVIAL, {"type": "hecke_gl2", "lambda": {"2": 0.5, "4": 1.0}}]),
        "recordkey.json": dict(_DIAG, coefficients=[
            {"type": "tau", "bond": 100000}, {"type": "character", "q": 7, "k": 2, "bogus": 1}]),
        "field.json": dict(_DIAG, omega_prim=["1"]),
    }
    files = {name: json.dumps(doc) for name, doc in docs.items()}
    files["sum.txt"] = "x1 + x2 - 5\n"
    files["unbalanced.txt"] = "x1 + (x2\n- 5\n"
    return files


# (name, argv, environment)
CASES = [
    ("eval-diag", ["eval", "--system", "diag.json", "--N", "1000"], {}),
    ("compare-diag", ["compare", "--system", "diag.json", "--N", "500", "--P", "500"], {}),
    ("moment-diag", ["moment", "--system", "diag.json", "--q", "11,31,101", "--N", "2000"], {}),
    ("eval-hecke7", ["eval", "--system", "hecke7.json", "--N", "300"], {}),
    ("compare-hecke7", ["compare", "--system", "hecke7.json", "--N", "300", "--P", "2000"], {}),
    ("moment-hecke7", ["moment", "--system", "hecke7.json", "--q", "11,13", "--N", "200"], {}),
    ("compare-twisted", ["compare", "--system", "twisted.json", "--N", "300", "--P", "300"], {}),
    ("enumerate-system", ["enumerate", "--system", "twisted.json", "--N", "40"], {}),
    ("enumerate-constraints", ["enumerate", "--constraints", "sum.txt", "--t", "2", "--N", "6"],
     {}),
    ("check-s-system", ["check-s", "--system", "twisted.json", "--N", "20"], {}),
    ("check-s-constraints", ["check-s", "--constraints", "sum.txt", "--t", "2", "--N", "5"], {}),
    ("normalize-mixed", ["normalize", "--system", "mixed.json"], {}),
    ("eval-mixed", ["eval", "--system", "mixed.json", "--N", "4"], {}),
    ("reduce-support", ["reduce-support", "--system", "hecke7.json", "--bound", "10"], {}),
    # one case of each error exit
    ("missing-file", ["eval", "--system", "missing.json"], {}),
    ("unknown-flag", ["compare", "--system", "diag.json", "--bogus"], {}),
    ("bad-q", ["moment", "--system", "diag.json", "--q", "11,abc", "--N", "100"], {}),
    ("convergence-eval", ["eval", "--system", "low.json", "--N", "10"], {}),
    ("convergence-compare", ["compare", "--system", "low.json", "--N", "10", "--P", "10"], {}),
    ("convergence-moment", ["moment", "--system", "low.json", "--q", "11,31", "--N", "10"], {}),
    ("overflow", ["eval", "--system", "overflow.json", "--N", "1000",
                  "--override-convergence"], {}),
    ("work-cap", ["eval", "--system", "diag.json", "--N", "100000"], {"MDS_WORK_CAP": "1000"}),
    ("descriptor-error", ["compare", "--system", "badkey.json", "--N", "10", "--P", "10"], {}),
    ("unknown-record-key", ["eval", "--system", "recordkey.json", "--N", "100"], {}),
    ("unknown-field", ["eval", "--system", "field.json", "--N", "100"], {}),
    ("prime-bound", ["compare", "--system", "diag.json", "--N", "10", "--P", "1000000000000"],
     {}),
    ("missing-value-eval", ["eval", "--system", "mixed.json", "--N", "12"], {}),
    ("missing-value-compare", ["compare", "--system", "mixed.json", "--N", "4", "--P", "12"],
     {}),
    ("constraint-syntax", ["enumerate", "--constraints", "unbalanced.txt", "--t", "2",
                           "--N", "6"], {}),
]

# argparse wraps its usage text to the terminal width it finds
ENVIRONMENT = {"COLUMNS": "80"}


def platform() -> str:
    """numpy's version and the highest x86 SIMD level it dispatches to."""
    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    levels = [name for name, found in __cpu_features__.items()
              if found and re.fullmatch(r"X86_V\d", name)]
    return f"numpy {np.__version__}\nsimd {max(levels, default='none')}\n"


def write_inputs(directory: Path) -> None:
    for name, text in inputs().items():
        (directory / name).write_text(text)


def run(name: str, argv: list) -> str:
    """The case's block of the expected file: `mds argv` run in the current
    directory and environment."""
    from mdseries.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    stdout = re.sub(r'("wall_time": )[^,\n}]+', r'\1"*"', out.getvalue())
    return (f"=== {name}\n$ mds {' '.join(argv)}\nexit {rc}\n"
            f"--- stdout\n{stdout}--- stderr\n{err.getvalue()}")


def blocks(text: str) -> dict:
    """name -> block of each case in an expected file's text."""
    return {block.split("\n", 1)[0][4:]: block
            for block in re.split(r"^(?==== )", text, flags=re.M)[1:]}


def render() -> str:
    """The expected file's text as this checkout and process give it: the
    platform, then every case run in a fresh directory of the inputs."""
    parts = [platform()]
    os.environ.update(ENVIRONMENT)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_inputs(Path(tmp))
        for name, argv, env in CASES:
            os.environ.pop("MDS_WORK_CAP", None)
            os.environ.update(env)
            parts.append(run(name, argv))
        os.chdir(here)
    return "".join(parts)


def main() -> None:
    before = blocks(EXPECTED.read_text()) if EXPECTED.exists() else {}
    text = render()
    after = blocks(text)
    for name in before:
        if name not in after:
            print(f"gone: {name}", file=sys.stderr)
    for name, block in after.items():
        if before.get(name) != block:
            print(f"{'changed' if name in before else 'new'}: {name}", file=sys.stderr)
    EXPECTED.write_text(text)
    print(f"wrote {len(CASES)} cases to {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    main()
