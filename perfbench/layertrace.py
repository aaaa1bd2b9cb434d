"""Per-layer span recorder and the in-process replay of one `mds` job.

The recorder wraps the public functions of the `mdseries` modules where
they are looked up (a name imported with `from .x import f` is wrapped in
the importing module too), and aggregates spans in memory: calls,
inclusive seconds, and self seconds, which are inclusive seconds minus the
inclusive seconds of the traced calls made directly inside the span.
Nothing is written until the replay ends.

Run as a script it replays one job through `mdseries.cli.main` in this
process and writes one JSON document to --out:

    python3 perfbench/layertrace.py --trace 1 --out spans.json -- \
        compare --system d.json --N 3000 --P 20000 --deterministic

With --trace 0 nothing is wrapped, which gives the untraced wall time that
the tracing overhead is measured against.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Recorder:
    """Aggregated spans keyed by name: calls, inclusive and self seconds,
    plus optional per-name counts taken from each call's result."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, dict] = {}
        self._open: list[list[float]] = []   # child seconds of each open span

    def wrap(self, name: str, fn, count=None):
        """Return fn recording a span `name` per call. `count`, if given, is
        a (stat, function of the result) pair; each call adds the function's
        value to the span's `stat`."""
        entry = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if count is not None:
            entry[count[0]] = 0
        stack = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                entry["calls"] += 1
                entry["s"] += dt
                entry["self_s"] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            if count is not None:
                entry[count[0]] += count[1](result)
            return result

        return traced


def instrument(rec: Recorder) -> None:
    """Wrap every traced layer boundary of the imported `mdseries` package."""
    from mdseries import (arith, cli, coefficients, descriptor, momentlab,
                          series, variety)

    points = ("points", len)
    solutions = ("solutions", lambda r: len(r.solutions))
    sites = [
        # (span name, modules whose attribute is looked up, counter)
        ("cli.main", [cli], None),
        ("descriptor.load_descriptor", [cli, descriptor], None),
        ("series.compare", [series, momentlab], None),
        ("series.direct_sum", [series], None),
        ("series.euler_product", [series], None),
        ("series.local_factor", [series], None),
        ("variety.enumerate_box", [series, variety], points),
        ("variety.on_monomial_variety", [variety], None),
        ("variety.local_solutions", [series, variety], solutions),
        ("arith.primes_up_to", [series, variety, arith], None),
        ("coefficients.eval_product_coefficient", [series, coefficients], None),
        ("coefficients.ramanujan_tau_table", [coefficients], None),
        ("momentlab.decay_experiment", [momentlab], None),
        ("momentlab.moment_rhs", [momentlab], None),
    ]
    for name, modules, count in sites:
        attr = name.rsplit(".", 1)[1]
        for mod in modules:
            setattr(mod, attr, rec.wrap(name, getattr(mod, attr), count))
    # Family methods are looked up on the instance's class; every class that
    # defines its own method is wrapped, all under one span name.
    for cls in vars(coefficients).values():
        if isinstance(cls, type) and issubclass(cls, coefficients.CoefficientFamily):
            for attr in ("prime_power", "value"):
                if attr in vars(cls):
                    setattr(cls, attr, rec.wrap(f"coefficients.{attr}", vars(cls)[attr]))


def replay(cli_argv: list[str], traced: bool) -> dict:
    """Run one CLI job through `mdseries.cli.main` in this process."""
    sys.path.insert(0, str(SRC))
    from mdseries import cli

    rec = Recorder()
    if traced:
        instrument(rec)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(cli_argv)
    wall = time.perf_counter() - t0
    return {"rc": rc, "wall_s": wall, "stdout": out.getvalue(),
            "traced": traced, "spans": rec.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER,
                        help="arguments of the mds command, after --")
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
    doc = replay(cli_argv, bool(args.trace))
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
