"""Command-line front end.

Every subcommand reads a JSON system descriptor (and/or a constraint text
file), writes machine-readable JSON to stdout, and keeps human diagnostics
on stderr.  Exit codes are a stable contract: 0 success, 1 error, 2 a
witness/counterexample was found.  MDS_WORK_CAP in the environment
sets the enumeration work cap.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .descriptor import load_descriptor, serialize_descriptor
from .errors import MDSeriesError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WITNESS = 2


def _integer(text: str) -> int:
    """An optional sign and ASCII digits 0-9, blanks around them allowed as
    int() allows them; int() alone also takes '1_000' and non-ASCII digits
    such as '١١'.  argparse reports the error as it does for type=int."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _warn(msg: str) -> None:
    print(f"mds: {msg}", file=sys.stderr)


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_system(args, *, need_s=False):
    system, families, s, extras = load_descriptor(args.system)
    for field in extras:
        _warn(f"descriptor field {field!r} is not used by this command; ignored")
    if need_s and s is None:
        raise MDSeriesError("descriptor has no 's' field; this command evaluates the series")
    return system, families, s


def _cx(z: complex) -> list:
    return [z.real, z.imag]


def cmd_eval(args) -> int:
    from . import series
    system, families, s = _load_system(args, need_s=True)
    t0 = time.perf_counter()
    warnings = list(series.check_series_point(s, system.t, args.override_convergence))
    value, half = series.direct_sum_and_half(
        system, families, s, args.N, override_convergence=args.override_convergence)
    tail = None if half is None else abs(value - half)
    if half is None:
        warnings.append(series.direct_tail_skip_reason(args.N))
    if system.empty_variety_flag:
        warnings.append(series.EMPTY_VARIETY_WARNING)
    for w in warnings:
        _warn(w)
    _emit({
        "direct": _cx(value),
        "tail_estimate": tail,
        "N": args.N,
        "warnings": warnings,
        "wall_time": time.perf_counter() - t0,
    })
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import series
    system, families, s = _load_system(args, need_s=True)
    params = series.EvalParams(N=args.N, P=args.P, B=args.B)
    report = series.compare(system, families, s, params,
                            override_convergence=args.override_convergence)
    for w in report.warnings:
        _warn(w)
    _emit(report.to_dict())
    return EXIT_OK


def cmd_normalize(args) -> int:
    from .coefficients import all_trivial
    from .lattice import normalize
    system, families, s = _load_system(args)
    canonical, ops = normalize(system)
    # row operations keep the columns' families; no field reads as all trivial
    doc = serialize_descriptor(canonical, None if all_trivial(families) else families, s)
    _emit({
        "system": doc,
        "operations": [_op_to_json(op) for op in ops],
        "dropped_rows": system.m - canonical.m,
        "empty_variety": canonical.empty_variety_flag,
    })
    return EXIT_OK


def _op_to_json(op) -> dict:
    from .lattice import Negate, Swap
    if isinstance(op, Swap):
        return {"op": "swap", "i": op.i, "j": op.j}
    if isinstance(op, Negate):
        return {"op": "negate", "i": op.i}
    return {"op": "add", "i": op.i, "j": op.j, "b": op.b}


def _load_variety(args):
    if args.constraints:
        if args.t is None:
            raise MDSeriesError("--t is required with --constraints")
        with open(args.constraints) as fh:
            text = fh.read()
        from .recombination import parse_constraints
        return parse_constraints(text, args.t)
    if args.system:
        return load_descriptor(args.system)[0]
    raise MDSeriesError("give either --constraints (with --t) or --system")


def cmd_check_s(args) -> int:
    from .recombination import check_property_S
    V = _load_variety(args)
    witness = check_property_S(V, args.N)
    if witness is None:
        _emit({"result": "no_counterexample", "N": args.N})
        return EXIT_OK
    _warn("Property (S) violated; witness follows on stdout")
    _emit({
        "result": "witness",
        "x": list(witness.x),
        "y": list(witness.y),
        "choice": {str(p): side for p, side in witness.choice},
        "point": list(witness.point),
    })
    return EXIT_WITNESS


def cmd_reduce_support(args) -> int:
    from .lattice import support_reducible
    system, _, _ = _load_system(args)
    result = support_reducible(system.A, args.bound)
    if result.reducible:
        _emit({
            "result": "reducible",
            "basis": [list(row) for row in result.basis],
            "coeff_bound": result.coeff_bound,
        })
    else:
        _emit({
            "result": "irreducible_within_bound",
            "coeff_bound": result.coeff_bound,
        })
    return EXIT_OK


def cmd_moment(args) -> int:
    from . import momentlab
    system, families, s = _load_system(args, need_s=True)
    q_list = []
    for field in args.q.split(","):
        if field.strip():
            try:
                q_list.append(_integer(field))
            except argparse.ArgumentTypeError:
                raise MDSeriesError(f"--q {args.q!r}: {field!r} is not an integer") from None
    if not q_list:
        raise MDSeriesError(f"--q {args.q!r} lists no modulus")
    if q_list != sorted(set(q_list)):
        raise MDSeriesError(f"--q {args.q!r} is not strictly ascending")
    experiment = momentlab.decay_experiment(system, families, s, q_list, args.N)
    for w in experiment.warnings:
        _warn(w)
    if args.csv:
        with open(args.csv, "w") as fh:
            for row in experiment.csv_rows():
                fh.write(",".join(str(x) for x in row) + "\n")
        _warn(f"wrote {args.csv}")
    _emit(experiment.to_dict())
    return EXIT_OK


def _points_json(X) -> str:
    """The rows of the integer array X as json.dumps(..., indent=2) writes
    them two levels deep, comma-separated, with no brackets around them."""
    K, t = X.shape
    if t == 0:
        return ",".join(["\n    []"] * K)
    row = "\n    [\n      " + ",\n      ".join(["%d"] * t) + "\n    ]"
    return ",".join([row] * K) % tuple(X.ravel().tolist())


def cmd_enumerate(args) -> int:
    from . import variety
    V = _load_variety(args)
    windows = [X for X in variety.box_windows(V, args.N) if len(X)]
    # _emit's document, a window at a time rather than as a list of lists
    count = sum(map(len, windows))
    out = sys.stdout
    out.write(json.dumps({"N": args.N, "count": count}, indent=2)[:-2] + ',\n  "points": [')
    for k, X in enumerate(windows):
        out.write("," * (k > 0) + _points_json(X))
    out.write("\n  ]\n}\n" if count else "]\n}\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mds",
        description="Evaluate multiple Dirichlet series restricted to Laurent "
                    "monomial varieties, verify their Euler products, and probe "
                    "Property (S).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, system=True, constraints=False, N=None):
        if system:
            p.add_argument("--system", metavar="FILE",
                           required=not constraints,
                           help="JSON system descriptor")
        if constraints:
            p.add_argument("--constraints", metavar="FILE",
                           help="constraint expression file (with --t)")
            p.add_argument("--t", type=_integer, help="variable count for --constraints")
        if N is not None:
            p.add_argument("--N", type=_integer, default=N, help="box bound")
        # every run is single-process and bit-reproducible; the flag stays
        # accepted so existing command lines keep working
        p.add_argument("--deterministic", action="store_true",
                       help="accepted for compatibility; no effect")

    p = sub.add_parser("eval", help="direct truncated sum")
    add_common(p, N=1000)
    p.add_argument("--override-convergence", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="direct sum vs Euler product")
    add_common(p, N=1000)
    p.add_argument("--P", type=_integer, default=1000, help="prime bound")
    p.add_argument("--B", type=_integer, default=None,
                   help="local exponent bound at p = 2; a prime p with no twist "
                        "uses the smallest b with p^b >= 2^B")
    p.add_argument("--override-convergence", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("normalize", help="canonical form under the row operations")
    add_common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("check-s", help="search for a Property (S) counterexample by a "
                       "scan of --constraints; a monomial --system has none, by the "
                       "per-prime identity sum_j a_ij v_p(n_j) = v_p(omega'_i/omega_i)")
    add_common(p, system=False, constraints=True, N=20)
    p.add_argument("--system", metavar="FILE", help="JSON system descriptor")
    p.set_defaults(func=cmd_check_s)

    p = sub.add_parser("reduce-support", help="small-support row-lattice basis search")
    add_common(p)
    p.add_argument("--bound", type=_integer, default=10, help="coefficient bound")
    p.set_defaults(func=cmd_reduce_support)

    p = sub.add_parser("moment", help="character-moment error decay experiment")
    add_common(p, N=1000)
    p.add_argument("--q", required=True, help="comma list of prime moduli")
    p.add_argument("--csv", metavar="FILE", help="write (q, error) rows as CSV")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("enumerate", help="list box solutions")
    add_common(p, system=False, constraints=True, N=20)
    p.add_argument("--system", metavar="FILE", help="JSON system descriptor")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is
        # reserved for a witness, so a usage error is reported as an error
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except (MDSeriesError, ValueError, OverflowError, OSError) as exc:
        _warn(str(exc))
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
