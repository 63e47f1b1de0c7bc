"""Command-line front end: eval, table, coeffs, scaling, bench, identities.

Reports go to stdout as CSV (default) or JSON.  CSV columns are stable:

    kind,n,p,z,approx,oracle,abs_err,rel_err,ns,flag

Values are printed in scientific notation with 17 significant digits;
error columns use 2 significant digits unless --full is given.  When the
oracle is exactly zero the rel_err column carries the absolute error and
the flag column reads "abs".  The ns column is the wall time of one warm
evaluation: each order's route is built before its first row is timed.

Exit codes: 0 success, 2 argument error, 3 domain violation (n >= 4p, an
approximant beyond binary64 range, or an order past 108), 4 internal
consistency failure (identity residual beyond tolerance).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from functools import cache

from .approximation import ApproxRequest, DomainError, _route, evaluate
from .coefficients import closed_form_row
from .reference import _validate as check_oracle_args
from .reference import _ref_I_orders, _ref_J_orders, identity_residual, ref_I, ref_J

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CONSISTENCY = 4

CSV_HEADER = "kind,n,p,z,approx,oracle,abs_err,rel_err,ns,flag"
#: One CSV row per format: error columns at 2 significant digits, or at
#: 17 with --full.
ROW_CSV = "%s,%d,%d,%.16e,%.16e,%.16e,%.1e,%.1e,%d,%s"
ROW_CSV_FULL = "%s,%d,%d,%.16e,%.16e,%.16e,%.16e,%.16e,%d,%s"


def _rows(kind: str, orders: list[int], p: int, zs: list[float]) -> list[tuple]:
    """Approximant-versus-oracle comparisons over strictly ascending
    orders and the arguments zs, orders outermost, each in CSV column
    order."""
    # Row by row: the request, the approximant, then the oracle's argument
    # check, so the first error raised is that row's.  Each order's route is
    # built once its first request is checked and before that row's clock
    # starts (the build raises what that row's evaluate would), so ns times
    # a warm evaluation.
    measured = []
    for n in orders:
        for i, z in enumerate(zs):
            req = ApproxRequest(kind=kind, n=n, p=p, z=z)
            if not i:
                _route(n, p, kind)
            start = time.perf_counter_ns()
            value = evaluate(req)
            measured.append((n, req.z, value, time.perf_counter_ns() - start))
            check_oracle_args(n, z)
    # Then every order of one argument from one oracle call, unchecked (each
    # row checked its own), read back in row order.
    oracle_orders = _ref_I_orders if kind == "I" else _ref_J_orders
    by_z = [oracle_orders(orders, z) for z in zs]
    exact = [value for by_n in zip(*by_z) for value in by_n]
    rows = []
    for (n, z, value, ns), oracle in zip(measured, exact):
        abs_err = abs(value - oracle)
        if oracle != 0.0:
            rows.append((kind, n, p, z, value, oracle, abs_err, abs_err / abs(oracle), ns, ""))
        else:
            rows.append((kind, n, p, z, value, oracle, abs_err, abs_err, ns, "abs"))
    return rows


def _emit_rows(rows: list[tuple], fmt: str, full: bool) -> None:
    if fmt == "json":
        keys = CSV_HEADER.split(",")
        _print_json([dict(zip(keys, row)) for row in rows])
        return
    line = ROW_CSV_FULL if full else ROW_CSV
    print(CSV_HEADER, *[line % row for row in rows], sep="\n")


def _emit_one(fmt: str, header: str, line: str, values: tuple) -> None:
    # A one-row report: the header and line % values, or one JSON object
    # keyed by the header's columns.
    if fmt == "json":
        _print_json(dict(zip(header.split(","), values)))
    else:
        print(header, line % values, sep="\n")


def _print_json(value: object) -> None:
    # json loads only for --format json.
    import json
    print(json.dumps(value, indent=2))


def fit_error_slope(*args, **kwargs) -> float:
    # mpmath loads with analysis, which only scaling needs.
    from .analysis import fit_error_slope
    return fit_error_slope(*args, **kwargs)


def _parse_floats(text: str) -> list[float]:
    """Comma list ("0.5,1,2") or inclusive range ("a:b:steps")."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"a range has the form a:b:steps, got {text!r}")
        lo_s, hi_s, steps_s = parts
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
        if steps < 1:
            raise ValueError(f"range needs at least 1 step, got {steps}")
        if steps == 1:
            return [lo]
        # The end is taken as given: the interpolated last point can round
        # past it (0.05:30:10 would end at 30.000000000000004).
        return [lo + (hi - lo) * i / (steps - 1) for i in range(steps - 1)] + [hi]
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def _parse_ints(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def cmd_eval(args: argparse.Namespace) -> int:
    _emit_rows(_rows(args.kind, [args.n], args.p, [args.z]), args.format, args.full)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    orders = sorted(set(_parse_ints(args.n)))
    zs = sorted(set(_parse_floats(args.z)))
    _emit_rows(_rows(args.kind, orders, args.p, zs), args.format, args.full)
    return EXIT_OK


def cmd_coeffs(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ValueError(f"n-max must be >= 1, got {args.n_max}")
    # From n = 1425, a(n, 1) = +-(2n - 3)!! has more than the 4300 digits
    # that Python (3.11, 3.10.7 and later) converts to a string by default:
    # the limit is lifted for these rows alone and restored after them.
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        for n in range(1, args.n_max + 1):
            print(" ".join(str(c) for c in closed_form_row(n)))
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    from .analysis import first_mismatch_order  # loads mpmath, as fit_error_slope does
    if not (0.0 < args.z_min < args.z_max <= 1.0):
        raise ValueError("scaling fit needs 0 < z-min < z-max <= 1")
    if args.samples < 8:
        raise ValueError(f"scaling fit needs >= 8 samples, got {args.samples}")
    slope = fit_error_slope(args.kind, args.n, args.p, args.z_min, args.z_max,
                            args.samples, dps=args.dps)
    _emit_one(args.format, "kind,n,p,z_min,z_max,samples,slope,expected",
              "%s,%d,%d,%s,%s,%d,%.4f,%d",
              (args.kind, args.n, args.p, args.z_min, args.z_max, args.samples, slope,
               first_mismatch_order(args.n, args.p)))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {args.repetitions}")
    zs = _parse_floats(args.z)
    requests = [ApproxRequest(kind=args.kind, n=args.n, p=args.p, z=z) for z in zs]
    oracle = ref_I if args.kind == "I" else ref_J

    # One untimed pass first, so that the route build of the first call is
    # not in the median however few the repetitions.
    for req in requests:
        evaluate(req)
    for z in zs:
        oracle(args.n, z)
    approx_samples = []
    for _ in range(args.repetitions):
        start = time.perf_counter_ns()
        for req in requests:
            evaluate(req)
        approx_samples.append((time.perf_counter_ns() - start) / len(requests))
    oracle_samples = []
    for _ in range(args.repetitions):
        start = time.perf_counter_ns()
        for z in zs:
            oracle(args.n, z)
        oracle_samples.append((time.perf_counter_ns() - start) / len(zs))

    from statistics import median  # loads only for bench
    _emit_one(args.format, "kind,n,p,points,repetitions,approx_ns_median,oracle_ns_median",
              "%s,%d,%d,%d,%d,%.1f,%.1f",
              (args.kind, args.n, args.p, len(zs), args.repetitions,
               median(approx_samples), median(oracle_samples)))
    return EXIT_OK


def cmd_identities(args: argparse.Namespace) -> int:
    if not args.tol >= 0.0:  # nan too: no residual would exceed it
        raise ValueError(f"tolerance must be a number >= 0, got {args.tol}")
    ps = sorted(set(_parse_ints(args.p)))
    zs = _parse_floats(args.z)
    rows: list[tuple[str, int | None, float]] = []
    for tag in ("N2", "N4", "N8"):
        worst = max(abs(identity_residual(tag, z)) for z in zs)
        rows.append((tag, None, worst))
    for p in ps:
        for tag in ("N4P", "J4P"):
            worst = max(abs(identity_residual(tag, z, p=p)) for z in zs)
            rows.append((tag, p, worst))
    if args.format == "json":
        _print_json([
            {"identity": tag, "p": p, "max_abs_residual": worst}
            for tag, p, worst in rows
        ])
    else:
        print("identity,p,max_abs_residual")
        for tag, p, worst in rows:
            print(f"{tag},{'' if p is None else p},{worst:.1e}")
    overall = max(worst for _, _, worst in rows)
    if overall > args.tol:
        print(f"identity residual {overall:.3e} exceeds tolerance {args.tol:.3e}",
              file=sys.stderr)
        return EXIT_CONSISTENCY
    return EXIT_OK


def _add_format_flags(parser: argparse.ArgumentParser, *, full: bool = False) -> None:
    # --full only where rows carry error columns: eval and table.
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if full:
        parser.add_argument("--full", action="store_true",
                            help="print error columns at full precision")


def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(
        prog="besselhyp",
        description="Elementary-function approximants for integer-order "
                    "Bessel functions, with an independent series oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="one approximant-vs-oracle row")
    p_eval.add_argument("--kind", choices=("I", "J"), default="I")
    p_eval.add_argument("-n", type=int, required=True, help="order")
    p_eval.add_argument("-p", type=int, required=True, help="accuracy parameter")
    p_eval.add_argument("-z", type=float, required=True, help="argument")
    _add_format_flags(p_eval, full=True)
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="error table over an (n, z) grid")
    p_table.add_argument("--kind", choices=("I", "J"), default="I")
    p_table.add_argument("-n", default="0,1,2,3", help="comma list of orders")
    p_table.add_argument("-p", type=int, default=2)
    p_table.add_argument("-z", default="1,2,3,4",
                         help="comma list or a:b:steps range")
    _add_format_flags(p_table, full=True)
    p_table.set_defaults(func=cmd_table)

    p_coeffs = sub.add_parser("coeffs", help="dump exact expansion coefficients")
    p_coeffs.add_argument("--n-max", type=int, default=20)
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_scaling = sub.add_parser("scaling",
                               help="log-log error slope against the predicted max(4p-n, n)")
    p_scaling.add_argument("--kind", choices=("I", "J"), default="I")
    p_scaling.add_argument("-n", type=int, required=True)
    p_scaling.add_argument("-p", type=int, required=True)
    p_scaling.add_argument("--z-min", type=float, default=0.1)
    p_scaling.add_argument("--z-max", type=float, default=0.5)
    p_scaling.add_argument("--samples", type=int, default=16)
    p_scaling.add_argument("--dps", type=int, default=50,
                           help="digits an error sample falls back to when its sized digits "
                                "leave it rounding noise; 16 times this caps them")
    _add_format_flags(p_scaling)
    p_scaling.set_defaults(func=cmd_scaling)

    p_bench = sub.add_parser("bench", help="median ns/eval, approximant vs oracle")
    p_bench.add_argument("--kind", choices=("I", "J"), default="I")
    p_bench.add_argument("-n", type=int, required=True)
    p_bench.add_argument("-p", type=int, required=True)
    p_bench.add_argument("-z", default="0.5:4:8")
    p_bench.add_argument("--repetitions", type=int, default=100)
    _add_format_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_ident = sub.add_parser("identities", help="node-sum identity residual suite")
    p_ident.add_argument("-p", default="1,2,3", help="comma list of parameters")
    p_ident.add_argument("-z", default="0.5,1,2,4")
    p_ident.add_argument("--tol", type=float, default=1e-12)
    _add_format_flags(p_ident)
    p_ident.set_defaults(func=cmd_identities)

    return parser, sub.choices


@cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built once per process: parse_args keeps no state between calls, and
    # the build costs about a millisecond, more than a table row.
    return build_parsers()


#: A token that is a value, not an option, although it starts with "-": a
#: digit or a point next, or inf, infinity or nan in any case as the whole
#: token or the first item of a list or range.  No option is spelt so.
_NEGATIVE_VALUE = re.compile(r"-([0-9.]|(inf|infinity|nan)([,:]|$))", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    # argparse reads a token that starts with "-" as an option unless it is a
    # lone negative number, so "-z -3,0" or "-z -inf" would leave -z without
    # its value.  Such a token after an option is that option's value,
    # attached to it as "-z=-3,0".
    out: list[str] = []
    for arg in argv:
        if (_NEGATIVE_VALUE.match(arg) and out and out[-1][:1] == "-"
                and not _NEGATIVE_VALUE.match(out[-1]) and "=" not in out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse(argv: list[str]) -> argparse.Namespace:
    # By the subcommand's parser alone when argv[0] names one, else (no
    # arguments, -h, an unknown command) by the full parser.
    parser, subparsers = _shared_parser()
    argv = _attach_negative_values(argv)
    sub = subparsers.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
