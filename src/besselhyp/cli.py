"""Command-line front end: eval, table, coeffs, scaling, bench, identities.

Reports go to stdout as CSV (default) or JSON.  CSV columns are stable:

    kind,n,p,z,approx,oracle,abs_err,rel_err,ns,flag

Values are printed in scientific notation with 17 significant digits;
error columns use 2 significant digits unless --full is given.  When the
oracle is exactly zero the rel_err column carries the absolute error and
the flag column reads "abs".

Exit codes: 0 success, 2 argument error, 3 domain violation (n >= 4p, or
an approximant beyond binary64 range), 4 internal consistency failure
(identity residual beyond tolerance).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass
from functools import cache

from .analysis import fit_error_slope
from .approximation import ApproxRequest, DomainError, evaluate
from .coefficients import derive_expansion
from .reference import SeriesPolicy, identity_residual, ref_I, ref_J

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CONSISTENCY = 4

CSV_HEADER = "kind,n,p,z,approx,oracle,abs_err,rel_err,ns,flag"


@dataclass(frozen=True)
class EvalReport:
    """One approximant-versus-oracle comparison row."""

    kind: str
    n: int
    p: int
    z: float
    approx: float
    oracle: float
    abs_err: float
    rel_err: float
    ns: int
    rel_err_is_abs: bool = False


def make_report(kind: str, n: int, p: int, z: float,
                eps: float | None = None) -> EvalReport:
    req = ApproxRequest(kind=kind, n=n, p=p, z=z, eps=eps)
    start = time.perf_counter_ns()
    value = evaluate(req)
    elapsed = time.perf_counter_ns() - start
    oracle = ref_I(n, z) if kind == "I" else ref_J(n, z)
    abs_err = abs(value - oracle)
    if oracle != 0.0:
        return EvalReport(kind, n, p, req.z, value, oracle, abs_err,
                          abs_err / abs(oracle), elapsed)
    return EvalReport(kind, n, p, req.z, value, oracle, abs_err, abs_err,
                      elapsed, rel_err_is_abs=True)


def _report_csv(r: EvalReport, full: bool) -> str:
    err = "{:.16e}" if full else "{:.1e}"
    return ",".join([
        r.kind, str(r.n), str(r.p), f"{r.z:.16e}", f"{r.approx:.16e}",
        f"{r.oracle:.16e}", err.format(r.abs_err), err.format(r.rel_err),
        str(r.ns), "abs" if r.rel_err_is_abs else "",
    ])


def _report_dict(r: EvalReport) -> dict:
    return {
        "kind": r.kind, "n": r.n, "p": r.p, "z": r.z, "approx": r.approx,
        "oracle": r.oracle, "abs_err": r.abs_err, "rel_err": r.rel_err,
        "ns": r.ns, "flag": "abs" if r.rel_err_is_abs else "",
    }


def _emit_reports(reports: list[EvalReport], fmt: str, full: bool) -> None:
    if fmt == "json":
        print(json.dumps([_report_dict(r) for r in reports], indent=2))
        return
    print(CSV_HEADER)
    for r in reports:
        print(_report_csv(r, full))


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
    report = make_report(args.kind, args.n, args.p, args.z, eps=args.eps)
    _emit_reports([report], args.format, args.full)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    orders = sorted(set(_parse_ints(args.n)))
    zs = sorted(set(_parse_floats(args.z)))
    reports = [
        make_report(args.kind, n, args.p, z, eps=args.eps)
        for n in orders
        for z in zs
    ]
    _emit_reports(reports, args.format, args.full)
    return EXIT_OK


def cmd_coeffs(args: argparse.Namespace) -> int:
    for n in range(1, args.n_max + 1):
        print(" ".join(str(c) for c in derive_expansion(n).coefficients()))
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    if not (0.0 < args.z_min < args.z_max <= 1.0):
        raise ValueError("scaling fit needs 0 < z-min < z-max <= 1")
    if args.samples < 8:
        raise ValueError(f"scaling fit needs >= 8 samples, got {args.samples}")
    if args.n >= 4 * args.p:
        raise DomainError(f"order n={args.n} needs n < 4p = {4 * args.p}")
    slope = fit_error_slope(args.kind, args.n, args.p, args.z_min, args.z_max,
                            args.samples, dps=args.dps)
    # The approximant first departs from I_n at z**(4p - n), or at its own
    # leading term z**n once n > 2p.
    expected = max(4 * args.p - args.n, args.n)
    if args.format == "json":
        print(json.dumps({
            "kind": args.kind, "n": args.n, "p": args.p,
            "z_min": args.z_min, "z_max": args.z_max,
            "samples": args.samples, "slope": slope, "expected": expected,
        }, indent=2))
    else:
        print("kind,n,p,z_min,z_max,samples,slope,expected")
        print(f"{args.kind},{args.n},{args.p},{args.z_min},{args.z_max},"
              f"{args.samples},{slope:.4f},{expected}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {args.repetitions}")
    zs = _parse_floats(args.z)
    requests = [ApproxRequest(kind=args.kind, n=args.n, p=args.p, z=z, eps=args.eps)
                for z in zs]
    oracle = ref_I if args.kind == "I" else ref_J
    policy = SeriesPolicy()

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
            oracle(args.n, z, policy)
        oracle_samples.append((time.perf_counter_ns() - start) / len(zs))

    approx_ns = statistics.median(approx_samples)
    oracle_ns = statistics.median(oracle_samples)
    if args.format == "json":
        print(json.dumps({
            "kind": args.kind, "n": args.n, "p": args.p, "points": len(zs),
            "repetitions": args.repetitions, "approx_ns_median": approx_ns,
            "oracle_ns_median": oracle_ns,
        }, indent=2))
    else:
        print("kind,n,p,points,repetitions,approx_ns_median,oracle_ns_median")
        print(f"{args.kind},{args.n},{args.p},{len(zs)},{args.repetitions},"
              f"{approx_ns:.1f},{oracle_ns:.1f}")
    return EXIT_OK


def cmd_identities(args: argparse.Namespace) -> int:
    ps = sorted(set(_parse_ints(args.p)))
    zs = _parse_floats(args.z)
    rows: list[tuple[str, str, float]] = []
    for tag in ("N2", "N4", "N8"):
        worst = max(abs(identity_residual(tag, z)) for z in zs)
        rows.append((tag, "", worst))
    for p in ps:
        for tag in ("N4P", "J4P"):
            worst = max(abs(identity_residual(tag, z, p=p)) for z in zs)
            rows.append((tag, str(p), worst))
    if args.format == "json":
        print(json.dumps([
            {"identity": tag, "p": p or None, "max_abs_residual": worst}
            for tag, p, worst in rows
        ], indent=2))
    else:
        print("identity,p,max_abs_residual")
        for tag, p, worst in rows:
            print(f"{tag},{p},{worst:.1e}")
    overall = max(worst for _, _, worst in rows)
    if overall > args.tol:
        print(f"identity residual {overall:.3e} exceeds tolerance {args.tol:.3e}",
              file=sys.stderr)
        return EXIT_CONSISTENCY
    return EXIT_OK


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--full", action="store_true",
                        help="print error columns at full precision")


def build_parser() -> argparse.ArgumentParser:
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
    p_eval.add_argument("--eps", type=float, default=None,
                        help="|z| below which the series is forced")
    _add_format_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="error table over an (n, z) grid")
    p_table.add_argument("--kind", choices=("I", "J"), default="I")
    p_table.add_argument("-n", default="0,1,2,3", help="comma list of orders")
    p_table.add_argument("-p", type=int, default=2)
    p_table.add_argument("-z", default="1,2,3,4",
                         help="comma list or a:b:steps range")
    p_table.add_argument("--eps", type=float, default=None)
    _add_format_flags(p_table)
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
                           help="working digits for the error measurement")
    _add_format_flags(p_scaling)
    p_scaling.set_defaults(func=cmd_scaling)

    p_bench = sub.add_parser("bench", help="median ns/eval, approximant vs oracle")
    p_bench.add_argument("--kind", choices=("I", "J"), default="I")
    p_bench.add_argument("-n", type=int, required=True)
    p_bench.add_argument("-p", type=int, required=True)
    p_bench.add_argument("-z", default="0.5:4:8")
    p_bench.add_argument("--eps", type=float, default=None)
    p_bench.add_argument("--repetitions", type=int, default=100)
    _add_format_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_ident = sub.add_parser("identities", help="node-sum identity residual suite")
    p_ident.add_argument("-p", default="1,2,3", help="comma list of parameters")
    p_ident.add_argument("-z", default="0.5,1,2,4")
    p_ident.add_argument("--tol", type=float, default=1e-12)
    _add_format_flags(p_ident)
    p_ident.set_defaults(func=cmd_identities)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls, and
    # the build costs about a millisecond, more than a table row.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
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
