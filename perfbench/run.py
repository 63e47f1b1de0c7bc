"""Run one besselhyp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_p2 --seed 1 --seconds 10 --trace 0

Run it from the repository root; it evaluates the package in ``src/`` of the
same tree.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Human-readable lines (the
environment, every metric with its unit and sample count, the failures by
reason) come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment and, for traced runs, the first ops' raw spans, is also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _end_to_end(result):
    phase, check = result["phase"], result["check"]
    setup_s, _ = result["setup"]
    points_per_s, p50, p95 = phase.end_to_end()
    return {
        "points_per_s": (points_per_s, "1/s"),
        "op_us_p50": (p50, "us"),
        "op_us_p95": (p95, "us"),
        "setup_s": (setup_s, "s"),
        "pass_frac": (1 - check.failed / check.attempted, "frac"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }


def _report(lines, metrics, counts):
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:36s} {value:14.6g} {unit:12s} {counts.get(name, '')}")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "besselhyp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'besselhyp'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    import besselhyp

    if Path(besselhyp.__file__).resolve().parent != SRC / "besselhyp":
        print(f"error: imported besselhyp from {besselhyp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed)
    env = harness.environment(args.workload, args.seed, args.trace, args.seconds)
    lines = [f"environment: {json.dumps(env)}"]
    if args.trace:
        result = harness.run_traced(workload, args.seconds)
        metrics = result["metrics"]
        tracer = result["tracer"]
        counts = {name: f"traced ops={tracer.ops} points={tracer.points}" for name in metrics}
        for name in ("readme.approx_us_per_point", "readme.oracle_us_per_point",
                     "readme.speedup_vs_oracle"):
            counts[name] = (f"rounds={result['oracle_rounds']} "
                            f"points={len(workload.distinct_points())}")
        counts["trace.overhead_frac"] = (f"plain points={result['plain'].points} "
                                         f"traced points={result['traced'].points}")
        extra = {"spans_sample": tracer.sample,
                 "span_self_ns": dict(tracer.self_ns), "span_calls": dict(tracer.calls)}
    else:
        result = harness.run_untraced(workload, args.seconds)
        metrics = _end_to_end(result)
        phase, check = result["phase"], result["check"]
        _, setup_times = result["setup"]
        counts = {
            "points_per_s": (f"points={phase.points} ops={phase.ops} "
                             f"wall={phase.wall_points_per_s:.6g}/s"),
            "op_us_p50": f"ops={len(workload.ops)} timings={phase.samples}",
            "op_us_p95": f"ops={len(workload.ops)} timings={phase.samples}",
            "setup_s": f"starts={len(setup_times)}",
            "pass_frac": f"points={check.attempted}",
            "peak_rss_mb": "process=1",
        }
        extra = {"setup_times_s": setup_times}
    check = result["check"]
    lines.append(f"workload {args.workload} seed {args.seed} trace {args.trace}:")
    _report(lines, metrics, counts)
    fail_frac = check.failed / check.attempted
    lines.append(f"  fail_frac {fail_frac:.6g} ({check.failed}/{check.attempted} points); "
                 f"by reason: {dict(sorted(check.reasons.items()))}")

    payload = {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"environment": env, **payload, "fail_reasons": dict(check.reasons), **extra}
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    lines.append(f"  written to {out_file.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
