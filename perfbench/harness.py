"""Timed closed loop, cold-start set-up, oracle comparison and environment.

Every workload runs as a closed loop with one caller in this process: the
next op starts when the previous one returns.  There are no threads, and no
subprocesses while the clock runs.  A warm-up pass (untimed) fills the
package's caches and records each op's output; the timed phase then loops
over the ops until the time is up and keeps the latest output of each op
for the repeat check.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from importlib import metadata
from pathlib import Path

from . import checks
from .trace import Tracer, cross_module_spans, layer_metrics
from .workloads import first_ops

ROOT = Path(__file__).resolve().parent.parent

#: Op times are kept in a fixed ring so the harness's memory does not grow
#: with the program's speed; the ring holds the latest 2**20 ops.
RING_BITS = 20

#: Cold starts per window: at least the first number, and more, up to the
#: second, while the window has lasted under ``SETUP_SECONDS``.  A run has
#: two windows, before and after the timed phase, so that the median spans
#: two states of the shared machine.
SETUP_REPEATS = (3, 11)
SETUP_SECONDS = 1.5
ORACLE_SECONDS = 1.0


class Phase:
    """Outcome of one timed phase.

    The machine is shared, and neighbours' load slows every op by up to 2x
    for stretches of a fraction of a second to minutes (the process's CPU
    time grows with its wall time, so this is slower execution, not
    waiting).  Each op is timed on every pass, and its *quiet time* is the
    fastest of its timings; the speed metrics are built from quiet times,
    so they measure the program rather than the neighbours as long as each
    op runs undisturbed at least once.  In trials on this kind of machine the
    fastest timing varied least from run to run; the 5th, 10th and 25th
    percentiles varied more.
    """

    def __init__(self, ops):
        self.sizes = [len(op.points) for op in ops]
        self.ring = array("q", bytes(8 << RING_BITS))
        self.ops = 0
        self.points = 0
        self.elapsed_ns = 0

    @property
    def samples(self):
        """Op timings kept in the ring."""
        return min(self.ops, len(self.ring))

    def quiet_ns(self):
        """Quiet time of each op, in pass order, in nanoseconds."""
        count = len(self.sizes)
        mask = len(self.ring) - 1
        timings = [[] for _ in range(count)]
        # Timing k belongs to op k % count: every pass starts at op 0.
        for k in range(self.ops - self.samples, self.ops):
            timings[k % count].append(self.ring[k & mask])
        return [min(ts) for ts in timings if ts]

    def end_to_end(self):
        """``points_per_s``, ``op_us_p50`` and ``op_us_p95`` from quiet times."""
        quiet = self.quiet_ns()
        cuts = statistics.quantiles(quiet, n=100, method="inclusive")
        points = sum(self.sizes[:len(quiet)])
        return points / (sum(quiet) * 1e-9), cuts[49] * 1e-3, cuts[94] * 1e-3

    @property
    def wall_points_per_s(self):
        return self.points / (self.elapsed_ns * 1e-9)


def library_call(request, evaluate):
    """Op runner for library workloads: one request and evaluation per point."""
    def call(op):
        return [evaluate(request(kind, n, p, z)) for kind, n, p, z in op.points]
    return call


def cli_call(main):
    """Op runner for CLI workloads: one in-process invocation, stdout captured."""
    def call(op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(op.argv))
        return code, buf.getvalue()
    return call


def warm_up(ops, call):
    """One untimed pass; returns each op's output or the exception it raised."""
    outs = []
    for op in ops:
        try:
            outs.append(call(op))
        except Exception as exc:  # a failing op is counted, not fatal
            outs.append(exc)
    return outs


def timed_phase(ops, call, last, *, seconds=None, passes=None, phase=None,
                after_op=None):
    """Time ``call`` on each op in turn, pass after pass, and return the
    phase, or add to ``phase``.  Stops once ``seconds`` have passed (even
    mid-pass) or ``passes`` whole passes are done.  Op outputs go into
    ``last``; ``after_op``, if given, runs between ops, off the clock."""
    phase = Phase(ops) if phase is None else phase
    clock = time.perf_counter_ns
    ring = phase.ring
    mask = len(ring) - 1
    sizes = phase.sizes
    done, points = phase.ops, phase.points
    start = end = clock()
    deadline = start + int(seconds * 1e9) if seconds is not None else None
    stop = False
    completed = 0
    while not stop:
        for j, op in enumerate(ops):
            t0 = clock()
            try:
                last[j] = call(op)
            except Exception as exc:
                last[j] = exc
            end = clock()
            if after_op is not None:
                after_op(op)
            ring[done & mask] = end - t0
            done += 1
            points += sizes[j]
            if deadline is not None and end >= deadline:
                stop = True
                break
        completed += 1
        stop = stop or completed == passes
    phase.ops, phase.points = done, points
    phase.elapsed_ns += end - start
    return phase


def cold_starts(workload, drop_first=False):
    """Seconds, in fresh interpreters, to import the entry module and finish
    the first op of each distinct (kind, n, p); one window of starts.

    ``drop_first`` runs one extra start first and drops it: it writes the
    package's bytecode cache, which a user pays once per install, not per
    start.
    """
    lines = []
    for op in first_ops(workload):
        if op.argv is None:
            lines.append("\t".join(["L"] + [f"{k},{n},{p},{z!r}" for k, n, p, z in op.points]))
        else:
            lines.append("\t".join(["C", *op.argv]))
    stdin = "\n".join(lines) + "\n"
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_child.py"), workload.entry]
    least, most = SETUP_REPEATS
    least, most = least + drop_first, most + drop_first
    times = []
    budget = time.perf_counter() + SETUP_SECONDS
    while len(times) < least or (len(times) < most and time.perf_counter() < budget):
        done = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              cwd=ROOT, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times[1:] if drop_first else times


def peak_rss_mb():
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def oracle_comparison(points, request, evaluate, ref_i, ref_j, seconds=ORACLE_SECONDS):
    """Median per-point microseconds of request + evaluate and of the oracle
    on the same points, over alternating rounds lasting ``seconds`` in all."""
    clock = time.perf_counter_ns
    approx, oracle = [], []
    budget = clock() + int(seconds * 1e9)
    while len(approx) < 3 or clock() < budget:
        t0 = clock()
        for kind, n, p, z in points:
            evaluate(request(kind, n, p, z))
        t1 = clock()
        for kind, n, p, z in points:
            (ref_i if kind == "I" else ref_j)(n, z)
        t2 = clock()
        approx.append((t1 - t0) * 1e-3 / len(points))
        oracle.append((t2 - t1) * 1e-3 / len(points))
    return statistics.median(approx), statistics.median(oracle), len(approx)


def _git_sha():
    # Read .git directly: the benchmark may run from a checkout with no git.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(workload, seed, trace, seconds):
    """Where and how the run was made; versions come from package metadata so
    that reading them imports nothing."""
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
    }


def _load(workload):
    package = importlib.import_module("besselhyp")
    entry = importlib.import_module(workload.entry)
    return package, entry


def _check(workload, package, first, last):
    from besselhyp import analysis  # the twins need mpmath; import after timing

    if workload.name == "cli_table":
        return checks.check_table(workload, first, last, package.ApproxRequest,
                                  package.evaluate, analysis.hp_ref)
    if workload.name == "cli_scaling":
        return checks.check_scaling(workload, first, last)
    return checks.check_library(workload, first, last, analysis.hp_approx)


def _runner(workload, package, entry):
    if workload.is_cli:
        return cli_call(entry.main)
    return library_call(package.ApproxRequest, package.evaluate)


def run_untraced(workload, seconds):
    """End-to-end run: cold starts, warm-up, timed phase, RSS, the check,
    and cold starts again."""
    setup_times = cold_starts(workload, drop_first=True)
    package, entry = _load(workload)
    call = _runner(workload, package, entry)
    first = warm_up(workload.ops, call)
    last = list(first)
    phase = timed_phase(workload.ops, call, last, seconds=seconds)
    rss = peak_rss_mb()
    check = _check(workload, package, first, last)
    setup_times += cold_starts(workload)
    return {"setup": (statistics.median(setup_times), setup_times), "phase": phase,
            "rss_mb": rss, "check": check}


def _cache_info():
    # (hits, misses) of derive_expansion's cache, or None without one.
    module = sys.modules.get("besselhyp.coefficients")
    info = getattr(getattr(module, "derive_expansion", None), "cache_info", None)
    return info()[:2] if info is not None else None


def run_traced(workload, seconds):
    """Layer run: untraced and traced passes alternate for ``seconds``, so
    both see the same machine; then the oracle comparison on the workload's
    points, and the check."""
    package, entry = _load(workload)
    ops = workload.ops
    call = _runner(workload, package, entry)
    first = warm_up(ops, call)
    last = list(first)

    tracer = Tracer()
    if workload.is_cli:
        traced_call = cli_call(tracer.wrap("cli.main", entry.main))
    else:
        traced_call = library_call(tracer.wrap_request(package.ApproxRequest),
                                   tracer.wrap("approximation.evaluate", package.evaluate))
    root = tracer.wrap("bench.op", traced_call)
    plain, traced = Phase(ops), Phase(ops)
    before = _cache_info()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        timed_phase(ops, call, last, passes=1, phase=plain)
        with cross_module_spans(tracer):
            timed_phase(ops, root, last, passes=1, phase=traced, after_op=tracer.end_op)
    tracer.fold()
    after = _cache_info()
    cache_delta = ((after[0] - before[0], after[1] - before[1])
                   if before is not None else (0, 0))

    metrics = layer_metrics(tracer, cache_delta)
    # From quiet op times, like the end-to-end metrics; the folding done
    # between traced ops is outside them.
    overhead = plain.end_to_end()[0] / traced.end_to_end()[0] - 1
    metrics["trace.overhead_frac"] = (overhead, "frac")
    approx_us, oracle_us, rounds = oracle_comparison(
        workload.distinct_points(), package.ApproxRequest, package.evaluate,
        package.ref_I, package.ref_J)
    metrics["readme.approx_us_per_point"] = (approx_us, "us")
    metrics["readme.oracle_us_per_point"] = (oracle_us, "us")
    metrics["readme.speedup_vs_oracle"] = (oracle_us / approx_us, "ratio")
    check = _check(workload, package, first, last)
    return {"plain": plain, "traced": traced, "tracer": tracer, "metrics": metrics,
            "oracle_rounds": rounds, "check": check}
