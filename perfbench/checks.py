"""Correctness checks, run after the timed phase.

Every distinct point of a pass is checked; nothing is filtered, so the known
defects (wrong values just above the small-|z| threshold for n >= 9, the
0.0 fallback for 2p <= n < 4p, the J oracle's cancellation at large |z|,
scaling slopes of n instead of 4p - n for n > 2p) all count as failed
points.

Two kinds of failure are kept apart:

* ``broken``: a check that holds at the commit that defined this benchmark
  failed: an op raised, returned a non-finite value, gave a different answer
  on a later pass, or a CLI row did not match the library bit for bit.  Any
  broken point clears ``correct``.
* accuracy misses against the wide-precision twin (``analysis.hp_approx``
  for approximant values, ``analysis.hp_ref`` for oracle values) and slope
  misses: counted in ``failed`` only.
"""

from __future__ import annotations

import math
from collections import Counter

REL_TOL = 1e-8
SLOPE_TOL = 0.25
TWIN_GUARD_DIGITS = 30


class CheckResult:
    """Attempted and failed point counts, with failures counted by reason."""

    BROKEN = ("raised", "nonfinite", "repeat", "cli_shape", "cli_roundtrip")

    def __init__(self):
        self.attempted = 0
        self.reasons = Counter()
        self._failed = set()

    def add(self, key, reason=None):
        self.attempted += 1
        if reason is not None:
            self.fail(key, reason)

    def fail(self, key, reason):
        self.reasons[reason] += 1
        self._failed.add(key)

    @property
    def failed(self):
        return len(self._failed)

    @property
    def correct(self):
        return not any(self.reasons[r] for r in self.BROKEN)


def rel_err(value, twin):
    """Relative error against ``twin``; absolute error when ``twin`` is zero."""
    err = abs(value - twin)
    return float(err / abs(twin)) if twin != 0 else float(err)


def twin_dps(kind, n, p, z):
    """Working digits for ``hp_approx`` at one point.

    The assembly sums terms (2n-q-1)!/(2^(n-q) (q-1)! (n-q)!) * z^(q-n) *
    kernel_q(z), q = 1..n, whose size can exceed the result's by many orders
    near z = 0.  The digits that cancellation eats are estimated from those
    coefficients, a kernel bound (2p-1) cosh|z| (2p-1 for J) and the
    result's leading term (|z|/2)^n / n!, and a guard of
    ``TWIN_GUARD_DIGITS`` is added on top.
    """
    if n == 0 or z == 0:
        return TWIN_GUARD_DIGITS
    az = abs(z)
    ln10 = math.log(10)
    kernel = math.log10(2 * p - 1) + (az / ln10 if kind == "I" else 0.0)
    terms = [
        (math.lgamma(2 * n - q) - (n - q) * math.log(2) - math.lgamma(q)
         - math.lgamma(n - q + 1)) / ln10 + (q - n) * math.log10(az) + kernel
        for q in range(1, n + 1)
    ]
    top = max(terms)
    size = top + math.log10(sum(10 ** (t - top) for t in terms))
    lead = n * math.log10(az / 2) - math.lgamma(n + 1) / ln10
    if kind == "J":
        lead = min(lead, 0.0)
    lost = size - lead - math.log10(2 * p)
    return TWIN_GUARD_DIGITS + max(0, math.ceil(lost))


def _value_problem(value, repeat):
    # Reason a returned value is broken, or None.
    if isinstance(value, BaseException):
        return "raised"
    if not isinstance(value, float) or not math.isfinite(value):
        return "nonfinite"
    if repeat != value:
        return "repeat"
    return None


def check_library(workload, first, last, hp_approx):
    """Check library ops: ``first``/``last`` hold each op's list of values
    (or the exception it raised) from the warm-up pass and the last pass."""
    result = CheckResult()
    for j, op in enumerate(workload.ops):
        for i, (kind, n, p, z) in enumerate(op.points):
            key = (j, i)
            values = first[j]
            if isinstance(values, BaseException):
                result.add(key, "raised")
                continue
            repeats = last[j]
            repeat = repeats if isinstance(repeats, BaseException) else repeats[i]
            problem = _value_problem(values[i], repeat)
            if problem is not None:
                result.add(key, problem)
                continue
            twin = hp_approx(kind, n, p, z, dps=twin_dps(kind, n, p, z))
            result.add(key, "twin" if rel_err(values[i], twin) > REL_TOL else None)
    return result


def _csv_rows(text):
    lines = [line for line in text.splitlines() if line]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _without_ns(text):
    # The ns column is a clock reading; everything else must repeat exactly.
    header, rows = _csv_rows(text)
    keep = [i for i, col in enumerate(header) if col != "ns"]
    return [[row[i] for i in keep] for row in rows]


def check_table(workload, first, last, approx_request, evaluate, hp_ref):
    """Check ``table`` invocations: ``first``/``last`` hold ``(exit code,
    stdout)`` pairs, or the exception an invocation raised."""
    result = CheckResult()
    for j, op in enumerate(workload.ops):
        out = first[j]
        if isinstance(out, BaseException) or out[0] != 0:
            for i in range(len(op.points)):
                result.add((j, i), "raised")
            continue
        header, rows = _csv_rows(out[1])
        if len(rows) != len(op.points):
            for i in range(len(op.points)):
                result.add((j, i), "cli_shape")
            continue
        again = last[j]
        repeated = (not isinstance(again, BaseException) and again[0] == 0
                    and _without_ns(again[1]) == _without_ns(out[1]))
        col = {name: i for i, name in enumerate(header)}
        for i, row in enumerate(rows):
            key = (j, i)
            result.add(key)
            kind, n, p = row[col["kind"]], int(row[col["n"]]), int(row[col["p"]])
            z = float(row[col["z"]])
            approx, oracle = float(row[col["approx"]]), float(row[col["oracle"]])
            if not repeated:
                result.fail(key, "repeat")
            if not (math.isfinite(approx) and math.isfinite(oracle)):
                result.fail(key, "nonfinite")
                continue
            if (kind, n, p) != op.points[i][:3]:
                result.fail(key, "cli_shape")
            if approx != evaluate(approx_request(kind, n, p, z)):
                result.fail(key, "cli_roundtrip")
            if rel_err(oracle, hp_ref(kind, n, z, dps=60)) > REL_TOL:
                result.fail(key, "oracle_twin")
    return result


def check_scaling(workload, first, last):
    """Check ``scaling`` invocations: the fitted slope must equal the row's own
    ``expected`` column within ``SLOPE_TOL``.  Each invocation's points (its
    error samples) pass or fail together."""
    result = CheckResult()
    for j, op in enumerate(workload.ops):
        out = first[j]
        reason = None
        if isinstance(out, BaseException) or out[0] != 0:
            reason = "raised"
        else:
            header, rows = _csv_rows(out[1])
            row = dict(zip(header, rows[0])) if len(rows) == 1 else None
            slope = float(row["slope"]) if row else math.nan
            again = last[j]
            if row is None:
                reason = "cli_shape"
            elif not math.isfinite(slope):
                reason = "nonfinite"
            elif isinstance(again, BaseException) or again != out:
                reason = "repeat"
            elif abs(slope - int(row["expected"])) > SLOPE_TOL:
                reason = "slope"
        for i in range(len(op.points)):
            result.add((j, i), reason)
    return result
