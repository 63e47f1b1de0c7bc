"""Seeded workload generation.

A workload is a fixed list of operations built from ``--seed`` alone; the
timed phase loops over it.  Every seed gives each ``(kind, p)`` the same
number of ops and points, and each ``(kind, n, p)`` too except in
``cli_table``, whose orders are drawn one from each quarter of [0, 4p).  A
seed redraws only the arguments (stratified, so each seed sees the same
spread of ``z``), those orders and the op order.  That keeps the cost mix,
and so the run-to-run spread, nearly independent of the seed.

This module imports nothing from ``besselhyp``: the set-up measurement must
see the package imported for the first time.
"""

from __future__ import annotations

import random

#: Workload name -> the module a user imports to run it.
ENTRY = {
    "paper_p2": "besselhyp",
    "high_order": "besselhyp",
    "cli_table": "besselhyp.cli",
    "cli_scaling": "besselhyp.cli",
}

WORKLOADS = tuple(ENTRY)

HIGH_ORDER_BATCH = 8
TABLE_STEPS = 8
SCALING_SAMPLES = 8
SCALING_DPS = (80, 100)


class Op:
    """One closed-loop operation: a library batch or one CLI invocation.

    ``points`` are the ``(kind, n, p, z)`` values the operation completes;
    ``argv`` is the CLI argument list, or ``None`` for a library call;
    ``rows`` is the number of CSV data rows a CLI invocation prints.
    """

    __slots__ = ("points", "argv", "rows")

    def __init__(self, points, argv=None, rows=0):
        self.points = tuple(points)
        self.argv = None if argv is None else tuple(argv)
        self.rows = rows


class Workload:
    """A named, seeded list of operations and the module that serves them."""

    __slots__ = ("name", "entry", "ops")

    def __init__(self, name, ops):
        self.name = name
        self.entry = ENTRY[name]
        self.ops = ops

    @property
    def is_cli(self):
        return self.ops[0].argv is not None

    def distinct_points(self):
        """Every point of one pass, in pass order (duplicates kept once)."""
        return list(dict.fromkeys(pt for op in self.ops for pt in op.points))


def _stratified(rng, lo, hi, count):
    # One uniform draw in each of ``count`` equal sub-intervals of [lo, hi].
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _paper_p2(rng):
    # The paper's table regime: p = 2, n = 0..3, z in [1, 4], one point per op.
    points = [
        (kind, n, 2, z)
        for kind in "IJ"
        for n in range(4)
        for z in _stratified(rng, 1.0, 4.0, 125)
    ]
    rng.shuffle(points)
    return [Op([pt]) for pt in points]


def _high_order(rng):
    # Every n < 4p for p = 4..8; z spans the whole range, so the small-|z|
    # fallback and the cancellation just above it are both in the mix.
    ops = []
    for kind in "IJ":
        for p in range(4, 9):
            hi = min(4.0 * p, 30.0)
            for n in range(4 * p):
                zs = _stratified(rng, 0.05, hi, HIGH_ORDER_BATCH)
                ops.append(Op([(kind, n, p, z) for z in zs]))
    rng.shuffle(ops)
    return ops


def _table_grid(lo, hi, steps):
    # The same inclusive linear range the CLI builds from "lo:hi:steps".
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _cli_table(rng):
    ops = []
    for kind in "IJ":
        for p in range(1, 9):
            for _ in range(2):
                # One order from each quarter of [0, 4p).
                orders = sorted({rng.randrange(i * p, (i + 1) * p) for i in range(4)})
                lo = rng.uniform(0.05, 0.5)
                # The top of the range stays below the oracle's |z| <= 30:
                # the CLI's grid can round its last point past an end at 30.
                hi = min(4.0 * p, 30.0) * rng.uniform(0.9, 1.0)
                argv = ["table", "--kind", kind, "-p", str(p),
                        "-n", ",".join(map(str, orders)),
                        "-z", f"{lo!r}:{hi!r}:{TABLE_STEPS}"]
                zs = _table_grid(lo, hi, TABLE_STEPS)
                points = [(kind, n, p, z) for n in orders for z in zs]
                ops.append(Op(points, argv, rows=len(points)))
    rng.shuffle(ops)
    return ops


def _scaling_grid(lo, hi, samples):
    # Geometric grid like the fit's; used only to count and name the points.
    return [lo * (hi / lo) ** (i / (samples - 1)) for i in range(samples)]


def _cli_scaling(rng):
    ops = []
    for kind in "IJ":
        for p in range(1, 5):
            for n in range(4 * p):
                # One call per (kind, n, p), so each call is timed on more
                # passes; the two precisions alternate with n.
                dps = SCALING_DPS[n % 2]
                z_min = rng.uniform(0.08, 0.12)
                z_max = rng.uniform(0.4, 0.6)
                argv = ["scaling", "--kind", kind, "-n", str(n), "-p", str(p),
                        "--z-min", repr(z_min), "--z-max", repr(z_max),
                        "--samples", str(SCALING_SAMPLES), "--dps", str(dps)]
                points = [(kind, n, p, z)
                          for z in _scaling_grid(z_min, z_max, SCALING_SAMPLES)]
                ops.append(Op(points, argv, rows=1))
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "paper_p2": _paper_p2,
    "high_order": _high_order,
    "cli_table": _cli_table,
    "cli_scaling": _cli_scaling,
}


def make_workload(name, seed):
    """Build workload ``name`` from ``seed``; the same seed gives the same ops."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, _BUILDERS[name](rng))


def first_ops(workload):
    """The ops, in pass order, that first reach each distinct (kind, n, p)."""
    seen = set()
    chosen = []
    for op in workload.ops:
        keys = {pt[:3] for pt in op.points}
        if not keys <= seen:
            seen |= keys
            chosen.append(op)
    return chosen
