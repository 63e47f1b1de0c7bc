"""Tests of the benchmark itself: seeding, self time, failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import besselhyp
from besselhyp import analysis, approximation
from perfbench import checks, harness
from perfbench.trace import Tracer, cross_module_spans, layer_metrics, self_times
from perfbench.workloads import WORKLOADS, Workload, make_workload

ROOT = Path(__file__).resolve().parents[2]


def _ops(workload):
    return [(op.points, op.argv, op.rows) for op in workload.ops]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_workload(name):
    assert _ops(make_workload(name, 7)) == _ops(make_workload(name, 7))


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_other_workload_same_mix(name):
    one, two = make_workload(name, 7), make_workload(name, 8)
    assert _ops(one) != _ops(two)
    # The arguments and the order change; the cost mix does not, except for
    # the orders cli_table draws.
    key = (lambda pt: (pt[0], pt[2])) if name == "cli_table" else (lambda pt: pt[:3])

    def mix(workload):
        return Counter(key(pt) for op in workload.ops for pt in op.points)

    assert mix(one) == mix(two)


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 100]: children a [10, 40] and b [50, 90], plus c [80, 95]
    # overlapping b; a has a grandchild [20, 30]; d runs past its parent.
    spans = [
        ("bench.op", 0, 100, -1, 0),
        ("x.a", 10, 40, 0, 0),
        ("x.g", 20, 30, 1, 0),
        ("x.b", 50, 90, 0, 0),
        ("x.c", 80, 95, 0, 0),
        ("x.d", 85, 99, 3, 0),
    ]
    assert self_times(spans) == [100 - 30 - 45, 30 - 10, 10, 40 - 5, 15, 14]


def _small_library_workload(count=6):
    full = make_workload("paper_p2", 3)
    return Workload("paper_p2", full.ops[:count])


def test_stub_evaluator_failures_are_counted():
    workload = _small_library_workload()
    nan_point = workload.ops[1].points[0]
    wrong_point = workload.ops[4].points[0]

    def stub(req):
        value = besselhyp.evaluate(req)
        point = (req.kind, req.n, req.p, req.z)
        if point == nan_point:
            return math.nan
        if point == wrong_point:
            return value * (1 + 1e-6)
        return value

    call = harness.library_call(besselhyp.ApproxRequest, stub)
    first = harness.warm_up(workload.ops, call)
    last = list(first)
    harness.timed_phase(workload.ops, call, last, seconds=0.05)
    result = checks.check_library(workload, first, last, analysis.hp_approx)
    assert result.attempted == 6
    assert result.failed == 2
    assert result.reasons == Counter({"nonfinite": 1, "twin": 1})
    assert not result.correct


def test_raising_op_is_counted_not_fatal():
    workload = _small_library_workload(3)

    def stub(req):
        raise ValueError("stub")

    call = harness.library_call(besselhyp.ApproxRequest, stub)
    first = harness.warm_up(workload.ops, call)
    last = list(first)
    harness.timed_phase(workload.ops, call, last, seconds=0.01)
    result = checks.check_library(workload, first, last, analysis.hp_approx)
    assert (result.attempted, result.failed) == (3, 3)
    assert result.reasons == Counter({"raised": 3})


def test_true_evaluator_passes_paper_regime():
    workload = _small_library_workload()
    call = harness.library_call(besselhyp.ApproxRequest, besselhyp.evaluate)
    first = harness.warm_up(workload.ops, call)
    result = checks.check_library(workload, first, list(first), analysis.hp_approx)
    assert (result.failed, result.correct) == (0, True)


def test_twin_digits_cover_the_cancellation():
    # Worst corner of the high_order domain: top order, smallest argument.
    for kind, n, p, z in [("I", 31, 8, 0.06), ("J", 28, 8, 9.1), ("J", 27, 8, 6.98)]:
        dps = checks.twin_dps(kind, n, p, z)
        twin = analysis.hp_approx(kind, n, p, z, dps=dps)
        wider = analysis.hp_approx(kind, n, p, z, dps=dps + 40)
        assert checks.rel_err(twin, wider) < 1e-20


def test_traced_run_records_layers_and_restores_names():
    originals = {name: getattr(approximation, name)
                 for name in ("kernel_sinh", "kernel_cosh", "make_nodes", "derive_expansion")}
    workload = _small_library_workload()
    tracer = Tracer()
    call = harness.library_call(tracer.wrap_request(besselhyp.ApproxRequest),
                                tracer.wrap("approximation.evaluate", besselhyp.evaluate))
    root = tracer.wrap("bench.op", call)
    with cross_module_spans(tracer):
        harness.timed_phase(workload.ops, root, [None] * len(workload.ops), passes=3,
                            after_op=tracer.end_op)
    tracer.fold()
    for name, fn in originals.items():
        assert getattr(approximation, name) is fn
    metrics = layer_metrics(tracer, (0, 0))
    assert metrics["kernels.calls_per_point"][0] >= 1
    assert metrics["approximation.request_us"][0] > 0
    assert metrics["reference.calls_per_point"][0] == 0  # layer idle, not an error
    assert 0 < metrics["trace.layer_sum_frac"][0] <= 1


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_p2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
