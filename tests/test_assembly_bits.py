"""The compiled assembly against the per-term kernel loop, bit for bit.

``kernel_assemble`` below keeps the kernel-sum assembly as a literal
fixture, the way ``closed_form_p2`` keeps the printed two-node forms: one
``kernel_*`` call (from ``fixtures``) per term, each taking its own
sinh/cosh (sin/cos) values and node powers.  The plan, compiled afresh
and run by ``plan_value`` (from ``fixtures``), takes each transcendental
once per argument but must add and multiply in the same order, so wherever
the fixture is finite the two agree to the last bit.  Where only the
fixture's Horner sum overflows, the fixture over kernels scaled by an exact
2**-m, scaled back by 2**m, is what the assembly must return bit for bit;
where a kernel itself overflows (``inf`` or a raised OverflowError), the
assembly raises Binary64OverflowError.  evaluate, running the plan that
its route record holds, must give ``plan_value``'s bits.  The route record
is the plan's only home: no other cache of the package holds
per-(kind, n, p) state.
"""

import ast
import math
from pathlib import Path

import pytest

from besselhyp import ApproxRequest, Binary64OverflowError, derive_expansion, evaluate, make_nodes
from besselhyp import approximation
from besselhyp.approximation import (
    _j_term_sign,
    _node_weights,
    _route,
    _runner,
    _sum_series,
)
from fixtures import (horner_size, kernel_cos, kernel_cosh, kernel_sin, kernel_sinh, node_power,
                      plan_value)

# Negative and fractional arguments, the cancellation region near zero, and
# both sides of the binary64 edge of sinh/cosh (about 710.48).
ZS = (-720.0, -40.0, -12.5, -3.7, -1.0, -0.31, -1e-3, 1e-3, 0.05, 0.31, 1.0, 2.5,
      3.7, 9.9, 12.5, 29.6, 40.0, 101.3, 709.0, 709.5, 709.78, 710.0, 710.5,
      711.0, 720.0)


def kernel_horner(coeffs, nodes, z, *, trig, m=0):
    # coeffs[i] is a(n, q) for q = i + 1: odd q sinh-like, even q cosh-like;
    # each kernel is scaled by 2**-m.
    sinh_like = kernel_sin if trig else kernel_sinh
    cosh_like = kernel_cos if trig else kernel_cosh
    acc = 0.0
    for q, coeff in enumerate(coeffs, 1):
        if q % 2:
            value = math.ldexp(sinh_like(q, nodes, z), -m)
        else:
            value = math.ldexp(cosh_like(q, nodes, z), -m)
        if trig:
            coeff *= _j_term_sign(q)
        acc = coeff * value if q == 1 else acc / z + coeff * value
    return acc


def kernel_assemble(n, p, z, *, trig, m=0):
    # The assembly over kernels scaled by 2**-m, scaled back by 2**m.
    nodes = make_nodes(p)
    if n == 0:
        cosh_like = kernel_cos if trig else kernel_cosh
        kernel = math.ldexp(cosh_like(0, nodes, z), -m)
        return math.ldexp((math.ldexp(1.0, -m) + kernel) / (2 * p), m)
    acc = kernel_horner(derive_expansion(n), nodes, z, trig=trig, m=m)
    if trig and n % 2:
        acc = -acc
    return math.ldexp(acc / (2 * p), m)


def _fixture(n, p, z, trig, m=0):
    # The fixture's value, with an overflow it raised read as inf.
    try:
        return kernel_assemble(n, p, z, trig=trig, m=m)
    except OverflowError:
        return math.inf


def _scale_exponent(n, p):
    # An m that keeps every scaled term, and their sum, in range: each term
    # is at most |a(n, q)| (2p - 1) times the largest transcendental.
    coeffs = derive_expansion(n) if n else (1,)
    return (2 * p * sum(abs(coeff) for coeff in coeffs)).bit_length()


@pytest.mark.parametrize("p", [*range(1, 9), 12, 16])
@pytest.mark.parametrize("trig", [False, True], ids=["I", "J"])
def test_plan_matches_kernel_loop(p, trig):
    rescaled = overflowed = 0
    for n in range(4 * p):
        for z in ZS:
            want = _fixture(n, p, z, trig)
            if not math.isfinite(want):
                want = _fixture(n, p, z, trig, m=_scale_exponent(n, p))
                rescaled += math.isfinite(want)
            if math.isfinite(want):
                assert plan_value(n, p, z, trig=trig).hex() == want.hex(), (n, p, z)
            else:
                overflowed += 1
                assert abs(z) > 710.4, (n, p, z)  # beyond the edge of cosh
                with pytest.raises(Binary64OverflowError):
                    plan_value(n, p, z, trig=trig)
    if not trig:
        assert overflowed  # the grid reaches the binary64 edge
        assert rescaled  # and values whose Horner sum alone overflows


def _runner_overflows(route, z):
    # Whether the route's runner itself leaves binary64, so that the value is
    # the rescaled run's.
    try:
        return not math.isfinite(route.run(z, route.odd, route.even, route.steps))
    except OverflowError:
        return True


@pytest.mark.parametrize("p", [*range(1, 9), 12, 16])
@pytest.mark.parametrize("kind", "IJ")
def test_evaluate_runs_the_plan_bit_for_bit(p, kind):
    # evaluate runs the plan inline from its route record: wherever it takes
    # the plan, its value is that of a plan compiled afresh (plan_value) to
    # the last bit, the rescaled band below the edge of cosh included, and
    # past the edge it raises as plan_value does.
    trig = kind == "J"
    taken = rescaled = raised = 0
    for n in range(4 * p):
        route = _route(n, p, kind)
        for z in ZS:
            az = abs(z)
            if az < route.series_below and _sum_series(
                    route.lead, route.ratios, n, az, trig) is not None:
                continue  # the series
            if route.bound and horner_size(route.bound, az) > route.reach:
                continue  # the node sum, without the plan
            try:
                want = plan_value(n, p, z, trig=trig)
            except Binary64OverflowError:
                raised += 1
                with pytest.raises(Binary64OverflowError):
                    evaluate(ApproxRequest(kind, n, p, z))
                continue
            if route.bound and horner_size(route.bound, az) > route.limit * abs(want):
                continue  # the plan refused: the node sum
            taken += 1
            rescaled += _runner_overflows(route, z)
            assert evaluate(ApproxRequest(kind, n, p, z)).hex() == want.hex(), (n, z)
    assert taken
    if not trig:
        assert raised and rescaled


def test_zero_argument_still_divides_by_zero():
    with pytest.raises(ZeroDivisionError):
        kernel_assemble(2, 2, 0.0, trig=False)
    with pytest.raises(ZeroDivisionError):
        plan_value(2, 2, 0.0, trig=False)


def test_weight_rows_are_shared_across_orders_and_kinds():
    rows = {q: _node_weights(5, q) for q in range(1, 20)}
    for n in range(1, 20):
        for kind in "IJ":
            steps = _route(n, 5, kind).steps
            for (_, _, row), q in zip(steps, range(1, n + 1), strict=True):
                assert row is rows[q]


def test_plan_builds_only_the_rows_it_uses(monkeypatch):
    # A large p is compiled for the q of its own order only, not for every
    # q < 4p at once: the rows q = 0, 1, 2 of an order-2 plan.
    p = 1009
    monkeypatch.setattr(approximation, "_ROUTES", {})
    monkeypatch.setattr(approximation, "_NODE_WEIGHTS", {})
    _route(2, p, "I")
    assert len(approximation._NODE_WEIGHTS[p]) == 3
    assert len(_node_weights(p, 1)) == p - 1


@pytest.mark.parametrize("p", [*range(1, 41), 1009, 2000])
def test_weight_rows_equal_repeated_multiplication(p):
    # Each row is the row below times the nodes, and every weight is bit for
    # bit 2 c_k**q by q multiplications, at large p in the subnormals too.
    for q in range(110):
        want = [2.0 * node_power(c, q) for c in make_nodes(p)]
        assert [w.hex() for w in _node_weights(p, q)] == [w.hex() for w in want], q


@pytest.mark.parametrize("trig", [False, True], ids=["I", "J"])
def test_runner_at_thousands_of_nodes(trig):
    # The runner is one statement per node term; a single expression over
    # this many nodes would not even compile.
    p = 4096
    for z in (-3.7, 0.31, 2.5, 40.0):
        want = kernel_assemble(2, p, z, trig=trig)
        assert plan_value(2, p, z, trig=trig).hex() == want.hex(), z


def test_one_runner_per_p():
    # Every route at one p that holds a plan shares one runner; none is built
    # per (kind, n).  An I route from n = 66, whose series reaches the edge
    # of cosh, holds no plan: no rows, and a runner of its own that refuses.
    before = _runner.cache_info().misses
    routes = {(n, p, kind): _route(n, p, kind)
              for p in (21, 22) for n in range(4 * p) for kind in "IJ"}
    planless = {key for key, route in routes.items() if not route.steps}
    assert planless == {(n, p, "I") for p in (21, 22) for n in range(66, 4 * p)}
    runners = {p: {route.run for (_, q, _), route in routes.items()
                   if q == p and route.steps} for p in (21, 22)}
    assert runners == {p: {_runner(p)} for p in (21, 22)}
    assert all(routes[key].run not in runners[key[1]] for key in planless)
    assert _runner.cache_info().misses - before <= 2


def test_one_cache_per_route():
    # The per-(kind, n, p) state lives in _ROUTES alone: no lru_cache of the
    # module is keyed by both p and the kind (kind or trig).
    tree = ast.parse(Path(approximation.__file__).read_text())
    cached = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and any(
                "lru_cache" in ast.unparse(d) for d in node.decorator_list):
            cached[node.name] = {a.arg for a in node.args.args + node.args.kwonlyargs}
    assert "_runner" in cached and "_signed_expansion" in cached  # the walk sees them
    keyed_by_route = [name for name, args in cached.items()
                      if "p" in args and args & {"kind", "trig"}]
    assert keyed_by_route == []
