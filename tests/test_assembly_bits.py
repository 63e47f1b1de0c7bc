"""The compiled assembly against the per-term kernel loop, bit for bit.

``kernel_assemble`` below keeps the kernel-sum assembly as a literal
fixture, the way ``closed_form_p2`` keeps the printed two-node forms: one
``kernel_*`` call per term, each taking its own sinh/cosh (sin/cos) values
and node powers.  The cached plans behind ``_assemble`` take each
transcendental once per argument but must add and multiply in the same
order, so wherever the fixture is finite the two agree to the last bit, and
wherever it overflows (``nan``, ``inf`` or a raised OverflowError) the
assembly raises Binary64OverflowError.
"""

import math

import pytest

from besselhyp import Binary64OverflowError, derive_expansion, make_nodes
from besselhyp.approximation import _assemble, _j_term_sign, _node_weights, _plan
from besselhyp.kernels import KernelKind, kernel_cos, kernel_cosh, kernel_sin, kernel_sinh

# Negative and fractional arguments, the cancellation region near zero, and
# both sides of the binary64 edge of sinh/cosh (about 710.48).
ZS = (-720.0, -40.0, -12.5, -3.7, -1.0, -0.31, -1e-3, 1e-3, 0.05, 0.31, 1.0, 2.5,
      3.7, 9.9, 12.5, 29.6, 40.0, 101.3, 709.0, 709.5, 709.78, 710.0, 710.5,
      711.0, 720.0)


def kernel_horner(terms, nodes, z, *, trig):
    sinh_like = kernel_sin if trig else kernel_sinh
    cosh_like = kernel_cos if trig else kernel_cosh
    acc = 0.0
    first = True
    for term in terms:
        if term.kind is KernelKind.SINH:
            value = sinh_like(term.q, nodes, z)
        else:
            value = cosh_like(term.q, nodes, z)
        coeff = term.coeff * _j_term_sign(term.q) if trig else term.coeff
        acc = coeff * value if first else acc / z + coeff * value
        first = False
    return acc


def kernel_assemble(n, p, z, *, trig):
    nodes = make_nodes(p)
    if n == 0:
        cosh_like = kernel_cos if trig else kernel_cosh
        return (1.0 + cosh_like(0, nodes, z)) / (2 * p)
    acc = kernel_horner(derive_expansion(n).terms, nodes, z, trig=trig)
    if trig and n % 2:
        acc = -acc
    return acc / (2 * p)


def _fixture(n, p, z, trig):
    # The fixture's value, with an overflow it raised read as inf.
    try:
        return kernel_assemble(n, p, z, trig=trig)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("p", range(1, 9))
@pytest.mark.parametrize("trig", [False, True], ids=["I", "J"])
def test_plan_matches_kernel_loop(p, trig):
    overflowed = 0
    for n in range(4 * p):
        for z in ZS:
            want = _fixture(n, p, z, trig)
            if math.isfinite(want):
                assert _assemble(n, p, z, trig=trig).hex() == want.hex(), (n, p, z)
            else:
                overflowed += 1
                with pytest.raises(Binary64OverflowError):
                    _assemble(n, p, z, trig=trig)
    if not trig:
        assert overflowed  # the grid reaches the binary64 edge


def test_zero_argument_still_divides_by_zero():
    with pytest.raises(ZeroDivisionError):
        kernel_assemble(2, 2, 0.0, trig=False)
    with pytest.raises(ZeroDivisionError):
        _assemble(2, 2, 0.0, trig=False)


def test_weight_rows_are_shared_across_orders_and_kinds():
    rows = {q: _node_weights(5, q) for q in range(1, 20)}
    for n in range(1, 20):
        for trig in (False, True):
            steps = _plan(n, 5, trig).steps
            for (_, _, row), q in zip(steps, range(1, n + 1), strict=True):
                assert row is rows[q]


def test_plan_builds_only_the_rows_it_uses():
    # A large p is compiled for the q of its own order only, not for every
    # q < 4p at once.
    p = 1009
    before = _node_weights.cache_info().currsize
    _assemble(2, p, 1.5, trig=False)
    assert _node_weights.cache_info().currsize - before == 2
    assert len(_node_weights(p, 1)) == p - 1
