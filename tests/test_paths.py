"""Path selection: every point against the approximant built from mpmath.

The evaluator takes, per point, the series, the cached plan or (for J) the
node sum by recurrence.  Whichever it takes, the value must be the
approximant: within 1e-12 relative, or within 1e-12 times the sum of the
node terms' magnitudes near a zero of J, which no binary64 path can beat.
The reference is ``fixtures.spherical_approximant``, built from mpmath's
half-integer Bessel functions, so it shares nothing with the package.
"""

import math
import sys

import mpmath as mp
import pytest

from besselhyp import ApproxRequest, Binary64OverflowError, evaluate
from besselhyp.analysis import approximant_series_coeff
from besselhyp.approximation import _node_sum, _spherical_j, _trapezoid_weights
from besselhyp.coefficients import double_factorial
from fixtures import spherical_approximant

TOL = 1e-12

# Irregular arguments over [0, 30], so no grid point sits on a crossover.
ZS = (0.0, 1e-3, 0.05, 0.31, 0.77, 1.3, 2.2, 3.1, 4.4, 5.9, 7.3, 8.8, 10.5, 12.6,
      14.9, 17.2, 19.8, 22.5, 25.1, 27.7, 30.0)
# Near the binary64 edge of cosh, where I takes the plan.
ZS_EDGE = (650.0, 700.0, 709.0)


def _misses(kind, p, zs):
    misses = []
    for n in range(4 * p):
        for z in zs:
            try:
                got = evaluate(ApproxRequest(kind, n, p, z))
            except Binary64OverflowError:
                # Allowed only where the plan's leading term, about
                # (2n-3)!! cosh z, comes within a factor 4 of the range.
                if n < 2 or double_factorial(2 * n - 3) * math.cosh(z) < sys.float_info.max / 4:
                    misses.append((n, z, "overflow"))
                continue
            want, scale = spherical_approximant(kind, n, p, z)
            err = abs(got - want)
            if err > TOL * abs(want) and err > TOL * scale:
                misses.append((n, z, got, float(want)))
    return misses


@pytest.mark.parametrize("p", range(1, 9))
@pytest.mark.parametrize("kind", ["I", "J"])
def test_every_order_and_argument(kind, p):
    assert _misses(kind, p, ZS) == []


@pytest.mark.parametrize("p", range(1, 9))
def test_hyperbolic_near_the_overflow_edge(p):
    assert _misses("I", p, ZS_EDGE) == []


@pytest.mark.parametrize("p", [1, 2, 3])
def test_weights_match_the_exact_series(p):
    # The float weights w(m), through the series coefficients they give,
    # against the exact Maclaurin coefficients of the kernel assembly:
    # the z**(n+2k) coefficient is w(n+k) / (2**k k! (2n+2k-1)!!), and at
    # n = k = 0 it is w(0) = 1, the order-0 constant included.
    w = _trapezoid_weights(p)
    assert w[0] == 1.0
    for n in range(4 * p):
        for k in range(6):
            exact = approximant_series_coeff(n, p, n + 2 * k)
            weight = exact * 2**k * math.factorial(k) * double_factorial(2 * n + 2 * k - 1)
            assert w[n + k] == pytest.approx(float(weight), rel=1e-15, abs=0), (n, k)


@pytest.mark.parametrize("m", [0, 1, 2, 5, 12, 30])
def test_spherical_bessel_both_sides_of_the_turning_point(m):
    for x in (0.4, 0.9 * m + 0.1, m + 0.05, 1.1 * m + 0.5, 3.0 * m + 2.0, 41.0):
        want = mp.sqrt(mp.pi / (2 * x)) * mp.besselj(m + mp.mpf(1) / 2, x)
        assert _spherical_j(m, x) == pytest.approx(float(want), rel=1e-13, abs=1e-300), x


@pytest.mark.parametrize("n,p,z", [(31, 8, 25.1), (20, 8, 22.5), (13, 5, 17.2), (2, 3, 9.0)])
def test_node_sum_is_the_approximant(n, p, z):
    want, scale = spherical_approximant("J", n, p, z)
    assert abs(_node_sum(n, p, z) - want) <= TOL * scale


@pytest.mark.parametrize("n,p", [(3, 2), (9, 4), (20, 8)])
def test_eps_forces_the_series_but_not_a_wrong_value(n, p):
    # A large eps forces the series for both kinds; where the alternating
    # series would cancel, J still gives way to the plan or the node sum.
    for kind in "IJ":
        for z in (0.5, 9.0, 24.0):
            got = evaluate(ApproxRequest(kind, n, p, z, eps=100.0))
            want, scale = spherical_approximant(kind, n, p, z)
            assert abs(got - want) <= TOL * max(abs(want), scale), (kind, z)


def test_forced_series_far_out_gives_way():
    # An eps far beyond the stored series terms cannot force a sum that
    # does not converge; the plan takes the point, and overflows as typed.
    with pytest.raises(Binary64OverflowError):
        evaluate(ApproxRequest("I", 31, 8, 1e20, eps=1e300))
    for n in (0, 1, 31):
        value = evaluate(ApproxRequest("J", n, 8, 1e20, eps=1e300))
        assert math.isfinite(value) and abs(value) <= 1.0


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (2, 2), (7, 2)])
def test_tiny_eps_keeps_small_arguments_on_the_series(n, p):
    # eps only forces the series; a tiny one must not send small arguments
    # to a path that cancels there.
    for kind in "IJ":
        for z in (1e-200, 1e-8, 0.1):
            got = evaluate(ApproxRequest(kind, n, p, z, eps=1e-300))
            want, _ = spherical_approximant(kind, n, p, z)
            assert got == pytest.approx(float(want), rel=TOL, abs=0), (kind, z)
