"""Path selection: every point against the approximant built from mpmath.

The evaluator takes, per point, the series, the cached plan or (for J) the
node sum by recurrence.  Whichever it takes, the value must be the
approximant: within 1e-12 relative, or within 1e-12 times the sum of the
node terms' magnitudes near a zero of J, which no binary64 path can beat.
The reference is ``fixtures.spherical_approximant``, built from mpmath's
half-integer Bessel functions, so it shares nothing with the package.
"""

import math

import mpmath as mp
import pytest

from besselhyp import ApproxRequest, Binary64OverflowError, evaluate
from besselhyp.analysis import approximant_series_coeff
from besselhyp.approximation import (
    _group,
    _group_sum,
    _multiplication_coeffs,
    _node_sum,
    _node_terms,
    _plan,
    _route,
    _series,
    _series_reach,
    _spherical_j,
    _sum_series,
    _trapezoid_weights,
)
from besselhyp.coefficients import double_factorial
from fixtures import spherical_approximant

TOL = 1e-12

# Irregular arguments over [0, 30], so no grid point sits on a crossover.
ZS = (0.0, 1e-3, 0.05, 0.31, 0.77, 1.3, 2.2, 3.1, 4.4, 5.9, 7.3, 8.8, 10.5, 12.6,
      14.9, 17.2, 19.8, 22.5, 25.1, 27.7, 30.0)
# Near the binary64 edge of cosh (about 710.48), where I takes the plan.
ZS_EDGE = (650.0, 700.0, 709.0, 710.4)
# Past the grid above, where J still takes the node sum (up to |z| of about
# 1900 at p >= 12) and most nodes lie above the turning point.
ZS_FAR = (47.0, 91.0, 240.0, 700.0, 1500.0)


def _misses(kind, p, zs):
    misses = []
    for n in range(4 * p):
        for z in zs:
            try:
                got = evaluate(ApproxRequest(kind, n, p, z))
            except Binary64OverflowError:
                # Only cosh z itself overflowing may raise, and no grid
                # point reaches its edge.
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


@pytest.mark.parametrize("p,z", [(40, 709.78), (40, 710.0), (40, -710.0), (40, 710.4),
                                 (20, 710.3)])
def test_order0_rescaled_near_the_overflow_edge(p, z):
    # The kernel sum cosh z + 2 sum_k cosh(c_k z) passes binary64 while
    # A_0, about 3e306, fits: the plan runs again scaled, constant included.
    # The reference is the averaged cosh itself, since the per-term kernel
    # sums overflow as the plan does.
    plan = _plan(0, p, False)
    assert plan.run(z, plan.odd, plan.even, plan.steps) == math.inf
    got = evaluate(ApproxRequest("I", 0, p, z))
    with mp.workdps(50):
        zz = mp.mpf(z)
        kernel = mp.cosh(zz) + 2 * mp.fsum(mp.cosh(mp.cos(mp.pi * k / (2 * p)) * zz)
                                           for k in range(1, p))
        want = (1 + kernel) / (2 * p)
        assert math.isfinite(got) and abs(got - want) <= TOL * want


@pytest.mark.parametrize("p", range(1, 9))
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


def _spherical_j_mp(m, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(m + mp.mpf(1) / 2, x)


@pytest.mark.parametrize("m", [0, 1, 2, 5, 12, 30])
def test_spherical_bessel_both_sides_of_the_turning_point(m):
    # At or above the turning point x = m the upward recurrence; below it
    # the group recurrence with a single node (weight 1, lam = 1).
    single = _multiplication_coeffs(m, [(1.0, 1.0, 0.0)])
    for x in (0.4, 0.9 * m + 0.1, m + 0.05, 1.1 * m + 0.5, 3.0 * m + 2.0, 41.0):
        got = _spherical_j(m, x) if x >= m else _group_sum(m, x, single)
        assert got == pytest.approx(float(_spherical_j_mp(m, x)), rel=1e-13, abs=1e-300), x


@pytest.mark.parametrize("n,p,b", [(25, 8, 2), (31, 12, 0), (9, 3, 1)])
def test_group_coefficients_are_the_node_sum(n, p, b):
    # Summed with the exact j_{m+l}(x) in mpmath, the group's coefficients
    # give the group's node sum sum_{k>=b} w_k j_m(lam_k x), lam_k = c_k/c_b,
    # taken directly in mpmath: the multiplication theorem, truncated where
    # the recurrence stops, at arguments below the turning point.
    m = n - 1
    _, coeffs = _group(n, p, b)
    terms = _node_terms(n, p)[b:]
    with mp.workdps(30):
        for x in (0.3 * m, 0.7 * m, 0.99 * m):
            x = mp.mpf(x)
            got = sum(a * x**l * _spherical_j_mp(m + l, x) for l, a in enumerate(coeffs))
            want = sum(w * _spherical_j_mp(m, c / terms[0][0] * x) for c, w in terms)
            assert abs(got - want) <= 1e-14 * want, (float(x), float(got), float(want))


@pytest.mark.parametrize("n,p,z", [(31, 8, 25.1), (20, 8, 22.5), (13, 5, 17.2), (2, 3, 9.0)])
def test_node_sum_is_the_approximant(n, p, z):
    want, scale = spherical_approximant("J", n, p, z)
    assert abs(_node_sum(n, p, z) - want) <= TOL * scale


@pytest.mark.parametrize("p", [2, 4, 8, 12])
def test_node_sum_far_past_the_grid(p):
    # Nodes above the turning point take the upward recurrence and only the
    # rest share one group; a group anchored above it would cancel (at
    # (3, 8, 120) by a factor of thousands).
    misses = []
    for n in range(2, 4 * p, 3 if p == 12 else 1):
        for z in ZS_FAR:
            want, scale = spherical_approximant("J", n, p, z)
            err = abs(_node_sum(n, p, z) - want)
            if err > TOL * abs(want) and err > TOL * scale:
                misses.append((n, z, float(err / scale)))
    assert misses == []


@pytest.mark.parametrize("n,p", [(3, 2), (9, 4), (20, 8)])
def test_eps_forces_the_series_but_not_a_wrong_value(n, p):
    # The series evaluate takes below eps, summed far past it: where it
    # returns a value, that is the approximant; where the alternating
    # series would cancel, it returns None, and J gives way to the plan or
    # the node sum.
    lead, ratios = _series(n, p)
    for kind in "IJ":
        for z in (0.5, 9.0, 24.0):
            got = _sum_series(lead, ratios, n, z, kind == "J")
            if got is None:
                continue
            want, scale = spherical_approximant(kind, n, p, z)
            assert abs(got - want) <= TOL * max(abs(want), scale), (kind, z)
        assert _sum_series(lead, ratios, n, 24.0, True) is None


def test_every_hyperbolic_table_reaches_its_threshold():
    # Just below I's threshold, its route's series_below, every table holds
    # the whole series: below it the plan would cancel, and a table that ran
    # out would hand the point to it.  The routes are checked through their
    # parts, which cost no plan.
    assert _route(96, 25, False)[:3] == (_series_reach(96, 25), *_series(96, 25))
    short = []
    for p in range(1, 33):
        for n in range(min(4 * p, 109)):
            az = math.nextafter(_series_reach(n, p), 0.0)
            if _sum_series(*_series(n, p), n, az, False) is None:
                short.append((n, p))
    assert short == []


@pytest.mark.parametrize("n", [56, 64, 80, 96, 97, 108])
def test_high_orders_far_out(n):
    # Orders whose I series reaches past |z| = 40, up to the last order
    # whose first term at the edge of cosh fits in binary64.
    misses = []
    for p in (n // 4 + 1, 2 * (n // 4 + 1)):
        for kind in "IJ":
            for z in (170.0, 230.0, 300.0, 520.0, 705.0):
                got = evaluate(ApproxRequest(kind, n, p, z))
                want, scale = spherical_approximant(kind, n, p, z)
                err = abs(got - want)
                if err > TOL * abs(want) and err > TOL * scale:
                    misses.append((kind, p, z, float(err / abs(want))))
    assert misses == []


@pytest.mark.parametrize("kind", ["I", "J"])
def test_last_order_in_binary64(kind):
    # 710.48**108 fits in binary64 and 710.48**109 does not.
    assert math.isfinite(evaluate(ApproxRequest(kind, 108, 28, 10.0)))
    with pytest.raises(Binary64OverflowError, match="beyond binary64"):
        evaluate(ApproxRequest(kind, 109, 28, 10.0))


def test_forced_series_far_out_gives_way():
    # A sum that does not converge in its stored terms returns None rather
    # than a value; the plan takes the point, and overflows as typed.
    assert _sum_series(*_series(31, 8), 31, 1e20, False) is None
    with pytest.raises(Binary64OverflowError):
        evaluate(ApproxRequest("I", 31, 8, 1e20))
    for n in (0, 1, 31):
        assert _sum_series(*_series(n, 8), n, 1e20, True) is None
        value = evaluate(ApproxRequest("J", n, 8, 1e20))
        assert math.isfinite(value) and abs(value) <= 1.0
