"""Path selection: every point against the approximant built from mpmath.

The evaluator takes, per point, the series, the cached plan or (for J) the
node sum by recurrence.  Whichever it takes, the value must be the
approximant: within 1e-12 relative, or within 1e-12 times the sum of the
node terms' magnitudes near a zero of J, which no binary64 path can beat.
The reference is ``fixtures.spherical_approximant``, built from mpmath's
half-integer Bessel functions, so it shares nothing with the package.
"""

import math
import re
import struct
import sys
from contextlib import contextmanager

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besselhyp import (ApproxRequest, Binary64OverflowError, DomainError, approximation,
                       evaluate)
from besselhyp.approximation import (
    _COND_MAX,
    _COSH_EDGE,
    _ODD,
    _ORDER_MAX,
    _group,
    _group_sum,
    _multiplication_coeffs,
    _node_sum,
    _node_terms,
    _node_weights,
    _route,
    _series,
    _series_reach,
    _span,
    _spherical_j,
    _sum_series,
    _trapezoid_weights,
    make_nodes,
)
from besselhyp.coefficients import double_factorial
from fixtures import (approximant_series_coeff, group_sum_int, horner_size, node_power_sum,
                      plan_value, spherical_approximant, spherical_j_int)

TOL = 1e-12

# Irregular arguments over [0, 30], so no grid point sits on a crossover.
ZS = (0.0, 1e-3, 0.05, 0.31, 0.77, 1.3, 2.2, 3.1, 4.4, 5.9, 7.3, 8.8, 10.5, 12.6,
      14.9, 17.2, 19.8, 22.5, 25.1, 27.7, 30.0)
# Near the binary64 edge of cosh (about 710.48), where I takes the plan.
ZS_EDGE = (650.0, 700.0, 709.0, 710.4)
# Past the grid above, where J still takes the node sum (up to |z| of about
# 1900 at p >= 12) and most nodes lie above the turning point.
ZS_FAR = (47.0, 91.0, 240.0, 700.0, 1500.0)


def _close(err, want, scale):
    return err <= TOL * max(abs(want), scale)


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
            if not _close(abs(got - want), want, scale):
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
    route = _route(0, p, "I")
    assert route.run(z, route.odd, route.even, route.steps) == math.inf
    got = evaluate(ApproxRequest("I", 0, p, z))
    with mp.workdps(50):
        zz = mp.mpf(z)
        kernel = mp.cosh(zz) + 2 * mp.fsum(mp.cosh(mp.cos(mp.pi * k / (2 * p)) * zz)
                                           for k in range(1, p))
        want = (1 + kernel) / (2 * p)
        assert math.isfinite(got) and abs(got - want) <= TOL * want


def _unrounded_weights(p, ms):
    # The m >= 1 whose float weight is not w(m) = P(2m) / 2p, from the exact
    # node power sum, correctly rounded.
    w = _trapezoid_weights(p)
    return [m for m in ms if w[m] != float(node_power_sum(p, 2 * m) / (2 * p))]


@pytest.mark.parametrize("p", range(1, 9))
def test_weights_match_the_exact_series(p):
    # Every float weight w(m) is the exact trapezoidal mean correctly
    # rounded.  Through the series coefficients they give, the weights also
    # match the exact Maclaurin coefficients of the kernel assembly: the
    # z**(n+2k) coefficient is w(n+k) / (2**k k! (2n+2k-1)!!), and at
    # n = k = 0 it is w(0) = 1, the order-0 constant included.
    w = _trapezoid_weights(p)
    assert w[0] == 1.0
    assert _unrounded_weights(p, range(1, len(w))) == []
    for n in range(4 * p):
        for k in range(6):
            exact = approximant_series_coeff(n, p, n + 2 * k)
            weight = exact * 2**k * math.factorial(k) * double_factorial(2 * n + 2 * k - 1)
            assert w[n + k] == pytest.approx(float(weight), rel=1e-15, abs=0), (n, k)


@pytest.mark.parametrize("p", [40, 2000])
def test_weights_correctly_rounded_at_large_p(p):
    # About 40 entries, both ends included, of tables far longer than the
    # grid's (609 entries at p = 2000).
    last = len(_trapezoid_weights(p)) - 1
    assert _unrounded_weights(p, sorted({1, last, *range(1, last, last // 38)})) == []


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


def _last_admitted_order(p=40):
    # Every order from 109 raises at every p (test_last_order_in_binary64).
    last = 0
    for n in range(2, 4 * p):
        try:
            _route(n, p, "J")
        except Binary64OverflowError:
            continue
        last = n
    return last


def test_float_factors_reach_every_admitted_order():
    # The node sum at the last order a route admits reads _ODD up to its
    # group recurrence's top, m + _span(m); _node_terms refuses past the end.
    last = _last_admitted_order()
    assert last == 108
    m = last - 1
    assert len(_ODD) > m + _span(m)
    assert _ODD == tuple(float(2 * l + 1) for l in range(len(_ODD)))
    with pytest.raises(IndexError):
        _node_terms(len(_ODD), 40)


def test_last_order_is_the_last_power_in_binary64():
    # _ORDER_MAX is the largest n for which z**n fits at the series' reach,
    # at most just past the edge of cosh, and _ODD reaches the top order of
    # the node sum at that order and no further.
    reach = math.nextafter(_COSH_EDGE, math.inf)
    assert math.isfinite(reach**_ORDER_MAX)
    with pytest.raises(OverflowError):
        reach ** (_ORDER_MAX + 1)
    m = _ORDER_MAX - 1
    assert len(_ODD) == m + _span(m) + 1
    _node_terms(_ORDER_MAX, 40)
    with pytest.raises(IndexError):
        _node_terms(_ORDER_MAX + 1, 40)


@pytest.mark.parametrize("kind", ["I", "J"])
def test_refused_order_builds_nothing(monkeypatch, kind):
    # An order past _ORDER_MAX is refused before any table of it is built.
    def never(*args, **kwargs):
        raise AssertionError("a table of a refused order was built")

    for name in ("_series", "_series_reach", "_trapezoid_weights", "_compile"):
        monkeypatch.setattr(approximation, name, never)
    for n, p in ((150, 40), (_ORDER_MAX + 1, 28), (4000, 2000)):
        with pytest.raises(Binary64OverflowError,
                           match=f"^order n={n} at p={p} needs coefficients beyond binary64 range$"):
            _route(n, p, kind)
        assert (n, p, kind) not in approximation._ROUTES
    with pytest.raises(Binary64OverflowError, match="beyond binary64"):
        evaluate(ApproxRequest(kind, 150, 40, 3.0))


def test_weights_stop_at_the_last_order():
    # From p = 28, where 4p - 1 first passes _ORDER_MAX, the table is that of
    # _ORDER_MAX, the same length at every p, and it holds that order's series.
    lengths = {len(_trapezoid_weights(p)) for p in (28, 29, 40, 2000)}
    assert len(lengths) == 1
    assert len(_trapezoid_weights(27)) < lengths.pop()
    for p in (28, 40, 2000):
        assert len(_series(_ORDER_MAX, p)[1]) > 0


@pytest.mark.parametrize("kind", ["I", "J"])
def test_every_admitted_order_builds(kind):
    # Up to _ORDER_MAX every table and coefficient of a route fits in
    # binary64, at the fewest nodes the order allows and at p = 40.
    for n in range(_ORDER_MAX + 1):
        for p in (n // 4 + 1, 40):
            route = _route(n, p, kind)
            assert math.isfinite(route.lead) and route.ratios
            assert all(math.isfinite(coeff) for _, coeff, _ in route.steps)


def test_hyperbolic_route_past_the_plan_builds_none(monkeypatch):
    # From n = 66 the I series reaches the edge of cosh at every p, and past
    # the edge cosh overflows, so no point could return from a plan: the
    # route builds none, neither coefficients nor node weights nor runner.
    # The series takes every |z| up to the edge, and past it evaluate raises
    # the overflow error of the plan path, message and all.
    def never(*args, **kwargs):
        raise AssertionError("a plan of an I route from n = 66 was built")

    monkeypatch.setattr(approximation, "_ROUTES", {})
    for name in ("_compile", "_signed_expansion", "closed_form_row", "_node_weights",
                 "_runner", "make_nodes"):
        monkeypatch.setattr(approximation, name, never)
    past = (math.nextafter(_COSH_EDGE, math.inf), -720.0, 1e300)
    for n in range(66, _ORDER_MAX + 1):
        for p in (n // 4 + 1, 40, 2000):
            route = _route(n, p, "I")
            assert route.series_below > _COSH_EDGE and route.steps == ()
            assert math.isfinite(evaluate(ApproxRequest("I", n, p, _COSH_EDGE)))
            for z in past:
                message = f"approximant of order n={n} at p={p} overflows binary64 at z={z!r}"
                with pytest.raises(Binary64OverflowError, match=f"^{re.escape(message)}$"):
                    evaluate(ApproxRequest("I", n, p, z))
    # A point the series gives up on has no plan to fall back to: it raises,
    # and never returns a value.
    monkeypatch.setattr(approximation, "_sum_series", lambda *args: None)
    for z in (1.0, -300.0, _COSH_EDGE):
        with pytest.raises(Binary64OverflowError):
            evaluate(ApproxRequest("I", 66, 17, z))


def test_recurrences_keep_the_int_factor_bits():
    # Every m a node sum can take, on both sides of the turning point: the
    # float factors round as the int factors of the fixtures do.
    differ = []
    for m in range(108):
        for x in (m, m + 0.37, 1.3 * m + 0.5, 2.0 * m + 3.1, 41.0, 907.3):
            if x >= m and x > 0 and _spherical_j(m, x) != spherical_j_int(m, x):
                differ.append(("up", m, x))
        if m == 0:
            continue
        n = m + 1
        p = n // 4 + 1
        b = (len(_node_terms(n, p)) - 1) // 2
        groups = (_multiplication_coeffs(m, [(1.0, 1.0, 0.0)]), _group(n, p, b)[1])
        for x in (0.05 * m, 0.5 * m, 0.93 * m, math.nextafter(m, 0.0)):
            for coeffs in groups:
                if _group_sum(m, x, coeffs) != group_sum_int(m, x, coeffs):
                    differ.append(("group", m, x))
    assert differ == []


def _least_within_reach(route):
    # The least positive float at which the route's Horner bound is at most
    # its reach, by bisection over the ordered bit patterns of positive
    # floats: the size is above the reach at the least subnormal and at
    # most the reach at the largest float, and never grows between.
    def float_of(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    lo, hi = 1, struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]
    assert horner_size(route.bound, float_of(lo)) > route.reach
    assert horner_size(route.bound, float_of(hi)) <= route.reach
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if horner_size(route.bound, float_of(mid)) > route.reach:
            lo = mid
        else:
            hi = mid
    return float_of(hi)


@contextmanager
def _runner_swapped(n, p, run):
    # The J route of (n, p) with its plan runner replaced by run, restored
    # afterwards.
    route = _route(n, p, "J")
    approximation._ROUTES[n, p, "J"] = tuple(route._replace(run=run))
    try:
        yield
    finally:
        approximation._ROUTES[n, p, "J"] = tuple(route)


@pytest.mark.parametrize("n,p", [(n, p) for p in range(1, 9) for n in range(2, 4 * p)]
                         + [(n, p) for p in (16, 25, 40) for n in (2, 3, 17, 45, 63, 99, 108)
                            if n < 4 * p])
def test_plan_threshold_is_exact(n, p):
    # The route's reach is 2 _COND_MAX (1 + sum_k 2 c_k**n).  One float
    # below the least |z| at which the Horner bound is within it evaluate
    # takes the node sum without running the plan; at that |z| it runs the
    # plan, whose value the limit test then keeps or gives to the node sum.
    route = _route(n, p, "J")
    assert route.reach == 2.0 * _COND_MAX * (1.0 + sum(_node_weights(p, n)))
    least = _least_within_reach(route)
    below = math.nextafter(least, 0.0)
    if below < route.series_below:
        return  # the series may take both points
    runs = []

    def recording(*args):
        runs.append(args[0])
        return route.run(*args)

    with _runner_swapped(n, p, recording):
        for z in (below, -below, least, -least):
            sign = -1.0 if z < 0 and n % 2 else 1.0
            want = sign * _node_sum(n, p, abs(z))
            if abs(z) == least:
                plan = plan_value(n, p, z, trig=True)
                if horner_size(route.bound, least) <= route.limit * abs(plan):
                    want = plan
            assert evaluate(ApproxRequest("J", n, p, z)).hex() == want.hex(), z
    assert runs == [least, -least]


@pytest.mark.parametrize("n,p", [(5, 3), (20, 8), (99, 25)])
def test_no_plan_run_where_the_bound_exceeds_the_reach(n, p):
    # With a runner that raises in the route, the lower neighbour of the
    # least |z| within the reach and 15 points spread from 0 up to it, at
    # both signs, evaluate as before: none of them runs the plan.
    below = math.nextafter(_least_within_reach(_route(n, p, "J")), 0.0)
    zs = [below * k / 16 for k in range(1, 16)] + [below]
    zs += [-z for z in zs]
    want = [evaluate(ApproxRequest("J", n, p, z)).hex() for z in zs]

    def refuse(*args):
        raise AssertionError(f"plan run at z={args[0]!r}")

    with _runner_swapped(n, p, refuse):
        got = [evaluate(ApproxRequest("J", n, p, z)).hex() for z in zs]
    assert got == want
    assert _route(n, p, "J").run is not refuse


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
            if not _close(err, want, scale):
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
    # out would hand the point to it; from n = 66, whose route holds no plan,
    # it would raise.  There the point checked is the edge of cosh itself.
    # The routes are checked through their parts, which cost no plan, over
    # the whole-domain gate's p and a few far past it.
    assert _route(96, 25, "I")[:3] == (_series_reach(96, 25), *_series(96, 25))
    assert math.nextafter(_series_reach(66, 17), 0.0) == _COSH_EDGE
    short = []
    for p in (*range(1, 41), 100, 1000, 2000):
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
                if not _close(err, want, scale):
                    misses.append((kind, p, z, float(err / abs(want))))
    assert misses == []


@pytest.mark.parametrize("kind", ["I", "J"])
def test_last_order_in_binary64(kind):
    # 710.48**108 fits in binary64 and 710.48**109 does not.
    assert math.isfinite(evaluate(ApproxRequest(kind, 108, 28, 10.0)))
    with pytest.raises(Binary64OverflowError, match="beyond binary64"):
        evaluate(ApproxRequest(kind, 109, 28, 10.0))


def _domain_point(rng):
    # Drawn from a seeded Random rather than from one strategy per field:
    # those spend most examples on the simplest values (p = 1, n = 0, and a
    # quarter of them on |z| = 1 exactly).
    kind = rng.choice("IJ")
    p = rng.randint(1, 40)
    n = rng.randrange(min(4 * p, 109))
    top = _COSH_EDGE if kind == "I" else 5000.0
    az = min(math.exp(rng.uniform(math.log(1e-3), math.log(top))), top)
    return kind, n, p, rng.choice((az, -az))


def _argument_rounding(kind, n, p, z):
    # sum_k |T_k'(c_k |z|)| dx_k over the nodes k >= 1; see test_whole_domain.
    u = 2.0**-53
    az = abs(z)
    with mp.workdps(30):
        total = mp.mpf(0)
        for k, c in enumerate(make_nodes(p), 1):
            exact = mp.cos(mp.pi * k / (2 * p))
            dx = az * abs(c - exact) + u * c * az
            x = exact * az
            if n == 0:
                slope = 2 * abs(mp.sinh(x) if kind == "I" else mp.sin(x)) / (2 * p)
            else:
                m = n - 1
                bessel, sign = (mp.besseli, 1) if kind == "I" else (mp.besselj, -1)
                f_m, f_next = (mp.sqrt(mp.pi / (2 * x)) * bessel(l + mp.mpf(1) / 2, x)
                               for l in (m, m + 1))
                slope = az / (2 * p) * 2 * exact ** (n + 1) * abs(m / x * f_m + sign * f_next)
            total += slope * dx
        return total


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.randoms(use_true_random=True).map(_domain_point))
@example(("J", 1, 2, -932.98))  # 1.26e-12 S off: needs the second allowance
@example(("I", 108, 40, _COSH_EDGE))  # the series' reach, where the plan cancels
def test_whole_domain(point):
    """Random points of the accepted domain against the approximant.

    Drawn uniformly: the kind, p <= 40, n < min(4p, 109) (from n = 109
    every argument raises), and |z| log-uniform from 1e-3 up to the edge of
    cosh (I) or 5000 (J), either sign.  The rule is _misses', 1e-12
    relative to the larger of |A_n| and the node terms' magnitude sum S,
    plus two allowances for what no binary64 evaluation can avoid:

    * Underflow.  Below the smallest normal number, 2**-1022, binary64
      holds only the multiples of 2**-1074, so a value there cannot be
      1e-12 accurate; it may be either grid point around the reference, an
      error of at most 2**-1074.
    * Argument rounding.  Every path but the series takes node term k at
      the binary64 argument fl(fl(c_k) |z|), the reference at c_k |z|
      exactly.  The node is off by |fl(c_k) - c_k| (at most 2.5 u for
      p <= 40, u = 2**-53) and the product rounds by at most u fl(c_k) |z|,
      so the argument is off by at most dx_k = |z| |fl(c_k) - c_k| +
      u fl(c_k) |z|, about 3.5 u |z|, and the term by about |T_k'| dx_k.
      With T_k(x) = (|z|/2p) 2 c_k**(n+1) f_m(x), m = n - 1, f = i or j
      (2 cosh x / 2p or 2 cos x / 2p for n = 0), and f_m' = (m/x) f_m +-
      f_{m+1}, the allowance is sum_k |T_k'(c_k |z|)| dx_k; node 0, |z|
      itself, is exact.  For J it reaches about 3.5 u |z| S, 1.9e-12 S at
      |z| = 5000, beyond the rule itself; the draw goes that far all the
      same.
    """
    kind, n, p, z = point
    got = evaluate(ApproxRequest(kind, n, p, z))
    want, scale = spherical_approximant(kind, n, p, z)
    err = abs(got - want)
    bound = TOL * max(abs(want), scale)
    if abs(want) < sys.float_info.min:
        bound += math.ulp(0.0)
    if err > bound:
        bound += _argument_rounding(kind, n, p, z)
    assert err <= bound, (point, got, float(want), float(scale))


def _signed_outcomes(kind, n, p, z):
    # float.hex of evaluate at -z and of (-1)**n evaluate at z, or the type of
    # the error each raises.
    def outcome(arg, sign):
        try:
            return float.hex(sign * evaluate(ApproxRequest(kind, n, p, arg)))
        except DomainError as exc:
            return type(exc)

    return outcome(-z, 1), outcome(z, (-1) ** n)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.randoms(use_true_random=True).map(_domain_point))
@example(("I", 64, 40, 710.47))  # the rescale, _rescaled_plan_value
@example(("I", 7, 2, 705.0))  # the rescale
@example(("I", 0, 40, 710.4))  # the rescale
@example(("I", 96, 25, 700.0))  # the series of an order above 65
@example(("I", 66, 40, 710.5))  # past the edge of cosh: raises at both signs
def test_parity(point):
    """A_n(-z) = (-1)**n A_n(z) bit for bit, or the same error at both
    signs, over the draw of test_whole_domain (so z != 0): the series, the
    plan, its rescale and J's node sum.  At z = -0.0 an odd order gives
    +0.0, not -0.0 (test_approximation's TestParity pins it)."""
    kind, n, p, z = point
    minus, plus = _signed_outcomes(kind, n, p, z)
    assert minus == plus, point


@pytest.mark.parametrize("n,p,z", [(64, 40, 710.47), (7, 2, 705.0), (0, 40, 710.4)])
def test_parity_of_the_rescale(monkeypatch, n, p, z):
    # test_parity's rescale examples take it at both signs.
    calls = []
    rescale = approximation._rescaled_plan_value
    monkeypatch.setattr(approximation, "_rescaled_plan_value",
                        lambda *args: calls.append(args[-1]) or rescale(*args))
    minus, plus = _signed_outcomes("I", n, p, z)
    assert calls == [-z, z]
    assert minus == plus and isinstance(plus, str)


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
