"""Oracle tests: series values, stopping rule, identities, self-consistency."""

import math
import random

import pytest

from besselhyp import identity_residual, ref_I, ref_J, tail_I0
from besselhyp.analysis import hp_ref
from besselhyp.reference import (
    _J_SERIES_REACH,
    _MAX_TERMS,
    _TOL,
    IDENTITY_TAGS,
    N_MAX,
    Z_MAX,
    _leading_term,
    _miller_J,
    _miller_start,
    _ref_I_orders,
    _ref_J_orders,
    _series_J,
)
from fixtures import ref_I_accumulator, ref_J_accumulator

# Frozen by brute-force partial sums at tolerance 1e-15; stable by construction.
I0_AT_1 = 1.2660658777520084
I3_AT_4 = 3.337275778420344
J0_AT_1 = 0.7651976865579666


def series_J(n, z):
    # ref_J's series from its leading term, at any z the oracle takes.
    return _series_J(n, z, _leading_term(n, z))


class TestRefI:
    def test_at_zero(self):
        assert ref_I(0, 0.0) == 1.0
        assert ref_I(5, 0.0) == 0.0

    def test_frozen_values(self):
        assert ref_I(0, 1.0) == pytest.approx(I0_AT_1, rel=1e-15)
        assert ref_I(3, 4.0) == pytest.approx(I3_AT_4, rel=1e-14)

    def test_even_in_z_for_even_order(self):
        assert ref_I(2, -3.0) == ref_I(2, 3.0)
        assert ref_I(3, -3.0) == -ref_I(3, 3.0)

    @pytest.mark.parametrize("n,z", [(-1, 1.0), (65, 1.0), (0, 31.0), (0, math.inf), (0, math.nan)])
    def test_range_validation(self, n, z):
        with pytest.raises(ValueError):
            ref_I(n, z)

    def test_recurrence_self_consistency(self):
        # d/dz I_n - (n/z) I_n = I_{n+1}, by central differences.
        h = 1e-6
        for n in range(0, 7):
            for z in (0.5, 1.0, 2.0, 4.0):
                fd = (ref_I(n, z + h) - ref_I(n, z - h)) / (2 * h)
                lhs = fd - (n / z) * ref_I(n, z)
                assert lhs == pytest.approx(ref_I(n + 1, z), rel=1e-7)


class TestRefJ:
    def test_at_zero(self):
        assert ref_J(0, 0.0) == 1.0
        assert ref_J(1, 0.0) == 0.0

    def test_frozen_value(self):
        assert ref_J(0, 1.0) == pytest.approx(J0_AT_1, rel=1e-15)

    def test_first_root_of_j0(self):
        # Root located by bisection on the oracle itself.
        lo, hi = 2.0, 3.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ref_J(0, lo) * ref_J(0, mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(ref_J(0, root)) < 1e-12

    def test_alternating_sum_far_from_small_terms(self):
        # At z = 10 ref_J(0, z) takes Miller's recurrence, where the series
        # would cancel.
        assert ref_J(0, 10.0) == pytest.approx(-0.2459357644513483, rel=1e-12)
        # Within the series' reach, up to its edge, the terms grow before
        # they shrink; the sum still keeps the oracle's accuracy.
        for n, z in ((64, math.nextafter(math.sqrt(520.0), 0.0)),
                     (30, math.nextafter(math.sqrt(248.0), 0.0)), (0, 2.8)):
            assert z * z <= _J_SERIES_REACH * (n + 1)
            want = float(hp_ref("J", n, z, dps=40))
            err = abs(ref_J(n, z) - want)
            assert err <= 1e-13 * abs(want) or err <= 1e-15, (n, z, ref_J(n, z), want)


class TestSeriesLoop:
    """ref_I and ref_J's series step over float indices, and ref_J's stops at
    its first small term; the fixtures' loops step over int indices, and
    ref_J_accumulator waits for the term after it too.  Both give the same
    bits."""

    # Small negative arguments check the sign ref_I restores for odd n; at
    # -1e-300 every order n >= 2 underflows to a zero, which stays +0.0.
    ZS = (-30.0, -17.3, -2.5, -1e-3, -1e-300, -0.0, 0.0, 1e-300, 1e-3, 0.37, 1.0, 4.0,
          9.99, 15.0, 22.2, 29.5, 30.0)
    ORDERS = list(range(0, 33)) + [40, 51, 64]

    @pytest.mark.parametrize("fn,fixture", [
        (ref_I, ref_I_accumulator),
        # ref_J's series, on the whole grid; the id names the oracle.
        pytest.param(series_J, ref_J_accumulator, id="ref_J-ref_J_accumulator"),
    ])
    def test_bit_for_bit(self, fn, fixture):
        for n in self.ORDERS:
            for z in self.ZS:
                assert fn(n, z).hex() == fixture(n, z).hex(), (n, z)

    def test_ref_J_is_its_series_within_reach(self):
        taken = 0
        for n in self.ORDERS:
            for z in self.ZS:
                if z * z <= _J_SERIES_REACH * (n + 1):
                    taken += 1
                    assert ref_J(n, z).hex() == ref_J_accumulator(n, z).hex(), (n, z)
        assert taken > len(self.ORDERS) * len(self.ZS) // 2


class TestMillerJ:
    """Beyond the series' reach ref_J runs Miller's backward recurrence."""

    # Irregular, with the first zeros of J_0 and J_1 and the old series'
    # worst arguments.
    ZS = (0.37, 1.9, 2.404825557695773, 3.8317059702075125, 4.4, 6.1, 8.3, 10.0,
          12.7, 14.9, 17.3, 20.0, 22.2, 25.9, 27.6, 29.5, 30.0)

    @pytest.mark.parametrize("n", range(0, 65))
    def test_against_the_fixed_point_series(self, n):
        # Within 1e-13 relative of hp_ref, or 1e-15 absolute near a zero.
        for z in self.ZS + tuple(-z for z in self.ZS[::4]):
            want = float(hp_ref("J", n, z, dps=40))
            err = abs(ref_J(n, z) - want)
            assert err <= 1e-13 * abs(want) or err <= 1e-15, (z, ref_J(n, z), want)

    def test_rescaled_trial_values(self):
        # From order 130 down to 0 at x = 1 the trial values grow past
        # 1e250; rescaled, J_64(1) is still the series' value.
        assert _miller_J([64], 1.0) == [pytest.approx(series_J(64, 1.0), rel=1e-14)]
        assert _miller_J([0], 1.0) == [pytest.approx(J0_AT_1, rel=1e-15)]
        # Orders passed before a rescale are rescaled with the pass.
        assert _miller_J([0, 9, 10, 64], 1.0) == [
            pytest.approx(series_J(n, 1.0), rel=1e-14) for n in (0, 9, 10, 64)]

    def test_trial_values_stay_far_below_the_rescale(self):
        # Over ref_J's Miller region, n <= 64 and sqrt(8 (n + 1)) < |z| <=
        # 30, the trial values peak near 3.9e82 (at n = 63, |z| = 22.65), so
        # testing the 1e250 rescale once per two orders moves no bit there.
        # The trial values depend only on the start and |z|.
        passes = set()
        for i in range(1, 401):
            x = Z_MAX * i / 400
            passes.update((_miller_start(n, x), x) for n in range(N_MAX + 1)
                          if x * x > _J_SERIES_REACH * (n + 1))
        largest = 0.0
        for start, x in passes:
            above, cur = 0.0, 1.0
            for k in range(start, 0, -1):
                above, cur = cur, k * (2.0 / x) * cur - above
                largest = max(largest, abs(cur))
        assert 1e80 < largest < 1e100

    def test_sign_of_a_negative_argument(self):
        # _miller_J starts from the order |z| sets and gives J_n(-x) =
        # (-1)**n J_n(x), here for orders below |z|.
        for x in (13.1, 30.0):
            orders = [0, 1, 2, 7, 12]
            odd_negated = [-v if n % 2 else v for n, v in zip(orders, _miller_J(orders, x))]
            assert [v.hex() for v in _miller_J(orders, -x)] == [v.hex() for v in odd_negated]


class TestParity:
    """I_n(-x) = (-1)**n I_n(x) and J_n(-x) = (-1)**n J_n(x) bit for bit,
    n <= 64 and 0 < |x| <= 30, from each order alone and from the table pass.

    An odd order is negated as 0.0 - v: where its value underflows to zero
    the oracle gives +0.0 at both signs, since a sum at z never gives -0.0.
    """

    # Log-uniform from 1e-6, where the high orders underflow, to Z_MAX;
    # Z_MAX itself; and both float neighbours of each switch z**2 =
    # 8 (n + 1) between ref_J's series and Miller's recurrence.
    XS = ([math.exp(rng.uniform(math.log(1e-6), math.log(Z_MAX)))
           for rng in [random.Random(32)] for _ in range(40)]
          + [Z_MAX]
          + [math.nextafter(edge, to) for n in range(N_MAX + 1)
             for edge in [math.sqrt(_J_SERIES_REACH * (n + 1))] for to in (0.0, math.inf)])
    ORDERS = list(range(N_MAX + 1))

    @staticmethod
    def _negated_odd(values):
        return [(0.0 - v if n % 2 else v).hex() for n, v in enumerate(values)]

    @pytest.mark.parametrize("ref,orders", [(ref_I, _ref_I_orders), (ref_J, _ref_J_orders)],
                             ids=["I", "J"])
    def test_negative_argument(self, ref, orders):
        for x in self.XS:
            want = self._negated_odd([ref(n, x) for n in self.ORDERS])
            assert [ref(n, -x).hex() for n in self.ORDERS] == want, x
            assert [v.hex() for v in orders(self.ORDERS, -x)] == want, x


class TestWholeDomainAccuracy:
    """ref_I and ref_J against the fixed-point series hp_ref over the whole
    domain, n <= 64 and |z| <= 30 of both signs: a fixed draw, a fixed draw
    within each order's series reach z**2 <= 8 (n + 1), points 1e-3 apart
    within 0.05 of the first zeros of J_0 and J_1, where the alternating
    series cancels most, and both float neighbours of each switch z**2 =
    8 (n + 1) between ref_J's series and Miller's recurrence."""

    DRAW = [(rng.randrange(N_MAX + 1), rng.uniform(-Z_MAX, Z_MAX))
            for rng in [random.Random(25)] for _ in range(2000)]
    REACH = [(n, rng.uniform(-1.0, 1.0) * math.sqrt(_J_SERIES_REACH * (n + 1)))
             for rng in [random.Random(29)] for _ in range(3000)
             for n in [rng.randrange(N_MAX + 1)]]
    ZEROS = [(n, s * (lo + i / 1000))
             for n, lo in ((0, 2.3548), (1, 3.7817)) for i in range(101) for s in (1.0, -1.0)]
    SWITCHES = [(n, s * math.nextafter(edge, to))
                for n in range(N_MAX + 1)
                for edge in [math.sqrt(_J_SERIES_REACH * (n + 1))]
                for to in (0.0, math.inf) for s in (1.0, -1.0)]
    POINTS = DRAW + REACH + ZEROS + SWITCHES

    def test_ref_I_relative_error(self):
        # Over 682,069 points, random draws over the domain and within J's
        # series reach, a grid of step 0.05 and points within 0.05 of the
        # first zeros of J_0 and J_1, the largest was 2.9e-15, at (n, z) =
        # (59, 17.35).
        worst = max((abs(ref_I(n, z) - want) / abs(want), n, z)
                    for n, z in self.POINTS
                    for want in [float(hp_ref("I", n, z, dps=40))])
        assert worst[0] < 4e-15, worst

    def test_ref_J_relative_or_absolute_error(self):
        for n, z in self.POINTS:
            want = float(hp_ref("J", n, z, dps=40))
            err = abs(ref_J(n, z) - want)
            assert err <= 1e-13 * abs(want) or err <= 1e-15, (n, z, ref_J(n, z), want)


class TestSharedOrders:
    """The table pass, _ref_I_orders and _ref_J_orders, gives each order's
    one-order value, bit for bit: J orders that share a Miller start share
    one pass, and the series orders share their leading terms."""

    ZS = tuple(s * Z_MAX * i / 120 for i in range(121) for s in (1.0, -1.0)) + (
        2.404825557695773, -3.8317059702075125, 1e-300, -1e-300)
    ORDER_SETS = (
        list(range(N_MAX + 1)),  # every order: series, and Miller from each start
        [0, 1, 2, 5, 13, 14, 27, 40, 41, 64],
        list(range(1, N_MAX + 1, 3)),
        [7],
    )

    @pytest.mark.parametrize("shared,single", [(_ref_I_orders, ref_I), (_ref_J_orders, ref_J)],
                             ids=["I", "J"])
    def test_bit_for_bit(self, shared, single):
        for orders in self.ORDER_SETS:
            for z in self.ZS:
                got = [v.hex() for v in shared(orders, z)]
                assert got == [single(n, z).hex() for n in orders], (orders, z)

    def test_a_table_mixes_series_and_miller_orders(self):
        # At |z| = 20 orders up to 48 take Miller's recurrence, from one
        # start below |z| and their own above it, and the rest the series.
        miller = [n for n in range(N_MAX + 1) if 400.0 > _J_SERIES_REACH * (n + 1)]
        starts = {_miller_start(n, 20.0) for n in miller}
        assert len(miller) == 49 and 1 < len(starts) < len(miller)


class TestIntegerRule:
    """Orders and accuracy parameters are ints, bools not included: a float
    order used to be summed as the next integer (ref_J(2.5, 10.0) gave
    ref_J(3, 10.0) bit for bit), and True as 1."""

    @pytest.mark.parametrize("call", [
        lambda: ref_J(2.5, 10.0),
        lambda: ref_I(True, 1.0),
        lambda: ref_I(2.0, 1.0),
        lambda: ref_J(False, 1.0),
    ])
    def test_order_must_be_an_int(self, call):
        with pytest.raises(TypeError, match="oracle order must be an int, got "):
            call()

    @pytest.mark.parametrize("call", [
        lambda p: tail_I0(p, 1.0),
        lambda p: identity_residual("N4P", 1.0, p=p),
        lambda p: identity_residual("J4P", 1.0, p=p),
    ])
    def test_parameter_must_be_an_int(self, call):
        for p in (2.0, True):
            with pytest.raises(TypeError, match=f"accuracy parameter p must be an int, got {p}"):
                call(p)
        for p in (0, -1):
            with pytest.raises(ValueError, match=f"accuracy parameter p must be >= 1, got {p}"):
                call(p)

    def test_int_subclass_is_an_int(self):
        class Order(int):
            pass

        assert ref_I(Order(3), 4.0) == ref_I(3, 4.0)
        assert tail_I0(Order(2), 1.0) == tail_I0(2, 1.0)


class TestSeriesPolicy:
    def test_defaults(self):
        # The stopping rule is fixed: tolerance 1e-15 of the partial sum,
        # at most 200 terms.
        assert (_TOL, _MAX_TERMS) == (1e-15, 200)


class TestTail:
    def test_zero_argument(self):
        assert tail_I0(2, 0.0) == 0.0

    def test_equals_lacunary_sum(self):
        assert tail_I0(2, 1.0) == pytest.approx(2 * ref_I(8, 1.0) + 2 * ref_I(16, 1.0), rel=1e-14)
        assert tail_I0(1, 2.0) == pytest.approx(
            2 * (ref_I(4, 2.0) + ref_I(8, 2.0) + ref_I(12, 2.0) + ref_I(16, 2.0)), rel=1e-13)

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
    def test_positive_and_decreasing_in_p(self, z):
        values = [tail_I0(p, z) for p in (1, 2, 3, 4)]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            tail_I0(0, 1.0)

    def test_tail_past_the_oracle_raises(self):
        # 4p = 64 is the last order the oracle sums; past it the tail used
        # to read 0.0 where 2 I_68(30) is about 1.8e-15.
        assert tail_I0(16, 30.0) > 0.0
        with pytest.raises(ValueError, match=r"4p <= 64"):
            tail_I0(17, 30.0)
        for tag in ("N4P", "J4P"):
            with pytest.raises(ValueError, match=r"4p <= 64"):
                identity_residual(tag, 1.0, p=17)


class TestIdentities:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("tag", ["N2", "N4", "N8"])
    def test_fixed_identities(self, tag, z):
        assert abs(identity_residual(tag, z)) < 1e-13

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_parametrised_identities(self, p, z):
        assert abs(identity_residual("N4P", z, p=p)) < 1e-13
        assert abs(identity_residual("J4P", z, p=p)) < 1e-13

    def test_n4p_at_p1_matches_n4(self):
        # The p=1 average is (1 + cosh z)/2 = cosh(z/2)**2.
        for z in (0.5, 2.0):
            assert identity_residual("N4P", z, p=1) == pytest.approx(
                identity_residual("N4", z), abs=1e-14)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            identity_residual("N16", 1.0)

    def test_missing_p(self):
        for tag in ("N4P", "J4P"):
            with pytest.raises(ValueError, match=f"identity {tag} needs"):
                identity_residual(tag, 1.0)

    def test_tags_constant(self):
        assert set(IDENTITY_TAGS) == {"N2", "N4", "N8", "N4P", "J4P"}


class TestCrossCheckAgainstScipy:
    """Library Bessel values are an additional cross-check only; the oracle
    everything else uses remains the hand-rolled series above."""

    scipy_special = pytest.importorskip("scipy.special")

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    @pytest.mark.parametrize("z", [0.1, 1.0, 4.0, 10.0, 25.0])
    def test_ref_I(self, n, z):
        assert ref_I(n, z) == pytest.approx(float(self.scipy_special.iv(n, z)), rel=1e-11)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    @pytest.mark.parametrize("z", [0.1, 1.0, 4.0, 10.0])
    def test_ref_J(self, n, z):
        assert ref_J(n, z) == pytest.approx(float(self.scipy_special.jv(n, z)), rel=1e-10, abs=1e-14)
