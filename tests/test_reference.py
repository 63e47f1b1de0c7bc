"""Oracle tests: series values, stopping rule, identities, self-consistency."""

import math

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
    _miller_J,
    _miller_start,
    _series_J,
    ref_I_orders,
    ref_J_orders,
)
from fixtures import ref_I_accumulator, ref_J_accumulator

# Frozen by brute-force partial sums at tolerance 1e-15; stable by construction.
I0_AT_1 = 1.2660658777520084
I3_AT_4 = 3.337275778420344
J0_AT_1 = 0.7651976865579666


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
        # z = 10 forces many growing-then-shrinking terms; the lookahead stop
        # and compensation must still deliver near-full precision.
        assert ref_J(0, 10.0) == pytest.approx(-0.2459357644513483, rel=1e-12)


class TestCompensatedLoop:
    """ref_I and ref_J's series sum in locals; the accumulator-object loops
    they replaced are kept in the fixtures and must give the same bits."""

    # Small negative arguments check the sign ref_I restores for odd n; at
    # -1e-300 every order n >= 2 underflows to a zero, which stays +0.0.
    ZS = (-30.0, -17.3, -2.5, -1e-3, -1e-300, -0.0, 0.0, 1e-300, 1e-3, 0.37, 1.0, 4.0,
          9.99, 15.0, 22.2, 29.5, 30.0)
    ORDERS = list(range(0, 33)) + [40, 51, 64]

    @pytest.mark.parametrize("fn,fixture", [
        (ref_I, ref_I_accumulator),
        # ref_J's series, on the whole grid; the id names the oracle.
        pytest.param(_series_J, ref_J_accumulator, id="ref_J-ref_J_accumulator"),
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
        assert _miller_J([64], 1.0) == [pytest.approx(_series_J(64, 1.0), rel=1e-14)]
        assert _miller_J([0], 1.0) == [pytest.approx(J0_AT_1, rel=1e-15)]
        # Orders passed before a rescale are rescaled with the pass.
        assert _miller_J([0, 9, 10, 64], 1.0) == [
            pytest.approx(_series_J(n, 1.0), rel=1e-14) for n in (0, 9, 10, 64)]

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


class TestSharedOrders:
    """ref_I_orders and ref_J_orders give each order's one-order value, bit
    for bit: J orders that share a Miller start share one pass, and the
    series orders share their leading terms."""

    ZS = tuple(s * Z_MAX * i / 120 for i in range(121) for s in (1.0, -1.0)) + (
        2.404825557695773, -3.8317059702075125, 1e-300, -1e-300)
    ORDER_SETS = (
        list(range(N_MAX + 1)),  # every order: series, and Miller from each start
        [0, 1, 2, 5, 13, 14, 27, 40, 41, 64],
        list(range(1, N_MAX + 1, 3)),
        [7],
    )

    @pytest.mark.parametrize("shared,single", [(ref_I_orders, ref_I), (ref_J_orders, ref_J)],
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

    @pytest.mark.parametrize("shared", [ref_I_orders, ref_J_orders])
    def test_orders_are_validated(self, shared):
        assert shared([], 1.0) == []
        for orders in ([3, 3], [4, 2], [0, 65], [-1, 2]):
            with pytest.raises(ValueError):
                shared(orders, 1.0)
        with pytest.raises(ValueError, match=r"\|z\| <= 30"):
            shared([0, 1], 30.5)


class TestIntegerRule:
    """Orders and accuracy parameters are ints, bools not included: a float
    order used to be summed as the next integer (ref_J(2.5, 10.0) gave
    ref_J(3, 10.0) bit for bit), and True as 1."""

    @pytest.mark.parametrize("call", [
        lambda: ref_J(2.5, 10.0),
        lambda: ref_I(True, 1.0),
        lambda: ref_I(2.0, 1.0),
        lambda: ref_J(False, 1.0),
        lambda: ref_I_orders([1, 2.0], 1.0),
        lambda: ref_J_orders([True, 2], 1.0),
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
