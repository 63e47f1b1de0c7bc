"""Oracle tests: series values, stopping policy, identities, self-consistency."""

import math

import pytest

from besselhyp import SeriesPolicy, identity_residual, ref_I, ref_J, tail_I0
from besselhyp.reference import IDENTITY_TAGS, ORACLE_TOL_ENV
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
    """ref_I/ref_J sum in locals; the accumulator-object loops they replaced
    are kept in the fixtures and must give the same bits."""

    ZS = (-30.0, -17.3, -2.5, -0.0, 0.0, 1e-300, 1e-3, 0.37, 1.0, 4.0, 9.99, 15.0,
          22.2, 29.5, 30.0)
    POLICIES = (None, SeriesPolicy(tol=1e-6), SeriesPolicy(max_terms=3))

    @pytest.mark.parametrize("fn,fixture", [(ref_I, ref_I_accumulator),
                                            (ref_J, ref_J_accumulator)])
    def test_bit_for_bit(self, fn, fixture):
        for n in list(range(0, 33)) + [40, 51, 64]:
            for z in self.ZS:
                for policy in self.POLICIES:
                    assert fn(n, z, policy).hex() == fixture(n, z, policy).hex(), (n, z)

    @pytest.mark.parametrize("fn,fixture", [(ref_I, ref_I_accumulator),
                                            (ref_J, ref_J_accumulator)])
    def test_tolerance_is_read_per_call(self, monkeypatch, fn, fixture):
        tight = fn(7, 12.5)
        monkeypatch.setenv(ORACLE_TOL_ENV, "1e-4")
        loose = fn(7, 12.5)
        assert loose != tight
        assert loose.hex() == fixture(7, 12.5).hex()
        monkeypatch.delenv(ORACLE_TOL_ENV)
        assert fn(7, 12.5) == tight


class TestSeriesPolicy:
    def test_defaults(self):
        policy = SeriesPolicy()
        assert policy.tol == 1e-15
        assert policy.max_terms == 200

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ORACLE_TOL_ENV, "1e-10")
        assert SeriesPolicy().tol == 1e-10

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(ORACLE_TOL_ENV, "-3")
        with pytest.raises(ValueError):
            SeriesPolicy()

    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesPolicy(tol=0.0)
        with pytest.raises(ValueError):
            SeriesPolicy(max_terms=0)

    def test_loose_policy_loosens_result(self):
        sloppy = ref_I(0, 4.0, SeriesPolicy(tol=1e-3))
        tight = ref_I(0, 4.0)
        assert sloppy != tight
        assert sloppy == pytest.approx(tight, rel=1e-2)


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
        with pytest.raises(ValueError):
            identity_residual("N4P", 1.0)

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
