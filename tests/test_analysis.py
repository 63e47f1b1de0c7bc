"""Series extraction and high-precision twin tests."""

from fractions import Fraction
from math import comb

import mpmath as mp
import pytest

from besselhyp import ApproxRequest, evaluate, ref_I, ref_J
from besselhyp.analysis import (
    approximant_series_coeff,
    bessel_i_series_coeff,
    first_mismatch_order,
    fit_error_slope,
    hp_approx,
    hp_error,
    hp_ref,
    node_power_sum,
)


class TestNodePowerSum:
    def test_spot_values(self):
        assert node_power_sum(1, 4) == 1
        assert node_power_sum(2, 2) == 2
        assert node_power_sum(2, 8) == Fraction(9, 8)
        assert node_power_sum(3, 2) == 3

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matched_moments(self, p):
        # Below the cutoff the weighted node powers reproduce the central
        # binomial moments exactly; at the cutoff they must not.
        for m in range(2, 4 * p, 2):
            assert node_power_sum(p, m) == Fraction(2 * p * comb(m, m // 2), 2**m)
        m = 4 * p
        assert node_power_sum(p, m) != Fraction(2 * p * comb(m, m // 2), 2**m)

    def test_validation(self):
        with pytest.raises(ValueError):
            node_power_sum(4, 2)
        with pytest.raises(ValueError):
            node_power_sum(2, 3)


class TestSeriesCoefficients:
    def test_bessel_coeffs(self):
        assert bessel_i_series_coeff(0, 0) == 1
        assert bessel_i_series_coeff(0, 2) == Fraction(1, 4)
        assert bessel_i_series_coeff(1, 1) == Fraction(1, 2)
        assert bessel_i_series_coeff(3, 3) == Fraction(1, 48)
        assert bessel_i_series_coeff(3, 2) == 0
        assert bessel_i_series_coeff(2, 1) == 0

    def test_approximant_spot_values(self):
        assert approximant_series_coeff(0, 2, 0) == 1
        assert approximant_series_coeff(0, 2, 2) == Fraction(1, 4)
        assert approximant_series_coeff(1, 2, 3) == Fraction(1, 16)
        # Low orders below n cancel exactly.
        assert approximant_series_coeff(3, 2, 1) == 0

    @pytest.mark.parametrize("n,p", [(0, 1), (0, 2), (1, 2), (3, 2), (2, 3)])
    def test_first_mismatch(self, n, p):
        cut = 4 * p - n
        for t in range(cut):
            assert approximant_series_coeff(n, p, t) == bessel_i_series_coeff(n, t)
        assert first_mismatch_order(n, p) == cut


class TestHighPrecisionTwins:
    @pytest.mark.parametrize("kind", ["I", "J"])
    @pytest.mark.parametrize("n,p,z", [(0, 2, 1.0), (2, 2, 2.0), (3, 2, 4.0), (5, 3, 2.0)])
    def test_hp_approx_matches_binary64(self, kind, n, p, z):
        req = ApproxRequest(kind, n, p, z, eps=1e-300)
        binary64 = evaluate(req)
        wide = float(hp_approx(kind, n, p, z, dps=40))
        assert binary64 == pytest.approx(wide, rel=1e-11)

    @pytest.mark.parametrize("kind,fn", [("I", ref_I), ("J", ref_J)])
    @pytest.mark.parametrize("n,z", [(0, 1.0), (3, 4.0), (8, 2.0)])
    def test_hp_ref_matches_binary64(self, kind, fn, n, z):
        assert fn(n, z) == pytest.approx(float(hp_ref(kind, n, z, dps=40)), rel=1e-13)

    def test_hp_error_sign(self):
        # Hyperbolic-side construction error is positive for z > 0.
        assert hp_error("I", 1, 2, 0.3, dps=40) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            hp_approx("K", 0, 2, 1.0)
        with pytest.raises(ValueError):
            hp_approx("I", 4, 1, 1.0)
        with pytest.raises(ValueError):
            hp_ref("K", 0, 1.0)


class TestSlopeFit:
    def test_order0_p1(self):
        slope = fit_error_slope("I", 0, 1, 0.1, 0.5, samples=10, dps=40)
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_error_slope("I", 0, 1, 0.5, 0.1)
        with pytest.raises(ValueError):
            fit_error_slope("I", 0, 1, 0.1, 0.5, samples=1)
