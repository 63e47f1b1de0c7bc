"""Series extraction and high-precision twin tests."""

from fractions import Fraction
from math import comb

import mpmath as mp
import pytest

from besselhyp import ref_I, ref_J
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
from besselhyp.approximation import _assemble
from fixtures import hp_approx_per_term, hp_ref_mpf_loop


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

    @pytest.mark.parametrize("n,p", [(n, p) for p in (1, 2, 3) for n in range(4 * p)])
    def test_first_mismatch(self, n, p):
        # 4p - n for n <= 2p; past that both series vanish below z**n, and
        # the leading z**n coefficient is the first that differs.
        cut = max(4 * p - n, n)
        for t in range(cut):
            assert approximant_series_coeff(n, p, t) == bessel_i_series_coeff(n, t)
        assert first_mismatch_order(n, p) == cut


class TestHighPrecisionTwins:
    @pytest.mark.parametrize("kind", ["I", "J"])
    @pytest.mark.parametrize("n,p,z", [(0, 2, 1.0), (2, 2, 2.0), (3, 2, 4.0), (5, 3, 2.0)])
    def test_hp_approx_matches_binary64(self, kind, n, p, z):
        binary64 = _assemble(n, p, z, trig=kind == "J")
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

    @pytest.mark.parametrize("z", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_argument_raises(self, z):
        with pytest.raises(ValueError, match="finite"):
            hp_approx("I", 3, 2, z)
        with pytest.raises(ValueError, match="finite"):
            hp_ref("J", 3, z)

    def test_too_few_digits_raise(self):
        for dps in (0, -5):
            with pytest.raises(ValueError, match="dps"):
                hp_approx("I", 1, 2, 0.3, dps=dps)
            with pytest.raises(ValueError, match="dps"):
                hp_ref("I", 1, 0.3, dps=dps)

    @pytest.mark.parametrize("kind,n,z", [("I", 0, 1e4), ("J", 0, 1e4), ("I", 3, 1900.0),
                                          ("I", 0, 1e308)])
    def test_unconverged_series_raises(self, kind, n, z):
        # Past the term cap the sum would be a truncated, meaningless number.
        with pytest.raises(ValueError, match="converge"):
            hp_ref(kind, n, z, dps=20)


#: Arguments cycled over the orders, from the cancellation-heavy 0.5 up.
_TWIN_ZS = (0.5, 1.7, 4.0, 9.5, 23.0)


class TestFastTwins:
    """The twins against their straightforward forms in ``tests/fixtures.py``."""

    @pytest.mark.parametrize("kind", ["I", "J"])
    @pytest.mark.parametrize("p", range(1, 9))
    def test_hp_approx_matches_per_term(self, kind, p):
        for n in range(4 * p):
            z = _TWIN_ZS[(n + p) % len(_TWIN_ZS)]
            fast = hp_approx(kind, n, p, z, dps=150)
            slow = hp_approx_per_term(kind, n, p, z, dps=150)
            with mp.workdps(150):
                assert abs(fast - slow) <= mp.mpf("1e-40") * abs(slow), (n, z)

    # Three zeros of J_0, J_1 and J_5 sit among the arguments.
    _REF_ZS = (0.0, 0.5, 1.0, 2.404825557695773, 3.8317059702075125, 7.0,
               13.3, 15.700174079711671, 20.0, 29.0, 30.0, -3.5, -30.0)

    @pytest.mark.parametrize("kind", ["I", "J"])
    def test_hp_ref_matches_mpf_loop(self, kind):
        # The mpf loop stops on an absolute cutoff below 1 and cancels in J at
        # large |z|; the floor of 1e-6 covers its own error there.
        for n in range(32):
            for z in self._REF_ZS:
                fast = hp_ref(kind, n, z, dps=60)
                slow = hp_ref_mpf_loop(kind, n, z, dps=60)
                with mp.workdps(60):
                    tol = mp.mpf("1e-40") * max(abs(slow), mp.mpf("1e-6"))
                    assert abs(fast - slow) <= tol, (n, z)

    @pytest.mark.parametrize("kind", ["I", "J"])
    def test_hp_ref_matches_mpmath_bessel(self, kind):
        # An outside check, relative everywhere: down to the tiny values of
        # high orders at small z and next to the zeros of J.
        bessel = mp.besseli if kind == "I" else mp.besselj
        for n in range(32):
            for z in self._REF_ZS:
                fast = hp_ref(kind, n, z, dps=60)
                with mp.workdps(90):
                    exact = bessel(n, mp.mpf(z))
                    assert abs(fast - exact) <= mp.mpf("1e-50") * abs(exact), (n, z)

    def test_hp_approx_takes_at_most_2p_transcendentals(self, monkeypatch):
        calls = []

        def counted(fn):
            def call(x):
                calls.append(fn)
                return fn(x)
            return call

        for name in ("sinh", "cosh", "sin", "cos"):
            monkeypatch.setattr(mp, name, counted(getattr(mp, name)))
        for kind in ("I", "J"):
            for p in range(1, 9):
                hp_approx(kind, 0, p, 0.3, dps=30)  # caches the nodes at this precision
                for n in range(4 * p):
                    calls.clear()
                    hp_approx(kind, n, p, 0.3, dps=30)
                    assert 0 < len(calls) <= 2 * p, (kind, n, p, len(calls))


class TestSlopeFit:
    def test_order0_p1(self):
        slope = fit_error_slope("I", 0, 1, 0.1, 0.5, samples=10, dps=40)
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_error_slope("I", 0, 1, 0.5, 0.1)
        with pytest.raises(ValueError):
            fit_error_slope("I", 0, 1, 0.1, 0.5, samples=1)
        with pytest.raises(ValueError, match="dps"):
            fit_error_slope("I", 0, 1, 0.1, 0.5, dps=0)

    def test_zero_error_names_dps(self):
        # At 5 digits the approximant and the series agree exactly.
        with pytest.raises(ValueError, match="--dps"):
            fit_error_slope("I", 0, 1, 0.1, 0.5, samples=8, dps=5)
