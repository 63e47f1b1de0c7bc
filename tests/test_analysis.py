"""Series extraction and high-precision twin tests."""

import math
import tracemalloc
from fractions import Fraction
from math import comb

import mpmath as mp
import pytest

from besselhyp import ref_I, ref_J
from besselhyp import analysis
from besselhyp.analysis import (
    _geometric_grid,
    _is_noise,
    _largest_term_digits,
    _leading_error,
    _least_squares_slope,
    _log_error,
    approximant_series_coeff,
    bessel_i_series_coeff,
    first_mismatch_order,
    fit_error_slope,
    hp_approx,
    hp_error,
    hp_ref,
    node_power_sum,
)
from besselhyp.approximation import DomainError
from fixtures import hp_approx_mpf, hp_approx_per_term, hp_ref_mpf_loop, plan_value


class TestNodePowerSum:
    def test_spot_values(self):
        assert node_power_sum(1, 4) == 1
        assert node_power_sum(2, 2) == 2
        assert node_power_sum(2, 8) == Fraction(9, 8)
        assert node_power_sum(3, 2) == 3

    @pytest.mark.parametrize("p", range(1, 9))
    def test_matched_moments(self, p):
        # Below the cutoff the weighted node powers reproduce the central
        # binomial moments exactly; at the cutoff they must not.
        for m in range(2, 4 * p, 2):
            assert node_power_sum(p, m) == Fraction(2 * p * comb(m, m // 2), 2**m)
        m = 4 * p
        assert node_power_sum(p, m) != Fraction(2 * p * comb(m, m // 2), 2**m)

    def test_validation(self):
        with pytest.raises(ValueError):
            node_power_sum(0, 2)
        with pytest.raises(ValueError):
            node_power_sum(2, 3)
        with pytest.raises(ValueError):
            node_power_sum(2, -2)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_rational_node_squares(self, p):
        # cos^2(k pi / 2p) = (1 + cos(k pi / p)) / 2 is rational for p <= 3,
        # so there the sum can be taken term by term.
        squares = {1: (), 2: (Fraction(1, 2),), 3: (Fraction(3, 4), Fraction(1, 4))}[p]
        for m in range(0, 80, 2):
            assert node_power_sum(p, m) == 1 + sum(2 * s ** (m // 2) for s in squares)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_float_node_powers(self, p):
        nodes = [math.cos(k * math.pi / (2 * p)) for k in range(1, p)]
        for m in range(0, 80, 2):
            floats = 1.0 + sum(2.0 * c**m for c in nodes)
            assert float(node_power_sum(p, m)) == pytest.approx(floats, rel=1e-15, abs=0)


class TestSeriesCoefficients:
    def test_bessel_coeffs(self):
        assert bessel_i_series_coeff(0, 0) == 1
        assert bessel_i_series_coeff(0, 2) == Fraction(1, 4)
        assert bessel_i_series_coeff(1, 1) == Fraction(1, 2)
        assert bessel_i_series_coeff(3, 3) == Fraction(1, 48)
        assert bessel_i_series_coeff(3, 2) == 0
        assert bessel_i_series_coeff(2, 1) == 0
        for n, t, message in ((-1, 0, "order n must be >= 0, got -1"),
                              (0, -1, "power t must be >= 0, got -1")):
            with pytest.raises(ValueError, match=message):
                bessel_i_series_coeff(n, t)

    def test_approximant_spot_values(self):
        assert approximant_series_coeff(0, 2, 0) == 1
        assert approximant_series_coeff(0, 2, 2) == Fraction(1, 4)
        assert approximant_series_coeff(1, 2, 3) == Fraction(1, 16)
        # Low orders below n cancel exactly.
        assert approximant_series_coeff(3, 2, 1) == 0
        for n, t, message in ((-1, 0, "order n must be >= 0, got -1"),
                              (0, -1, "power t must be >= 0, got -1")):
            with pytest.raises(ValueError, match=message):
                approximant_series_coeff(n, 2, t)

    @pytest.mark.parametrize("n,p", [(n, p) for p in range(1, 9) for n in range(4 * p)])
    def test_first_mismatch(self, n, p):
        # 4p - n for n <= 2p; past that both series vanish below z**n, and
        # the leading z**n coefficient is the first that differs.
        cut = max(4 * p - n, n)
        for t in range(cut):
            assert approximant_series_coeff(n, p, t) == bessel_i_series_coeff(n, t)
        assert approximant_series_coeff(n, p, cut) != bessel_i_series_coeff(n, cut)
        assert first_mismatch_order(n, p) == cut

    def test_first_mismatch_builds_no_coefficient(self, monkeypatch):
        # The order is max(4p - n, n) from the arguments alone: the exact
        # first error coefficient, which costs seconds at large p, is not
        # built only to be dropped.
        def refuse(*args):
            raise AssertionError("coefficient built")

        monkeypatch.setattr(analysis, "approximant_series_coeff", refuse)
        monkeypatch.setattr(analysis, "_leading_error", refuse)
        assert first_mismatch_order(50, 3000) == 11950
        assert first_mismatch_order(40, 12) == 40

    @pytest.mark.parametrize("p", range(1, 9))
    def test_leading_error_is_the_first_coefficient_difference(self, p):
        # The order of the first nonzero coefficient of A_n - I_n, and its
        # size, against the first term of the aliased-binomial error series:
        # 2 S / (k0! 2**t), S = sum_j m! / ((m - 2pj)! (m + 2pj)!), m = n + k0.
        for n in range(4 * p):
            diffs = (approximant_series_coeff(n, p, t) - bessel_i_series_coeff(n, t)
                     for t in range(4 * p + n + 1))
            t, c = next((t, c) for t, c in enumerate(diffs) if c)
            k0 = max(0, 2 * p - n)
            m = n + k0
            aliased = sum(Fraction(math.factorial(m),
                                   math.factorial(m - 2 * p * j) * math.factorial(m + 2 * p * j))
                          for j in range(1, m // (2 * p) + 1))
            assert c == 2 * aliased / (math.factorial(k0) * 2**t), (n, p)
            lead_t, log_c = _leading_error(n, p)
            assert lead_t == t == n + 2 * k0, (n, p)
            assert log_c == pytest.approx(math.log10(c.numerator) - math.log10(c.denominator),
                                          rel=0, abs=1e-12), (n, p)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_hyperbolic_error_is_at_least_its_first_term(self, p):
        # Every term of the I error series is positive, so for z > 0 the
        # measured error is at least its first term c z**t, here with c the
        # exact coefficient difference and the digits 10 past the floor.
        for n in range(4 * p):
            t = first_mismatch_order(n, p)
            c = approximant_series_coeff(n, p, t) - bessel_i_series_coeff(n, t)
            for z in (0.05, 0.2, 1.0):
                lead = math.log10(c.numerator) - math.log10(c.denominator) + t * math.log10(z)
                dps = math.ceil(_largest_term_digits("I", n, p, z) - lead) + 10
                with mp.workdps(dps):
                    first = mp.mpf(c.numerator) / c.denominator * mp.mpf(z) ** t
                    assert hp_error("I", n, p, z, dps=dps) >= first, (n, z)


class TestHighPrecisionTwins:
    @pytest.mark.parametrize("kind", ["I", "J"])
    @pytest.mark.parametrize("n,p,z", [(0, 2, 1.0), (2, 2, 2.0), (3, 2, 4.0), (5, 3, 2.0)])
    def test_hp_approx_matches_binary64(self, kind, n, p, z):
        binary64 = plan_value(n, p, z, trig=kind == "J")
        wide = float(hp_approx(kind, n, p, z, dps=40))
        assert binary64 == pytest.approx(wide, rel=1e-11)

    @pytest.mark.parametrize("kind,fn", [("I", ref_I), ("J", ref_J)])
    @pytest.mark.parametrize("n,z", [(0, 1.0), (3, 4.0), (8, 2.0)])
    def test_hp_ref_matches_binary64(self, kind, fn, n, z):
        assert fn(n, z) == pytest.approx(float(hp_ref(kind, n, z, dps=40)), rel=1e-13)

    @pytest.mark.parametrize("kind", ["I", "J"])
    def test_hp_approx_at_zero(self, kind):
        # The order-0 constant is the only term left at z = 0; every n >= 2
        # is zero there, without a division by the zero mantissa.
        assert hp_approx(kind, 0, 2, 0.0) == 1
        for n in (2, 3, 7):
            assert hp_approx(kind, n, 2, 0.0) == 0

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
        # Orders outside 0 <= n < 4p, at z = 0 as anywhere else; 4p and past
        # it is the approximant's domain.
        for fn in (hp_approx, hp_error):
            for z in (0.0, 0.5):
                with pytest.raises(ValueError, match="order n must be >= 0"):
                    fn("I", -1, 2, z)
                with pytest.raises(DomainError, match="n < 4p = 8"):
                    fn("I", 8, 2, z)
        with pytest.raises(ValueError, match="order n must be >= 0"):
            fit_error_slope("I", -1, 2)
        with pytest.raises(DomainError, match="n < 4p = 8"):
            fit_error_slope("I", 8, 2)
        with pytest.raises(ValueError, match="order n must be >= 0"):
            first_mismatch_order(-1, 2)
        with pytest.raises(DomainError, match="n < 4p = 8"):
            first_mismatch_order(8, 2)
        with pytest.raises(ValueError, match="order n must be >= 0"):
            hp_ref("I", -1, 1.0)
        # An accuracy parameter p < 1 is rejected as ApproxRequest rejects
        # it, before the n < 4p check that reads nothing sensible for it.
        for p in (0, -1):
            for call in (lambda: hp_approx("I", 0, p, 1.0), lambda: hp_error("J", 0, p, 1.0),
                         lambda: fit_error_slope("I", 0, p), lambda: first_mismatch_order(0, p)):
                with pytest.raises(ValueError, match=f"accuracy parameter p must be >= 1, got {p}"):
                    call()
        # Orders and parameters are ints, as ApproxRequest takes them: not a
        # float, and not a bool.
        for call in (lambda: hp_approx("I", 2.0, 2, 0.5), lambda: hp_approx("I", True, 2, 0.5),
                     lambda: hp_approx("I", 2, 2.0, 0.5), lambda: hp_error("J", 2.0, 2, 0.5),
                     lambda: hp_ref("I", 1.5, 1.0), lambda: hp_ref("J", False, 1.0),
                     lambda: first_mismatch_order(2.0, 2), lambda: fit_error_slope("I", 2.0, 2)):
            with pytest.raises(TypeError, match="must be an int"):
                call()

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

    @pytest.mark.parametrize("z", [1e7 * (1 + 2**-52), -2e7, 1e8, 1e12, 1e20, -1e20, 10**400])
    def test_i_assembly_past_its_ceiling_raises(self, z):
        # e**|z| would be one integer of 1.44|z| bits: 112 MB at 1e8, a
        # MemoryError at 1e12 and a raw OverflowError at 1e20.
        with pytest.raises(ValueError, match=r"the wide I twin takes \|z\| <= 1e\+07"):
            hp_approx("I", 2, 2, z, dps=20)

    def test_i_assembly_at_its_ceiling_and_j_past_it(self):
        # A_0 = (1 + cosh z) / 2 at p = 1; J has no ceiling.
        with mp.workdps(30):
            want = (1 + mp.cosh(mp.mpf(1e7))) / 2
            assert abs(hp_approx("I", 0, 1, 1e7, dps=20) - want) <= mp.mpf("1e-19") * want
        assert abs(hp_approx("J", 2, 2, 1e20, dps=20)) < 1

    def test_hp_error_takes_the_reference_first(self, monkeypatch):
        # A series that cannot converge raises before the approximant is
        # built at the bits of e**|z|: that took seconds at 1e5 and minutes
        # at 1e6.
        def never(*args):
            raise AssertionError("the approximant was built")

        monkeypatch.setattr(analysis, "_approx_fixed", never)
        for z in (1e5, -1e6, 1e20, 1e7 * (1 + 2**-52)):
            with pytest.raises(ValueError, match="does not converge"):
                hp_error("I", 2, 2, z, dps=20)
        with pytest.raises(ValueError, match="does not converge"):
            fit_error_slope("I", 2, 2, z_lo=1e4, z_hi=1e6, samples=3)

    @pytest.mark.parametrize("twin", ["hp_ref", "hp_error"])
    @pytest.mark.parametrize("z", ["1e3000000", "1e30000000", "-1e30000000"])
    def test_huge_exponent_is_refused_before_its_integers(self, twin, z):
        # The convergence pre-test reads the exponent before the series
        # builds integers of about n log2|z| bits: those cost 53 MB at
        # 1e30000000 for hp_ref and 80 MB for hp_error.
        zz = mp.mpf(z)
        call = {"hp_ref": lambda: hp_ref("I", 2, zz, dps=20),
                "hp_error": lambda: hp_error("I", 2, 2, zz, dps=20)}[twin]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^the I_2 series at z=\S+ does not "
                                                 r"converge within 1000 terms$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


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

    # Both signs at tiny |z|, where the assembly cancels most, up to |z| = 30.
    _FLOOR_ZS = (1e-8, -1e-8, 1e-3, 0.08, 0.5, 4.0, 23.0, 30.0)

    @pytest.mark.parametrize("kind", ["I", "J"])
    @pytest.mark.parametrize("p", range(1, 9))
    def test_hp_approx_matches_mpf_within_its_floor(self, kind, p):
        # The fixed-point assembly against the same assembly in mpf: within
        # 10**-dps times the largest-term bound, the floor fit_error_slope
        # relies on; for I also where cosh nears the top of binary64, on
        # both sides, and for J where the reduction by pi/2 takes 17 bits of
        # |z|.  dps 100 and 200 take mpmath's kernels past their table
        # (cos/sin above 400 bits) and past their Taylor loop (exp above 600
        # bits).  The mpf form rounds each argument c_k z to dps digits,
        # which at |z| = 1e5 moves cos by 1e5 times the floor; it is taken
        # 10 digits finer.
        zs = self._FLOOR_ZS + ((700.0, -700.0) if kind == "I" else (1e5,))
        for dps in (30, 80) + ((100, 200) if p <= 4 else ()):
            for n in range(4 * p):
                for z in zs:
                    fast = hp_approx(kind, n, p, z, dps=dps)
                    slow = hp_approx_mpf(kind, n, p, z, dps=dps + 10)
                    floor = mp.mpf(10) ** (_largest_term_digits(kind, n, p, z) - dps)
                    with mp.workdps(dps + 20):
                        assert abs(fast - slow) <= floor, (n, z, dps)

    @pytest.mark.parametrize("kind", ["I", "J"])
    @pytest.mark.parametrize("p", range(1, 5))
    def test_log_error_is_ln_of_hp_error(self, kind, p):
        # The integer logarithm of the error sample against mpmath's log of
        # the same difference, on every sample clear of its rounding floor.
        resolved = 0
        for n in range(4 * p):
            for z in (0.08, 0.2, 0.5):
                log_err = _log_error(kind, n, p, z, 80)
                if _is_noise(log_err, _largest_term_digits(kind, n, p, z), 80):
                    continue
                resolved += 1
                with mp.workdps(80):
                    exact = float(mp.log(abs(hp_error(kind, n, p, z, dps=80))))
                assert log_err == pytest.approx(exact, rel=0, abs=1e-12), (n, z)
        assert resolved >= 2 * p

    def test_log_error_of_an_exact_agreement_is_minus_inf(self):
        # A_0 = 1 = I_0 at z = 0: the integer difference is exactly zero.
        assert _log_error("I", 0, 2, 0.0, 30) == -math.inf

    def test_hp_approx_takes_p_paired_transcendentals(self, monkeypatch):
        # One fixed-point exp (cos/sin pair) per argument z, c_k z: p per
        # sample.
        calls = []

        def counted(fn):
            def call(*args):
                calls.append(fn)
                return fn(*args)
            return call

        for name in ("exp_fixed", "cos_sin_fixed"):
            monkeypatch.setattr(analysis, name, counted(getattr(analysis, name)))
        for kind in ("I", "J"):
            for p in range(1, 9):
                for n in range(4 * p):
                    calls.clear()
                    hp_approx(kind, n, p, 0.3, dps=30)
                    assert len(calls) == p, (kind, n, p, len(calls))
                    calls.clear()
                    _log_error(kind, n, p, 0.3, 30)
                    assert len(calls) == p, (kind, n, p, len(calls))


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

    def test_geometric_grid(self):
        # Both ends exactly as given, a constant ratio in between.
        zs = _geometric_grid(0.1, 0.5, 8)
        assert len(zs) == 8 and zs[0] == 0.1 and zs[-1] == 0.5
        ratios = [b / a for a, b in zip(zs, zs[1:])]
        assert max(ratios) - min(ratios) < 1e-14
        assert _geometric_grid(0.08, 0.6, 2) == [0.08, 0.6]

    def test_least_squares_slope(self):
        xs = [math.log(z) for z in _geometric_grid(0.1, 0.5, 16)]
        assert _least_squares_slope(xs, [7.0 * x - 3.0 for x in xs]) == pytest.approx(7.0, rel=1e-14)
        # The fit through points off a line: slope of (0, 0), (1, 1), (2, 3).
        assert _least_squares_slope([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]) == pytest.approx(1.5, rel=1e-15)

    def test_one_measurement_per_sample(self, monkeypatch):
        # The digits are sized from the error's first term, 48 to 68 here,
        # so no sample is measured twice, although 50 digits would leave the
        # error of some samples rounding noise.
        calls = []

        def counted(*args):
            calls.append(args)
            return _log_error(*args)

        monkeypatch.setattr(analysis, "_log_error", counted)
        slope = fit_error_slope("I", 15, 4, dps=50)
        assert len(calls) == 16
        assert slope == pytest.approx(15.0, abs=0.01)

    def test_alternating_error_below_its_first_term_is_measured_at_the_cap(self, monkeypatch):
        # Past |z| of about 8 the J error falls far below c |z|**t, so some
        # samples sized from it are noise; each of those is measured once
        # more at 16 times dps, which resolves it.
        calls = []

        def counted(*args):
            calls.append(args)
            return _log_error(*args)

        monkeypatch.setattr(analysis, "_log_error", counted)
        slope = fit_error_slope("J", 0, 1, 2.0, 30.0, samples=40, dps=3)
        assert 40 < len(calls) <= 80
        assert {args[-1] for args in calls} >= {48}
        assert slope == pytest.approx(0.2615, abs=1e-4)

    def test_alternating_error_below_its_first_term_falls_back_to_dps(self, monkeypatch):
        # A J sample that is noise at its sized digits is measured again at
        # dps digits where those are more, and only then at the cap: here 3
        # samples are measured at 30 digits, none at 480, and the slope is
        # the one from measuring every sample at 30.
        calls = []

        def counted(*args):
            calls.append(args)
            return _log_error(*args)

        monkeypatch.setattr(analysis, "_log_error", counted)
        slope = fit_error_slope("J", 0, 1, 2.0, 30.0, samples=40, dps=30)
        digits = [args[-1] for args in calls]
        assert len(digits) == 43 and digits.count(30) == 3 and 480 not in digits
        assert slope == pytest.approx(0.261480, abs=5e-7)

    def test_zero_error_names_dps(self):
        # The (0, 8) error, below 1e-70, calls for more digits than 16 times
        # 2; at the cap of 32 it is exactly zero.
        with pytest.raises(ValueError, match="--dps 32"):
            fit_error_slope("I", 0, 8, 0.1, 0.5, samples=8, dps=2)
