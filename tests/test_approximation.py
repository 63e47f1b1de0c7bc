"""Approximant tests: request validation, path selection, parity, fixtures."""

import math

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from besselhyp import (
    ApproxRequest,
    Binary64OverflowError,
    DomainError,
    default_small_z_threshold,
    evaluate,
    ref_I,
    ref_J,
)
from besselhyp.analysis import hp_approx
from besselhyp.approximation import _assemble, _route
from fixtures import _approx_J_complex, closed_form_p2, spherical_approximant


def _near_approximant(value, kind, n, p, z, tol=1e-13):
    # Relative tol, or tol times the node terms' magnitude near a zero of J.
    want, scale = spherical_approximant(kind, n, p, z)
    return abs(value - want) <= tol * max(abs(want), scale)


class TestRequestValidation:
    def test_domain_restriction(self):
        with pytest.raises(DomainError):
            ApproxRequest("I", 4, 1, 1.0)
        with pytest.raises(DomainError):
            ApproxRequest("J", 8, 2, 1.0)
        ApproxRequest("I", 3, 1, 1.0)  # n = 4p - 1 is fine

    def test_kind_and_ranges(self):
        with pytest.raises(ValueError):
            ApproxRequest("K", 0, 1, 1.0)
        with pytest.raises(ValueError):
            ApproxRequest("I", -1, 1, 1.0)
        with pytest.raises(ValueError):
            ApproxRequest("I", 0, 0, 1.0)
        with pytest.raises(ValueError):
            ApproxRequest("I", 0, 1, math.inf)
        with pytest.raises(ValueError):
            ApproxRequest("I", 0, 1, 1.0, eps=0.0)

    @pytest.mark.parametrize("n,p", [(1.5, 2), (True, 2), (2.0, 2), ("2", 2),
                                     (0, 2.0), (0, True), (0, None)])
    def test_order_and_parameter_must_be_int(self, n, p):
        with pytest.raises(TypeError):
            ApproxRequest("I", n, p, 1.0)

    def test_int_subclass_is_an_int(self):
        class Order(int):
            pass

        assert evaluate(ApproxRequest("I", Order(2), 2, 1.5)) == evaluate(
            ApproxRequest("I", 2, 2, 1.5))

    def test_default_threshold(self):
        assert ApproxRequest("I", 0, 2, 1.0).eps == 0.25
        assert ApproxRequest("I", 3, 2, 1.0).eps == 1.0
        assert default_small_z_threshold(3) == 1.0


class TestApproxI:
    def test_order0_small_p2_cell(self):
        rel = (evaluate(ApproxRequest("I", 0, 2, 1.0)) - ref_I(0, 1.0)) / ref_I(0, 1.0)
        assert 1.4e-7 < rel < 1.8e-7

    def test_odd_order_vanishes_at_zero(self):
        assert evaluate(ApproxRequest("I", 1, 2, 0.0)) == 0.0

    def test_order0_at_zero(self):
        assert evaluate(ApproxRequest("I", 0, 2, 0.0)) == 1.0

    def test_order2_p2_cell(self):
        a = evaluate(ApproxRequest("I", 2, 2, 2.0))
        assert a == closed_form_p2(2, 2.0)
        rel = (a - ref_I(2, 2.0)) / ref_I(2, 2.0)
        assert 0.9e-3 < rel < 1.2e-3

    def test_p1_is_the_averaged_cosh(self):
        for z in (0.5, 1.5, 3.0):
            assert evaluate(ApproxRequest("I", 0, 1, z)) == (1.0 + math.cosh(z)) / 2.0

    @pytest.mark.parametrize("kind", ["I", "J"])
    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (5, 2), (7, 2), (11, 3)])
    def test_below_eps_is_the_approximant(self, kind, n, p):
        # Below eps the series is forced, and it is the approximant itself:
        # not the truncated I_n/J_n series, and not 0.0 for n >= 2p.
        for z in (1e-3, 0.01, 0.1, 0.2):
            req = ApproxRequest(kind, n, p, z)
            assert abs(z) < req.eps
            value = evaluate(req)
            assert value != 0.0
            assert _near_approximant(value, kind, n, p, z), (z, value)

    @pytest.mark.parametrize("n,p", [(0, 1), (0, 2), (1, 2), (2, 3), (3, 2), (3, 4),
                                     (9, 4), (15, 4), (24, 8), (31, 8)])
    def test_crossover_continuity(self, n, p):
        # Each side of eps and of the series crossover takes its own path;
        # for both kinds the values at adjacent floats agree to 1e-13 and
        # both match the approximant.
        for kind in "IJ":
            for edge in (ApproxRequest(kind, n, p, 1.0).eps,
                         _route(n, p, kind == "J").series_below):
                if edge <= 0:
                    continue
                below = evaluate(ApproxRequest(kind, n, p, math.nextafter(edge, 0.0)))
                above = evaluate(ApproxRequest(kind, n, p, edge))
                assert below == pytest.approx(above, rel=1e-13, abs=1e-300), (kind, edge)
                assert _near_approximant(above, kind, n, p, edge), (kind, edge)


class TestOverflow:
    @pytest.mark.parametrize("z", [710.0, 711.0, 720.0, -720.0])
    def test_hyperbolic_overflow_is_typed(self, z):
        with pytest.raises(Binary64OverflowError, match="overflow"):
            evaluate(ApproxRequest("I", 3, 2, z))

    def test_overflow_is_a_domain_and_an_overflow_error(self):
        for error in (DomainError, OverflowError):
            with pytest.raises(error):
                evaluate(ApproxRequest("I", 0, 2, 720.0))

    def test_values_below_the_edge_are_returned(self):
        # Just below the edge the value is still returned, and finite.
        assert math.isfinite(evaluate(ApproxRequest("I", 0, 2, 710.0)))
        assert math.isfinite(evaluate(ApproxRequest("I", 3, 2, 709.0)))

    @pytest.mark.parametrize("z", [710.0, 711.0, 720.0])
    def test_circular_kind_has_no_edge(self, z):
        assert math.isfinite(evaluate(ApproxRequest("J", 3, 2, z)))


class TestApproxJ:
    def test_order0_at_zero(self):
        assert evaluate(ApproxRequest("J", 0, 2, 0.0)) == 1.0

    def test_order0_p3(self):
        rel = abs(evaluate(ApproxRequest("J", 0, 3, 1.0)) - ref_J(0, 1.0)) / ref_J(0, 1.0)
        assert rel < 1e-9

    def test_order1_p2(self):
        rel = abs(evaluate(ApproxRequest("J", 1, 2, 1.0)) - ref_J(1, 1.0)) / abs(ref_J(1, 1.0))
        assert rel < 1e-5

    @pytest.mark.parametrize("n,p", [(n, p) for p in range(1, 9) for n in range(4 * p)])
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
    def test_complex_path_consistency(self, n, p, z):
        real_path = _assemble(n, p, z, trig=True)
        rotated = _approx_J_complex(n, p, z)
        assert rotated.imag == 0.0
        assert rotated.real == pytest.approx(real_path, rel=1e-12)


class TestParity:
    @given(
        n=st.integers(min_value=0, max_value=6),
        p=st.integers(min_value=1, max_value=4),
        z=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    )
    def test_hyperbolic(self, n, p, z):
        if n >= 4 * p:
            return
        plus = evaluate(ApproxRequest("I", n, p, z))
        minus = evaluate(ApproxRequest("I", n, p, -z))
        assert minus == (plus if n % 2 == 0 else -plus)

    @given(
        n=st.integers(min_value=0, max_value=6),
        p=st.integers(min_value=1, max_value=4),
        z=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    )
    def test_circular(self, n, p, z):
        if n >= 4 * p:
            return
        plus = evaluate(ApproxRequest("J", n, p, z))
        minus = evaluate(ApproxRequest("J", n, p, -z))
        assert minus == (plus if n % 2 == 0 else -plus)


class TestClosedForms:
    def test_order0_at_zero(self):
        assert closed_form_p2(0, 0.0) == 1.0

    def test_order1_value(self):
        # (1/4)(sinh 1 + sqrt 2 sinh(1/sqrt 2)), frozen from a 40-digit evaluation.
        got = closed_form_p2(1, 1.0)
        assert got == pytest.approx(0.5651607087291022, rel=1e-15)
        assert got == evaluate(ApproxRequest("I", 1, 2, 1.0))  # bit-for-bit

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("z", [0.25, 0.5, 1.0, 2.0, 4.0, 6.0])
    def test_agrees_with_assembly(self, n, z):
        assert closed_form_p2(n, z) == _assemble(n, 2, z, trig=False)

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_p2(4, 1.0)
        with pytest.raises(ValueError):
            closed_form_p2(2, 0.0)
        closed_form_p2(1, 0.0)  # no division for n < 2

    def test_order3_against_literal_transcription(self):
        # Independent lock on the order-3 form, including that its repeated
        # cosh combination is counted once: a plain transcription evaluated
        # at 50 digits must match the assembled approximant.
        def literal(z):
            z = mp.mpf(z)
            s = mp.sqrt(2)
            return (mp.mpf(1) / 4) * (
                (3 / z**2) * (mp.sinh(z) + s * mp.sinh(z / s))
                - (3 / z) * (mp.cosh(z) + mp.cosh(z / s))
                + (mp.sinh(z) + mp.sinh(z / s) / s)
            )

        with mp.workdps(50):
            for z in (0.5, 1.0, 2.0, 5.0):
                diff = abs(literal(z) - hp_approx("I", 3, 2, z))
                assert diff < mp.mpf(10) ** -40

    def test_double_counting_would_be_caught(self):
        # Counting the cosh combination twice shifts the value far beyond
        # every tolerance used above.
        z = 2.0
        nodes_term = math.cosh(z) + math.cosh(z / math.sqrt(2))
        doubled = closed_form_p2(3, z) - (3.0 / z) * nodes_term / 4.0
        rel = abs(doubled - evaluate(ApproxRequest("I", 3, 2, z))) / closed_form_p2(3, z)
        assert rel > 1e-1
