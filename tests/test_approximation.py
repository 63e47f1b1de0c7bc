"""Approximant tests: request validation, path selection, parity, fixtures."""

import copy
import dataclasses
import math
import pickle

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from besselhyp import (
    ApproxRequest,
    Binary64OverflowError,
    DomainError,
    evaluate,
    ref_I,
    ref_J,
)
from besselhyp.analysis import hp_approx
from besselhyp import approximation
from besselhyp.approximation import (
    _group,
    _group_sum,
    _node_sum,
    _node_terms,
    _route,
    _spherical_j,
)
from fixtures import _approx_J_complex, closed_form_p2, plan_value, spherical_approximant


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
        # eps is 0.25 (n + 1), read from the order, never passed.
        assert ApproxRequest("I", 0, 2, 1.0).eps == 0.25
        assert ApproxRequest("J", 3, 2, 1.0).eps == 1.0
        with pytest.raises(TypeError):
            ApproxRequest("I", 0, 2, 1.0, eps=0.5)
        # Below it every route tries the series first.
        for p in range(1, 9):
            for n in range(4 * p):
                for kind in "IJ":
                    eps = ApproxRequest(kind, n, p, 1.0).eps
                    assert _route(n, p, kind).series_below >= eps, (kind, n, p)

    def test_frozen(self):
        req = ApproxRequest("I", 2, 2, 1.5)
        for name in ("kind", "n", "p", "z", "eps", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(req, name, 2.0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(req, name)
        assert req == ApproxRequest("I", 2, 2, 1.5)

    def test_replace_validates(self):
        # Not a dataclass: a changed request is built anew from the fields,
        # and is validated again.
        req = ApproxRequest("J", 3, 2, 1.5)
        with pytest.raises(TypeError):
            dataclasses.replace(req, z=2)
        with pytest.raises(ValueError):
            ApproxRequest(**{**vars(req), "z": math.inf})
        with pytest.raises(DomainError):
            ApproxRequest(**{**vars(req), "n": 8})
        assert ApproxRequest(**{**vars(req), "z": 2}).z == 2.0

    def test_keywords_equality_and_hash(self):
        req = ApproxRequest(kind="I", n=3, p=2, z=1)
        assert (req.kind, req.n, req.p, req.z) == ("I", 3, 2, 1.0)
        assert type(req.z) is float
        same = ApproxRequest("I", 3, 2, 1.0)
        assert req == same and hash(req) == hash(same)
        assert len({req, same, ApproxRequest("I", 3, 2, 2.0)}) == 2
        assert hash(req) == hash(("I", 3, 2, 1.0))
        assert repr(req) == "ApproxRequest(kind='I', n=3, p=2, z=1.0)"
        assert ApproxRequest.__match_args__ == ("kind", "n", "p", "z")
        assert list(vars(req)) == ["kind", "n", "p", "z"]

    def test_value_semantics(self):
        # Pickled, copied or destructured, a request is the same value; it
        # equals no tuple of its fields.
        req = ApproxRequest("I", 3, 2, 1)
        others = [pickle.loads(pickle.dumps(req, protocol)) for protocol in range(6)]
        for other in [*others, copy.copy(req), copy.deepcopy(req)]:
            assert type(other) is ApproxRequest
            assert other == req and hash(other) == hash(req)
            assert type(other.z) is float
        match req:
            case ApproxRequest(kind, n, p, z):
                assert (kind, n, p, z) == ("I", 3, 2, 1.0)
            case _:
                pytest.fail("no match")
        assert req != ("I", 3, 2, 1.0) and ("I", 3, 2, 1.0) != req


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
    @pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (2, 2), (2, 3), (5, 2), (7, 2),
                                     (11, 3)])
    def test_below_eps_is_the_approximant(self, kind, n, p):
        # Below eps the series is forced, and it is the approximant itself:
        # not the truncated I_n/J_n series, not 0.0 for n >= 2p, and not a
        # path that cancels at the smallest arguments.
        for z in (1e-200, 1e-8, 1e-3, 0.01, 0.1, 0.2):
            req = ApproxRequest(kind, n, p, z)
            assert abs(z) < req.eps
            want, _ = spherical_approximant(kind, n, p, z)
            assert evaluate(req) == pytest.approx(float(want), rel=1e-13, abs=0), z

    @pytest.mark.parametrize("n,p", [(0, 1), (0, 2), (1, 2), (2, 3), (3, 2), (3, 4),
                                     (9, 4), (15, 4), (24, 8), (31, 8)])
    def test_crossover_continuity(self, n, p):
        # Each side of eps and of the series crossover takes its own path;
        # for both kinds the values at adjacent floats agree to 1e-13 and
        # both match the approximant.
        for kind in "IJ":
            for edge in (ApproxRequest(kind, n, p, 1.0).eps,
                         _route(n, p, kind).series_below):
                if edge <= 0:
                    continue
                below = evaluate(ApproxRequest(kind, n, p, math.nextafter(edge, 0.0)))
                above = evaluate(ApproxRequest(kind, n, p, edge))
                assert below == pytest.approx(above, rel=1e-13, abs=1e-300), (kind, edge)
                assert _near_approximant(above, kind, n, p, edge), (kind, edge)


class TestOverflow:
    @pytest.mark.parametrize("z", [711.0, 720.0, -720.0])
    def test_hyperbolic_overflow_is_typed(self, z):
        with pytest.raises(Binary64OverflowError, match="overflow"):
            evaluate(ApproxRequest("I", 3, 2, z))

    def test_overflow_is_a_domain_and_an_overflow_error(self):
        for error in (DomainError, OverflowError):
            with pytest.raises(error):
                evaluate(ApproxRequest("I", 0, 2, 720.0))

    def test_values_below_the_edge_are_returned(self):
        # Below the edge of cosh (about 710.48) the value is returned, and
        # finite, also where the plan's leading term a(n, 1) cosh z is not.
        assert math.isfinite(evaluate(ApproxRequest("I", 0, 2, 710.0)))
        assert math.isfinite(evaluate(ApproxRequest("I", 3, 2, 709.0)))
        assert math.isfinite(evaluate(ApproxRequest("I", 3, 2, 710.0)))
        assert math.isfinite(evaluate(ApproxRequest("I", 31, 8, 710.4)))

    @pytest.mark.parametrize("z", [710.0, 711.0, 720.0])
    def test_circular_kind_has_no_edge(self, z):
        assert math.isfinite(evaluate(ApproxRequest("J", 3, 2, z)))

    #: Orders whose series or plan coefficients do not fit in binary64.
    _BEYOND_BINARY64 = [("I", 140, 36, 2.0), ("I", 150, 40, 3.0), ("J", 150, 40, 3.0),
                        ("I", 160, 41, 1.0), ("I", 200, 100, 1.0)]

    @pytest.mark.parametrize("kind,n,p,z", _BEYOND_BINARY64)
    def test_coefficients_beyond_binary64_are_typed(self, kind, n, p, z):
        with pytest.raises(Binary64OverflowError, match="beyond binary64"):
            evaluate(ApproxRequest(kind, n, p, z))


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
        real_path = plan_value(n, p, z, trig=True)
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

    @pytest.mark.parametrize("kind", ["I", "J"])
    @pytest.mark.parametrize("n", [1, 3, 7, 31])
    def test_odd_order_at_negative_zero(self, kind, n):
        # The one exception to A_n(-z) = (-1)**n A_n(z) bit for bit (see
        # test_paths.test_parity): -0.0 < 0 is false, so an odd order gives
        # +0.0 at z = -0.0, as the oracle does.
        oracle = ref_I if kind == "I" else ref_J
        assert evaluate(ApproxRequest(kind, n, 8, -0.0)).hex() == "0x0.0p+0"
        assert oracle(n, -0.0).hex() == "0x0.0p+0"


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
        assert closed_form_p2(n, z) == plan_value(n, 2, z, trig=False)

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


class TestNodeSum:
    def _full(self, n, p, z):
        # Every node: the upward recurrence at or above the turning point,
        # and the group below it however small its bound.
        m = n - 1
        full = 0.0
        for b, (c, w) in enumerate(_node_terms(n, p)):
            if c * z < m:
                return z * (full + _group_sum(m, c * z, _group(n, p, b)[1])) / (2 * p)
            full += w * _spherical_j(m, c * z)
        return z * full / (2 * p)

    def test_negligible_nodes_are_skipped(self, monkeypatch):
        # At (J, 31, 8, 120) only the smallest node lies below the turning
        # point, and its bound is below half an ulp of the sum of the rest:
        # the group is skipped, and the sum stays within
        # tests/test_paths.py's bound of the one that takes it.
        n, p, z = 31, 8, 120.0
        assert sum(c * z < n - 1 for c, _ in _node_terms(n, p)) == 1
        full = self._full(n, p, z)
        calls = []

        def counted(m, x, coeffs):
            calls.append(x)
            return _group_sum(m, x, coeffs)

        monkeypatch.setattr(approximation, "_group_sum", counted)
        got = _node_sum(n, p, z)
        assert calls == []
        _, scale = spherical_approximant("J", n, p, z)
        assert abs(got - full) <= 1e-12 * scale
        # Where the group's bound is not negligible, it is taken, once.
        assert _node_sum(24, 8, 20.0) == self._full(24, 8, 20.0)
        assert calls == [20.0]


def test_error_figures_at_p2():
    # The README's figures for the paper's regime, p = 2, n = 0..3, z in
    # [1, 4] in steps of 0.05: I's relative error runs from 1.6e-7 to
    # 3.0e-2; J's relative error has no bound near the zeros of J_0 and J_1
    # there, but its absolute error stays below 2e-2.
    zs = [1.0 + k / 20 for k in range(61)]
    rel_I = [abs(evaluate(ApproxRequest("I", n, 2, z)) / ref_I(n, z) - 1.0)
             for n in range(4) for z in zs]
    abs_J = [abs(evaluate(ApproxRequest("J", n, 2, z)) - ref_J(n, z))
             for n in range(4) for z in zs]
    assert 1e-7 <= min(rel_I) and max(rel_I) < 3.1e-2
    assert max(abs_J) < 2e-2
