"""Node sets, and the per-term kernel sums of ``fixtures``: frozen spot
values, parity, derivative ladder.

The kernel sums are the literal reference the compiled plan is checked
against bit for bit (``test_assembly_bits.py``), so they are pinned here on
their own.
"""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from besselhyp.approximation import make_nodes
from fixtures import kernel_cos, kernel_cosh, kernel_sin, kernel_sinh, node_power

# Frozen from 40-digit evaluations of the defining sums, e.g.
# sinh(1) + sqrt(2) sinh(1/sqrt 2) for the first entry.
S1_P2_Z1 = 2.2606428349164087
S3_P2_Z1 = 1.717922014280105
C0_P2_Z1 = 4.064264307857956
C2_P2_Z1 = 2.8036724713366
COS0_P2_PI = -2.211399734157627


class TestMakeNodes:
    def test_p1_empty(self):
        assert make_nodes(1) == ()

    def test_p2(self):
        (c,) = make_nodes(2)
        assert c == pytest.approx(math.cos(math.pi / 4), rel=0, abs=0)

    def test_p4(self):
        expected = (0.9238795325112867, 0.7071067811865476, 0.3826834323650898)
        assert make_nodes(4) == pytest.approx(expected, rel=1e-15)

    def test_rejects_p0(self):
        with pytest.raises(ValueError):
            make_nodes(0)

    @pytest.mark.parametrize("p", range(2, 12))
    def test_strictly_decreasing_in_unit_interval(self, p):
        nodes = make_nodes(p)
        assert len(nodes) == p - 1
        assert all(0.0 < c < 1.0 for c in nodes)
        assert all(a > b for a, b in zip(nodes, nodes[1:]))

    def test_cached_instance(self):
        assert make_nodes(3) is make_nodes(3)


class TestKernelValues:
    def test_sinh_kernel_zero_argument(self):
        assert kernel_sinh(1, make_nodes(2), 0.0) == 0.0

    def test_sin_kernel_zero_argument(self):
        assert kernel_sin(1, make_nodes(2), 0.0) == 0.0

    def test_cosh_kernel_index0_at_zero(self):
        assert kernel_cosh(0, make_nodes(2), 0.0) == 3.0

    def test_cos_kernel_index0_at_zero(self):
        assert kernel_cos(0, make_nodes(2), 0.0) == 3.0

    def test_frozen_spot_values(self):
        nodes = make_nodes(2)
        assert kernel_sinh(1, nodes, 1.0) == pytest.approx(S1_P2_Z1, rel=1e-15)
        assert kernel_sinh(3, nodes, 1.0) == pytest.approx(S3_P2_Z1, rel=1e-15)
        assert kernel_cosh(0, nodes, 1.0) == pytest.approx(C0_P2_Z1, rel=1e-15)
        assert kernel_cosh(2, nodes, 1.0) == pytest.approx(C2_P2_Z1, rel=1e-15)
        assert kernel_cos(0, nodes, math.pi) == pytest.approx(COS0_P2_PI, rel=1e-15)

    def test_p1_reduces_to_plain_functions(self):
        nodes = make_nodes(1)
        for z in (0.3, 1.7, 4.0):
            assert kernel_sinh(3, nodes, z) == math.sinh(z)
            assert kernel_cosh(2, nodes, z) == math.cosh(z)
            assert kernel_sin(1, nodes, z) == math.sin(z)
            assert kernel_cos(0, nodes, z) == math.cos(z)

    def test_index_validation(self):
        nodes = make_nodes(2)
        with pytest.raises(ValueError):
            kernel_sinh(0, nodes, 1.0)
        with pytest.raises(ValueError):
            kernel_sin(0, nodes, 1.0)
        with pytest.raises(ValueError):
            kernel_cosh(-1, nodes, 1.0)
        with pytest.raises(ValueError):
            kernel_cos(-1, nodes, 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            kernel_sinh(1, make_nodes(2), bad)
        with pytest.raises(ValueError):
            kernel_cos(0, make_nodes(2), bad)

    def test_node_power_matches_pow(self):
        assert node_power(0.7, 0) == 1.0
        assert node_power(0.7, 3) == pytest.approx(0.7**3, rel=1e-15)


class TestParity:
    @given(
        q=st.integers(min_value=1, max_value=8),
        p=st.integers(min_value=1, max_value=4),
        z=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    def test_sinh_and_sin_kernels_are_odd(self, q, p, z):
        nodes = make_nodes(p)
        assert kernel_sinh(q, nodes, -z) == -kernel_sinh(q, nodes, z)
        assert kernel_sin(q, nodes, -z) == -kernel_sin(q, nodes, z)

    @given(
        q=st.integers(min_value=0, max_value=8),
        p=st.integers(min_value=1, max_value=4),
        z=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    def test_cosh_and_cos_kernels_are_even(self, q, p, z):
        nodes = make_nodes(p)
        assert kernel_cosh(q, nodes, -z) == kernel_cosh(q, nodes, z)
        assert kernel_cos(q, nodes, -z) == kernel_cos(q, nodes, z)


class TestDerivativeLadder:
    """d/dz raises the kernel index by one and swaps the family."""

    H = 1e-6

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", range(1, 7))
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.5, 4.0])
    def test_sinh_derivative_is_next_cosh(self, p, q, z, h=H):
        nodes = make_nodes(p)
        fd = (kernel_sinh(q, nodes, z + h) - kernel_sinh(q, nodes, z - h)) / (2 * h)
        assert fd == pytest.approx(kernel_cosh(q + 1, nodes, z), rel=1e-8)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", range(0, 7))
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.5, 4.0])
    def test_cosh_derivative_is_next_sinh(self, p, q, z, h=H):
        nodes = make_nodes(p)
        fd = (kernel_cosh(q, nodes, z + h) - kernel_cosh(q, nodes, z - h)) / (2 * h)
        assert fd == pytest.approx(kernel_sinh(q + 1, nodes, z), rel=1e-8)


class TestContinuation:
    """The circular kernels are the rotated-argument hyperbolic kernels."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", range(1, 5))
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
    def test_sin_kernel_matches_rotated_sinh(self, p, q, z):
        nodes = make_nodes(p)
        w = complex(0.0, -z)
        rotated = cmath.sinh(w)
        for c in nodes:
            rotated += 2.0 * node_power(c, q) * cmath.sinh(c * w)
        expected = complex(0.0, -kernel_sin(q, nodes, z))
        assert abs(rotated - expected) <= 1e-12 * max(abs(expected), 1e-300)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", range(0, 5))
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
    def test_cos_kernel_matches_rotated_cosh(self, p, q, z):
        nodes = make_nodes(p)
        w = complex(0.0, -z)
        rotated = cmath.cosh(w)
        for c in nodes:
            rotated += 2.0 * node_power(c, q) * cmath.cosh(c * w)
        expected = complex(kernel_cos(q, nodes, z), 0.0)
        assert abs(rotated - expected) <= 1e-12 * max(abs(expected), 1e-300)
