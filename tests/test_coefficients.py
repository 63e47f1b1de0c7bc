"""Exact-arithmetic tests for the coefficient engine.

The printed low-order expansions pin the derivation; the recurrence table
and the standalone closed forms must agree with it integer-for-integer.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import besselhyp
from besselhyp import (
    closed_form_coefficient,
    derive_expansion,
    double_factorial,
    recurrence_table,
)
from besselhyp.approximation import _route
from fixtures import N_MAX_TESTED

# Printed expansions for orders 1..4: a(n, q) for q = 1..n.
PRINTED = {
    1: (1,),
    2: (-1, 1),
    3: (3, -3, 1),
    4: (-15, 15, -6, 1),
}


class TestDoubleFactorial:
    @pytest.mark.parametrize("m,expected", [(-1, 1), (1, 1), (3, 3), (5, 15), (7, 105), (9, 945)])
    def test_values(self, m, expected):
        assert double_factorial(m) == expected

    @pytest.mark.parametrize("m", [-3, -2, 0, 2, 10])
    def test_rejects_even_or_below_minus_one(self, m):
        with pytest.raises(ValueError):
            double_factorial(m)


class TestDeriveExpansion:
    @pytest.mark.parametrize("n", sorted(PRINTED))
    def test_matches_printed_low_orders(self, n):
        assert derive_expansion(n) == PRINTED[n]

    def test_rejects_nonpositive_order(self):
        for n in (0, -3):
            with pytest.raises(ValueError):
                derive_expansion(n)

    def test_rejects_a_float_order(self):
        with pytest.raises(TypeError):
            derive_expansion(2.5)

    def test_true_is_order_one(self):
        assert derive_expansion(True) == (1,)

    def test_cold_high_order_nests_no_deeper_than_a_constant(self):
        # Each order is one rewrite of the order below, and the orders below
        # are asked for in ascending order, so a first call at a high order
        # runs under a recursion limit far below that order.
        env = dict(os.environ)
        src_dir = str(Path(besselhyp.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        code = ("import sys; sys.setrecursionlimit(100)\n"
                "from besselhyp.coefficients import derive_expansion, recurrence_table\n"
                "sys.exit(derive_expansion(400) != recurrence_table(400)[400])")
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @pytest.mark.parametrize("n", range(1, N_MAX_TESTED + 1))
    def test_structure(self, n):
        # One integer per q = 1..n, the last 1; the plan takes each term's
        # parity from q alone: odd q sinh-like, even q cosh-like.
        coeffs = derive_expansion(n)
        assert type(coeffs) is tuple and len(coeffs) == n
        assert all(type(c) is int for c in coeffs)
        assert coeffs[-1] == 1
        steps = _route(n, 8, "I").steps
        assert [odd for odd, _, _ in steps] == [q % 2 == 1 for q in range(1, n + 1)]

    @pytest.mark.parametrize("n", range(1, N_MAX_TESTED + 1))
    def test_sign_alternation(self, n):
        for q, coeff in enumerate(derive_expansion(n), 1):
            expected_sign = 1 if (n + q) % 2 == 0 else -1
            assert coeff * expected_sign > 0


class TestExpansionCoefficient:
    @pytest.mark.parametrize("n,q,expected", [
        (4, 1, -15),
        (3, 3, 1),
        (5, 1, 105),   # equals +(2*5-3)!!, cross-checked below against the closed form
    ])
    def test_values(self, n, q, expected):
        assert derive_expansion(n)[q - 1] == expected


class TestRecurrenceTable:
    def test_low_rows(self):
        table = recurrence_table(4)
        assert table[1] == (1,)
        assert table[2] == (-1, 1)
        assert table[3] == (3, -3, 1)
        assert table[4] == (-15, 15, -6, 1)

    def test_n_max_two(self):
        assert recurrence_table(2)[2] == (-1, 1)

    def test_row8_third_column(self):
        # (-1)**9 * (8-2) * (2*8-5)!! = -6 * 10395
        assert recurrence_table(8)[8][2] == -62370
        assert derive_expansion(8)[2] == -62370

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            recurrence_table(0)

    def test_out_of_table_lookup(self):
        table = recurrence_table(4)
        with pytest.raises(KeyError):
            table[5]

    @pytest.mark.parametrize("n", range(1, N_MAX_TESTED + 1))
    def test_agrees_with_derivation(self, n):
        table = recurrence_table(N_MAX_TESTED)
        assert table[n] == derive_expansion(n)


class TestClosedFormCoefficient:
    @pytest.mark.parametrize("n,q,expected", [
        (4, 3, -6),
        (4, 4, 1),
        (6, 1, -945),
        (5, 3, 45),
        (6, 4, 105),
    ])
    def test_values(self, n, q, expected):
        assert closed_form_coefficient(n, q) == expected

    def test_rejects_uncovered_column(self):
        with pytest.raises(ValueError):
            closed_form_coefficient(9, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            closed_form_coefficient(3, 4)

    @pytest.mark.parametrize("n", range(1, N_MAX_TESTED + 1))
    def test_agrees_with_derivation_everywhere_covered(self, n):
        covered = {1, 2, 3, 4, n - 1, n}
        for q, coeff in enumerate(derive_expansion(n), 1):
            if q in covered:
                assert closed_form_coefficient(n, q) == coeff
