"""Exact-arithmetic tests for the coefficient engine.

The printed low-order expansions pin the derivation; the recurrence table
and the standalone closed forms must agree with it integer-for-integer.
"""

import pytest

from besselhyp import (
    DEFAULT_N_MAX,
    KernelKind,
    closed_form_coefficient,
    derive_expansion,
    double_factorial,
    expansion_coefficient,
    recurrence_table,
)

# Printed expansions for orders 1..4: (coeff, q, kind) per term.
PRINTED = {
    1: [(1, 1, KernelKind.SINH)],
    2: [(-1, 1, KernelKind.SINH), (1, 2, KernelKind.COSH)],
    3: [(3, 1, KernelKind.SINH), (-3, 2, KernelKind.COSH),
        (1, 3, KernelKind.SINH)],
    4: [(-15, 1, KernelKind.SINH), (15, 2, KernelKind.COSH),
        (-6, 3, KernelKind.SINH), (1, 4, KernelKind.COSH)],
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
        got = [(t.coeff, t.q, t.kind) for t in derive_expansion(n).terms]
        assert got == PRINTED[n]

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            derive_expansion(0)

    @pytest.mark.parametrize("n", range(1, DEFAULT_N_MAX + 1))
    def test_structure(self, n):
        exp = derive_expansion(n)
        assert len(exp.terms) == n
        for i, term in enumerate(exp.terms):
            assert term.q == i + 1
            assert term.kind is (KernelKind.SINH if term.q % 2 else KernelKind.COSH)
        assert exp.terms[-1].coeff == 1

    @pytest.mark.parametrize("n", range(1, DEFAULT_N_MAX + 1))
    def test_sign_alternation(self, n):
        for term in derive_expansion(n).terms:
            expected_sign = 1 if (n + term.q) % 2 == 0 else -1
            assert term.coeff * expected_sign > 0


class TestExpansionCoefficient:
    @pytest.mark.parametrize("n,q,expected", [
        (4, 1, -15),
        (3, 3, 1),
        (5, 1, 105),   # equals +(2*5-3)!!, cross-checked below against the closed form
    ])
    def test_values(self, n, q, expected):
        assert expansion_coefficient(n, q) == expected

    @pytest.mark.parametrize("n,q", [(3, 0), (3, 4), (0, 1)])
    def test_rejects_out_of_range(self, n, q):
        with pytest.raises(ValueError):
            expansion_coefficient(n, q)


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
        assert expansion_coefficient(8, 3) == -62370

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            recurrence_table(0)

    def test_out_of_table_lookup(self):
        table = recurrence_table(4)
        with pytest.raises(KeyError):
            table[5]

    @pytest.mark.parametrize("n", range(1, DEFAULT_N_MAX + 1))
    def test_agrees_with_derivation(self, n):
        table = recurrence_table(DEFAULT_N_MAX)
        assert table[n] == derive_expansion(n).coefficients()


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

    @pytest.mark.parametrize("n", range(1, DEFAULT_N_MAX + 1))
    def test_agrees_with_derivation_everywhere_covered(self, n):
        covered = {1, 2, 3, 4, n - 1, n}
        for q in range(1, n + 1):
            if q in covered:
                assert closed_form_coefficient(n, q) == expansion_coefficient(n, q)
