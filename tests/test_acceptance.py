"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the status lines.

Criteria whose error signals sit below binary64 resolution (scaling slopes,
one-sidedness and p-monotonicity at large p, circular-versus-hyperbolic
error ratios) are measured with the arbitrary-precision twins in
besselhyp.analysis; everything else runs on the production binary64 path.
"""

from besselhyp import (
    ApproxRequest,
    closed_form_coefficient,
    derive_expansion,
    evaluate,
    identity_residual,
    recurrence_table,
    ref_I,
    tail_I0,
)
from besselhyp.analysis import first_mismatch_order, fit_error_slope, hp_error
from besselhyp.coefficients import closed_form_row
from fixtures import (N_MAX_TESTED, _approx_J_complex, approximant_series_coeff,
                      bessel_i_series_coeff, closed_form_p2, plan_value)

# Two-significant-figure relative-error targets for the p=2 grid.
EXPECTED_REL_ERRORS = {
    (0, 1.0): 1.6e-7, (0, 2.0): 2.4e-5, (0, 3.0): 3.3e-4, (0, 4.0): 1.7e-3,
    (1, 1.0): 2.3e-6, (1, 2.0): 1.4e-4, (1, 3.0): 1.2e-3, (1, 4.0): 4.4e-3,
    (2, 1.0): 7.1e-5, (2, 2.0): 1.0e-3, (2, 3.0): 4.5e-3, (2, 4.0): 1.2e-2,
    (3, 1.0): 1.8e-3, (3, 2.0): 7.3e-3, (3, 3.0): 1.7e-2, (3, 4.0): 3.0e-2,
}

SERIES_PAIRS = [(0, 1), (0, 2), (1, 2), (3, 2), (2, 3)]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_error_table_reproduction():
    failures = []
    worst = 0.0
    for (n, z), target in sorted(EXPECTED_REL_ERRORS.items()):
        approx = evaluate(ApproxRequest("I", n, 2, z))
        oracle = ref_I(n, z)
        rel = (approx - oracle) / oracle
        deviation = abs(rel - target) / target
        worst = max(worst, deviation)
        if not (rel > 0.0 and deviation <= 0.25):
            failures.append((n, z, rel, target))
    ok = not failures
    report(1, ok, f"16 cells positive and within 25% of the targets "
                  f"(worst deviation {worst:.1%})")
    assert ok, failures


def test_criterion_2_coefficient_triple_agreement():
    table = recurrence_table(N_MAX_TESTED)
    ok = True
    for n in range(1, N_MAX_TESTED + 1):
        derived = derive_expansion(n)
        ok = ok and table[n] == derived == closed_form_row(n)
        for q in range(1, n + 1):
            ok = ok and closed_form_coefficient(n, q) == derived[q - 1]
    pins = (
        derive_expansion(1) == (1,)
        and derive_expansion(2) == (-1, 1)
        and derive_expansion(3) == (3, -3, 1)
        and derive_expansion(4) == (-15, 15, -6, 1)
    )
    ok = ok and pins
    report(2, ok, "derivation, recurrence table and closed forms agree exactly "
                  f"for n <= {N_MAX_TESTED}; printed rows n <= 4 match")
    assert ok


def test_criterion_3_identity_residuals():
    worst = 0.0
    for z in (0.5, 1.0, 2.0, 4.0):
        for tag in ("N2", "N4", "N8"):
            worst = max(worst, abs(identity_residual(tag, z)))
        for p in (1, 2, 3):
            worst = max(worst, abs(identity_residual("N4P", z, p=p)))
        worst = max(worst, abs(identity_residual("J4P", z, p=2)))
    ok = worst < 1e-12
    report(3, ok, f"all node-sum identity residuals below 1e-12 (worst {worst:.2e})")
    assert ok


def test_criterion_4_series_exactness():
    failures = []
    for n, p in SERIES_PAIRS:
        cut = 4 * p - n
        for t in range(cut):
            a = approximant_series_coeff(n, p, t)
            b = bessel_i_series_coeff(n, t)
            if a != b:
                failures.append((n, p, t, a, b))
        if first_mismatch_order(n, p) != cut:
            failures.append((n, p, "mismatch-order", first_mismatch_order(n, p), cut))
    ok = not failures
    report(4, ok, "approximant series coefficients match exactly below order "
                  "4p-n and first diverge exactly there, for all five pairs")
    assert ok, failures


def test_criterion_5_error_scaling_slopes():
    failures = []
    detail = []
    for n, p in SERIES_PAIRS:
        slope = fit_error_slope("I", n, p, 0.1, 0.5, samples=16, dps=50)
        expected = 4 * p - n
        detail.append(f"(n={n},p={p}): {slope:.3f} vs {expected}")
        if abs(slope - expected) > 0.2:
            failures.append((n, p, slope, expected))
    ok = not failures
    report(5, ok, "log-log error slopes within 0.2 of 4p-n: " + "; ".join(detail))
    assert ok, failures


def test_criterion_6_residual_identity_order0():
    worst = 0.0
    for p in (1, 2, 3):
        for z in (0.5, 1.0, 2.0):
            gap = evaluate(ApproxRequest("I", 0, p, z)) - ref_I(0, z) - tail_I0(p, z)
            worst = max(worst, abs(gap))
    ok = worst < 1e-13
    report(6, ok, f"order-0 approximant minus oracle equals the lacunary tail "
                  f"(worst gap {worst:.2e}, tol 1e-13)")
    assert ok


def test_criterion_7_one_sidedness_and_p_monotonicity():
    failures = []
    for n in range(4):
        for p in range(1, 5):
            if n >= 2 * p:
                continue
            for z in (0.5, 1.0, 2.0, 4.0):
                err = hp_error("I", n, p, z, dps=45)
                if not err > 0:
                    failures.append(("positivity", n, p, z, float(err)))
    for n in range(4):
        errors = [abs(hp_error("I", n, p, 1.0, dps=45))
                  for p in range(1, 5) if n < 2 * p]
        if not all(a > b for a, b in zip(errors, errors[1:])):
            failures.append(("monotonicity", n))
    ok = not failures
    report(7, ok, "construction error positive on the whole grid and strictly "
                  "decreasing in p at z=1")
    assert ok, failures


def test_criterion_8_circular_variant_consistency():
    failures = []
    worst_complex = 0.0
    worst_ratio = 0.0
    for p in (1, 2, 3, 4):
        for n in range(7):
            if n >= 4 * p:
                continue
            for z in (0.5, 1.0, 2.0, 4.0):
                real_path = plan_value(n, p, z, trig=True)
                rotated = _approx_J_complex(n, p, z)
                rel = abs(rotated.real - real_path) / abs(real_path)
                worst_complex = max(worst_complex, rel)
                if rel > 1e-12 or rotated.imag != 0.0:
                    failures.append(("complex-path", n, p, z, rel))
                err_i = abs(hp_error("I", n, p, z, dps=40))
                err_j = abs(hp_error("J", n, p, z, dps=40))
                ratio = float(err_j / err_i)
                worst_ratio = max(worst_ratio, ratio)
                if ratio > 3.0:
                    failures.append(("error-ratio", n, p, z, ratio))
    ok = not failures
    report(8, ok, f"circular assembly matches the rotated complex path "
                  f"(worst rel {worst_complex:.1e}) and its error never exceeds "
                  f"3x the hyperbolic error (worst ratio {worst_ratio:.3f})")
    assert ok, failures


def test_criterion_9_order3_closed_form_lock():
    worst = 0.0
    for i in range(20):
        z = 0.5 + (6.0 - 0.5) * i / 19
        assembled = plan_value(3, 2, z, trig=False)
        literal = closed_form_p2(3, z)
        worst = max(worst, abs(assembled - literal) / abs(literal))
    ok = worst <= 1e-14
    report(9, ok, f"order-3 closed form equals the assembled approximant "
                  f"(worst rel diff {worst:.1e}, tol 1e-14)")
    assert ok
