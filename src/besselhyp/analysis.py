"""Series-space diagnostics and arbitrary-precision twins of the evaluators.

The production evaluators run in binary64.  Several properties of the
construction live far below binary64 resolution: the leading error term
scales like z**(4p-n) (like z**n once n > 2p), which already at p = 3
and z = 0.1 sits around 1e-20, orders of magnitude under the rounding noise
of the assembled kernels.  This module therefore re-evaluates the same formulas two other
ways:

* exact Maclaurin coefficients of the approximant over rational node
  squares (available for p <= 3, which covers the tested pairs), and
* arbitrary-precision evaluation of both the assembly (in mpmath) and the
  reference series (in fixed-point integers), for error measurements and
  log-log slope fits.

Neither path touches any library Bessel implementation; the reference
stays the same ascending series, just in wider arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath as mp
import numpy as np

from .approximation import _j_term_sign
from .coefficients import derive_expansion
from .kernels import KernelKind

# Squared interior nodes are rational for p <= 3: cos^2(k pi / 2p) equals
# (1 + cos(k pi / p)) / 2 and the inner cosine is rational at these p.
_EXACT_NODE_SQUARES: dict[int, tuple[Fraction, ...]] = {
    1: (),
    2: (Fraction(1, 2),),
    3: (Fraction(3, 4), Fraction(1, 4)),
}


def node_power_sum(p: int, m: int) -> Fraction:
    """Exact P(m) = 1 + 2 sum_k c_k**m for even m, p <= 3."""
    if p not in _EXACT_NODE_SQUARES:
        raise ValueError(f"exact node powers are tabulated for p <= 3, got p={p}")
    if m < 0 or m % 2:
        raise ValueError(f"node power sums are exact for even m >= 0, got m={m}")
    total = Fraction(1)
    for square in _EXACT_NODE_SQUARES[p]:
        total += 2 * square ** (m // 2)
    return total


def bessel_i_series_coeff(n: int, t: int) -> Fraction:
    """Exact z**t Maclaurin coefficient of I_n."""
    if n < 0 or t < 0:
        raise ValueError("need n >= 0 and t >= 0")
    if t < n or (t - n) % 2:
        return Fraction(0)
    k = (t - n) // 2
    return Fraction(1, 2**t * factorial(k) * factorial(n + k))


def approximant_series_coeff(n: int, p: int, t: int) -> Fraction:
    """Exact z**t Maclaurin coefficient of the order-n, parameter-p approximant.

    Expands every kernel as its power series with exact node powers:
    the z**j kernel coefficient is P(q + j)/j!, so the approximant's z**t
    coefficient collects P(t + n)/(t + n - q)! over the expansion terms.
    """
    if n < 0 or t < 0:
        raise ValueError("need n >= 0 and t >= 0")
    if (t - n) % 2:
        return Fraction(0)
    if n == 0:
        coeff = Fraction(1, 2 * p) * node_power_sum(p, t) / factorial(t)
        if t == 0:
            coeff += Fraction(1, 2 * p)  # the explicit constant of the averaged form
        return coeff
    weight = node_power_sum(p, t + n)
    acc = Fraction(0)
    for term in derive_expansion(n).terms:
        j = t + n - term.q
        if j >= 0:
            acc += Fraction(term.coeff, factorial(j))
    return Fraction(1, 2 * p) * weight * acc


def first_mismatch_order(n: int, p: int, search_limit: int | None = None) -> int:
    """Lowest order whose approximant coefficient differs from the I_n series.

    The matched moments of the nodes predict 4p - n, and that is the answer
    for n <= 2p.  For n > 2p every order below n matches as well (both
    series vanish there), and the first mismatch is the leading z**n term:
    the exact scan gives max(4p - n, n) for every n < 4p, p <= 3.  The scan
    stops with an error a little beyond that, so a structurally broken build
    cannot loop.
    """
    limit = max(4 * p - n, n) + 4 if search_limit is None else search_limit
    for t in range(limit + 1):
        if approximant_series_coeff(n, p, t) != bessel_i_series_coeff(n, t):
            return t
    raise RuntimeError(f"no mismatch found up to order {limit} for (n={n}, p={p})")


#: Extra fraction bits of the fixed-point reference sum over the working
#: precision; they absorb the truncation of up to ``_REF_MAX_TERMS`` terms.
_REF_GUARD_BITS = 40
_REF_MAX_TERMS = 1000


def _check_dps(dps: int) -> None:
    if dps < 1:
        raise ValueError(f"dps must be >= 1, got {dps}")


def _finite_mpf(z) -> mp.mpf:
    zz = mp.mpf(z)
    if not mp.isfinite(zz):
        raise ValueError(f"argument must be finite, got {z!r}")
    return zz


@lru_cache(maxsize=128)
def _hp_nodes(p: int, prec: int) -> tuple[tuple[mp.mpf, ...], tuple[tuple[mp.mpf, ...], ...]]:
    # Interior nodes c_k = cos(k pi / 2p), k = 1..p-1, at ``prec`` bits, and
    # the kernel weights rows[q] = (2 c_k**q)_k for q = 0..4p-1, each row
    # the previous one times the nodes.
    with mp.workprec(prec):
        nodes = tuple(mp.cos(mp.pi * k / (2 * p)) for k in range(1, p))
        rows = [tuple(mp.mpf(2) for _ in nodes)]
        for _ in range(1, 4 * p):
            rows.append(tuple(w * c for w, c in zip(rows[-1], nodes)))
    return nodes, tuple(rows)


def _hp_kernel(values: list[mp.mpf], weights: tuple[mp.mpf, ...]) -> mp.mpf:
    # kernel_q = f(z) + sum_k 2 c_k**q f(c_k z), from f taken once per argument.
    total = values[0]
    for w, f in zip(weights, values[1:]):
        total += w * f
    return total


def hp_approx(kind: str, n: int, p: int, z, dps: int = 50) -> mp.mpf:
    """Arbitrary-precision evaluation of the kernel assembly (no fallback).

    The assembly is evaluated directly at any z != 0, with exact integer
    coefficients and mpmath nodes, and it loses digits to the same small-z
    cancellation as the binary64 plan: at (I, 31, 8, 0.3) and ``dps=120``
    it is off by 5.6e-7 relative to a ``dps=300`` evaluation.  Callers
    must size ``dps`` for that loss on top of the digits they need.
    sinh and cosh (sin and cos) are each taken once per argument z, c_k z,
    so a call costs at most 2p transcendentals; the kernels are summed from
    them and assembled by the same Horner recurrence as the per-term form.
    """
    if kind not in ("I", "J"):
        raise ValueError(f"kind must be 'I' or 'J', got {kind!r}")
    if n >= 4 * p:
        raise ValueError(f"order n={n} needs n < 4p = {4 * p}")
    _check_dps(dps)
    with mp.workdps(dps):
        zz = _finite_mpf(z)
        nodes, rows = _hp_nodes(p, mp.mp.prec)
        trig = kind == "J"
        args = [zz] + [c * zz for c in nodes]
        cosh_like = mp.cos if trig else mp.cosh
        if n == 0:
            return (1 + _hp_kernel([cosh_like(a) for a in args], rows[0])) / (2 * p)
        if zz == 0:
            return mp.mpf(0)
        sinh_like = mp.sin if trig else mp.sinh
        odd = [sinh_like(a) for a in args]
        even = [cosh_like(a) for a in args] if n >= 2 else odd
        acc = mp.mpf(0)
        for term in derive_expansion(n).terms:
            value = _hp_kernel(odd if term.kind is KernelKind.SINH else even, rows[term.q])
            coeff = term.coeff * _j_term_sign(term.q) if trig else term.coeff
            acc = coeff * value if term.q == 1 else acc / zz + coeff * value
        if trig and n % 2:
            acc = -acc
        return acc / (2 * p)


def hp_ref(kind: str, n: int, z, dps: int = 50) -> mp.mpf:
    """Ascending series for I_n or J_n, summed in fixed point.

    (z/2)**n / n! * sum_k (+-(z/2)**2)**k / (k! (n+1)_k): the sum runs over
    Python integers scaled by 2**(prec + guard), with (z/2)**2 taken exactly
    from the bits of z, so only the common factor is rounded in mpf.  The
    sum stops once a term is below one unit of the last fixed-point place
    of max(|sum|, 1); a series that has not got there after
    ``_REF_MAX_TERMS`` terms raises ``ValueError``.
    """
    if kind not in ("I", "J"):
        raise ValueError(f"kind must be 'I' or 'J', got {kind!r}")
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    _check_dps(dps)
    with mp.workdps(dps):
        zz = _finite_mpf(z)
        bits = mp.mp.prec + _REF_GUARD_BITS
        one = 1 << bits
        man, exp = zz.man_exp  # z = man * 2**exp exactly
        shift = 2 * exp - 2 + bits
        # x = (z/2)**2 at scale 2**bits
        x = man * man << shift if shift >= 0 else (man * man) >> -shift
        term = total = one
        # Terms grow while (z/2)**2 > k (n + k); if they still grow at the
        # cap, the series cannot converge before it.
        if x >> bits < _REF_MAX_TERMS * (n + _REF_MAX_TERMS):
            for k in range(1, _REF_MAX_TERMS):
                term = (term * x >> bits) // (k * (n + k))
                total += -term if kind == "J" and k % 2 else term
                if term <= max(abs(total), one) >> bits:
                    return (zz / 2) ** n / mp.factorial(n) * mp.ldexp(total, -bits)
        raise ValueError(f"the {kind}_{n} series at z={z} does not converge "
                         f"within {_REF_MAX_TERMS} terms")


def hp_error(kind: str, n: int, p: int, z, dps: int = 50) -> mp.mpf:
    """Signed construction error approx - reference, in wide arithmetic."""
    with mp.workdps(dps):
        return hp_approx(kind, n, p, z, dps=dps) - hp_ref(kind, n, z, dps=dps)


def fit_error_slope(
    kind: str,
    n: int,
    p: int,
    z_lo: float = 0.1,
    z_hi: float = 0.5,
    samples: int = 16,
    dps: int = 50,
) -> float:
    """Least-squares slope of log|error| against log z on a geometric grid.

    The construction predicts a slope of max(4p - n, n) from the leading
    error term.
    """
    if not (0.0 < z_lo < z_hi):
        raise ValueError(f"need 0 < z_lo < z_hi, got [{z_lo}, {z_hi}]")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    _check_dps(dps)
    zs = np.geomspace(z_lo, z_hi, samples)
    log_z = []
    log_err = []
    with mp.workdps(dps):
        for z in zs:
            err = abs(hp_error(kind, n, p, float(z), dps=dps))
            if err == 0:
                raise ValueError(f"zero error at z={z}: approximant and reference "
                                 f"agree to all {dps} digits; increase dps (--dps)")
            log_z.append(math.log(float(z)))
            log_err.append(float(mp.log(err)))
    slope, _ = np.polyfit(np.asarray(log_z), np.asarray(log_err), 1)
    return float(slope)
