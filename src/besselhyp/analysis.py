"""Series-space diagnostics and arbitrary-precision twins of the evaluators.

The production evaluators run in binary64.  Several properties of the
construction live far below binary64 resolution: the leading error term
scales like z**(4p-n) (like z**n once n > 2p), which already at p = 3
and z = 0.1 sits around 1e-20, orders of magnitude under the rounding noise
of the assembled kernels.  This module therefore re-evaluates the same formulas two other
ways:

* exact Maclaurin coefficients of the approximant from the exact node
  power sums (a binomial sum, for every p), and
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
from math import comb, factorial

import mpmath as mp
import numpy as np

from .approximation import _j_term_sign
from .coefficients import derive_expansion


def node_power_sum(p: int, m: int) -> Fraction:
    """Exact P(m) = 1 + 2 sum_k c_k**m for even m >= 0, any p >= 1.

    P(0) = 2p - 1, one per node.  For m = 2j >= 2, P(m) / 2p is the
    4p-point trapezoidal mean of cos**m (the node cos(pi/2) = 0 adds
    nothing), which is exactly 4**-j sum_{l = j mod 2p} C(2j, l)
    (Trefethen & Weideman, SIAM Rev. 56, 2014).
    """
    if p < 1:
        raise ValueError(f"accuracy parameter p must be >= 1, got {p}")
    if m < 0 or m % 2:
        raise ValueError(f"node power sums are exact for even m >= 0, got m={m}")
    j = m // 2
    if j == 0:
        return Fraction(2 * p - 1)
    total = sum(comb(m, l) for l in range(j % (2 * p), m + 1, 2 * p))
    return Fraction(2 * p * total, 4**j)


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
    for q, coeff in enumerate(derive_expansion(n), 1):
        j = t + n - q
        if j >= 0:
            acc += Fraction(coeff, factorial(j))
    return Fraction(1, 2 * p) * weight * acc


def first_mismatch_order(n: int, p: int) -> int:
    """Lowest order whose approximant coefficient differs from the I_n series.

    The matched moments of the nodes predict 4p - n, and that is the answer
    for n <= 2p.  For n > 2p every order below n matches as well (both
    series vanish there), and the first mismatch is the leading z**n term:
    the exact scan gives max(4p - n, n) for every n < 4p, p <= 8.  The scan
    stops with an error a little beyond that, so a structurally broken build
    cannot loop.
    """
    limit = max(4 * p - n, n) + 4
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
    """Arbitrary-precision approximant: always the kernel assembly.

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
        for q, coeff in enumerate(derive_expansion(n), 1):
            value = _hp_kernel(odd if q % 2 else even, rows[q])
            if trig:
                coeff *= _j_term_sign(q)
            acc = coeff * value if q == 1 else acc / zz + coeff * value
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


#: A sampled error is measured only where it exceeds its rounding floor by
#: this many digits.
_FLOOR_MARGIN_DIGITS = 3


def _largest_term_digits(kind: str, n: int, p: int, z: float) -> float:
    """log10 of a bound on the largest term the assembly sums at z != 0.

    The terms are a(n, q) z**(q-n) kernel_q(z) / 2p, with the Rayleigh
    coefficients a(n, q) and |kernel_q| at most (2p - 1) e**|z| for I and
    2p - 1 for J; order 0 is the kernel alone.
    """
    az = abs(z)
    digits = math.log10((2 * p - 1) / (2 * p)) + (az / math.log(10) if kind == "I" else 0.0)
    if n == 0:
        return digits
    log_z = math.log10(az)
    return digits + max(coeff + power * log_z for coeff, power in _coefficient_digits(n))


@lru_cache(maxsize=None)
def _coefficient_digits(n: int) -> tuple[tuple[float, int], ...]:
    # (log10 |a(n, q)|, q - n) for each term of the order-n assembly.
    return tuple((math.log10(abs(coeff)), q - n)
                 for q, coeff in enumerate(derive_expansion(n), 1))


def _log_error(kind: str, n: int, p: int, z: float, dps: int) -> float:
    # ln|approx - reference| at dps digits; -inf where they agree exactly.
    with mp.workdps(dps):
        return float(mp.log(abs(hp_error(kind, n, p, z, dps=dps))))


def _is_noise(log_err: float, top: float, dps: int) -> bool:
    # Within the margin of the rounding floor 10**-dps times the largest
    # term, 10**top: what is left there is rounding, not the error.
    return log_err <= (top + _FLOOR_MARGIN_DIGITS - dps) * math.log(10)


def _resolved_log_error(kind: str, n: int, p: int, z: float, dps: int) -> float | None:
    """ln|error| at z, measured at ``dps`` digits or, where that is within
    the margin of its rounding floor, at the first doubling of ``dps`` that
    clears it; None if it is still noise at 16 times ``dps``."""
    top = _largest_term_digits(kind, n, p, z)
    work = dps
    while work <= 16 * dps:
        log_err = _log_error(kind, n, p, z, work)
        if not _is_noise(log_err, top, work):
            return log_err
        work *= 2
    return None


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
    error term.  The assembly cancels near z = 0, so a sample's error is
    measured only to 10**-dps times the assembly's largest term; ``dps`` is
    therefore a floor: a sample whose error is within 1e3 of that rounding
    floor is measured again at doubling digits until it clears it, and
    ``ValueError`` is raised only if it is still noise at 16 times ``dps``.
    """
    if not (0.0 < z_lo < z_hi):
        raise ValueError(f"need 0 < z_lo < z_hi, got [{z_lo}, {z_hi}]")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    _check_dps(dps)
    zs = [float(z) for z in np.geomspace(z_lo, z_hi, samples)]
    log_errs = []
    for z in zs:
        log_err = _resolved_log_error(kind, n, p, z, dps)
        if log_err is None:
            raise ValueError(
                f"the error at z={z} is within 1e3 of the rounding floor even at "
                f"{16 * dps} digits; the fit needs more than --dps {16 * dps}")
        log_errs.append(log_err)
    log_z = [math.log(z) for z in zs]
    slope, _ = np.polyfit(np.asarray(log_z), np.asarray(log_errs), 1)
    return float(slope)
