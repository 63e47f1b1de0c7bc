"""Series-space diagnostics and arbitrary-precision twins of the evaluators.

The production evaluators run in binary64.  Several properties of the
construction live far below binary64 resolution: the leading error term
scales like z**(4p-n) (like z**n once n > 2p), which already at p = 3
and z = 0.1 sits around 1e-20, orders of magnitude under the rounding noise
of the assembled kernels.  This module therefore reaches them two other ways:

* the closed form of the error's first term (_leading_error), one
  aliased binomial in exact integers, which sizes each error sample, and
* arbitrary-precision evaluation of both the assembly and the reference
  series, each in fixed-point integers (_approx_fixed, _ref_fixed), for
  error measurements and log-log slope fits.  The assembly takes one call
  of mpmath's fixed-point kernels (exp_fixed, whose e**|x| and reciprocal
  give cosh and sinh, or cos_sin_fixed) on the integer argument z, c_k z
  at the working scale, so p per sample; everything else is integer
  arithmetic.  An error sample is one integer difference of the two at a
  common scale, and its logarithm is read from the integer's bits.

Neither path touches any library Bessel implementation, or the binary64
plan; the reference stays the same ascending series, just in wider
arithmetic.  Arguments meet the rules approximation raises, plus dps >= 1.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import factorial
from operator import mul

import mpmath as mp
from mpmath.libmp import (dps_to_prec, from_int, from_man_exp, ln2_fixed, mpf_div, mpf_gt,
                          round_nearest, to_fixed)
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .approximation import _signed_expansion, _validate_args, _validate_domain, _validate_finite
from .coefficients import closed_form_row


def first_mismatch_order(n: int, p: int) -> int:
    """Lowest order whose approximant coefficient differs from the I_n series:
    max(4p - n, n), the order of the error's first term (_leading_error)."""
    _validate_args(n=n, p=p)
    _validate_domain(n, p)
    return max(4 * p - n, n)


@lru_cache(maxsize=None)
def _leading_error(n: int, p: int) -> tuple[int, float]:
    """(t, log10 c) of the first term c z**t of A_n(z) - I_n(z), 0 <= n < 4p.

    The error is the series, with (-1)**k on each term for J,

        A_n - I_n = 2 sum_k (z/2)**(n+2k) / k!
                      * sum_{j>=1} (n+k)! / ((n+k-2pj)! (n+k+2pj)!):

    the 4p-point trapezoidal mean w(m) of cos**(2m) exceeds its exact mean
    C(2m, m) / 4**m by the aliased binomials 2 * 4**-m * sum_{j>=1}
    C(2m, m - 2pj) (Trefethen & Weideman, SIAM Rev. 56, 2014).  The inner
    sum first has a term at k0 = max(0, 2p - n), so t = n + 2 k0 =
    max(4p - n, n); there m = n + k0 < 4p, so j = 1 is its only term and

        c = 2 * 2**-t * m! / (k0! (m - 2p)! (m + 2p)!).

    For I every term is positive, so c z**t is a lower bound on the error
    for z > 0.  log10 c is read from the integers of the reduced fraction,
    which no float holds for large p.
    """
    k0 = max(0, 2 * p - n)
    m, t = n + k0, n + 2 * k0
    num = 2 * factorial(m)
    den = factorial(k0) * factorial(m - 2 * p) * factorial(m + 2 * p) << t
    g = math.gcd(num, den)
    return t, math.log10(num // g) - math.log10(den // g)


#: Extra fraction bits of the fixed-point twins over the working precision;
#: they absorb the roundings of the kernel sums and Horner steps, and the
#: truncation of up to ``_REF_MAX_TERMS`` series terms.
_GUARD_BITS = 40
_REF_MAX_TERMS = 1000
#: Largest |z| the I assembly twin takes: it carries e**|z| as one integer of
#: about 1.44 |z| bits, 1.8 MB here and beyond memory by 1e12.
_I_TWIN_Z_MAX = 10**7
_LN2 = math.log(2)


def _check_dps(dps: int) -> None:
    if dps < 1:
        raise ValueError(f"dps must be >= 1, got {dps}")


def _twin_argument(kind: str, n: int, p: int | None, z, dps: int) -> tuple[mp.mpf, int, int]:
    """ApproxRequest's checks (p None for hp_ref), with dps >= 1 before z;
    returns z as an mpf at dps digits and its exact man, exp (man 2**exp)."""
    _validate_args(kind, n, 1 if p is None else p)
    _check_dps(dps)
    with mp.workdps(dps):
        zz = mp.mpf(z)
    _validate_finite(zz)
    if p is not None:
        _validate_domain(n, p)
    return (zz, *_man_exp(zz))


def _shift(x: int, bits: int) -> int:
    # x * 2**bits, floored.
    return x << bits if bits >= 0 else x >> -bits


def _man_exp(z) -> tuple[int, int]:
    # z = man * 2**exp exactly, for a float or an mpf.
    if type(z) is float:
        num, den = z.as_integer_ratio()
        return num, 1 - den.bit_length()
    sign, man, exp, _ = z._mpf_
    return -man if sign else man, exp


def _e_bits(man: int, exp: int) -> int:
    # floor(|z| / ln 2) to within one, from 1/ln 2 to 64 bits past the units
    # of |z| = |man| 2**exp: e**|z| < 2**(_e_bits + 2).  Every I assembly
    # sizes its integers by it, so the twin's own |z| limit is raised here,
    # before any of them is built; |z| < 2**mag, and 2**23 is below it.
    mag = exp + man.bit_length()
    if mag > 23 and mpf_gt(from_man_exp(abs(man), exp), from_int(_I_TWIN_Z_MAX)):
        raise ValueError(f"the wide I twin takes |z| <= {_I_TWIN_Z_MAX:.0e}: e**|z| would "
                         "be one integer of about 1.44|z| bits")
    w = max(0, mag) + 64
    return _shift(abs(man) * ((1 << 2 * w) // ln2_fixed(w)), exp - w)


def _scale(dps: int, n: int, p: int, man: int, exp: int) -> int:
    """Fraction bits F at which the twins carry values for dps digits: the
    working precision, _GUARD_BITS, the bits of n p for the roundings
    summed, and log2(1/|z|) where |z| < 1."""
    small = max(0, -(exp + man.bit_length()))  # |z| < 2**-small
    return dps_to_prec(dps) + _GUARD_BITS + (n * p).bit_length() + small


@lru_cache(maxsize=128)
def _fixed_nodes(p: int, bits: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    # Interior nodes c_k = cos(k pi / 2p), k = 1..p-1, and the kernel weights
    # rows[q] = (2 c_k**q)_k for q = 0..4p-1, as integers at scale 2**bits,
    # each built 32 bits finer and rounded once.
    fine = bits + 32
    with mp.workprec(fine + 16):
        nodes = [to_fixed(mp.cos(mp.pi * k / (2 * p))._mpf_, fine) for k in range(1, p)]
    row = [2 << fine] * len(nodes)
    rows = []
    for _ in range(4 * p):
        rows.append(tuple((w + (1 << 31)) >> 32 for w in row))
        row = [w * c >> fine for w, c in zip(row, nodes)]
    return tuple((c + (1 << 31)) >> 32 for c in nodes), tuple(rows)


def _approx_fixed(kind: str, n: int, p: int, z, F: int) -> int:
    """2p A_n(z) 2**F as an integer, from the kernel assembly in fixed point.

    z = man 2**exp is taken exactly.  Each argument z, c_k z is carried as
    an integer at 2**P and takes one call of mpmath's fixed-point kernels:
    exp_fixed for I, whose e**|x| and its reciprocal give cosh and sinh, or
    cos_sin_fixed for J; the pair is then shifted to 2**-F absolute.  The
    nodes and weights carry at least the bits of e**|z| |z| more, so that
    their rounding stays below that too.  The kernels are integer dot
    products, and the Horner step acc/z is a floor division by man shifted
    by exp.  F may be negative: the value is then carried to 2**-F, a
    multiple of one.  For I past |z| = ``_I_TWIN_Z_MAX`` it raises
    ``ValueError`` (_e_bits).
    """
    man, exp = _man_exp(z)
    trig = kind == "J"
    if n and not man:
        return 0
    mag = max(0, exp + man.bit_length())  # |z| < 2**mag
    e_bits = 0 if trig else _e_bits(man, exp)
    # Node scale: F and the bits of e**|z| |z|, rounded up to a multiple of
    # 64 so that the nodes cache per (p, bits) across nearby F and z.
    bits = -(-(F + e_bits + mag) // 64) * 64
    nodes, rows = _fixed_nodes(p, bits)
    # 22 bits past F and e**|z|; for J also the bits of |z|, which the
    # reduction by pi/2 at P bits costs.
    P = F + e_bits + 22 + (mag if trig else 0)
    down, one_sq = P - F, 1 << 2 * P
    even, odd = [], []
    for x in [_shift(man, exp + P)] + [_shift(man * c, exp - bits + P) for c in nodes]:
        if trig:
            f_even, f_odd = cos_sin_fixed(x, P)
        else:
            # e**|x|, so that e**-|x| is a quotient, not a value that can
            # underflow 2**-P
            e = exp_fixed(abs(x), P)
            inv = one_sq // e
            f_even, f_odd = (e + inv) >> 1, (e - inv if x >= 0 else inv - e) >> 1
        even.append(f_even >> down)
        odd.append(f_odd >> down)
    if n == 0:
        return _shift(1, F) + even[0] + (sum(map(mul, rows[0], even[1:])) >> bits)
    # acc / z = (acc << lift) // den
    lift, den = (-exp, man) if exp < 0 else (0, man << exp)
    odd_rest, even_rest = odd[1:], even[1:]
    acc = None
    for q, coeff in enumerate(_signed_expansion(n, trig), 1):
        if q % 2:
            kernel = odd[0] + (sum(map(mul, rows[q], odd_rest)) >> bits)
        else:
            kernel = even[0] + (sum(map(mul, rows[q], even_rest)) >> bits)
        acc = coeff * kernel if acc is None else (acc << lift) // den + coeff * kernel
    return acc


def _ref_fixed(kind: str, n: int, z, F: int) -> int:
    """2**F I_n(z) (or J_n) as an integer, from the ascending series.

    (z/2)**n / n! * sum_k (+-(z/2)**2)**k / (k! (n+1)_k): the sum runs over
    integers scaled by 2**bits, with bits = F plus the bits by which the
    leading factor may exceed one; each step multiplies by (z/2)**2 exactly,
    as the squared mantissa of z = man 2**exp and a shift, and the factor
    man**n 2**(n (exp - 1)) / n! is applied in integers too.  The sum stops
    once a term is below one unit of the last place of max(|sum|, 1); a
    series that has not got there after ``_REF_MAX_TERMS`` terms raises
    ``ValueError``.
    """
    man, exp = _man_exp(z)
    sq, drop = man * man, 2 - 2 * exp  # (z/2)**2 = sq 2**-drop
    # Terms grow while (z/2)**2 > k (n + k); if they still grow at the cap,
    # the series cannot converge before it.  With |z| < 2**mag (z = 0 has
    # mag 0), 2**(2 mag - 4) <= (z/2)**2 < 2**(2 mag - 2): the exponent
    # settles the test before any integer of log|z| bits is built, save
    # within two octaves of the cap, where |z| is small and it is exact.
    cap = _REF_MAX_TERMS * (n + _REF_MAX_TERMS)
    twice_mag = 2 * (exp + man.bit_length())
    if twice_mag - 2 < cap.bit_length() or (twice_mag - 4 < cap.bit_length()
                                             and _shift(sq, -drop) < cap):
        if drop < 0:
            sq, drop = sq << -drop, 0
        # (z/2)**n / n! < 2**lead
        lead = n * (exp - 1 + man.bit_length()) - factorial(n).bit_length() + 1
        bits = F + max(0, lead)
        term = total = 1 << bits
        alternating = kind == "J"
        for k in range(1, _REF_MAX_TERMS):
            term = (term * sq >> drop) // (k * (n + k))
            total += -term if alternating and k % 2 else term
            if term <= (abs(total) >> bits or 1):
                down = bits - F - n * (exp - 1)
                if down >= 0:
                    return total * man**n // (factorial(n) << down)
                return (total * man**n << -down) // factorial(n)
    raise ValueError(f"the {kind}_{n} series at z={z} does not converge "
                     f"within {_REF_MAX_TERMS} terms")


def _error_fixed(kind: str, n: int, p: int, z, dps: int) -> tuple[int, int]:
    # (2p (A_n(z) - I_n(z)) 2**F, F) at the scale for dps digits.  The
    # reference first: a series that cannot converge raises at once, before
    # the I assembly works at the bits of e**|z|.
    F = _scale(dps, n, p, *_man_exp(z))
    ref = _ref_fixed(kind, n, z, F)
    return _approx_fixed(kind, n, p, z, F) - 2 * p * ref, F


def _to_mpf(value: int, F: int, divisor: int, dps: int) -> mp.mpf:
    # value 2**-F / divisor, rounded once to dps digits.
    return mp.make_mpf(mpf_div(from_man_exp(value, -F), from_int(divisor),
                               dps_to_prec(dps), round_nearest))


def hp_approx(kind: str, n: int, p: int, z, dps: int = 50) -> mp.mpf:
    """Arbitrary-precision approximant: always the kernel assembly.

    The assembly is evaluated directly at any z != 0, with exact integer
    coefficients, in fixed point (_approx_fixed), and it loses digits to the
    same small-z cancellation as the binary64 plan: its error is bounded by
    10**-dps times the largest assembly term (see _largest_term_digits), not
    by 10**-dps times the result.  At (I, 31, 8, 0.3) and ``dps=120`` it is
    off by 1.8e-21 relative to a ``dps=300`` evaluation.  Callers must size
    ``dps`` for that loss on top of the digits they need.
    A call costs p paired transcendentals, one per argument z, c_k z.  For I
    the values are carried relative to e**|z|, which every term may carry,
    so that large |z| costs no more bits than small; but e**|z| itself is
    one integer of about 1.44 |z| bits, so for I a |z| past 1e7
    (``_I_TWIN_Z_MAX``) raises ``ValueError``.  J takes any finite z.
    """
    zz, man, exp = _twin_argument(kind, n, p, z, dps)
    F = _scale(dps, n, p, man, exp) - (0 if kind == "J" else _e_bits(man, exp))
    return _to_mpf(_approx_fixed(kind, n, p, zz, F), F, 2 * p, dps)


def hp_ref(kind: str, n: int, z, dps: int = 50) -> mp.mpf:
    """Ascending series for I_n or J_n, summed in fixed point (_ref_fixed).

    The scale is taken below the leading factor (z/2)**n / n! by the working
    precision and _GUARD_BITS, so the result is as accurate relative to
    that factor as the sum is relative to max(|sum|, 1).  A series that has
    not converged after ``_REF_MAX_TERMS`` terms raises ``ValueError``.
    """
    zz, man, exp = _twin_argument(kind, n, None, z, dps)
    # (z/2)**n / n! > 2**least
    least = n * (exp - 2 + man.bit_length()) - factorial(n).bit_length() if man else 0
    F = dps_to_prec(dps) + _GUARD_BITS - least
    return _to_mpf(_ref_fixed(kind, n, zz, F), F, 1, dps)


def hp_error(kind: str, n: int, p: int, z, dps: int = 50) -> mp.mpf:
    """Signed construction error approx - reference, in wide arithmetic.

    Both twins are carried at one fixed-point scale and subtracted as
    integers, so only the difference is rounded to ``dps`` digits.  The
    reference is summed first, so that a series past its ``_REF_MAX_TERMS``
    raises its ``ValueError`` before the approximant is built; the I
    approximant's own ceiling (see hp_approx) follows.
    """
    zz, _, _ = _twin_argument(kind, n, p, z, dps)
    diff, F = _error_fixed(kind, n, p, zz, dps)
    return _to_mpf(diff, F, 2 * p, dps)


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
                 for q, coeff in enumerate(closed_form_row(n), 1))


def _log_error(kind: str, n: int, p: int, z: float, dps: int) -> float:
    # ln|approx - reference| at dps digits; -inf where they agree exactly.
    diff, F = _error_fixed(kind, n, p, z, dps)
    if not diff:
        return -math.inf
    # ln of the top 53 bits, and the rest as a power of two
    drop = max(0, abs(diff).bit_length() - 53)
    return math.log(abs(diff) >> drop) + (drop - F) * _LN2 - math.log(2 * p)


def _is_noise(log_err: float, top: float, dps: int) -> bool:
    # Within the margin of the rounding floor 10**-dps times the largest
    # term, 10**top: what is left there is rounding, not the error.
    return log_err <= (top + _FLOOR_MARGIN_DIGITS - dps) * math.log(10)


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

    The construction predicts the slope t of the error's first term c z**t
    (_leading_error).  The assembly cancels near z = 0, so a sample's error
    is measured only to 10**-dps times its largest term.  Each sample is
    measured at the digits that put c |z|**t 1e6 above that rounding floor,
    at least 1 and at most a cap of 16 times ``dps``.  The alternating J
    error may sit below c |z|**t, so a sample still within 1e3 of the floor
    is measured again, first at ``dps`` digits where those are more, then
    at the cap, and ``ValueError`` is raised if it is noise there too.  So
    ``dps`` is no floor on the digits: it sets the fallback and the cap.
    The slope is fitted to the measured errors only.  Both ends are taken
    as floats.
    """
    _validate_args(kind, n, p)
    _validate_domain(n, p)
    z_lo, z_hi = float(z_lo), float(z_hi)
    if not (0.0 < z_lo < z_hi):
        raise ValueError(f"need 0 < z_lo < z_hi, got [{z_lo}, {z_hi}]")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    _check_dps(dps)
    t, log_c = _leading_error(n, p)
    zs = _geometric_grid(z_lo, z_hi, samples)
    log_errs = []
    for z in zs:
        top = _largest_term_digits(kind, n, p, z)
        sized = math.ceil(top + 2 * _FLOOR_MARGIN_DIGITS - log_c - t * math.log10(z))
        work = min(16 * dps, max(1, sized))
        log_err = _log_error(kind, n, p, z, work)
        for rung in (dps, 16 * dps):
            if work < rung and _is_noise(log_err, top, work):
                work = rung
                log_err = _log_error(kind, n, p, z, work)
        if _is_noise(log_err, top, work):
            raise ValueError(
                f"the error at z={z} is not clear of the rounding floor by 1e3 within "
                f"--dps {16 * dps}: its first term calls for {sized} digits")
        log_errs.append(log_err)
    return _least_squares_slope([math.log(z) for z in zs], log_errs)


def _geometric_grid(lo: float, hi: float, samples: int) -> list[float]:
    # 10**(log10 lo + i step), with both ends exactly lo and hi.
    log_lo = math.log10(lo)
    step = (math.log10(hi) - log_lo) / (samples - 1)
    return [lo] + [10.0 ** (i * step + log_lo) for i in range(1, samples - 1)] + [hi]


def _least_squares_slope(xs: list[float], ys: list[float]) -> float:
    # Closed-form least-squares slope, with the sums taken about the means.
    mean_x = math.fsum(xs) / len(xs)
    mean_y = math.fsum(ys) / len(ys)
    dxs = [x - mean_x for x in xs]
    return (math.fsum(dx * (y - mean_y) for dx, y in zip(dxs, ys))
            / math.fsum(dx * dx for dx in dxs))
