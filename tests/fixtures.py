"""Independent fixtures the tests compare the package against.

None is part of the package: ``kernel_sinh``/``kernel_cosh``/``kernel_sin``/
``kernel_cos`` are the per-term kernel sums, one transcendental per node
and term, that the compiled plan must equal bit for bit; ``plan_value`` is
the plan's value as evaluate takes it on the plan path, from a plan compiled
afresh rather than read from a route, and ``horner_size`` the Horner bound
that decides whether evaluate runs the plan at all; ``closed_form_p2``
keeps the printed two-node closed forms as literals, ``_approx_J_complex``
reaches J by rotating the hyperbolic assembly in complex arithmetic,
without the plan's sign pattern, and ``hp_approx_per_term``/
``hp_ref_mpf_loop`` are the straightforward mpmath twins (one
transcendental per node per term, and the ascending series summed in mpf)
that the fixed-point twins in ``besselhyp.analysis`` must agree with;
``hp_approx_mpf`` is the same assembly in mpf with sinh and cosh (sin and
cos) taken once per argument, which ``hp_approx`` must match to within its
rounding floor.
``spherical_approximant`` builds the approximant from mpmath's
half-integer Bessel functions, apart from the repository's algebra, and
``ref_I_accumulator``/``ref_J_accumulator`` are the oracle's plain series
sums stepping over int indices k, ``ref_J_accumulator`` with a two-term
lookahead stop, which ``ref_I``/``ref_J``, stepping over float indices and
stopping at the first small term, must match bit for bit.
``spherical_j_int``/``group_sum_int`` keep the node sum's recurrences
stepping over int factors 2l + 1, which ``_spherical_j`` and
``_group_sum``, stepping over the same factors as floats, must match bit for
bit.
"""

import cmath
import math
from functools import lru_cache
from typing import Callable

import mpmath as mp

from besselhyp.analysis import _twin_argument
from besselhyp.approximation import (_compile, _j_term_sign, _node_power, _rescaled_plan_value,
                                     _signed_expansion, make_nodes)
from besselhyp.coefficients import derive_expansion
from besselhyp.reference import _MAX_TERMS, _TOL, _leading_term, _validate

#: Every order a p <= 8 approximant uses (n < 4p); the coefficient routes
#: are cross-checked over all of them.
N_MAX_TESTED = 4 * 8 - 1


def _require_finite(z: float) -> None:
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z!r}")


def _weighted_sum(fn: Callable[[float], float], q: int, nodes: tuple[float, ...],
                  z: float) -> float:
    total = fn(z)
    for c in nodes:
        total += 2.0 * _node_power(c, q) * fn(c * z)
    return total


def kernel_sinh(q: int, nodes: tuple[float, ...], z: float) -> float:
    """sinh(z) + sum_k 2 c_k**q sinh(c_k z), defined for q >= 1."""
    if q < 1:
        raise ValueError(f"sinh kernel index must be >= 1, got {q}")
    _require_finite(z)
    return _weighted_sum(math.sinh, q, nodes, z)


def kernel_cosh(q: int, nodes: tuple[float, ...], z: float) -> float:
    """cosh(z) + sum_k 2 c_k**q cosh(c_k z), defined for q >= 0.

    Note the index-0 kernel carries no constant term; callers that need the
    averaged identity form add the 1 themselves.
    """
    if q < 0:
        raise ValueError(f"cosh kernel index must be >= 0, got {q}")
    _require_finite(z)
    return _weighted_sum(math.cosh, q, nodes, z)


def kernel_sin(q: int, nodes: tuple[float, ...], z: float) -> float:
    """Circular counterpart of kernel_sinh: sin(z) + sum_k 2 c_k**q sin(c_k z)."""
    if q < 1:
        raise ValueError(f"sin kernel index must be >= 1, got {q}")
    _require_finite(z)
    return _weighted_sum(math.sin, q, nodes, z)


def kernel_cos(q: int, nodes: tuple[float, ...], z: float) -> float:
    """Circular counterpart of kernel_cosh: cos(z) + sum_k 2 c_k**q cos(c_k z)."""
    if q < 0:
        raise ValueError(f"cos kernel index must be >= 0, got {q}")
    _require_finite(z)
    return _weighted_sum(math.cos, q, nodes, z)


def plan_value(n: int, p: int, z: float, *, trig: bool) -> float:
    """The order-n plan's value at z, as evaluate takes it on the plan path:
    the runner, rescaled where it overflows, the order-0 constant, and the
    division by 2p.  For n >= 2 at z = 0 it divides by zero."""
    # Order 0 is the index-0 cosh kernel alone, the coefficient 1 at q = 0.
    terms = enumerate(_signed_expansion(n, trig), 1) if n else [(0, 1)]
    run, odd, even, steps = _compile(terms, p, trig=trig)
    try:
        acc = run(z, odd, even, steps)
    except OverflowError:  # sinh/cosh, or a term or sum beyond binary64
        acc = math.inf
    if not math.isfinite(acc):
        return _rescaled_plan_value(run, odd, even, steps, n, p, z)
    if n == 0:
        return (1.0 + acc) / (2 * p)
    return acc / (2 * p)


def horner_size(bound: tuple[float, ...], az: float) -> float:
    """The Horner sum in 1/az of a J route's ``bound``, step by step as
    evaluate runs it: the plan runs only where it is at most the route's
    ``reach``."""
    size = 0.0
    for m in bound:
        size = size / az + m
    return size


# Printed two-node closed forms, hard-coded rather than derived, so they can
# lock the derivation down: a(n, q) for q = 1..n.  The order-3 form counts
# its cosh combination once (coefficient -3); the assembled expansion admits
# exactly one such term.
_P2_PRINTED: dict[int, tuple[int, ...]] = {
    1: (1,),
    2: (-1, 1),
    3: (3, -3, 1),
}


def closed_form_p2(n: int, z: float) -> float:
    """Literal two-node (p=2) closed forms for orders 0..3.

    Exists purely as an independent fixture for testing the I approximant:
    the term coefficients are hard-coded literals, while evaluation shares
    the kernel arithmetic so agreement is exact whenever the coefficients
    agree.
    """
    if n not in (0, 1, 2, 3):
        raise ValueError(f"closed forms cover orders 0..3, got n={n}")
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z!r}")
    if n >= 2 and z == 0.0:
        raise ValueError("closed forms for n >= 2 divide by z; need z != 0")
    if n == 0:
        return (1.0 + kernel_cosh(0, make_nodes(2), z)) / 4.0
    run, odd, even, steps = _compile(enumerate(_P2_PRINTED[n], 1), 2, trig=False)
    return run(z, odd, even, steps) / 4.0


def _approx_J_complex(n: int, p: int, z: float) -> complex:
    """J approximant via the hyperbolic assembly at the rotated argument.

    Continuation check: evaluates i**n * (hyperbolic assembly at -i z) in
    complex arithmetic.  The result must be real up to rounding and must
    match the J evaluator; this is what pins the per-term sign pattern.
    """
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z!r}")
    w = complex(0.0, -z)
    nodes = make_nodes(p)
    if n == 0:
        total = cmath.cosh(w)
        for c in nodes:
            total += 2.0 * cmath.cosh(c * w)
        return (1.0 + total) / (2 * p)
    acc = complex(0.0, 0.0)
    for q, coeff in enumerate(derive_expansion(n), 1):
        fn = cmath.sinh if q % 2 else cmath.cosh
        value = fn(w)
        for c in nodes:
            value += 2.0 * _node_power(c, q) * fn(c * w)
        acc = coeff * value if q == 1 else acc / w + coeff * value
    return (1j ** n) * acc / (2 * p)


def _per_term_nodes(p: int) -> list[mp.mpf]:
    return [mp.cos(mp.pi * k / (2 * p)) for k in range(1, p)]


def _per_term_kernel(fn, q: int, nodes: list[mp.mpf], z: mp.mpf) -> mp.mpf:
    total = fn(z)
    for c in nodes:
        total += 2 * c**q * fn(c * z)
    return total


def hp_approx_per_term(kind: str, n: int, p: int, z, dps: int = 50) -> mp.mpf:
    """Arbitrary-precision evaluation of the kernel assembly (no fallback).

    Wide arithmetic absorbs the small-z cancellation, so the assembly is
    evaluated directly at any z != 0; exact integer coefficients and mpmath
    nodes make this a faithful image of the mathematical construction.
    """
    if kind not in ("I", "J"):
        raise ValueError(f"kind must be 'I' or 'J', got {kind!r}")
    if n >= 4 * p:
        raise ValueError(f"order n={n} needs n < 4p = {4 * p}")
    with mp.workdps(dps):
        zz = mp.mpf(z)
        nodes = _per_term_nodes(p)
        sinh_like = mp.sin if kind == "J" else mp.sinh
        cosh_like = mp.cos if kind == "J" else mp.cosh
        if n == 0:
            return (1 + _per_term_kernel(cosh_like, 0, nodes, zz)) / (2 * p)
        if zz == 0:
            return mp.mpf(0)
        acc = mp.mpf(0)
        for q, coeff in enumerate(derive_expansion(n), 1):
            fn = sinh_like if q % 2 else cosh_like
            value = _per_term_kernel(fn, q, nodes, zz)
            if kind == "J":
                coeff *= _j_term_sign(q)
            acc = coeff * value if q == 1 else acc / zz + coeff * value
        if kind == "J" and n % 2:
            acc = -acc
        return acc / (2 * p)


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


def hp_approx_mpf(kind: str, n: int, p: int, z, dps: int = 50) -> mp.mpf:
    """Arbitrary-precision approximant in mpf arithmetic: the kernel assembly.

    The assembly is evaluated directly at any z != 0, with exact integer
    coefficients and mpmath nodes, and it loses digits to the same small-z
    cancellation as the binary64 plan: at (I, 31, 8, 0.3) and ``dps=120``
    it is off by 5.6e-7 relative to a ``dps=300`` evaluation.  Callers
    must size ``dps`` for that loss on top of the digits they need.  Each
    argument c_k z is rounded to ``dps`` digits, so the error also grows
    like |z| 10**-dps: compared under the fixed-point twin's rounding floor
    10**-dps times the largest term, it is taken at ``dps + 10``.
    sinh and cosh (sin and cos) are each taken once per argument z, c_k z,
    so a call costs at most 2p transcendentals; the kernels are summed from
    them and assembled by the same Horner recurrence as the per-term form.
    """
    zz = _twin_argument(kind, n, p, z, dps)[0]
    with mp.workdps(dps):
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


def hp_ref_mpf_loop(kind: str, n: int, z, dps: int = 50) -> mp.mpf:
    """Ascending series for I_n or J_n in mpmath arithmetic."""
    if kind not in ("I", "J"):
        raise ValueError(f"kind must be 'I' or 'J', got {kind!r}")
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    with mp.workdps(dps):
        zz = mp.mpf(z)
        half = zz / 2
        term = mp.mpf(1)
        for i in range(1, n + 1):
            term *= half / i
        ratio = half * half
        if kind == "J":
            ratio = -ratio
        total = term
        cutoff = mp.mpf(10) ** (-(dps + 10))
        for k in range(1, 1000):
            term *= ratio / (k * (n + k))
            total += term
            if abs(term) <= cutoff * max(abs(total), mp.mpf(1)):
                break
        return total


def spherical_approximant(kind: str, n: int, p: int, z, dps: int = 30):
    """The approximant and the sum of its node terms' magnitudes, in mpmath.

    For n >= 1, A_n(z) = (z/2p) [f(z) + 2 sum_k c_k**(n+1) f(c_k z)] with
    f = i_{n-1} or j_{n-1}, the spherical Bessel functions, taken here as
    sqrt(pi/2x) I_{n-1/2}(x) or J_{n-1/2}(x); A_0 is the averaged form
    (1 + cosh z + 2 sum_k cosh(c_k z)) / 2p (cos for J).  Returns
    ``(A_n(z), S)`` with S the same sum over the terms' absolute values, the
    scale an evaluation near a zero of A_n is measured against.
    """
    with mp.workdps(dps):
        zz = mp.mpf(z)
        nodes = [mp.mpf(1)] + [mp.cos(mp.pi * k / (2 * p)) for k in range(1, p)]
        weights = [1] + [2] * (p - 1)
        if n == 0:
            fn = mp.cosh if kind == "I" else mp.cos
            terms = [w * fn(c * zz) for w, c in zip(weights, nodes)]
            return (1 + sum(terms)) / (2 * p), (1 + sum(abs(t) for t in terms)) / (2 * p)
        if zz == 0:
            return mp.mpf(0), mp.mpf(0)
        bessel = mp.besseli if kind == "I" else mp.besselj
        az = abs(zz)
        terms = [w * c ** (n + 1) * mp.sqrt(mp.pi / (2 * c * az)) * bessel(n - mp.mpf(1) / 2, c * az)
                 for w, c in zip(weights, nodes)]
        sign = -1 if zz < 0 and n % 2 else 1
        return sign * az / (2 * p) * sum(terms), az / (2 * p) * sum(abs(t) for t in terms)


def ref_I_accumulator(n: int, z: float) -> float:
    """Ascending series for I_n: sum_k (z/2)**(n+2k) / (k! (n+k)!)."""
    _validate(n, z)
    term = _leading_term(n, z)
    total = 0.0 + term
    ratio = 0.25 * z * z
    for k in range(1, _MAX_TERMS):
        term *= ratio / (k * (n + k))
        total += term
        if abs(term) <= _TOL * abs(total):
            break
    return total


def ref_J_accumulator(n: int, z: float) -> float:
    """Alternating series for J_n, with a two-term lookahead stop.

    The lookahead waits for the term after a small one to be small too;
    ref_J's series, which stops at the first small term, must stop at the
    same place.
    """
    _validate(n, z)
    term = _leading_term(n, z)
    total = 0.0 + term
    ratio = -0.25 * z * z
    for k in range(1, _MAX_TERMS):
        term *= ratio / (k * (n + k))
        total += term
        bound = _TOL * abs(total)
        lookahead = abs(term * ratio) / ((k + 1) * (n + k + 1))
        if abs(term) <= bound and lookahead <= bound:
            break
    return total


def spherical_j_int(m: int, x: float) -> float:
    """j_m(x) for x >= m > 0 by upward recurrence, each factor 2l + 1 an int."""
    j0 = math.sin(x) / x
    if m == 0:
        return j0
    inv = 1.0 / x
    prev, cur = j0, (j0 - math.cos(x)) * inv
    for odd in range(3, 2 * m, 2):  # 2l + 1 for l = 1 .. m-1
        prev, cur = cur, odd * inv * cur - prev
    return cur


def group_sum_int(m: int, x: float, coeffs: tuple[float, ...]) -> float:
    """sum_l coeffs[l] x**l j_{m+l}(x) for 0 < x < m by one Miller recurrence,
    each factor 2l + 1 an int."""
    inv = 1.0 / x
    top = m + len(coeffs) - 1
    nxt, cur = 0.0, 1e-150
    acc = 0.0
    for odd, a in zip(range(2 * top + 1, 2 * m, -2), reversed(coeffs)):
        acc = acc * x + a * cur
        nxt, cur = cur, odd * inv * cur - nxt
    for odd in range(2 * m - 1, 2, -2):  # l = m-1 .. 1
        nxt, cur = cur, odd * inv * cur - nxt
    j0 = math.sin(x) * inv
    j1 = (j0 - math.cos(x)) * inv
    if abs(j0) >= abs(j1):
        return acc * (j0 / cur)
    return acc * (j1 / nxt)
