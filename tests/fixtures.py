"""Independent fixtures the tests compare the package against.

None is part of the package: ``closed_form_p2`` keeps the printed two-node
closed forms as literals, ``_approx_J_complex`` reaches J by rotating the
hyperbolic assembly in complex arithmetic, without the plan's sign pattern,
and ``hp_approx_per_term``/``hp_ref_mpf_loop`` are the straightforward
mpmath twins (one transcendental per node per term, and the ascending
series summed in mpf) that the fast twins in ``besselhyp.analysis`` must
agree with.  ``spherical_approximant`` builds the approximant from mpmath's
half-integer Bessel functions, apart from the repository's algebra, and
``ref_I_accumulator``/``ref_J_accumulator`` keep the oracle loops that sum
through a Neumaier accumulator object, which ``ref_I``/``ref_J`` must match
bit for bit.
"""

import cmath
import math

import mpmath as mp

from besselhyp.approximation import _compile, _j_term_sign, _run
from besselhyp.coefficients import Term, derive_expansion
from besselhyp.kernels import KernelKind, kernel_cosh, make_nodes, node_power
from besselhyp.reference import SeriesPolicy, _leading_term, _validate

# Printed two-node closed forms, hard-coded rather than derived, so they can
# lock the derivation down.  The order-3 form counts its cosh combination
# once (coefficient -3); the assembled expansion admits exactly one such
# term.
_P2_PRINTED: dict[int, tuple[Term, ...]] = {
    1: (Term(1, 1, KernelKind.SINH),),
    2: (
        Term(-1, 1, KernelKind.SINH),
        Term(1, 2, KernelKind.COSH),
    ),
    3: (
        Term(3, 1, KernelKind.SINH),
        Term(-3, 2, KernelKind.COSH),
        Term(1, 3, KernelKind.SINH),
    ),
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
    return _run(_compile(_P2_PRINTED[n], 2, trig=False), z) / 4.0


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
        for c in nodes.nodes:
            total += 2.0 * cmath.cosh(c * w)
        return (1.0 + total) / (2 * p)
    acc = complex(0.0, 0.0)
    first = True
    for term in derive_expansion(n).terms:
        fn = cmath.sinh if term.kind is KernelKind.SINH else cmath.cosh
        value = fn(w)
        for c in nodes.nodes:
            value += 2.0 * node_power(c, term.q) * fn(c * w)
        acc = term.coeff * value if first else acc / w + term.coeff * value
        first = False
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
        first = True
        for term in derive_expansion(n).terms:
            fn = sinh_like if term.kind is KernelKind.SINH else cosh_like
            value = _per_term_kernel(fn, term.q, nodes, zz)
            coeff = term.coeff * _j_term_sign(term.q) if kind == "J" else term.coeff
            acc = coeff * value if first else acc / zz + coeff * value
            first = False
        if kind == "J" and n % 2:
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


class _CompensatedSum:
    """Neumaier-compensated accumulator."""

    __slots__ = ("total", "carry")

    def __init__(self) -> None:
        self.total = 0.0
        self.carry = 0.0

    def add(self, x: float) -> None:
        t = self.total + x
        if abs(self.total) >= abs(x):
            self.carry += (self.total - t) + x
        else:
            self.carry += (x - t) + self.total
        self.total = t

    def value(self) -> float:
        return self.total + self.carry


def ref_I_accumulator(n: int, z: float, policy: SeriesPolicy | None = None) -> float:
    """Ascending series for I_n: sum_k (z/2)**(n+2k) / (k! (n+k)!)."""
    policy = policy or SeriesPolicy()
    _validate(n, z)
    term = _leading_term(n, z)
    acc = _CompensatedSum()
    acc.add(term)
    ratio = 0.25 * z * z
    for k in range(1, policy.max_terms):
        term *= ratio / (k * (n + k))
        acc.add(term)
        if abs(term) <= policy.tol * abs(acc.value()):
            break
    return acc.value()


def ref_J_accumulator(n: int, z: float, policy: SeriesPolicy | None = None) -> float:
    """Alternating series for J_n, with a two-term lookahead stop.

    The lookahead guards against stopping on an accidentally small term of
    an alternating sum before its neighbour has been folded in.
    """
    policy = policy or SeriesPolicy()
    _validate(n, z)
    term = _leading_term(n, z)
    acc = _CompensatedSum()
    acc.add(term)
    ratio = -0.25 * z * z
    for k in range(1, policy.max_terms):
        term *= ratio / (k * (n + k))
        acc.add(term)
        bound = policy.tol * abs(acc.value())
        lookahead = abs(term * ratio) / ((k + 1) * (n + k + 1))
        if abs(term) <= bound and lookahead <= bound:
            break
    return acc.value()
