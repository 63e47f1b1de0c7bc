"""Elementary-function approximants for I_n and J_n.

The order-n approximant at accuracy parameter p assembles the order-n
kernel expansion over the p-node set and divides by 2p:

    I_n ~ (1/2p) * sum_q  a(n, q) * z**(q-n) * kernel_q(z)

with the index-0 case (1/2p) * (1 + cosh-kernel_0(z)), the constant added
explicitly because the kernel itself carries none.  The circular (J)
variant is the same assembly at the rotated argument: sin/cos kernels, and
on each coefficient the sign that rotation gives its term.

The construction reproduces the target power series exactly for all orders
strictly below max(4p - n, n), so it needs n < 4p.  For n >= 1 the
approximant is the spherical-Bessel node sum

    A_n(z) = (z/2p) * [f(z) + 2 sum_k c_k**(n+1) f(c_k z)],
    f = i_{n-1} for I, j_{n-1} for J,

whose Maclaurin series is sum_k (+-)**k w(n+k) z**(n+2k) / (2**k k! (2n+2k-1)!!),
with w(m) the 4p-point trapezoidal mean of cos**(2m) (and w(0) = 1 for the
order-0 constant).  Each point is evaluated by the cheapest of three paths
that is well-conditioned there:

* the series, summed by term ratios: positive for I, alternating for J and
  accepted only while its condition number sum|t| / |sum t| stays small;
* the cached plan below, the assembly itself, which cancels between its
  negative powers of z for n >= 2 as z -> 0 (for I below about |z| = n**2/7);
* for J where neither is well-conditioned, the node sum itself, with
  j_{n-1}(c_k z) by upward recurrence at or above the turning point and
  Miller's backward recurrence below it.

Every kernel of the order-n assembly is taken at the same p arguments z and
c_k z; only the parity and the node weights 2 c_k**q change from term to
term.  Each (kind, n, p) is therefore compiled once into a cached plan, and
evaluating it takes one sinh/cosh (sin/cos) pair per argument.  The plan
runs the same Horner recurrence, in the same order, as the kernel sums, so
its results equal theirs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .coefficients import Term, derive_expansion, double_factorial
from .kernels import KernelKind, make_nodes, node_power


class DomainError(ValueError):
    """The (n, p) pair lies outside the approximant's matched-series domain."""


class Binary64OverflowError(DomainError, OverflowError):
    """The approximant at this argument does not fit in binary64.

    Raised where a kernel value, a term or the assembled sum overflows; for
    I that starts near |z| = 710.  It is also an OverflowError, which is what
    the hyperbolic functions themselves raise.
    """


def default_small_z_threshold(n: int) -> float:
    """Default |z| below which the series is taken without a cost comparison.

    Below it the first term ratio is at most (n + 1)/64 < 1/2, so the
    series is well-conditioned for both kinds.
    """
    return 0.25 * (n + 1)


@dataclass(frozen=True)
class ApproxRequest:
    """One evaluation request: function kind, order, accuracy, argument.

    ``eps`` forces the series below it (``None`` selects the default
    0.25 * (n + 1)); a J series that is ill-conditioned there still gives
    way to the other paths.  Requests are validated on construction; in
    particular n < 4p is required for the approximant to have any matched
    series terms.
    """

    kind: str
    n: int
    p: int
    z: float
    eps: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("I", "J"):
            raise ValueError(f"kind must be 'I' or 'J', got {self.kind!r}")
        if type(self.n) is not int or type(self.p) is not int:
            _require_int("order n", self.n)
            _require_int("accuracy parameter p", self.p)
        if self.n < 0:
            raise ValueError(f"order n must be >= 0, got {self.n}")
        if self.p < 1:
            raise ValueError(f"accuracy parameter p must be >= 1, got {self.p}")
        object.__setattr__(self, "z", float(self.z))
        if not math.isfinite(self.z):
            raise ValueError(f"argument must be finite, got {self.z!r}")
        if self.n >= 4 * self.p:
            raise DomainError(
                f"order n={self.n} needs n < 4p = {4 * self.p}; "
                "no series terms are matched beyond that"
            )
        if self.eps is None:
            object.__setattr__(self, "eps", default_small_z_threshold(self.n))
        elif not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")


def _require_int(name: str, value: object) -> None:
    # bool is an int subclass, but True is no order.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _j_term_sign(q: int) -> int:
    # Sign picked up by the index-q term when the argument rotates onto the
    # imaginary axis; period four in q.  Locked in by the complex-path
    # consistency tests.
    return -1 if q % 4 in (1, 2) else 1


class _Plan(NamedTuple):
    """One term list compiled against one node set.

    ``steps`` holds, per term in ascending q: whether it is sinh-like, its
    coefficient as a float and its node weights 2 c_k**q.  ``odd``/``even``
    are the sinh-like and cosh-like functions, or None where no term uses
    that parity.
    """

    nodes: tuple[float, ...]
    odd: Callable[[float], float] | None
    even: Callable[[float], float] | None
    steps: tuple[tuple[bool, float, tuple[float, ...]], ...]


@lru_cache(maxsize=None)
def _node_weights(p: int, q: int) -> tuple[float, ...]:
    # The products 2 c_k**q that kernel_* forms, shared by every n and both
    # kinds; only the q some plan uses are ever built.
    return tuple(2.0 * node_power(c, q) for c in make_nodes(p).nodes)


def _compile(terms: Iterable[Term], p: int, *, trig: bool) -> _Plan:
    steps = tuple(
        (term.kind is KernelKind.SINH, float(term.coeff), _node_weights(p, term.q))
        for term in terms
    )
    sinh_like, cosh_like = (math.sin, math.cos) if trig else (math.sinh, math.cosh)
    return _Plan(
        nodes=make_nodes(p).nodes,
        odd=sinh_like if any(odd for odd, _, _ in steps) else None,
        even=cosh_like if not all(odd for odd, _, _ in steps) else None,
        steps=steps,
    )


# Order 0 is the index-0 cosh kernel alone; _assemble adds the constant 1.
_ORDER0 = (Term(coeff=1, q=0, kind=KernelKind.COSH),)


@lru_cache(maxsize=None)
def _plan(n: int, p: int, trig: bool) -> _Plan:
    terms = derive_expansion(n).terms if n else _ORDER0
    if trig:
        # Rotating z onto the imaginary axis gives the index-q term the sign
        # _j_term_sign(q) and the whole sum the factor (-1)**n, which rides on
        # every coefficient because negation commutes with rounding.
        terms = [Term((-1) ** n * _j_term_sign(t.q) * t.coeff, t.q, t.kind) for t in terms]
    return _compile(terms, p, trig=trig)


def _run(plan: _Plan, z: float) -> float:
    # The kernel Horner recurrence acc <- acc/z + coeff * kernel_q, with
    # kernel_q = f(z) + sum_k w_qk f(c_k z) summed left to right as kernel_*
    # sums it, over transcendentals taken once per argument.
    nodes, odd_fn, even_fn, steps = plan
    if odd_fn is not None:
        odd0 = odd_fn(z)
        odds = [odd_fn(c * z) for c in nodes]
    if even_fn is not None:
        even0 = even_fn(z)
        evens = [even_fn(c * z) for c in nodes]
    acc = None
    for sinh_like, coeff, row in steps:
        if sinh_like:
            value = odd0
            for w, f in zip(row, odds):
                value += w * f
        else:
            value = even0
            for w, f in zip(row, evens):
                value += w * f
        acc = coeff * value if acc is None else acc / z + coeff * value
    return acc


def _assemble(n: int, p: int, z: float, *, trig: bool) -> float:
    return _plan_value(_plan(n, p, trig), n, p, z)


def _plan_value(plan: _Plan, n: int, p: int, z: float) -> float:
    try:
        acc = _run(plan, z)
    except OverflowError:  # sinh/cosh, or a coefficient beyond binary64
        acc = math.inf
    if not math.isfinite(acc):
        if not math.isfinite(z):
            raise ValueError(f"argument must be finite, got {z!r}")
        raise Binary64OverflowError(
            f"approximant of order n={n} at p={p} overflows binary64 at z={z!r}"
        )
    if n == 0:
        return (1.0 + acc) / (2 * p)
    return acc / (2 * p)


#: A series stops once a term falls below this fraction of the partial sum.
_SERIES_TOL = 2.0 ** -54
#: Largest condition number a path may show and still be taken: a J series
#: with sum|t| / |sum t| above it, or a J plan whose Horner bound exceeds it
#: times the result, gives way to the next path.
_COND_MAX = 1e3
#: The series is not chosen for its cost beyond this |z|, which bounds the
#: terms kept per (n, p); above it I takes the plan once |z| >= n**2 / 6.
_SERIES_Z_MAX = 40.0
#: Most terms a series runs, and how far the cached weights reach past 4p.
_SERIES_TERMS_MAX = 192


@lru_cache(maxsize=None)
def _trapezoid_weights(p: int) -> tuple[float, ...]:
    # w(m) = (1 + 2 sum_k c_k**(2m)) / (2p), the 4p-point trapezoidal mean of
    # cos**(2m), from running node powers; w(0) = 1 because the order-0
    # approximant adds its constant 1 on top of the kernel.
    squares = [c * c for c in make_nodes(p).nodes]
    powers = [1.0] * len(squares)
    weights = [1.0]
    for _ in range(4 * p + _SERIES_TERMS_MAX):
        powers = [a * b for a, b in zip(powers, squares)]
        weights.append((1.0 + 2.0 * sum(powers)) / (2 * p))
    return tuple(weights)


def _crossover(n: int, p: int) -> float:
    # Largest |z| at which the series needs at most 1.2 n p terms, about the
    # cost of the plan's n kernel terms over p arguments.  The term count
    # 3 + 4.9 sqrt|z| + |z|/2 is within two of the counts for n = 0 up to
    # |z| = 40; larger n need fewer.
    budget = 1.2 * n * p - 3.0
    if budget <= 0:
        return 0.0
    root = -4.9 + math.sqrt(4.9 * 4.9 + 2.0 * budget)
    return root * root


def _series_reach(n: int, p: int) -> float:
    # |z| below which I takes the series: where it is cheaper, and always
    # where the plan's Rayleigh sums for i_{n-1} cancel by more than
    # _COND_MAX, which is below about 0.14 n**2.
    return max(n * n / 6.0, min(_crossover(n, p), _SERIES_Z_MAX))


@lru_cache(maxsize=None)
def _series(n: int, p: int) -> tuple[float, tuple[float, ...]]:
    """Leading coefficient w(n) / (2n-1)!! and the term ratios
    w(n+k+1) / w(n+k) / (2 (k+1) (2n+2k+1)), an even number of them: as many
    as the positive series takes at the reach of I, and eight more for the
    alternating one, which stops on a smaller sum."""
    w = _trapezoid_weights(p)

    def ratio(k: int) -> float:
        return w[n + k + 1] / w[n + k] / (2 * (k + 1) * (2 * n + 2 * k + 1))

    lead = w[n] / double_factorial(2 * n - 1)
    reach = _series_reach(n, p)
    x = reach * reach
    term = total = lead * reach**n
    ratios: list[float] = []
    while len(ratios) < _SERIES_TERMS_MAX and term > _SERIES_TOL * total:
        ratios.append(ratio(len(ratios)))
        term *= x * ratios[-1]
        total += term
    count = min(len(ratios) + 8 + len(ratios) % 2, _SERIES_TERMS_MAX)
    ratios += [ratio(k) for k in range(len(ratios), count)]
    return lead, tuple(ratios)


class _Route(NamedTuple):
    """How one (kind, n, p) evaluates a point.

    The series takes |z| below ``series_below``, from ``lead`` and
    ``ratios`` (see _series), and ``plan`` the rest.  For J with n >= 2,
    ``bound`` holds |a(n, q)| (1 + sum_k 2 c_k**q) in plan order, whose
    Horner sum in 1/|z| bounds the plan's terms; the plan is tried while
    that bound is at most ``reach`` and kept while it is at most ``limit``
    = _COND_MAX 2p times the result.
    """

    series_below: float
    lead: float
    ratios: tuple[float, ...]
    plan: _Plan
    bound: tuple[float, ...]
    reach: float
    limit: float


@lru_cache(maxsize=None)
def _route(n: int, p: int, trig: bool) -> _Route:
    lead, ratios = _series(n, p)
    plan = _plan(n, p, trig)
    if not trig:
        return _Route(_series_reach(n, p), lead, ratios, plan, (), 0.0, 0.0)
    # The alternating series is well-conditioned below the default eps and
    # cancels by about _COND_MAX near |z| = 6 + 0.45 n.
    below = min(max(_crossover(n, p), default_small_z_threshold(n)), 6.0 + 0.45 * n)
    if n < 2:
        return _Route(below, lead, ratios, plan, (), 0.0, 0.0)
    bound = tuple(abs(coeff) * (1.0 + sum(row)) for _, coeff, row in plan.steps)
    # |A_n| <= (1 + sum_k 2 c_k**n) / 2p times the largest |x j_{n-1}(x)|,
    # taken as 2.
    reach = 2.0 * _COND_MAX * (1.0 + sum(_node_weights(p, n)))
    return _Route(below, lead, ratios, plan, bound, reach, _COND_MAX * 2 * p)


def _sum_series(lead: float, ratios: tuple[float, ...], n: int, az: float,
                alternating: bool) -> float | None:
    """The series at |z| = az, or None where it does not converge in the
    given ratios or, alternating, is ill-conditioned."""
    x = az * az
    if x * ratios[-1] >= 1.0:
        return None  # the terms still grow at the last ratio
    term = lead * az**n
    pairs = iter(ratios)
    if not alternating:
        total = term
        for r1, r2 in zip(pairs, pairs):
            term *= x * r1
            total += term
            term *= x * r2
            total += term
            if term <= _SERIES_TOL * total:
                return total
        return None
    # Even and odd terms summed apart: their sum is sum|t|, their difference
    # the value.
    even, odd = term, 0.0
    for r1, r2 in zip(pairs, pairs):
        term *= x * r1
        odd += term
        term *= x * r2
        even += term
        if term <= _SERIES_TOL * abs(even - odd):
            value = even - odd
            return value if even + odd <= _COND_MAX * abs(value) else None
    return None


def _spherical_j(m: int, x: float) -> float:
    """j_m(x) for x > 0: upward recurrence from j_0 and j_1 at or above the
    turning point x = m, Miller's backward recurrence below it, normalised
    by whichever of j_0, j_1 is larger."""
    j0 = math.sin(x) / x
    if m == 0:
        return j0
    j1 = (j0 - math.cos(x)) / x
    inv = 1.0 / x
    if x >= m:
        prev, cur = j0, j1
        for odd in range(3, 2 * m, 2):  # 2l + 1 for l = 1 .. m-1
            prev, cur = cur, odd * inv * cur - prev
        return cur
    # Start far enough above m that the error of the trial values has
    # decayed below binary64 resolution by order m.
    start = m + 8 + int(math.sqrt(8.0 * x))
    nxt, cur = 0.0, 1e-150
    for odd in range(2 * start + 1, 2 * m + 2, -2):  # l = start .. m+1
        nxt, cur = cur, odd * inv * cur - nxt
    at_m = cur
    for odd in range(2 * m + 1, 2, -2):  # l = m .. 1
        nxt, cur = cur, odd * inv * cur - nxt
    if abs(j0) >= abs(j1):
        return at_m * (j0 / cur)
    return at_m * (j1 / nxt)


def _node_sum(n: int, p: int, az: float) -> float:
    # (|z|/2p) [j_{n-1}(|z|) + sum_k 2 c_k**(n+1) j_{n-1}(c_k |z|)], n >= 1.
    total = _spherical_j(n - 1, az)
    for w, c in zip(_node_weights(p, n + 1), make_nodes(p).nodes):
        total += w * _spherical_j(n - 1, c * az)
    return az * total / (2 * p)


def evaluate(req: ApproxRequest) -> float:
    """Evaluate the approximant of I_n (kind "I") or J_n (kind "J").

    Each point takes the cheapest well-conditioned path: the series below
    the (kind, n, p) crossover or ``eps``, else the plan; for J with
    n >= 2 the plan only where its Horner bound stays within the condition
    limit of the result, else the node sum by recurrence.
    """
    n, p, z = req.n, req.p, req.z
    trig = req.kind == "J"
    below, lead, ratios, plan, bound, reach, limit = _route(n, p, trig)
    az = abs(z)
    if az < req.eps or az < below:
        value = _sum_series(lead, ratios, n, az, trig)
        if value is not None:
            return -value if z < 0 and n % 2 else value
    if not bound:
        return _plan_value(plan, n, p, z)
    size = 0.0
    for m in bound:
        size = size / az + m
    if size <= reach:
        value = _plan_value(plan, n, p, z)
        if size <= limit * abs(value):
            return value
    value = _node_sum(n, p, az)
    return -value if z < 0 and n % 2 else value
