"""Elementary-function approximants for I_n and J_n.

The order-n approximant at accuracy parameter p assembles the order-n
kernel expansion over the p-node set and divides by 2p:

    I_n ~ (1/2p) * sum_q  a(n, q) * z**(q-n) * kernel_q(z)

with the index-0 case (1/2p) * (1 + cosh-kernel_0(z)), the constant added
explicitly because the kernel itself carries none.  The circular (J)
variant is the same assembly at the rotated argument: sin/cos kernels, and
on each coefficient the sign that rotation gives its term.

The construction reproduces the target power series exactly for all orders
strictly below 4p - n, so it needs n < 4p; the leading error term scales
like z**(4p-n).  Below a configurable |z| threshold the evaluator switches
to the truncated series itself, because the assembled form cancels
catastrophically between its negative z powers as z -> 0.

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

from .coefficients import Term, derive_expansion
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
    """Default |z| below which the truncated-series fallback is used.

    Grows with n because the assembled form loses roughly as many digits as
    the n-dependent cancellation between its negative powers of z.
    """
    return 0.25 * (n + 1)


@dataclass(frozen=True)
class ApproxRequest:
    """One evaluation request: function kind, order, accuracy, argument.

    ``eps`` is the small-|z| policy threshold; ``None`` selects the default
    0.25 * (n + 1).  Requests are validated on construction; in particular
    n < 4p is required for the approximant to have any matched series terms.
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


def _maclaurin_series(n: int, z: float, num_terms: int, alternating: bool) -> float:
    """First ``num_terms`` nonzero series terms of I_n (or J_n if alternating).

    This is the small-|z| policy value: with num_terms = 2p - n it agrees
    with the assembled approximant through every matched order.  Returns 0.0
    when no terms are requested (n >= 2p).
    """
    if num_terms <= 0:
        return 0.0
    half = 0.5 * z
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
    ratio = half * half
    if alternating:
        ratio = -ratio
    total = term
    for k in range(1, num_terms):
        term *= ratio / (k * (n + k))
        total += term
    return total


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
    try:
        acc = _run(_plan(n, p, trig), z)
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


def evaluate(req: ApproxRequest) -> float:
    """Evaluate the approximant of I_n (kind "I") or J_n (kind "J").

    Uses the kernel assembly for |z| >= eps and the truncated series with
    2p - n nonzero terms below it.  The kind only picks sinh/cosh or sin/cos
    and, through the cached plan, the sign pattern of the coefficients.
    """
    trig = req.kind == "J"
    if abs(req.z) < req.eps:
        return _maclaurin_series(req.n, req.z, 2 * req.p - req.n, alternating=trig)
    return _assemble(req.n, req.p, req.z, trig=trig)
