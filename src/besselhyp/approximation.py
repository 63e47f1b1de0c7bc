"""Elementary-function approximants for I_n and J_n.

The order-n approximant at accuracy parameter p assembles the order-n
kernel expansion over the nodes c_k = cos(k pi / 2p), k = 1..p-1
(make_nodes), and divides by 2p:

    I_n ~ (1/2p) * sum_q  a(n, q) * z**(q-n) * kernel_q(z),
    kernel_q(z) = f(z) + sum_k 2 c_k**q f(c_k z),

with f = sinh for odd q and cosh for even q, and a(n, q) the integers
that coefficients.closed_form_row returns for q = 1..n.  Order 0 is the
single coefficient 1 at q = 0: (1/2p) * (1 + kernel_0(z)), the constant
added explicitly because the kernel itself carries none.  The circular (J)
variant is the same assembly at the rotated argument: sin/cos kernels, and
on each coefficient the sign that rotation gives its term.

The construction reproduces the target power series exactly for all orders
strictly below max(4p - n, n), so it needs n < 4p.  For n >= 1 the
approximant is the spherical-Bessel node sum

    A_n(z) = (z/2p) * [f(z) + 2 sum_k c_k**(n+1) f(c_k z)],
    f = i_{n-1} for I, j_{n-1} for J,

whose Maclaurin series is sum_k (+-)**k w(n+k) z**(n+2k) / (2**k k! (2n+2k-1)!!),
with w(m) the 4p-point trapezoidal mean of cos**(2m) (and w(0) = 1 for the
order-0 constant), computed from its aliased-binomial identity in exact
integers and correctly rounded (_trapezoid_weights).  Each point is
evaluated by the cheapest of three paths that is well-conditioned there:

* the series, summed by term ratios: positive for I, alternating for J and
  accepted only while its condition number sum|t| / |sum t| stays small;
* the plan below, the assembly itself, which cancels between its
  negative powers of z for n >= 2 as z -> 0 (for I below about |z| = n**2/7);
  for I from n = 66 the series reaches the edge of cosh, past which cosh
  overflows, so such a route holds no plan and refuses every point the
  series leaves;
* for J where neither is well-conditioned, the node sum itself: each node
  at or above the turning point c_k |z| >= n - 1 takes j_{n-1}(c_k z) by
  upward recurrence, and all nodes below it share one Miller backward
  recurrence at the largest of them, x_b, which the multiplication theorem
  j_m(lam x) = lam**m sum_l ((1 - lam**2) x/2)**l / l! j_{m+l}(x) (DLMF
  10.23.1) turns into every node's value, lam = c_k / c_b.  Both
  recurrences step over the factors 2l + 1 as floats (_ODD), which round
  as the int factors would.

For J with n >= 2 the plan is tried only where a Horner bound on its terms
is at most _COND_MAX 2p times the largest |A_n|, and a point where the
bound exceeds that goes to the node sum without running the plan.

Every kernel of the order-n assembly is taken at the same p arguments z and
c_k z; only the parity and the node weights 2 c_k**q change from term to
term.  Each (kind, n, p) is therefore compiled once into a plan, and
evaluating it takes one sinh/cosh (sin/cos) pair per argument.  The plan is
run by straight-line code generated once per p, with the nodes as literals
and one statement per node term; it runs the same Horner recurrence, in the
same order, as summing each kernel_q on its own (one sinh/cosh per term
and node), so its results equal that per-term form bit for bit.

Everything a point needs is one route record per (kind, n, p) (_Route), the
plan's only home: the series' lead and ratios, the plan's runner and rows
(for I from n = 66 a refusal and no rows), and for J the bound's terms and
thresholds.  It is built on the first point of its (kind, n, p) and found
by one dict lookup in _ROUTES on the request's own fields, and evaluate
runs the plan from it inline.

The argument rules for (kind, n, p, z) are raised here alone (_validate_*):
ApproxRequest applies them once, when it is built, evaluate trusts what it
is given, and the analysis twins and make_nodes call the same functions.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Callable, Iterable, NamedTuple

from .coefficients import closed_form_row, double_factorial


class DomainError(ValueError):
    """The (n, p) pair lies outside the approximant's matched-series domain."""


class Binary64OverflowError(DomainError, OverflowError):
    """The approximant at this argument does not fit in binary64.

    Raised where sinh/cosh themselves overflow, for I above about
    |z| = 710.48, or where the value itself does; and for every argument of
    an order past _ORDER_MAX, 108, whose z**n at the edge of cosh passes
    1e308: such an order is refused before any table of it is built.  It is
    also an OverflowError, which is what the hyperbolic functions raise.
    """


class ApproxRequest:
    """One evaluation request: function kind, order, accuracy, argument.

    Requests are validated once, on construction, and each field is stored
    once: kind "I" or "J", ints n >= 0 and p >= 1, finite z (as a float) and
    n < 4p, without which no series terms match.  The read-only ``eps`` is
    the |z| = 0.25 (n + 1) below which evaluate takes the series without a
    cost comparison; it is derived from ``n``, not set.

    A request is a frozen value: every assignment or deletion raises
    AttributeError, and it is compared, hashed and printed by its four
    fields.  It is not a dataclass; a changed request is built anew, which
    validates it again.
    """

    __match_args__ = ("kind", "n", "p", "z")
    kind: str
    n: int
    p: int
    z: float

    def __init__(self, kind: str, n: int, p: int, z: float) -> None:
        # One test on the accepted path; a request that fails it meets the
        # rules in turn.  Fields go straight into the instance dict, past the
        # __setattr__ that refuses every store.
        try:
            if not (kind in ("I", "J") and type(n) is int and type(p) is int
                    and 0 <= n < 4 * p and math.isfinite(z := float(z))):
                z = _validate_request(kind, n, p, z)
        except OverflowError:  # float(z) of an int or Fraction beyond binary64
            z = _validate_request(kind, n, p, z)
        fields = self.__dict__
        fields["kind"] = kind
        fields["n"] = n
        fields["p"] = p
        fields["z"] = z

    @property
    def eps(self) -> float:
        return _forced_series_below(self.n)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(kind={self.kind!r}, n={self.n!r}, "
                f"p={self.p!r}, z={self.z!r})")

    def __eq__(self, other):
        # Requests of one class only: a request never equals its tuple.
        if other.__class__ is self.__class__:
            return (self.kind, self.n, self.p, self.z) == (other.kind, other.n, other.p, other.z)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.n, self.p, self.z))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _forced_series_below(n: int) -> float:
    # Below it the first term ratio is at most (n + 1)/64 < 1/2, so the
    # series is well-conditioned for both kinds.
    return 0.25 * (n + 1)


def _validate_request(kind: str, n: int, p: int, z) -> float:
    # Every rule in turn, for a request the one test refused: z as a float.
    # A z whose float would overflow breaks the finite rule, and its message
    # does not convert it again.
    _validate_args(kind, n, p)
    try:
        z = float(z)
    except OverflowError:
        raise ValueError("argument must be finite, got a value beyond binary64 range") from None
    _validate_finite(z)
    _validate_domain(n, p)
    return z


def _validate_args(kind: str = "I", n: int = 0, p: int = 1) -> None:
    """The approximant's argument rules, raised here alone, in order: kind
    is "I" or "J"; n and p are ints, bools not; n >= 0; p >= 1.  Each
    default passes.  _validate_finite and then _validate_domain follow."""
    if kind not in ("I", "J"):
        raise ValueError(f"kind must be 'I' or 'J', got {kind!r}")
    _validate_int("order n", n)
    _validate_int("accuracy parameter p", p)
    if n < 0:
        raise ValueError(f"order n must be >= 0, got {n}")
    if p < 1:
        raise ValueError(f"accuracy parameter p must be >= 1, got {p}")


def _validate_int(name: str, value) -> None:
    # The int rule, bools not, for n, p and any other integer argument.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _validate_finite(z) -> None:
    # z - z is nan for an inf or a nan, float or mpf, and 0 for an mpf past binary64.
    if z - z != 0:
        raise ValueError(f"argument must be finite, got {float(z)!r}")


def _validate_domain(n: int, p: int) -> None:
    if n >= 4 * p:
        raise DomainError(f"order n={n} needs n < 4p = {4 * p}; "
                          "no series terms are matched beyond that")


@lru_cache(maxsize=None, typed=True)  # so True or 2.0 meets the int rule
def make_nodes(p: int) -> tuple[float, ...]:
    """Interior cosine nodes cos(k*pi/(2p)) for k = 1..p-1, cached per p.

    Strictly decreasing in the open interval (0, 1); empty for p = 1.
    """
    _validate_args(p=p)
    return tuple(math.cos(k * math.pi / (2 * p)) for k in range(1, p))


def _j_term_sign(q: int) -> int:
    # Sign picked up by the index-q term when the argument rotates onto the
    # imaginary axis; period four in q.  Locked in by the complex-path
    # consistency tests.
    return -1 if q % 4 in (1, 2) else 1


@lru_cache(maxsize=None)
def _signed_expansion(n: int, trig: bool) -> tuple[int, ...]:
    # a(n, q) for q = 1..n.  For J, rotating z onto the imaginary axis gives
    # term q the sign _j_term_sign(q) and the sum the factor (-1)**n, which
    # rides on every coefficient because negation commutes with rounding.
    if not trig:
        return closed_form_row(n)
    return tuple((-1) ** n * _j_term_sign(q) * coeff
                 for q, coeff in enumerate(closed_form_row(n), 1))


#: Per p, the rows of node weights (2 c_k**q)_k for q = 0, 1, ..., as far as
#: the highest q asked for; a row that grows is stored as a new tuple.
_NODE_WEIGHTS: dict[int, tuple[tuple[float, ...], ...]] = {}


def _node_weights(p: int, q: int) -> tuple[float, ...]:
    # The node weights 2 c_k**q of the index-q kernel, shared by every n and
    # both kinds; rows are built only as far as the q some plan uses.  Each
    # power is the one below times c_k (q roundings, about q u, what rounding
    # c_k itself already puts on c_k**q), halved out of its weight and doubled
    # back exactly, so that a power in the subnormals rounds as c_k**q does.
    # The plan asks for q <= n, the node sum (_node_terms) for n + 1.
    rows = _NODE_WEIGHTS.get(p, ())
    if len(rows) <= q:
        nodes = make_nodes(p)
        grown = list(rows) or [(2.0,) * len(nodes)]
        while len(grown) <= q:
            grown.append(tuple(2.0 * (0.5 * w * c) for w, c in zip(grown[-1], nodes)))
        rows = _NODE_WEIGHTS[p] = tuple(grown)
    return rows[q]


def _compile(terms: Iterable[tuple[int, int]], p: int, *, trig: bool) -> tuple:
    """The plan (run, odd, even, steps) of terms (q, a(n, q)) in ascending q.

    ``steps`` holds, per term: whether it is sinh-like (odd q), its
    coefficient as a float and its node weights 2 c_k**q.  ``odd``/``even``
    are the sinh-like and cosh-like functions, or None where no term uses
    that parity; ``run`` is the runner for p (see _runner).
    """
    steps = tuple((q % 2 == 1, float(coeff), _node_weights(p, q)) for q, coeff in terms)
    sinh_like, cosh_like = (math.sin, math.cos) if trig else (math.sinh, math.cosh)
    return (_runner(p),
            sinh_like if any(odd for odd, _, _ in steps) else None,
            cosh_like if not all(odd for odd, _, _ in steps) else None,
            steps)


@lru_cache(maxsize=None)
def _runner(p: int) -> Callable[..., float]:
    """The plan loop for node count p, generated once per p as straight-line
    code: run(z, odd, even, steps).

    It is the kernel Horner recurrence acc <- acc/z + coeff * kernel_q, with
    kernel_q = f(z) + sum_k w_qk f(c_k z) summed left to right, over
    transcendentals taken once per argument.  The nodes are literals and
    each node term is its own statement; one long expression would overflow
    the compiler's recursion at a few thousand nodes.
    """
    ks = range(1, p)
    lines = ["def run(z, odd, even, steps):"]
    lines += [f"    a{k} = {c!r} * z" for k, c in zip(ks, make_nodes(p))]
    for fn, f in (("odd", "o"), ("even", "e")):
        lines.append(f"    if {fn} is not None:")
        lines.append(f"        {f}0 = {fn}(z)")
        lines += [f"        {f}{k} = {fn}(a{k})" for k in ks]
    row = "".join(f"w{k}, " for k in ks)
    lines.append("    acc = None")
    lines.append(f"    for sinh_like, coeff, ({row}) in steps:")
    for test, f in (("if sinh_like:", "o"), ("else:", "e")):
        lines.append(f"        {test}")
        lines.append(f"            value = {f}0")
        lines += [f"            value += w{k} * {f}{k}" for k in ks]
    lines.append("        acc = coeff * value if acc is None else acc / z + coeff * value")
    lines.append("    return acc")
    namespace: dict[str, object] = {}
    exec(compile("\n".join(lines), f"<plan runner p={p}>", "exec"), namespace)
    return namespace["run"]


def _term_bounds(steps: tuple) -> tuple[float, ...]:
    # |a(n, q)| (1 + sum_k 2 c_k**q) per term in plan order: the largest
    # |coeff * kernel_q| over transcendentals of magnitude at most 1.
    return tuple(abs(coeff) * (1.0 + sum(row)) for _, coeff, row in steps)


def _rescaled_plan_value(run: Callable[..., float], odd: Callable[[float], float] | None,
                         even: Callable[[float], float] | None, steps: tuple,
                         n: int, p: int, z: float) -> float:
    """The plan's value where running it overflowed: the same runner over
    sinh/cosh (sin/cos) scaled by an exact 2**-m, scaled back by 2**m.

    Power-of-two scaling commutes with every rounding the runner does, so
    the value is the one an unbounded exponent range would give, and m is
    taken so that every term (see _term_bounds) and their sum stay in range.
    Only a transcendental that overflows itself, or a value beyond binary64,
    raises.  Only I with n <= 65 can take the rescale, between its series'
    reach and the edge of cosh; an I route from n = 66 holds no plan, no
    rows and a runner that refuses, so it raises here at once.
    """
    m = math.frexp(len(steps) * max(_term_bounds(steps), default=0.0))[1]
    scale = math.ldexp(1.0, -m)

    def scaled(f: Callable[[float], float] | None) -> Callable[[float], float] | None:
        return None if f is None else lambda x: f(x) * scale

    try:
        acc = run(z, scaled(odd), scaled(even), steps)
        if n == 0:
            acc += scale
        value = math.ldexp(acc / (2 * p), m)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise Binary64OverflowError(
            f"approximant of order n={n} at p={p} overflows binary64 at z={z!r}"
        )
    return value


#: A series stops once a term falls below this fraction of the partial sum.
_SERIES_TOL = 2.0 ** -54
#: Largest condition number a path may show and still be taken: a J series
#: with sum|t| / |sum t| above it, or a J plan whose Horner bound exceeds it
#: times the result, gives way to the next path.
_COND_MAX = 1e3
#: The series is not chosen for its cost beyond this |z|, the range the
#: term-count model (_series_count) was fitted on.
_SERIES_Z_MAX = 40.0
#: The edge of cosh, about 710.48: I takes no series past it, so its
#: positive terms, each below their sum, never reach inf.
_COSH_EDGE = math.acosh(sys.float_info.max)
#: The last order a route admits, 108: the largest n for which z**n fits in
#: binary64 at the series' reach, at most just past the edge of cosh.  The
#: series takes only |z| below it, so az**n in _sum_series always fits.
_ORDER_MAX = int(math.log(sys.float_info.max) / math.log(math.nextafter(_COSH_EDGE, math.inf)))


def _series_count(reach: float) -> int:
    # The term-count model: the I series takes 3 + 4.9 sqrt|z| + |z|/2 terms,
    # growing up to k of about |z|/2 and then falling like a Gaussian of width
    # sqrt|z|: within two of the counts for n = 0 up to |z| = 40, above them
    # up to the edge of cosh, and larger n need fewer.  A table keeps the
    # count at I's threshold, rounded up to even, and ten more for J's sum.
    count = math.ceil(3.0 + 4.9 * math.sqrt(reach) + 0.5 * reach)
    return count + count % 2 + 10


def _crossover(n: int, p: int) -> float:
    # The model's inverse: the |z| at which the series takes 1.2 n p terms,
    # about the cost of the plan's n kernel terms over p arguments.
    budget = 1.2 * n * p - 3.0
    if budget <= 0:
        return 0.0
    root = -4.9 + math.sqrt(4.9 * 4.9 + 2.0 * budget)
    return root * root


def _series_reach(n: int, p: int) -> float:
    # |z| below which I takes the series: where it is cheaper, below the
    # forced-series threshold, and where the plan's Rayleigh sums for i_{n-1}
    # cancel by more than _COND_MAX (below about 0.14 n**2); up to and
    # including the edge of cosh, where the plan cancels too for large n.
    reach = max(n * n / 6.0, min(_crossover(n, p), _SERIES_Z_MAX), _forced_series_below(n))
    return min(reach, math.nextafter(_COSH_EDGE, math.inf))


@lru_cache(maxsize=None)
def _trapezoid_weights(p: int) -> tuple[float, ...]:
    # w(m), the 4p-point trapezoidal mean of cos**(2m), exceeds the exact
    # mean C(2m, m) / 4**m by the aliased binomials (Trefethen & Weideman,
    # SIAM Rev. 56, 2014): 4**m w(m) = C(2m, m) + 2 sum_{j>=1} C(2m, m - 2pj).
    # Each binomial is an int carried from m - 1 by its exact ratio, the
    # column of d = 2pj starting at m = d as C(2d, 0) = 1, and each entry is
    # one correctly rounded int/int division.  w(0) = 1 because the order-0
    # approximant adds its constant 1 on top of the kernel.  As many as the
    # table of this p's last admitted order reads: the reach, and so the
    # term count, never falls as n grows, so it covers every smaller order.
    last = min(4 * p - 1, _ORDER_MAX)
    central = 1  # C(2m, m)
    aliased: dict[int, int] = {}  # d -> C(2m, m - d)
    weights = [1.0]
    for m in range(1, last + 1 + _series_count(_series_reach(last, p))):
        central = central * (4 * m - 2) // m
        aliased = {d: c * ((4 * m - 2) * m) // ((m - d) * (m + d))
                   for d, c in aliased.items()}
        if m % (2 * p) == 0:
            aliased[m] = 1
        weights.append((central + 2 * sum(aliased.values())) / (1 << 2 * m))
    return tuple(weights)


@lru_cache(maxsize=None)
def _series(n: int, p: int) -> tuple[float, tuple[float, ...]]:
    """Leading coefficient w(n) / (2n-1)!! and the term ratios
    w(n+k+1) / w(n+k) / (2 (k+1) (2n+2k+1)), as many as _series_count gives
    at the reach of I."""
    w = _trapezoid_weights(p)
    ratios = tuple(w[n + k + 1] / w[n + k] / (2 * (k + 1) * (2 * n + 2 * k + 1))
                   for k in range(_series_count(_series_reach(n, p))))
    return w[n] / double_factorial(2 * n - 1), ratios


class _Route(NamedTuple):
    """How one (kind, n, p) evaluates a point: everything evaluate reads.

    The series takes |z| below ``series_below``, at least the forced-series
    threshold 0.25 (n + 1), from ``lead`` and ``ratios`` (see _series), and
    the plan the rest: ``run``, ``odd``, ``even`` and ``steps`` are the
    plan of a(n, q) (see _compile), compiled for this record alone, which
    evaluate runs.  An I route from n = 66, whose series reaches the edge
    of cosh, holds no plan: ``run`` is _past_the_edge, which raises
    OverflowError, ``odd`` and ``even`` are None and ``steps`` is empty, so
    every point the series leaves raises Binary64OverflowError.  For J with
    n >= 2, ``bound`` holds |a(n, q)| (1 + sum_k 2 c_k**q) in plan order,
    whose Horner sum in 1/|z| bounds the plan's terms; the plan is tried
    where that sum is at most ``reach`` = _COND_MAX 2p times the largest
    |A_n|, and kept while it is at most ``limit`` = _COND_MAX 2p times the
    result.  Where the sum exceeds the reach the node sum takes the point
    without running the plan.
    """

    series_below: float
    lead: float
    ratios: tuple[float, ...]
    run: Callable[..., float]
    odd: Callable[[float], float] | None
    even: Callable[[float], float] | None
    steps: tuple[tuple[bool, float, tuple[float, ...]], ...]
    bound: tuple[float, ...]
    reach: float
    limit: float


#: The route of every (n, p, kind) met so far, keyed as ApproxRequest holds
#: them, so that evaluate finds a point's route with one dict lookup.  Each is
#: kept as a plain tuple of the _Route fields: evaluate unpacks it, and an
#: exact tuple unpacks faster than a NamedTuple.
_ROUTES: dict[tuple[int, int, str], tuple] = {}


def _route(n: int, p: int, kind: str) -> _Route:
    """The route of (kind, n, p), built on its first call and kept in _ROUTES."""
    route = _ROUTES.get((n, p, kind))
    if route is None:
        route = _ROUTES[n, p, kind] = tuple(_build_route(n, p, kind == "J"))
    return _Route._make(route)


def _past_the_edge(z: float, odd: None, even: None, steps: tuple) -> float:
    # The plan of an I route whose series reaches the edge of cosh: every
    # point the series leaves lies past it, where cosh overflows.
    raise OverflowError("math range error")


def _build_route(n: int, p: int, trig: bool) -> _Route:
    if n > _ORDER_MAX:  # refused before anything is built (see _ORDER_MAX)
        raise Binary64OverflowError(
            f"order n={n} at p={p} needs coefficients beyond binary64 range")
    series_reach = _series_reach(n, p)
    lead, ratios = _series(n, p)
    if not trig and series_reach > _COSH_EDGE:  # every n >= 66
        return _Route(series_reach, lead, ratios, _past_the_edge, None, None, (), (), 0.0, 0.0)
    # Order 0 is the index-0 cosh kernel alone, the coefficient 1 at q = 0;
    # evaluate adds the constant 1.
    plan = _compile(enumerate(_signed_expansion(n, trig), 1) if n else [(0, 1)],
                    p, trig=trig)
    if not trig:
        return _Route(series_reach, lead, ratios, *plan, (), 0.0, 0.0)
    # The alternating series is well-conditioned below the forced-series
    # threshold and cancels by about _COND_MAX near |z| = 6 + 0.45 n.
    below = min(max(_crossover(n, p), _forced_series_below(n)), 6.0 + 0.45 * n)
    if n < 2:
        return _Route(below, lead, ratios, *plan, (), 0.0, 0.0)
    bound = _term_bounds(plan[3])
    # |A_n| <= (1 + sum_k 2 c_k**n) / 2p times the largest |x j_{n-1}(x)|,
    # taken as 2.
    reach = 2.0 * _COND_MAX * (1.0 + sum(_node_weights(p, n)))
    return _Route(below, lead, ratios, *plan, bound, reach, _COND_MAX * 2 * p)


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


def _span(m: int) -> int:
    # The group recurrence starts span orders above m: by order m its trial
    # start has decayed below binary64 resolution, and by its top the
    # multiplication sum's terms have decayed below that of the group.
    return 8 + int(math.sqrt(8.0 * m))


#: The factors 2l + 1 of the spherical Bessel recurrences as floats, l = 0,
#: 1, ...: each converts exactly, so a step over them rounds as a step over
#: ints does, without the conversion.  They reach the top order m + _span(m)
#: of the node sum at the last order a route admits, m = _ORDER_MAX - 1, and
#: _node_terms checks that they reach that of each node sum it sets up.
_ODD = tuple(float(2 * l + 1) for l in range(_ORDER_MAX + _span(_ORDER_MAX - 1)))


def _spherical_j(m: int, x: float) -> float:
    """j_m(x) at or above the turning point x >= m > 0 (and j_0 at any
    x > 0), by upward recurrence from j_0 and j_1."""
    j0 = math.sin(x) / x
    if m == 0:
        return j0
    inv = 1.0 / x
    prev, cur = j0, (j0 - math.cos(x)) * inv
    for odd in _ODD[1:m]:  # 2l + 1 for l = 1 .. m-1
        prev, cur = cur, odd * inv * cur - prev
    return cur


def _multiplication_coeffs(m: int, members: Iterable[tuple[float, float, float]]
                           ) -> tuple[float, ...]:
    """V_l / (2**l l!) for l = 0 .. 8 + sqrt(8m), where V_l is the sum of
    w lam**m mu**l over the members (w, lam, mu = 1 - lam**2).

    By the multiplication theorem (DLMF 10.23.1, in spherical form),
    j_m(lam x) = lam**m sum_l (mu x/2)**l / l! j_{m+l}(x), so these
    coefficients give sum w j_m(lam x) = sum_l coeffs[l] x**l j_{m+l}(x).
    """
    span = _span(m)
    # One row of w lam**m mu**l per member, summed by column.
    rows = [accumulate(repeat(mu, span), operator.mul, initial=w * lam**m)
            for w, lam, mu in members]
    scales = accumulate((0.5 / l for l in range(1, span + 1)), operator.mul, initial=1.0)
    return tuple(map(operator.mul, scales, map(sum, zip(*rows))))


def _group_sum(m: int, x: float, coeffs: tuple[float, ...]) -> float:
    """sum_l coeffs[l] x**l j_{m+l}(x) for 0 < x < m: one Miller backward
    recurrence from order m + len(coeffs) - 1, summed by Horner in x as it
    passes each m + l, and normalised at the end by whichever of j_0, j_1 is
    larger.  Below the turning point every j_{m+l}(x) is positive, and so is
    every term."""
    inv = 1.0 / x
    top = m + len(coeffs) - 1
    nxt, cur = 0.0, 1e-150
    acc = 0.0
    for odd, a in zip(_ODD[top:m - 1:-1], reversed(coeffs)):
        acc = acc * x + a * cur  # cur is the trial j_l, odd = 2l + 1
        nxt, cur = cur, odd * inv * cur - nxt
    for odd in _ODD[m - 1:0:-1]:  # l = m-1 .. 1
        nxt, cur = cur, odd * inv * cur - nxt
    j0 = math.sin(x) * inv
    j1 = (j0 - math.cos(x)) * inv
    if abs(j0) >= abs(j1):
        return acc * (j0 / cur)
    return acc * (j1 / nxt)


@lru_cache(maxsize=None)
def _node_terms(n: int, p: int) -> tuple[tuple[float, float], ...]:
    # (c_k, weight) in decreasing c_k, with |z| itself as node 0 at weight 1.
    _ODD[n - 1 + _span(n - 1)]  # IndexError where a recurrence would run short
    return tuple(zip((1.0,) + make_nodes(p), (1.0,) + _node_weights(p, n + 1)))


@lru_cache(maxsize=None)
def _group(n: int, p: int, b: int) -> tuple[float, tuple[float, ...]]:
    """The nodes b, b+1, ... of _node_terms(n, p) as one group anchored at
    c_b: the bound factor sum_k w_k * m**m / (2m+1)!!, m = n - 1, and the
    group's multiplication coefficients (see _multiplication_coeffs)."""
    m = n - 1
    terms = _node_terms(n, p)[b:]
    cb = terms[0][0]
    # lam = c / cb; mu = (cb - c)(cb + c) / cb**2, where cb - c is exact.
    members = [(w, c / cb, (cb - c) * (cb + c) / (cb * cb)) for c, w in terms]
    factor = sum(w for _, w in terms)
    for odd in range(3, 2 * m + 2, 2):
        factor *= m / odd
    return factor, _multiplication_coeffs(m, members)


def _node_sum(n: int, p: int, az: float) -> float:
    """(|z|/2p) [j_m(|z|) + sum_k 2 c_k**(n+1) j_m(c_k |z|)], m = n - 1 >= 0.

    Nodes at or above the turning point c_k |z| >= m take the upward
    recurrence each.  The nodes below it form one group, summed by one
    Miller recurrence at the largest of them, x_b (_group_sum); contracting
    from an argument above the turning point would cancel.  The group is
    skipped when its bound sum_{k>=b} w_k x_b**m / (2m+1)!! is below half an
    ulp of the sum so far: |j_m(x)| <= x**m / (2m+1)!! (DLMF 10.14.4 through
    j_m = sqrt(pi/2x) J_{m+1/2}), and no node of the group lies above x_b.
    """
    m = n - 1
    total = 0.0
    for b, (c, w) in enumerate(_node_terms(n, p)):
        x = c * az
        if x < m:
            factor, coeffs = _group(n, p, b)
            if factor * (x / m) ** m >= 0.5 * math.ulp(total):
                total += _group_sum(m, x, coeffs)
            break
        total += w * _spherical_j(m, x)
    return az * total / (2 * p)


def evaluate(req: ApproxRequest) -> float:
    """Evaluate the approximant of I_n (kind "I") or J_n (kind "J").

    Each point takes the cheapest well-conditioned path, tried in this
    order: the series below the (kind, n, p) crossover or ``req.eps``; else
    the plan, which for J with n >= 2 runs only where its Horner bound is
    within the route's reach and is kept only where that bound stays within
    the condition limit of the result; else the node sum by recurrence, from
    the one call at the end.  The route is one dict lookup, and the plan
    runs here from the route's fields, rescaled from the same fields where
    the run overflows.  An I route from n = 66 holds no plan: past the edge
    of cosh, the only points its series leaves, it raises
    Binary64OverflowError through the same overflow branch.

    The approximant is even or odd with n, A_n(-z) = (-1)**n A_n(z).  The
    series and the node sum are taken at |z| and share the one sign line
    at the end; the plan runs at the signed z and returns its value as it
    is, since its sinh/sin kernels and its acc / z steps carry the sign
    bit for bit, and a detour through |z| would cost the plan's hot path a
    branch and a negation.
    """
    n, p, z, kind = req.n, req.p, req.z, req.kind
    try:
        route = _ROUTES[n, p, kind]
    except KeyError:
        route = _route(n, p, kind)
    below, lead, ratios, run, odd, even, steps, bound, reach, limit = route
    az = abs(z)
    if az >= below or (value := _sum_series(lead, ratios, n, az, kind == "J")) is None:
        if bound:
            size = 0.0
            for m in bound:
                size = size / az + m
        if not bound or size <= reach:
            try:
                acc = run(z, odd, even, steps)
            except OverflowError:  # sinh/cosh, or a term or sum beyond binary64
                acc = math.inf
            if not math.isfinite(acc):
                value = _rescaled_plan_value(run, odd, even, steps, n, p, z)
            elif n == 0:
                value = (1.0 + acc) / (2 * p)
            else:
                value = acc / (2 * p)
            if not bound or size <= limit * abs(value):
                return value
        value = _node_sum(n, p, az)
    return -value if z < 0 and n % 2 else value
