"""Independent oracle for I_n, J_n, lacunary tails, and identities.

Everything the approximants are measured against comes from this module,
written from scratch in binary64 and never a platform Bessel routine.
Library implementations may appear in the test suite as an additional
cross-check, but the oracle is this one.  ref_I, and ref_J while
z**2 <= 8 (n + 1), sum the ascending power series with compensated
summation; the stopping rule is fixed: a series stops once a term falls
below 1e-15 of the partial sum (for J, two terms in a row), or after 200
terms.  Beyond that reach ref_J runs Miller's backward recurrence, where
the alternating series would cancel.

Orders and accuracy parameters are ints (bools not), orders n <= 64, and
arguments |z| <= 30: rules of the oracle's own, which imports nothing from
the package.  Against the fixed-point series ``analysis.hp_ref``, the
largest relative error over n <= 64 of ref_I, a sum of positive terms, is
below 1e-15 at z = 10, 20 and 30.  ref_J is within 1e-13 relative or
1e-15 absolute for every n <= 64 up to |z| = 30 (on a grid of step 0.37
its largest absolute error is 7.7e-16).  Its largest relative error is
7.1e-15 at z = 10, 2.3e-14 at z = 30, and 2.0e-13 at z = 20, where J_15
is next to its first zero.

ref_I_orders and ref_J_orders give several orders at one argument, as a
table row needs them, each value bit for bit the one-order function's: the
J orders that take Miller's recurrence from the same start read their
values from one pass, and each series order's leading term goes on from
the order before.  Nothing is kept from one call to the next.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from itertools import groupby

Z_MAX = 30.0
N_MAX = 64

_TOL = 1e-15
_MAX_TERMS = 200
#: The series' term indices k = 1 .. _MAX_TERMS - 1, as floats.
_TERM_INDEX = tuple(map(float, range(1, _MAX_TERMS)))
#: ref_J sums its series while z**2 <= _J_SERIES_REACH (n + 1), and takes
#: Miller's recurrence beyond.
_J_SERIES_REACH = 8.0

#: Tags of the supported node-sum identities, checked as (lhs - rhs):
#:   N2   cosh z                       = I_0 + 2 (I_2 + I_4 + ...)
#:   N4   cosh(z/2)**2                 = I_0 + 2 (I_4 + I_8 + ...)
#:   N8   (1 + cosh z + 2 cosh(z/sqrt 2))/4 = I_0 + 2 (I_8 + I_16 + ...)
#:   N4P  node-averaged cosh sum at parameter p = I_0 + 2 sum_k I_{4pk}
#:   J4P  circular variant of N4P     = J_0 + 2 sum_k J_{4pk}
IDENTITY_TAGS = ("N2", "N4", "N8", "N4P", "J4P")


def _require_int(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _validate(n: int, z: float) -> None:
    if type(n) is not int:
        _require_int("oracle order", n)
    if not 0 <= n <= N_MAX:
        raise ValueError(f"oracle order must satisfy 0 <= n <= {N_MAX}, got {n}")
    if not (math.isfinite(z) and abs(z) <= Z_MAX):
        raise ValueError(f"oracle argument must satisfy |z| <= {Z_MAX}, got {z!r}")


def _validate_p(p: int) -> None:
    _require_int("accuracy parameter p", p)
    if p < 1:
        raise ValueError(f"accuracy parameter p must be >= 1, got {p}")


def _leading_term(n: int, z: float, term: float = 1.0, done: int = 0) -> float:
    # (z/2)**n / n! via a running product; never a bare factorial.  Given
    # the product at an order done <= n, it goes on from there, with the
    # same roundings as from the start.  The factors i = done + 1 .. n come
    # as floats from the series' indices, which reach past N_MAX.
    half = 0.5 * z
    for i in _TERM_INDEX[done:n]:
        term *= half / i
    return term


def _validate_orders(orders: Sequence[int], z: float) -> None:
    last = -1
    for n in orders:
        _validate(n, z)
        if n <= last:
            raise ValueError(f"oracle orders must be strictly ascending, got {list(orders)}")
        last = n


def ref_I(n: int, z: float) -> float:
    """Ascending series for I_n: sum_k (z/2)**(n+2k) / (k! (n+k)!).

    The series is summed at |z|, where every term is >= 0, and I_n(-z) =
    (-1)**n I_n(z) restores the sign.  Each step of the sum is symmetric in
    the sign of z, so this gives the same bits as summing at z itself.
    """
    _validate(n, z)
    return _series_I(n, z)


def ref_I_orders(orders: Sequence[int], z: float) -> list[float]:
    """[ref_I(n, z) for n in orders], bit for bit, for strictly ascending
    orders; each order's leading term goes on from the one before."""
    _validate_orders(orders, z)
    return _ref_I_orders(orders, z)


def _ref_I_orders(orders: Sequence[int], z: float) -> list[float]:
    # ref_I_orders for orders and z already checked.
    x = abs(z)
    values = []
    term, done = 1.0, 0
    for n in orders:
        term, done = _leading_term(n, x, term, done), n
        values.append(_series_I(n, z, term))
    return values


def _series_I(n: int, z: float, term: float | None = None) -> float:
    # ref_I's sum; ``term`` is the leading term at |z| when already known.
    x = abs(z)
    tol = _TOL
    if term is None:
        term = _leading_term(n, x)
    # Neumaier-compensated sum of the terms, in locals; with every term
    # >= 0 no comparison needs an abs.  The divisor k (n + k) is taken in
    # floats, where it is exact.
    total, carry = 0.0 + term, 0.0  # the first add, exactly
    ratio = 0.25 * x * x
    m = float(n)
    for k in _TERM_INDEX:
        term *= ratio / (k * (m + k))
        t = total + term
        if total >= term:
            carry += (total - t) + term
        else:
            carry += (term - t) + total
        total = t
        if term <= tol * (total + carry):
            break
    value = total + carry
    # 0.0 - value, not -value: the sum at z never gives -0.0.
    return 0.0 - value if z < 0.0 and n % 2 else value


def ref_J(n: int, z: float) -> float:
    """J_n: the alternating series while z**2 <= _J_SERIES_REACH (n + 1),
    where it is the cheaper of the two and well-conditioned, and Miller's
    backward recurrence beyond."""
    _validate(n, z)
    if z * z <= _J_SERIES_REACH * (n + 1):
        return _series_J(n, z)
    (value,) = _miller_J((n,), abs(z))
    return -value if z < 0 and n % 2 else value


def ref_J_orders(orders: Sequence[int], z: float) -> list[float]:
    """[ref_J(n, z) for n in orders], bit for bit, for strictly ascending
    orders.

    The orders that take Miller's recurrence, those with z**2 >
    _J_SERIES_REACH (n + 1), come first.  Every order below |z| starts it
    from the same order, and so may two neighbours above; the orders that
    share a start read their values from one pass.  The series orders'
    leading terms go on from one to the next.
    """
    _validate_orders(orders, z)
    return _ref_J_orders(orders, z)


def _ref_J_orders(orders: Sequence[int], z: float) -> list[float]:
    # ref_J_orders for orders and z already checked.
    x = abs(z)
    split = 0
    for n in orders:
        if z * z <= _J_SERIES_REACH * (n + 1):
            break
        split += 1
    values = []
    for _, group in groupby(orders[:split], lambda n: _miller_start(n, x)):
        values += _miller_J(list(group), x)
    if z < 0:  # the Miller values are at |z|
        values = [-v if n % 2 else v for n, v in zip(orders, values)]
    term, done = 1.0, 0
    for n in orders[split:]:
        term, done = _leading_term(n, z, term, done), n
        values.append(_series_J(n, z, term))
    return values


def _series_J(n: int, z: float, term: float | None = None) -> float:
    """Alternating series for J_n, with a two-term lookahead stop.

    The lookahead guards against stopping on an accidentally small term of
    an alternating sum before its neighbour has been folded in; it is taken
    only once the term itself is small enough.  ``term`` is the leading
    term when already known.
    """
    tol = _TOL
    if term is None:
        term = _leading_term(n, z)
    # Neumaier-compensated sum of the terms, in locals, with the divisors
    # k (n + k) in floats, where they are exact.
    total, carry = 0.0 + term, 0.0  # the first add, exactly
    ratio = -0.25 * z * z
    m = float(n)
    for k in _TERM_INDEX:
        term *= ratio / (k * (m + k))
        t = total + term
        if abs(total) >= abs(term):
            carry += (total - t) + term
        else:
            carry += (term - t) + total
        total = t
        bound = tol * abs(total + carry)
        if abs(term) <= bound and abs(term * ratio) / ((k + 1.0) * (m + k + 1.0)) <= bound:
            break
    return total + carry


def _miller_start(n: int, x: float) -> int:
    # The even order N = max(n, x) + 16 + sqrt(40 max(n, x)) Miller's
    # recurrence for J_n(x) starts from.
    top = max(n, x)
    start = int(top + 16.0 + math.sqrt(40.0 * top))
    return start + start % 2


def _miller_J(orders: Sequence[int], x: float) -> list[float]:
    """J_n(x) for x > 0 and each n of the ascending ``orders``, which share
    one start, by Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}
    from trial values 0 and 1 at the even order N = _miller_start(n, x),
    normalised by 1 = J_0 + 2 sum_k J_2k (DLMF §10.12).

    The recurrence takes two orders per step, from an even k to k - 2, and
    the trial values are rescaled by 1e-250 once the even one has passed
    1e250, tested once per step.  Where ref_J takes the recurrence (n <= 64,
    sqrt(8 (n + 1)) < |z| <= 30) they stay below 1e83, so that never fires.
    """
    two_over_x = 2.0 / x
    k = float(_miller_start(orders[-1], x))
    above, cur = 0.0, 1.0  # trial J_{k+1}, J_k
    evens = 0.0  # trial sum of J_2k for 2k >= 2
    trial = []  # trial J_n for each order passed, the highest first
    # The last stop, at J_0, closes the pass; its entry is dropped.
    for n in (*reversed(orders), 0):
        stop = float(n - n % 2)
        while k > stop:
            evens += cur
            above = k * two_over_x * cur - above
            cur = (k - 1.0) * two_over_x * above - cur
            k -= 2.0
            if cur > 1e250 or cur < -1e250:
                above *= 1e-250
                cur *= 1e-250
                evens *= 1e-250
                trial = [v * 1e-250 for v in trial]
        trial.append(above if n % 2 else cur)
    norm = cur + 2.0 * evens
    return [v / norm for v in reversed(trial[:-1])]


def _lacunary(ref: Callable[[int, float], float], step: int, z: float) -> float:
    """sum_{k>=1} ref(step*k, z), truncated at the series tolerance.

    ``ref`` is ref_I or ref_J.  The sum must start within the oracle's
    orders; past N_MAX it would have no term and read as 0.0.
    """
    if step > N_MAX:
        raise ValueError(
            f"lacunary sum starts at order {step}, past the oracle's n <= {N_MAX}; "
            f"the tail at accuracy parameter p needs 4p <= {N_MAX}"
        )
    acc = 0.0
    k = 1
    while step * k <= N_MAX:
        term = ref(step * k, z)
        acc += term
        if abs(term) <= _TOL * max(abs(acc), 1.0):
            break
        k += 1
    return acc


def tail_I0(p: int, z: float) -> float:
    """The lacunary remainder 2 sum_{k>=1} I_{4pk}(z).

    This is exactly what separates the order-0 approximant at parameter p
    from I_0; it is positive for z > 0 and strictly decreasing in p.  The
    oracle's n <= 64 limits it to 4p <= 64.
    """
    _validate_p(p)
    _validate(0, z)
    return 2.0 * _lacunary(ref_I, 4 * p, z)


def _averaged(fn: Callable[[float], float], p: int, z: float) -> float:
    # Node-averaged form built from elementary functions exactly as written:
    # (1 + fn(z) + 2 sum_k fn(z cos(k pi / 2p))) / (2p), fn = cosh or cos.
    total = 1.0 + fn(z)
    for k in range(1, p):
        total += 2.0 * fn(z * math.cos(k * math.pi / (2 * p)))
    return total / (2 * p)


def identity_residual(which: str, z: float, p: int | None = None) -> float:
    """Signed residual (left side) - (right side) of a node-sum identity.

    The right side's infinite lacunary sum is truncated at the series
    tolerance; each identity is exact, so residuals sit at round-off level.
    ``p`` is required for the N4P and J4P families and ignored otherwise.
    """
    _validate(0, z)
    if which == "N2":
        return math.cosh(z) - (ref_I(0, z) + 2.0 * _lacunary(ref_I, 2, z))
    if which == "N4":
        lhs = math.cosh(0.5 * z) ** 2
        return lhs - (ref_I(0, z) + 2.0 * _lacunary(ref_I, 4, z))
    if which == "N8":
        lhs = 0.25 * (1.0 + math.cosh(z) + 2.0 * math.cosh(z / math.sqrt(2.0)))
        return lhs - (ref_I(0, z) + 2.0 * _lacunary(ref_I, 8, z))
    if which in ("N4P", "J4P"):
        if p is None:
            raise ValueError(f"identity {which} needs an accuracy parameter p")
        _validate_p(p)
        fn, ref = (math.cosh, ref_I) if which == "N4P" else (math.cos, ref_J)
        return _averaged(fn, p, z) - (ref(0, z) + 2.0 * _lacunary(ref, 4 * p, z))
    raise ValueError(f"unknown identity tag {which!r}; expected one of {IDENTITY_TAGS}")
