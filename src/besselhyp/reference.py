"""Independent series oracle for I_n, J_n, lacunary tails, and identities.

Everything the approximants are measured against comes from this module: a
from-scratch ascending power series in binary64 with compensated summation,
never a platform Bessel routine.  Library implementations may appear in the
test suite as an additional cross-check, but the oracle is this one.

Arguments are capped at |z| <= 30 and orders at n <= 64.  Against the
fixed-point series ``analysis.hp_ref``, the largest relative error over
n <= 64 of ref_I, a sum of positive terms, is below 1e-15 at z = 10, 20
and 30.  ref_J's alternating sum cancels as |z| grows: its largest is
1.6e-12 at z = 10, 7.1e-9 at z = 20 and 5.3e-4 at z = 30.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

ORACLE_TOL_ENV = "BESSELHYP_ORACLE_TOL"

Z_MAX = 30.0
N_MAX = 64

#: Tags of the supported node-sum identities, checked as (lhs - rhs):
#:   N2   cosh z                       = I_0 + 2 (I_2 + I_4 + ...)
#:   N4   cosh(z/2)**2                 = I_0 + 2 (I_4 + I_8 + ...)
#:   N8   (1 + cosh z + 2 cosh(z/sqrt 2))/4 = I_0 + 2 (I_8 + I_16 + ...)
#:   N4P  node-averaged cosh sum at parameter p = I_0 + 2 sum_k I_{4pk}
#:   J4P  circular variant of N4P     = J_0 + 2 sum_k J_{4pk}
IDENTITY_TAGS = ("N2", "N4", "N8", "N4P", "J4P")


def _default_tol() -> float:
    raw = os.environ.get(ORACLE_TOL_ENV)
    if raw is None:
        return 1e-15
    tol = float(raw)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{ORACLE_TOL_ENV} must be a positive float, got {raw!r}")
    return tol


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control: stop when a term falls below tol * partial sum,
    or after max_terms at the latest.  The default tolerance honours the
    BESSELHYP_ORACLE_TOL environment variable (default 1e-15)."""

    tol: float = field(default_factory=_default_tol)
    max_terms: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


def _validate(n: int, z: float) -> None:
    if not 0 <= n <= N_MAX:
        raise ValueError(f"oracle order must satisfy 0 <= n <= {N_MAX}, got {n}")
    if not (math.isfinite(z) and abs(z) <= Z_MAX):
        raise ValueError(f"oracle argument must satisfy |z| <= {Z_MAX}, got {z!r}")


def _leading_term(n: int, z: float) -> float:
    # (z/2)**n / n! via a running product; never a bare factorial.
    half = 0.5 * z
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
    return term


def ref_I(n: int, z: float, policy: SeriesPolicy | None = None) -> float:
    """Ascending series for I_n: sum_k (z/2)**(n+2k) / (k! (n+k)!)."""
    policy = policy or SeriesPolicy()
    _validate(n, z)
    tol = policy.tol
    term = _leading_term(n, z)
    # Neumaier-compensated sum of the terms, in locals.
    total, carry = 0.0 + term, 0.0  # the first add, exactly
    ratio = 0.25 * z * z
    for k in range(1, policy.max_terms):
        term *= ratio / (k * (n + k))
        t = total + term
        if abs(total) >= abs(term):
            carry += (total - t) + term
        else:
            carry += (term - t) + total
        total = t
        if abs(term) <= tol * abs(total + carry):
            break
    return total + carry


def ref_J(n: int, z: float, policy: SeriesPolicy | None = None) -> float:
    """Alternating series for J_n, with a two-term lookahead stop.

    The lookahead guards against stopping on an accidentally small term of
    an alternating sum before its neighbour has been folded in.
    """
    policy = policy or SeriesPolicy()
    _validate(n, z)
    tol = policy.tol
    term = _leading_term(n, z)
    # Neumaier-compensated sum of the terms, in locals.
    total, carry = 0.0 + term, 0.0  # the first add, exactly
    ratio = -0.25 * z * z
    for k in range(1, policy.max_terms):
        term *= ratio / (k * (n + k))
        t = total + term
        if abs(total) >= abs(term):
            carry += (total - t) + term
        else:
            carry += (term - t) + total
        total = t
        bound = tol * abs(total + carry)
        lookahead = abs(term * ratio) / ((k + 1) * (n + k + 1))
        if abs(term) <= bound and lookahead <= bound:
            break
    return total + carry


def _lacunary(ref: Callable[[int, float, SeriesPolicy], float], step: int, z: float,
              policy: SeriesPolicy) -> float:
    """sum_{k>=1} ref(step*k, z), truncated at the policy tolerance.

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
        term = ref(step * k, z, policy)
        acc += term
        if abs(term) <= policy.tol * max(abs(acc), 1.0):
            break
        k += 1
    return acc


def tail_I0(p: int, z: float, policy: SeriesPolicy | None = None) -> float:
    """The lacunary remainder 2 sum_{k>=1} I_{4pk}(z).

    This is exactly what separates the order-0 approximant at parameter p
    from I_0; it is positive for z > 0 and strictly decreasing in p.  The
    oracle's n <= 64 limits it to 4p <= 64.
    """
    policy = policy or SeriesPolicy()
    if p < 1:
        raise ValueError(f"accuracy parameter p must be >= 1, got {p}")
    _validate(0, z)
    return 2.0 * _lacunary(ref_I, 4 * p, z, policy)


def _averaged_cosh(p: int, z: float) -> float:
    # Node-averaged form built from elementary functions exactly as written:
    # (1 + cosh z + 2 sum_k cosh(z cos(k pi / 2p))) / (2p).
    total = 1.0 + math.cosh(z)
    for k in range(1, p):
        total += 2.0 * math.cosh(z * math.cos(k * math.pi / (2 * p)))
    return total / (2 * p)


def _averaged_cos(p: int, z: float) -> float:
    total = 1.0 + math.cos(z)
    for k in range(1, p):
        total += 2.0 * math.cos(z * math.cos(k * math.pi / (2 * p)))
    return total / (2 * p)


def identity_residual(
    which: str,
    z: float,
    p: int | None = None,
    policy: SeriesPolicy | None = None,
) -> float:
    """Signed residual (left side) - (right side) of a node-sum identity.

    The right side's infinite lacunary sum is truncated at the policy
    tolerance; each identity is exact, so residuals sit at round-off level.
    ``p`` is required for the N4P and J4P families and ignored otherwise.
    """
    policy = policy or SeriesPolicy()
    _validate(0, z)
    if which == "N2":
        return math.cosh(z) - (ref_I(0, z, policy) + 2.0 * _lacunary(ref_I, 2, z, policy))
    if which == "N4":
        lhs = math.cosh(0.5 * z) ** 2
        return lhs - (ref_I(0, z, policy) + 2.0 * _lacunary(ref_I, 4, z, policy))
    if which == "N8":
        lhs = 0.25 * (1.0 + math.cosh(z) + 2.0 * math.cosh(z / math.sqrt(2.0)))
        return lhs - (ref_I(0, z, policy) + 2.0 * _lacunary(ref_I, 8, z, policy))
    if which == "N4P":
        if p is None or p < 1:
            raise ValueError("identity N4P needs an accuracy parameter p >= 1")
        rhs = ref_I(0, z, policy) + 2.0 * _lacunary(ref_I, 4 * p, z, policy)
        return _averaged_cosh(p, z) - rhs
    if which == "J4P":
        if p is None or p < 1:
            raise ValueError("identity J4P needs an accuracy parameter p >= 1")
        rhs = ref_J(0, z, policy) + 2.0 * _lacunary(ref_J, 4 * p, z, policy)
        return _averaged_cos(p, z) - rhs
    raise ValueError(f"unknown identity tag {which!r}; expected one of {IDENTITY_TAGS}")
