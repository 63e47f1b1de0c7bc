"""Exact integer coefficients of the iterated (1/z d/dz) kernel expansions.

Applying the operator (1/z)(d/dz) n times to the index-0 cosh kernel
produces a signed-integer combination of kernels with indices q = 1..n
attached to the powers z**(q - 2n): odd q sinh-like, even q cosh-like.
An expansion is therefore just its coefficients, the Rayleigh integers
a(n, 1..n) of the reverse Bessel polynomial (DLMF 10.49.1), held as a
tuple whose index i is q = i + 1; parity and power follow from q.  Those
integers are derived three independent ways:

* from their closed form
  a(n, q) = (-1)**(n-q) (2n-q-1)! / ((q-1)! (n-q)! 2**(n-q)),
  entry by entry (`closed_form_coefficient`) or a row at a time by the
  exact ratio of neighbouring entries (`closed_form_row`, the rows the
  package runs),
* from the boundary closed forms plus the interior two-term recurrence
  (`recurrence_table`),
* symbolically, by rewriting the term list under the exact derivative
  rules, once per order up from the kernel itself (`derive_expansion`).

All arithmetic uses Python's arbitrary-precision integers, so the routes
can be compared entry-for-entry with no overflow concerns; the magnitudes
grow like the double factorial of 2n.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


def double_factorial(m: int) -> int:
    """m!! = m (m-2) (m-4) ... 1 for odd m >= -1, with (-1)!! == 1.

    The empty-product convention at m = -1 is what makes the leading-column
    closed form hold down to n = 2.
    """
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double factorial needs an odd integer >= -1, got {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"expansion order must be >= 1, got {n}")


def closed_form_row(n: int) -> tuple[int, ...]:
    """a(n, q) for q = 1..n from the closed form, built from a(n, n) = 1 down.

    Neighbouring entries of the closed form stand in the ratio

        a(n, q-1) = -a(n, q) (2n-q) (q-1) / (2 (n-q+1)),

    and each step divides exactly, so a row costs n - 1 big-int steps and
    nothing is kept between calls.
    """
    _check_order(n)
    row = [1]
    for q in range(n, 1, -1):
        row.append(-row[-1] * (2 * n - q) * (q - 1) // (2 * (n - q + 1)))
    return tuple(reversed(row))


def closed_form_coefficient(n: int, q: int) -> int:
    """a(n, q) = (-1)**(n-q) (2n-q-1)! / ((q-1)! (n-q)! 2**(n-q)), 1 <= q <= n.

    The coefficient of the reverse Bessel polynomial (DLMF 10.49.1) with
    k = n - q, taken on its own from the factorials.
    """
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}, n={n}")
    k = n - q
    return (-1) ** k * factorial(n + k - 1) // (factorial(q - 1) * factorial(k) << k)


@lru_cache(maxsize=None)
def derive_expansion(n: int) -> tuple[int, ...]:
    """Symbolic n-fold application of (1/z)(d/dz) to the index-0 cosh kernel.

    Returns a(n, q) for q = 1..n, the same row `recurrence_table` and
    `closed_form_row` build; the q = n coefficient is 1.  The operator is
    applied n times, up from the kernel itself, and only the order asked
    for is cached: a cold order costs n rewrites and holds one term list.

    Rewrite rules, exact on the term list:

        d/dz [c z^m (cosh q)] = c m z^(m-1) (cosh q) + c z^m (sinh q+1)
        d/dz [c z^m (sinh q)] = c m z^(m-1) (sinh q) + c z^m (cosh q+1)

    followed by a uniform z-exponent shift of -1 for the 1/z factor.  Like
    terms merge on the key (q, m), m the z exponent; merged-to-zero
    coefficients drop.
    """
    _check_order(n)
    cur: dict[tuple[int, int], int] = {(0, 0): 1}
    for _ in range(n):
        nxt: dict[tuple[int, int], int] = {}
        for (q, m), c in cur.items():
            if m != 0:
                key = (q, m - 2)  # power-rule term, then the 1/z shift
                nxt[key] = nxt.get(key, 0) + c * m
            key = (q + 1, m - 1)  # index-raising term, then the 1/z shift
            nxt[key] = nxt.get(key, 0) + c
        cur = {k: v for k, v in nxt.items() if v != 0}

    # Structural guarantees of the rewrite; cheap to keep as hard checks.
    assert sorted(cur) == [(q, q - 2 * n) for q in range(1, n + 1)]
    coeffs = tuple(cur[key] for key in sorted(cur))
    assert coeffs[-1] == 1
    return coeffs


def recurrence_table(n_max: int) -> dict[int, tuple[int, ...]]:
    """Build the coefficient triangle without symbolic differentiation.

    Returns rows n = 1..n_max, row n holding a(n, q) for q = 1..n.

    Boundary columns come from closed forms (q in {1, 2, n-1, n}); interior
    entries from the two-term recurrence

        a(n, q) = a(n-1, q-1) - (2n - q - 2) * a(n-1, q),   3 <= q <= n-2.

    Independent of `derive_expansion` and `closed_form_row`; the three must
    agree exactly, which the test suite asserts entry-for-entry.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    entries: dict[tuple[int, int], int] = {(1, 1): 1}
    for n in range(2, n_max + 1):
        lead = (-1) ** (n + 1) * double_factorial(2 * n - 3)
        entries[(n, 1)] = lead
        if n >= 3:
            entries[(n, 2)] = -lead
        for q in range(3, n - 1):
            entries[(n, q)] = entries[(n - 1, q - 1)] - (2 * n - q - 2) * entries[(n - 1, q)]
        entries[(n, n - 1)] = -(n * (n - 1)) // 2
        entries[(n, n)] = 1
    return {n: tuple(entries[(n, q)] for q in range(1, n + 1))
            for n in range(1, n_max + 1)}
