"""Exact integer coefficients of the iterated (1/z d/dz) kernel expansions.

Applying the operator (1/z)(d/dz) n times to the index-0 cosh kernel
produces a signed-integer combination of kernels with indices q = 1..n
attached to the powers z**(q - 2n): odd q sinh-like, even q cosh-like.
An expansion is therefore just its coefficients, the Rayleigh integers
a(n, 1..n) of the reverse Bessel polynomial (DLMF 10.49.1), held as a
tuple whose index i is q = i + 1; parity and power follow from q.  Those
integers are derived three independent ways:

* symbolically, by rewriting the term list under the exact derivative
  rules, once per order from the order below (`derive_expansion`, the
  authoritative route),
* from the boundary closed forms plus the interior two-term recurrence
  (`recurrence_table`),
* from standalone per-column closed forms (`closed_form_coefficient`).

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


@lru_cache(maxsize=None)
def derive_expansion(n: int) -> tuple[int, ...]:
    """Symbolic n-fold application of (1/z)(d/dz) to the index-0 cosh kernel.

    Returns a(n, q) for q = 1..n, the same row `recurrence_table` builds;
    the q = n coefficient is 1.  Order n is one application of the operator
    to the terms of order n - 1, taken from this function's own cache (order
    1 to the kernel itself), so a new order costs one rewrite, not n.

    Rewrite rules, exact on the term list:

        d/dz [c z^m (cosh q)] = c m z^(m-1) (cosh q) + c z^m (sinh q+1)
        d/dz [c z^m (sinh q)] = c m z^(m-1) (sinh q) + c z^m (cosh q+1)

    followed by a uniform z-exponent shift of -1 for the 1/z factor.  Like
    terms merge on the key (q, m), m the z exponent; merged-to-zero
    coefficients drop.
    """
    if n < 1:
        raise ValueError(f"expansion order must be >= 1, got {n}")
    if n == 1:
        cur: dict[tuple[int, int], int] = {(0, 0): 1}
    else:
        # The orders below are asked for in ascending order first, so each
        # is one rewrite of a cached order and no call nests more than two
        # deep, however high the first n.
        for k in range(1, n - 1):
            derive_expansion(k)
        cur = {(q, q - 2 * (n - 1)): c for q, c in enumerate(derive_expansion(n - 1), 1)}
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

    Independent of `derive_expansion`; the two must agree exactly, which the
    test suite asserts entry-for-entry.
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


def closed_form_coefficient(n: int, q: int) -> int:
    """Standalone closed forms for q in {1, 2, 3, 4, n-1, n}.

    The q = 4 value is the factorial-weighted sum of double factorials
    2**(n-4-j) (n-3)!/j! (2j+1)!! over j = 0..n-4, with overall sign
    (-1)**n.  Its general-n validity is asserted against the symbolic route
    for n <= 31, every order a p <= 8 approximant uses, not assumed beyond.
    """
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}, n={n}")
    if q == n:
        return 1
    if q == n - 1:
        return -(n * (n - 1)) // 2
    if q == 1:
        return (-1) ** (n + 1) * double_factorial(2 * n - 3)
    if q == 2:
        return (-1) ** n * double_factorial(2 * n - 3)
    if q == 3:
        return (-1) ** (n + 1) * (n - 2) * double_factorial(2 * n - 5)
    if q == 4:
        base = factorial(n - 3)
        total = 0
        for j in range(n - 3):
            total += 2 ** (n - 4 - j) * (base // factorial(j)) * double_factorial(2 * j + 1)
        return (-1) ** n * total
    raise ValueError(f"no closed form for q={q} at n={n}; use the symbolic route")
