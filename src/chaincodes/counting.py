"""Exact counts of linear and self-dual codes over GF(q)[u]/(u^e).

Everything here is closed-form big-integer arithmetic: Gaussian binomials,
the number of linear codes of length n over the chain ring, the number of
Euclidean/Hermitian self-dual codes over GF(q) (sigma counts), and the
number of Euclidean/Hermitian self-dual codes over the e = 3 chain ring.

A row [h, 0]_q, ..., [h, h]_q of Gaussian binomials comes from the ratio
recurrence [h, k+1]_q = [h, k]_q (q^(h-k) - 1) / (q^(k+1) - 1); the
self-dual counts sum one such row against powers of q.  The linear-code
count is a sum over chains of column-span dimensions: Birkhoff and
Delsarte's count of subgroups of an abelian p-group of type (e^n), which
Honold & Landjev ("Linear codes over finite chain rings", EJC 7, 2000)
carry over to chain rings.  The number of submodules of a given type in
R^n depends only on q (Butler, Mem. AMS 539, 1994, gives the per-type
product), so the count is a theorem at every depth e, not only e = 3.  It
is evaluated as an e-level dynamic programme over the dimension,
O(e n^2) big-integer operations.
"""
from __future__ import annotations

from math import isqrt

from .gf import factor_prime_power


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** n - q ** i
        den *= q ** k - q ** i
    return num // den


def gaussian_row(h: int, q: int) -> list[int]:
    """[h, k]_q for k = 0..h, by [h, k+1]_q = [h, k]_q (q^(h-k) - 1) /
    (q^(k+1) - 1); every division is exact."""
    row = [1]
    for k in range(h):
        row.append(row[-1] * (q ** (h - k) - 1) // (q ** (k + 1) - 1))
    return row


# ChainRing caps the bit length of q^e at 2^16, so no chain ring is deeper
_MAX_DEPTH = 1 << 16


def count_linear(q: int, e: int, n: int) -> int:
    """Number of linear codes of length n over GF(q)[u]/(u^e).

    The chain sum: 1 plus, for every chain of column-span dimensions
    n >= h_1 >= ... >= h_t > 0 with t <= e, the product of Gaussian
    binomials [n - h_{j+1}, h_j - h_{j+1}]_q times q^(h_{j+1} (n - h_j)).

    With every chain padded by zeros to length e, the sum is e steps from
    g = [1, 0, ..., 0] over dimensions 0..n, each step
    g'[a] = sum_{b <= a} [n - b, a - b]_q q^(b (n - a)) g[b], then sum(g).
    Depths over _MAX_DEPTH are refused before the first step.
    """
    if n < 1 or e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    factor_prime_power(q)
    if e > _MAX_DEPTH:
        raise ValueError(f"depth e = {e} is over {_MAX_DEPTH}, "
                         f"the largest a chain ring allows")
    g = gaussian_row(n, q)                    # g after the first step
    for _ in range(e - 1):
        g_next = [0] * (n + 1)
        for b, x in enumerate(g):
            weight = q ** (b * (n - b)) * x       # q^(b (n - a)) g[b] at a = b
            for a, c in enumerate(gaussian_row(n - b, q), b):
                g_next[a] += c * weight
                weight //= q ** b
        g = g_next
    return sum(g)


def sigma_e(q: int, n: int) -> int:
    """Number of Euclidean self-dual codes of length n over GF(q)."""
    factor_prime_power(q)
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2:
        return 0
    prod = 1
    for i in range(1, n // 2):
        prod *= q ** i + 1
    if q % 2 == 0:
        return prod
    if q % 4 == 1:
        return 2 * prod
    # q = 3 mod 4: self-dual codes exist only when 4 divides n
    return 2 * prod if n % 4 == 0 else 0


def sigma_h(q: int, n: int) -> int:
    """Number of Hermitian self-dual codes of length n over GF(q), q square."""
    factor_prime_power(q)
    r = isqrt(q)
    if r * r != q:
        raise ValueError(f"Hermitian counts need a square field order, got q={q}")
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2:
        return 0
    prod = 1
    for i in range(n // 2):
        prod *= r ** (2 * i + 1) + 1
    return prod


def _row_sum(h: int, q: int, c: int) -> int:
    """sum_k [h, k]_q q^(c k), by Horner's rule in x = q^c."""
    x = q ** c
    total = 0
    for g in reversed(gaussian_row(h, q)):
        total = total * x + g
    return total


def count_esd(q: int, n: int) -> int:
    """Number of Euclidean self-dual codes of length n over GF(q)[u]/(u^3)."""
    factor_prime_power(q)
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2:
        return 0
    sig = sigma_e(q, n)
    if sig == 0:
        return 0
    half = n // 2
    exp_base = half if q % 2 == 0 else half - 1
    return sig * _row_sum(half, q, exp_base)


def count_hsd(q: int, n: int) -> int:
    """Number of Hermitian self-dual codes of length n over GF(q)[u]/(u^3).

    Odd lengths give 0 outright; even lengths require a square q.
    """
    factor_prime_power(q)
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2:
        return 0
    sig = sigma_h(q, n)  # validates squareness
    half = n // 2
    return sig * _row_sum(half, q, half)

