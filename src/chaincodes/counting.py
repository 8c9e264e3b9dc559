"""Exact counts of linear and self-dual codes over GF(q)[u]/(u^3).

Everything here is closed-form big-integer arithmetic: Gaussian binomials,
the number of linear codes of length n over the chain ring, the number of
Euclidean/Hermitian self-dual codes over GF(q) (sigma counts), and the
number of Euclidean/Hermitian self-dual codes over the e = 3 chain ring.

The linear-code sum also evaluates for other nilpotency indices e by
letting the chain length run to e instead of 3.  That extension is a
conjecture, not a certified formula, so `count_linear` refuses it until a
brute-force census validation for the exact (q, e, n) has been registered
(the census module provides `validate_generalized_count`).
"""
from __future__ import annotations

import itertools
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


def linear_count_sum(q: int, e: int, n: int) -> int:
    """The chain sum counting submodule codes: 1 plus, for every chain of
    column-span dimensions n >= h_1 >= ... >= h_t > 0 with t <= e, the
    product of Gaussian binomials [n - h_{j+1}, h_j - h_{j+1}]_q times
    q^(h_{j+1} (n - h_j)).  Certified only for e = 3; see count_linear."""
    if n < 1 or e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    factor_prime_power(q)
    total = 1
    for t in range(1, e + 1):
        for asc in itertools.combinations_with_replacement(range(1, n + 1), t):
            hs = tuple(reversed(asc)) + (0,)
            term = 1
            for j in range(t):
                term *= gaussian_binomial(n - hs[j + 1], hs[j] - hs[j + 1], q)
                term *= q ** (hs[j + 1] * (n - hs[j]))
            total += term
    return total


# census-backed validation records for the conjectural e != 3 evaluation
_GENERALIZED_VALIDATED: set[tuple[int, int, int]] = set()


def register_generalized_validation(q: int, e: int, n: int) -> None:
    """Record that a brute-force census confirmed linear_count_sum(q, e, n)."""
    _GENERALIZED_VALIDATED.add((q, e, n))


def generalized_is_validated(q: int, e: int, n: int) -> bool:
    return (q, e, n) in _GENERALIZED_VALIDATED


def count_linear(q: int, e: int, n: int) -> int:
    """Number of linear codes of length n over GF(q)[u]/(u^e).

    Certified for e = 3.  For any other e the value is the conjectural
    chain-sum generalization and is only released after a census validation
    record exists for this exact (q, e, n).
    """
    if e != 3 and not generalized_is_validated(q, e, n):
        raise ValueError(
            f"count for e={e} is a conjectural generalization; register a "
            f"census validation for (q={q}, e={e}, n={n}) first")
    return linear_count_sum(q, e, n)


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
    total = sum(gaussian_binomial(half, k, q) * q ** (k * exp_base)
                for k in range(half + 1))
    return sig * total


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
    total = sum(gaussian_binomial(half, k, q) * q ** (k * half)
                for k in range(half + 1))
    return sig * total

