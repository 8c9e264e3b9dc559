"""Exact counts of linear and self-dual codes over GF(q)[u]/(u^e).

Everything here is closed-form big-integer arithmetic: Gaussian binomials,
the number of linear codes of length n over the chain ring, the number of
Euclidean/Hermitian self-dual codes over GF(q) (sigma counts), and the
number of Euclidean/Hermitian self-dual codes over the e = 3 chain ring.

A row [h, 0]_q, ..., [h, h]_q of Gaussian binomials comes from the ratio
recurrence [h, k+1]_q = [h, k]_q (q^(h-k) - 1) / (q^(k+1) - 1).  The
self-dual counts sum the row [n/2, .]_q against powers q^(c k), which is
the Rogers-Szego value H_(n/2)(q^c) below.  The linear-code
count is a sum over chains of column-span dimensions: Birkhoff and
Delsarte's count of subgroups of an abelian p-group of type (e^n), which
Honold & Landjev ("Linear codes over finite chain rings", EJC 7, 2000)
carry over to chain rings.  The number of submodules of a given type in
R^n depends only on q (Butler, Mem. AMS 539, 1994, gives the per-type
product), so the count is a theorem at every depth e, not only e = 3.

The chain sum is an e-step dynamic programme over the dimension.  Taking
the top binomial out of every step ([n, b] [n - b, a - b] = [n, a] [a, b])
makes its first and last steps values of the Rogers-Szego polynomials
H_h(x) = sum_k [h, k]_q x^k, which satisfy H_0 = 1, H_1 = 1 + x and
H_(h+1) = (1 + x) H_h + x (q^h - 1) H_(h-1) (Andrews, The Theory of
Partitions, ch. 3).  Depths 1 to 3 thus take O(n^2) big-by-small products
and no division past one Gaussian row; each further depth adds a step of
O(n^2) products.  Where x is a power of two (every q = 2^j, and x = 1 for
any q), the Rogers-Szego step shifts by log2(x) bits instead of
multiplying by x.
"""
from __future__ import annotations

from math import isqrt, log2

from .gf import factor_prime_power


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n.  Since q^(k(n - k))
    <= [n, k]_q < 3.47 q^(k(n - k)), the bit length exceeds that estimate
    by at most 3; an estimate over COUNT_BITS_CAP is refused."""
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    if k < 0 or k > n:
        return 0
    check_bits(k * (n - k), q)
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
# largest count, in estimated bits, that the closed forms here compute
COUNT_BITS_CAP = 1 << 18


def check_bits(exponent: int, q: int) -> None:
    """Refuse a count estimated at q^exponent if that is over
    COUNT_BITS_CAP bits; called before any big-integer work."""
    # clipped first, since log2(q) >= 1 and a float cannot hold every int
    if min(exponent, COUNT_BITS_CAP + 1) * log2(q) > COUNT_BITS_CAP:
        raise ValueError(f"the count is about q^{exponent} with q = {q}, "
                         f"over the cap of {COUNT_BITS_CAP} bits")


def check_self_dual_depth(e: int) -> None:
    """Refuse a self-dual count at u-depth e: the closed forms here hold
    for depth 3 only."""
    if e != 3:
        raise ValueError(f"self-dual counts have closed forms for depth 3 "
                         f"only, got depth {e}")


def linear_exponent(e: int, n: int) -> int:
    """X with q^X the estimate of count_linear(q, e, n) (see there)."""
    return e * (n * n // 4)


def self_dual_exponent(q: int, n: int, kind: str) -> int | None:
    """X with q^X the estimate of the count of self-dual codes of length n
    named by kind ("sigma-e", "sigma-h", "esd" or "hsd"); None when the
    count is 0 for its length alone (odd n, or a Euclidean count with
    q = 3 mod 4 and n = 2 mod 4).

    With h = n/2, the estimate is never above the count: it keeps the top
    term of every factor of sigma_e, sigma_h and of the Gaussian row sum.
    The factors of sigma_e are under 2.39 times their top terms all told,
    those of sigma_h under 1.76 times.  Since [h, k]_q < 3.47 q^(k(h - k)),
    the row sum against q^(h k) is under 5.5 times its top term
    q^(h^2), and the one against q^((h - 1) k) under 8 times q^(h^2 - h).
    So the bit length exceeds the estimate by at most 7 bits (count_esd,
    whose odd-q sigma has a factor 2), 4 bits (sigma_e), 5 bits (count_hsd)
    or 2 bits (sigma_h), plus log2(q)/2 when the Hermitian exponents
    3h^2/2 and h^2/2 are rounded down.
    """
    if n % 2 or (q % 4 == 3 and n % 4 and kind in ("sigma-e", "esd")):
        return None
    h = n // 2
    if kind == "hsd":
        return 3 * h * h // 2
    if kind == "sigma-h":
        return h * h // 2
    if kind == "sigma-e":
        return h * (h - 1) // 2
    return h * (h - 1) // 2 + h * (h if q % 2 == 0 else h - 1)


def _rogers_szego(h: int, q: int, x: int) -> int:
    """H_h(x) = sum_k [h, k]_q x^k, by the three-term recurrence, each
    step written to multiply by the big x once.  When x = 2^s (every x for
    q = 2^j, and x = 1 for any q) that product is a shift by s bits."""
    prev, cur = 0, 1
    s = x.bit_length() - 1
    if x == 1 << s:
        for k in range(h):
            prev, cur = cur, cur + ((cur + (q ** k - 1) * prev) << s)
    else:
        for k in range(h):
            prev, cur = cur, cur + x * (cur + (q ** k - 1) * prev)
    return cur


def count_linear(q: int, e: int, n: int) -> int:
    """Number of linear codes of length n over GF(q)[u]/(u^e).

    The chain sum: 1 plus, for every chain of column-span dimensions
    n >= h_1 >= ... >= h_t > 0 with t <= e, the product of Gaussian
    binomials [n - h_{j+1}, h_j - h_{j+1}]_q times q^(h_{j+1} (n - h_j)).

    With every chain padded by zeros to length e, the sum is e steps from
    g_0 = [1, 0, ..., 0] over dimensions 0..n, each step
    g'[a] = sum_{b <= a} [n - b, a - b]_q q^(b (n - a)) g[b], then sum(g).
    Since [n, b] [n - b, a - b] = [n, a] [a, b], g_j[a] = [n, a] f_j[a] with
    f_1 = 1 and f_(j+1)[a] = sum_{b <= a} [a, b] q^(b (n - a)) f_j[b]:

    - f_2[a] = H_a(q^(n - a)), a Rogers-Szego value (`_rogers_szego`);
    - the last step sums over a first: sum_a [n, a] [a, b] q^(b (n - a)) is
      [n, b] H_(n - b)(q^b) = [n, b] f_2[n - b], so the count is
      sum_b [n, b] f_(e-1)[b] f_2[n - b];
    - e = 1 is sum_b [n, b], e = 3 is sum_b [n, b] f_2[b] f_2[n - b];
    - each depth past 3 is one middle step, by Horner's rule in q^(n - a)
      over the Gaussian row [a, .]; the rows come from the q-Pascal rule,
      one from the last, so a step holds one row and two levels of f.

    The count has about e floor(n^2 / 4) log2(q) bits, and never fewer: the
    chain with every h_j = floor(n / 2) alone gives q^(e floor(n^2 / 4)),
    and each of the at most (n + 1)^e chains gives under 4^e times that, so
    the bit length exceeds the estimate by at most e (log2(n + 1) + 2) + 1.
    An estimate over COUNT_BITS_CAP is refused, as are depths over
    _MAX_DEPTH, before any big-integer work.
    """
    if n < 1 or e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    factor_prime_power(q)
    return _count_linear(q, e, n)


def _count_linear(q: int, e: int, n: int) -> int:
    """`count_linear` for n, e >= 1 and a q known to be a prime power,
    with every other check."""
    if e > _MAX_DEPTH:
        raise ValueError(f"depth e = {e} is over {_MAX_DEPTH}, "
                         f"the largest a chain ring allows")
    check_bits(linear_exponent(e, n), q)
    top = gaussian_row(n, q)
    if e == 1:
        return sum(top)
    pw = [q ** k for k in range(n + 1)]
    ends = [_rogers_szego(a, q, pw[n - a]) for a in range(n + 1)]   # f_2
    f = ends if e >= 3 else [1] * (n + 1)
    for _ in range(e - 3):
        g = []
        row = [1]                                     # [a, .] at a = 0
        for a in range(n + 1):
            if a:                  # [a, b] = [a-1, b-1] + q^b [a-1, b]
                row = [1] + [row[b - 1] + pw[b] * row[b]
                             for b in range(1, a)] + [1]
            x = pw[n - a]
            total = 0
            for b in range(a, -1, -1):
                total = total * x + row[b] * f[b]
            g.append(total)
        f = g
    return sum(t * y * ends[n - b] for b, (t, y) in enumerate(zip(top, f)))


def _checked_exponent(q: int, n: int, kind: str) -> int | None:
    """`self_dual_exponent` after validating n, for a q the caller has
    checked is a prime power, refused over COUNT_BITS_CAP.  sigma_h wants
    a square q at every length, count_hsd only where the count is not 0
    by its length alone."""
    if kind == "sigma-h":
        _square_root(q)
    if n < 1:
        raise ValueError("need n >= 1")
    exponent = self_dual_exponent(q, n, kind)
    if exponent is None:
        return None
    if kind == "hsd":
        _square_root(q)
    check_bits(exponent, q)
    return exponent


def _square_root(q: int) -> int:
    r = isqrt(q)
    if r * r != q:
        raise ValueError(f"Hermitian counts need a square field order, got q={q}")
    return r


def _sigma(q: int, n: int, hermitian: bool) -> int:
    """sigma_h or sigma_e at an even n where it is not 0, unchecked."""
    prod = 1
    if hermitian:
        r = isqrt(q)
        for i in range(n // 2):
            prod *= r ** (2 * i + 1) + 1
        return prod
    for i in range(1, n // 2):
        prod *= q ** i + 1
    return prod if q % 2 == 0 else 2 * prod


def sigma_e(q: int, n: int) -> int:
    """Number of Euclidean self-dual codes of length n over GF(q); 0 for
    odd n, and for q = 3 mod 4 unless 4 divides n."""
    factor_prime_power(q)
    if _checked_exponent(q, n, "sigma-e") is None:
        return 0
    return _sigma(q, n, False)


def sigma_h(q: int, n: int) -> int:
    """Number of Hermitian self-dual codes of length n over GF(q), q square."""
    factor_prime_power(q)
    if _checked_exponent(q, n, "sigma-h") is None:
        return 0
    return _sigma(q, n, True)


def count_esd(q: int, n: int) -> int:
    """Number of Euclidean self-dual codes of length n over GF(q)[u]/(u^3).
    A count estimated over COUNT_BITS_CAP is refused (see
    `self_dual_exponent`)."""
    factor_prime_power(q)
    return _count_esd(q, n)


def _count_esd(q: int, n: int) -> int:
    """`count_esd` for a q known to be a prime power."""
    if _checked_exponent(q, n, "esd") is None:
        return 0
    half = n // 2
    exp_base = half if q % 2 == 0 else half - 1
    return _sigma(q, n, False) * _rogers_szego(half, q, q ** exp_base)


def count_hsd(q: int, n: int) -> int:
    """Number of Hermitian self-dual codes of length n over GF(q)[u]/(u^3).

    Odd lengths give 0 outright; even lengths require a square q.  A count
    estimated over COUNT_BITS_CAP is refused (see `self_dual_exponent`).
    """
    factor_prime_power(q)
    return _count_hsd(q, n)


def _count_hsd(q: int, n: int) -> int:
    """`count_hsd` for a q known to be a prime power."""
    if _checked_exponent(q, n, "hsd") is None:
        return 0
    half = n // 2
    return _sigma(q, n, True) * _rogers_szego(half, q, q ** half)

