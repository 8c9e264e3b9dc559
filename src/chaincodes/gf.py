"""Arithmetic in GF(p^m) on a fixed polynomial basis.

An element is an integer in ``range(q)`` whose base-p digits are the
coefficients of its representative polynomial, constant term first.  The
Field object owns the modulus and performs all arithmetic on these integer
codes.

Addition, subtraction and negation are carry-free base-p digit arithmetic
on the codes (`digit_add`, `digit_sub`, `digit_neg`; XOR, XOR and the
identity when p = 2).  A chain-ring code is a base-p digit string too, so
`chainring` uses the same functions.

Fields with m > 1 and q <= 128 get eager add, neg, mul and inv tables,
and subtract as add[a][neg[b]].  The product is GF(p)-bilinear in the
base-p digits, so `bilinear_tables` fills the add table and the q^2
product entries from the m^2 products of digit units x^k * x^t, by
additions alone, and negation is GF(p)-linear, so `linear_table` fills its
table from m images; chain rings build their tables the same way.  Prime
fields (m = 1) compute mod p.

The modulus is canonical: the lexicographically smallest monic irreducible
polynomial of degree m over GF(p), coefficients compared from the constant
term upward.  Two fields built from the same (p, m) therefore agree element
by element, which keeps every serialized object portable.
"""
from __future__ import annotations

import functools
import itertools
from math import isqrt

DEFAULT_MAX_ORDER = 1 << 20

# q at or below this gets an eager multiplication table (m > 1 only).
_TABLE_LIMIT = 128

FIELD_CACHE_SIZE = 64       # fields field_make keeps


# trial division stops at this divisor; a cofactor left above its square
# cannot be certified prime, so the number is refused
_TRIAL_LIMIT = 1 << 20


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, by trial division up to _TRIAL_LIMIT;
    a number that this cannot finish is refused with ValueError.  A prime
    d's power d^k is stripped in O(log k) divisions: by d, d^2, d^4, ...
    while they divide, then by the same powers downward."""
    if n < 1:
        raise ValueError("need n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > _TRIAL_LIMIT:
            raise ValueError(
                f"cannot factor a {n.bit_length()}-bit number by trial "
                f"division up to {_TRIAL_LIMIT}")
        if n % d == 0:
            powers = [d]
            while n % powers[-1] == 0:
                n //= powers[-1]
                powers.append(powers[-1] * powers[-1])
            k = (1 << (len(powers) - 1)) - 1
            for i in range(len(powers) - 2, -1, -1):
                if n % powers[i] == 0:
                    n //= powers[i]
                    k += 1 << i
            out[d] = k
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    """Primality by `factorize`.  A number that trial division up to
    _TRIAL_LIMIT = 2^20 cannot certify (it leaves a cofactor over 2^40)
    raises ValueError instead of running for sqrt(n) steps."""
    return n >= 2 and factorize(n) == {n: 1}


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, m) with p prime and q = p^m; ValueError when q is
    not a prime power or `factorize` cannot finish it."""
    primes = factorize(q) if q >= 2 else {}
    if len(primes) != 1:
        raise ValueError(f"not a prime power: {q}")
    [(p, m)] = primes.items()
    return p, m


# ---------------------------------------------------------------------------
# polynomial helpers (little-endian coefficient tuples over GF(p))

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _prem(a: list[int], b: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a mod b; b must be monic."""
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        lead = r[-1]
        shift = len(r) - 1 - db
        if lead:
            for i in range(db + 1):
                r[shift + i] = (r[shift + i] - lead * b[i]) % p
        _ptrim(r)
    return r


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] != 1:
        return False
    if coeffs[0] == 0:
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            div = low + (1,)
            if not _prem(list(coeffs), div, p):
                return False
    return True


def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    for low in itertools.product(range(p), repeat=m):
        cand = low + (1,)
        if is_irreducible(cand, p):
            return cand
    raise AssertionError("irreducible polynomial search failed")  # unreachable


# ---------------------------------------------------------------------------
# carry-free base-p digit arithmetic, shared by fields and chain rings

def digit_add(a: int, b: int, p: int) -> int:
    """Digitwise sum mod p of two base-p digit strings (no carries)."""
    if p == 2:
        return a ^ b
    r = 0
    shift = 1
    while a or b:
        r += (a + b) % p * shift
        a //= p
        b //= p
        shift *= p
    return r


def digit_sub(a: int, b: int, p: int) -> int:
    """Digitwise difference mod p of two base-p digit strings (no borrows)."""
    if p == 2:
        return a ^ b
    r = 0
    shift = 1
    while a or b:
        r += (a - b) % p * shift
        a //= p
        b //= p
        shift *= p
    return r


def digit_neg(a: int, p: int) -> int:
    """Digitwise negation mod p of a base-p digit string."""
    if p == 2:
        return a
    r = 0
    shift = 1
    while a:
        r += -a % p * shift
        a //= p
        shift *= p
    return r


# ---------------------------------------------------------------------------
# eager tables of GF(p)-linear and -bilinear maps on base-p digit strings

def _span(p: int, basis: list, zero, plus) -> list:
    """Every GF(p)-combination sum d_k * basis[k], listed at its code
    sum d_k * p^k.  The entry at d*p^k + c is plus(entry at (d-1)*p^k + c,
    basis[k]), so the list costs one `plus` per entry."""
    out = [zero]
    for v in basis:
        block = out
        for _ in range(p - 1):
            block = [plus(x, v) for x in block]
            out += block
    return out


def add_table(p: int, digits: int) -> list:
    """The digitwise add table on the codes of `digits` base-p digits: row
    a is row a - p^k composed with the row b -> p^k + b."""
    n = p ** digits
    units = [p ** k for k in range(digits)]
    return _span(p, [[digit_add(u, b, p) for b in range(n)] for u in units],
                 list(range(n)), lambda row, shifted: [row[b] for b in shifted])


def linear_table(p: int, add: list, images: list) -> list:
    """The table of a GF(p)-linear map on the codes of `add`, from the
    images of the digit units p^k; one `add` lookup per entry."""
    return _span(p, images, 0, lambda x, y: add[x][y])


def bilinear_table(p: int, add: list, unit_products: list) -> list:
    """The table of a GF(p)-bilinear product on the codes of `add`, from
    unit_products[k][t], the product of the digit units p^k and p^t.  Row
    p^k is `linear_table` of unit_products[k]; row a is row a - p^k plus
    row p^k, added entry by entry through `add`."""
    rows = [linear_table(p, add, images) for images in unit_products]
    return _span(p, rows, [0] * len(add),
                 lambda row, v: [add[x][y] for x, y in zip(row, v)])


def bilinear_tables(p: int, digits: int, product) -> tuple[list, list]:
    """The add and mul tables on the codes of `digits` base-p digits, for
    a product that is GF(p)-bilinear in those digits; `product` is called
    digits^2 times, on pairs of digit units only."""
    units = [p ** k for k in range(digits)]
    add = add_table(p, digits)
    return add, bilinear_table(p, add, [[product(u, t) for t in units]
                                        for u in units])


# ---------------------------------------------------------------------------

def _exact_modulus(p: int, modulus) -> tuple[int, ...]:
    """The modulus coefficients as given: each must be an int in range(p),
    since int() would truncate 2.9 and % p would hide a wrong 5."""
    modulus = tuple(modulus)
    if any(type(c) is not int or not 0 <= c < p for c in modulus):
        raise ValueError(f"modulus coefficients must be ints in range({p})")
    return modulus


class Field:
    """GF(p^m) with elements coded as integers in range(p^m)."""

    __slots__ = ("p", "m", "q", "modulus", "_add_table", "_neg_table",
                 "_mul_table", "_inv_table", "_conj_table", "_trace_pre")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        # p and m are bounded before the trial division and the power they
        # cost; a huge value is not echoed back
        if p > DEFAULT_MAX_ORDER:
            raise ValueError(f"characteristic exceeds bound {DEFAULT_MAX_ORDER}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if m > DEFAULT_MAX_ORDER.bit_length():
            raise ValueError(f"field order p^m exceeds bound {DEFAULT_MAX_ORDER}")
        q = p ** m
        if q > DEFAULT_MAX_ORDER:
            raise ValueError(f"field order {q} exceeds bound {DEFAULT_MAX_ORDER}")
        if modulus is None:
            modulus = canonical_modulus(p, m)
        else:
            modulus = _exact_modulus(p, modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not is_irreducible(modulus, p):
                raise ValueError("modulus is not irreducible")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self._add_table: list[list[int]] | None = None
        self._neg_table: list[int] | None = None
        self._mul_table: list[list[int]] | None = None
        self._inv_table: list[int] | None = None
        self._conj_table: list[int] | None = None
        self._trace_pre: dict[int, tuple[int, ...]] | None = None
        if m > 1 and q <= _TABLE_LIMIT:
            self._build_tables()

    # -- representation ----------------------------------------------------

    def encode(self, coeffs) -> int:
        """Coefficient sequence (constant term first) -> integer code.  Each
        coefficient must be an int in range(p): nothing is coerced or
        reduced."""
        cs = list(coeffs)
        if len(cs) > self.m:
            raise ValueError(f"too many coefficients for GF({self.q})")
        code = 0
        for c in reversed(cs):
            if type(c) is not int or not 0 <= c < self.p:
                raise ValueError(f"{c!r} is not a coefficient in range({self.p})")
            code = code * self.p + c
        return code

    def decode(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def check(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element code of GF({self.q})")
        return a

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic on codes -----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        return digit_add(a, b, self.p)

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        if self._neg_table is not None:
            return self._neg_table[a]
        return digit_neg(a, self.p)

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self._neg_table is not None:
            return self._add_table[a][self._neg_table[b]]
        return digit_sub(a, b, self.p)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a: int, b: int) -> int:
        prod = _pmul(self.decode(a), self.decode(b), self.p)
        return self.encode(_prem(prod, self.modulus, self.p))

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a = self.inv(a)
            k = -k
        r = 1
        base = a
        while k:
            if k & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            k >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def _build_tables(self) -> None:
        p = self.p
        add, table = bilinear_tables(p, self.m, self._mul_slow)
        inv = [0] * self.q
        for a in range(1, self.q):
            inv[a] = table[a].index(1)
        self._add_table = add
        self._neg_table = linear_table(
            p, add, [(p - 1) * p ** k for k in range(self.m)])
        self._mul_table = table
        self._inv_table = inv

    # -- conjugation and trace (order-2 subfield structure) -----------------

    @property
    def has_conjugation(self) -> bool:
        s = isqrt(self.q)
        return s * s == self.q

    @property
    def sqrt_q(self) -> int:
        s = isqrt(self.q)
        if s * s != self.q:
            raise ValueError(f"GF({self.q}) is not a quadratic extension")
        return s

    def conjugate(self, a: int) -> int:
        """a -> a^sqrt(q), the order-2 automorphism fixing GF(sqrt(q)).
        Tabled on first use up to q = 4096; the table is read first, so a
        call after the first costs one lookup."""
        table = self._conj_table
        if table is not None:
            return table[a]
        s = self.sqrt_q
        if self.q > 4096:
            return self.pow(a, s)
        table = self._conj_table = [self.pow(x, s) for x in range(self.q)]
        return table[a]

    def trace(self, a: int) -> int:
        """Relative trace onto GF(sqrt(q)): a + a^sqrt(q)."""
        return self.add(a, self.conjugate(a))

    def in_subfield(self, a: int) -> bool:
        """True iff a lies in the fixed field GF(sqrt(q))."""
        return self.conjugate(a) == a

    def trace_preimage(self, t: int) -> tuple[int, ...]:
        """All x with trace(x) = t; t must lie in the subfield."""
        if not self.in_subfield(t):
            raise ValueError(f"{t} is not in the subfield GF({self.sqrt_q})")
        if self._trace_pre is None:
            pre: dict[int, list[int]] = {}
            for x in range(self.q):
                pre.setdefault(self.trace(x), []).append(x)
            self._trace_pre = {k: tuple(v) for k, v in pre.items()}
        return self._trace_pre.get(t, ())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


def field_make(p: int, m: int, modulus: tuple[int, ...] | None = None) -> Field:
    """The field GF(p^m) over `modulus`, a tuple of coefficients constant
    term first, or over the canonical modulus when it is None.  Each field
    builds its tables once; the cache is bounded because a code document
    may name any field, and a construction that raises is not cached.  The
    modulus is checked before the cache is looked up: 1.0 and True hash
    and compare as 1, so they would find a field cached under 1."""
    if modulus is not None:
        modulus = _exact_modulus(p, modulus)
    return _cached_field(p, m, modulus)


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _cached_field(p: int, m: int, modulus: tuple[int, ...] | None) -> Field:
    return Field(p, m, modulus)
