"""The finite chain ring GF(q)[u]/(u^e).

Ring elements are integers in ``range(q**e)`` whose base-q digits are the
field codes of the u-coefficients, u^0 first.  Every element factors as
u^v * w with w a unit, so the ideals form the chain (1) > (u) > ... > (u^e)
and `valuation` returns v (with e for the zero element).

A ring code is also the base-p digit string sum c_(t,j) p^(t*m + j) of
the x^j u^t coefficients, so ring addition and negation are the field's
carry-free digit arithmetic (`gf.digit_add`, `gf.digit_neg`) over all e*m
digits at once, and subtraction is a + (-b).

Rings of at most 256 elements get eager add, neg, mul, valuation,
unit-inverse and conjugation tables, and subtract as add[a][neg[b]].  The
ring product is GF(p)-bilinear in the e*m digits, so `gf.bilinear_tables`
builds the add, neg and mul tables from (e*m)^2 slow products of digit
units instead of one per entry; conjugation is GF(p)-linear, so
`gf.linear_table` builds its table from e*m images.

Larger rings get tables over their low halves when those are small enough.
With h = ceil(e/2), Q = q^h and T = q^(e-h) <= Q, an element splits as
a = a_l + Q*a_h with a_l < Q and a_h < T, that is a = a_l + u^h a_h.
Addition, negation and conjugation act digit by digit, so each splits
into one lookup per half, for instance add(a, b) = A[a_l][b_l] +
Q*A[a_h][b_h].  Since u^(2h) = 0, a_h*b_h drops out of the product:

    mul(a, b) = L[a_l][b_l] + Q*A[H[a_l][b_l]][A[L[a_l][b_h] % T][L[a_h][b_l] % T]]

where L and H are the low and high halves of the product x*y in R for
x, y < Q.  The low half is the product of the low ring GF(q)[u]/(u^h),
which has Q <= 128 elements and so full tables: the half regime is that
ring's add, neg, mul, conjugation and inverse tables, from `ring_over`,
plus the carry table H, which `gf.bilinear_table` builds from the
(h*m)^2 slow products of digit units.  `unit_inverse(a)` is
x - x*(Q*a_h)*x with x the inverse in R of the low unit a_l, lifted once
from the low ring's.  Rings whose halves are over _HALF_TABLE_LIMIT keep
the digit loops: `gf.digit_add` and `gf.digit_neg`, and a convolution of
decoded digits for the product.

`scale_row` and `sub_mul_row` apply one scalar across a row of elements,
the row steps of Gaussian elimination, and `conjugate_row` conjugates a
row.  Each chooses among these regimes
once per row instead of once per entry.

Conjugation lifts the order-2 field automorphism coefficient-wise; it is
only available when q is a square.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .gf import (Field, bilinear_table, bilinear_tables, digit_add, digit_neg,
                 digits, field_make, factor_prime_power, linear_table)

# rings at or below this many elements get eager add/mul tables
_TABLE_LIMIT = 256
# larger rings get tables over their low halves when Q = q^ceil(e/2) is at
# or below this; R(9,3)'s (Q = 81) hold 0.20 MB, 0.13 MB of it R(9,2)'s own
# tables, and the rest builds in about 0.5 ms on a 2-vCPU Xeon, while
# R(16,3)'s (Q = 256) would hold 1.7 MB and take about 5 ms
_HALF_TABLE_LIMIT = 128

# cap on the bit length of q^e, checked before the power is built: a code
# document may ask for any e
_SIZE_BITS_LIMIT = 1 << 16

RING_CACHE_SIZE = 64        # rings ring_over keeps

# rings at or below this many elements keep `doc_text`, so no ring's
# memo outgrows the 4,096 entries of R(16,3)
_DOC_TEXT_LIMIT = 4096


class _HalfTables:
    """The tables of a ring split as a = a_l + Q*a_h (see the module
    docstring): add, lo and hi are Q x Q, neg, conj and inv have Q
    entries, conj is None without a conjugation, and inv[x] is the inverse
    in R of the low unit x (0 for non-units).

    add, neg, lo (the product mod u^h) and conj are the tables of the low
    ring GF(q)[u]/(u^h) itself.  Only the carry table hi, from the (h*m)^2
    slow products of digit units, and the lift of the low ring's inverses
    are built here."""

    __slots__ = ("Q", "T", "add", "neg", "conj", "lo", "hi", "inv")

    def __init__(self, ring: ChainRing):
        f, p = ring.field, ring.field.p
        h = (ring.e + 1) // 2
        low = ring_over(f, h)
        Q, T = low.size, ring.q ** (ring.e - h)
        A, N, L = low._add_table, low._neg_table, low._mul_table
        units = [p ** k for k in range(h * f.m)]
        H = bilinear_table(p, A, [[ring._mul_slow(s, t) // Q for t in units]
                                  for s in units])
        # y inverts x modulo u^h, so x*y = 1 + Q*H[x][y], and one Newton
        # step y*(2 - x*y) = y - Q*(y*H[x][y]) lifts it to R
        self.inv = [y + Q * N[L[y][H[x][y]] % T] if x % ring.q else 0
                    for x, y in enumerate(low._inv_table)]
        self.Q, self.T, self.add, self.neg, self.lo, self.hi = Q, T, A, N, L, H
        self.conj = low._conj_table


class ChainRing:
    """GF(q)[u]/(u^e) with elements coded as integers in range(q^e)."""

    __slots__ = ("field", "e", "q", "size", "_add_table", "_neg_table",
                 "_mul_table", "_val_table", "_conj_table", "_inv_table",
                 "_half", "doc_text")

    def __init__(self, field: Field, e: int):
        if e < 1:
            raise ValueError(f"e must be >= 1, got {e}")
        if e * field.q.bit_length() > _SIZE_BITS_LIMIT:
            raise ValueError(f"ring size q^e exceeds 2^{_SIZE_BITS_LIMIT}")
        self.field = field
        self.e = e
        self.q = field.q
        self.size = field.q ** e
        self._add_table: list[list[int]] | None = None
        self._neg_table: list[int] | None = None
        self._mul_table: list[list[int]] | None = None
        self._val_table: list[int] | None = None
        self._conj_table: list[int] | None = None
        self._inv_table: list[int] | None = None
        self._half: _HalfTables | None = None
        # `codes.dumps_code`'s memo, filled as entries are written: element
        # code -> its JSON text, e lists of m base-p digits such as
        # "[[1,0],[0,1],[0,0]]"; None on larger rings
        self.doc_text: dict[int, str] | None = (
            {} if self.size <= _DOC_TEXT_LIMIT else None)
        if self.size <= _TABLE_LIMIT:
            self._build_tables()
        elif self.q ** ((e + 1) // 2) <= _HALF_TABLE_LIMIT:
            self._half = _HalfTables(self)

    # -- representation ------------------------------------------------------

    def encode(self, digits) -> int:
        """Field codes of the u-coefficients (u^0 first) -> ring code.  Each
        must be an int in range(q): nothing is coerced."""
        ds = list(digits)
        if len(ds) > self.e:
            raise ValueError("too many u-coefficients")
        code = 0
        for d in reversed(ds):
            if type(d) is not int or not 0 <= d < self.q:
                raise ValueError(f"{d!r} is not an element code of GF({self.q})")
            code = code * self.q + d
        return code

    def decode(self, a: int) -> tuple[int, ...]:
        return digits(a, self.q, self.e)

    def check(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.size:
            raise ValueError(f"{a!r} is not an element code of {self!r}")
        return a

    def elements(self) -> range:
        return range(self.size)

    @property
    def u(self) -> int:
        """Code of the generator u of the maximal ideal."""
        if self.e < 2:
            return 0
        return self.q

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        half = self._half
        if half is None:
            return digit_add(a, b, self.field.p)
        Q, A = half.Q, half.add
        return A[a % Q][b % Q] + Q * A[a // Q][b // Q]

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        half = self._half
        if half is None:
            return digit_neg(a, self.field.p)
        Q, N = half.Q, half.neg
        return N[a % Q] + Q * N[a // Q]

    def sub(self, a: int, b: int) -> int:
        if self._neg_table is not None:
            return self._add_table[a][self._neg_table[b]]
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        half = self._half
        if half is None:
            return self._mul_slow(a, b)
        Q, T, A, L = half.Q, half.T, half.add, half.lo
        al, bl = a % Q, b % Q
        row = L[al]
        cross = A[row[b // Q] % T][L[a // Q][bl] % T]
        return row[bl] + Q * A[half.hi[al][bl]][cross]

    def _mul_slow(self, a: int, b: int) -> int:
        f = self.field
        da = self.decode(a)
        db = self.decode(b)
        out = 0
        shift = 1
        for k in range(self.e):
            acc = 0
            for i in range(k + 1):
                ai = da[i]
                bj = db[k - i]
                if ai and bj:
                    acc = f.add(acc, f.mul(ai, bj))
            out += acc * shift
            shift *= self.q
        return out

    def scale_row(self, c: int, ys) -> list[int]:
        """[c*y for y in ys], choosing the regime once for the row: one row
        of the full table; or c's half-table rows, fetched once, in the
        split product of `mul` with zero entries skipped; or digit loops."""
        if self._mul_table is not None:
            M = self._mul_table[c]
            return [M[y] for y in ys]
        half = self._half
        if half is None:
            return [self._mul_slow(c, y) for y in ys]
        Q, T, A = half.Q, half.T, half.add
        Lc, Lh, Hc = half.lo[c % Q], half.lo[c // Q], half.hi[c % Q]
        out = []
        for y in ys:
            if y:
                yl = y % Q
                y = Lc[yl] + Q * A[Hc[yl]][A[Lc[y // Q] % T][Lh[yl] % T]]
            out.append(y)
        return out

    def sub_mul_row(self, xs, c: int, ys) -> list[int]:
        """[x - c*y for x, y in zip(xs, ys)], computed as x + (-c)*y with
        the regime chosen once for the row, as in `scale_row`."""
        if self._mul_table is not None:
            A, M = self._add_table, self._mul_table[self._neg_table[c]]
            return [A[x][M[y]] for x, y in zip(xs, ys)]
        c = self.neg(c)
        half = self._half
        if half is None:
            p = self.field.p
            return [digit_add(x, self._mul_slow(c, y), p) if y else x
                    for x, y in zip(xs, ys)]
        Q, T, A = half.Q, half.T, half.add
        Lc, Lh, Hc = half.lo[c % Q], half.lo[c // Q], half.hi[c % Q]
        out = []
        for x, y in zip(xs, ys):
            if y:
                yl = y % Q
                x = (A[x % Q][Lc[yl]]
                     + Q * A[x // Q][A[Hc[yl]][A[Lc[y // Q] % T][Lh[yl] % T]]])
            out.append(x)
        return out

    def _build_tables(self) -> None:
        f = self.field
        count = self.e * f.m
        self._add_table, self._neg_table, self._mul_table = bilinear_tables(
            f.p, count, self._mul_slow)
        self._val_table = [self._valuation_slow(a) for a in range(self.size)]
        self._inv_table = [row.index(1) if a % self.q else 0
                           for a, row in enumerate(self._mul_table)]
        if f.has_conjugation:
            self._conj_table = linear_table(
                f.p, self._add_table,
                [self._conjugate_slow(f.p ** k) for k in range(count)])

    # -- chain structure --------------------------------------------------------

    def valuation(self, a: int) -> int:
        """Largest v with a in (u^v); the zero element gets e."""
        if self._val_table is not None:
            return self._val_table[a]
        return self._valuation_slow(a)

    def _valuation_slow(self, a: int) -> int:
        if a == 0:
            return self.e
        v = 0
        while a % self.q == 0:
            a //= self.q
            v += 1
        return v

    def is_unit(self, a: int) -> bool:
        return a % self.q != 0

    def unit_inverse(self, a: int) -> int:
        """Inverse of a unit: from the tables, or else solved coefficient by
        coefficient."""
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in {self!r}")
        if self._inv_table is not None:
            return self._inv_table[a]
        half = self._half
        if half is None:
            return self._unit_inverse_slow(a)
        # a = a_l(1 + x*Q*a_h) with x = 1/a_l, and (Q*a_h)^2 = 0
        x = half.inv[a % half.Q]
        return self.sub(x, self.mul(self.mul(x, a - a % half.Q), x))

    def _unit_inverse_slow(self, a: int) -> int:
        f = self.field
        da = self.decode(a)
        inv0 = f.inv(da[0])
        out = [inv0] + [0] * (self.e - 1)
        for k in range(1, self.e):
            acc = 0
            for i in range(1, k + 1):
                if da[i] and out[k - i]:
                    acc = f.add(acc, f.mul(da[i], out[k - i]))
            out[k] = f.neg(f.mul(inv0, acc))
        return self.encode(out)

    def shift_up(self, a: int, v: int) -> int:
        """Multiply by u^v (coefficients above u^(e-1) truncate away)."""
        if v <= 0:
            return a
        return (a * self.q ** v) % self.size

    def shift_down(self, a: int, v: int) -> int:
        """A witness w with u^v * w = a; requires valuation(a) >= v."""
        if v <= 0:
            return a
        if a % self.q ** v != 0:
            raise ValueError(f"element {a} is not divisible by u^{v}")
        return a // self.q ** v

    def residue(self, a: int) -> int:
        """Image in the residue field GF(q): the u^0 coefficient."""
        return a % self.q

    # -- conjugation -----------------------------------------------------------

    def conjugate(self, a: int) -> int:
        """Apply the field conjugation to every u-coefficient."""
        if self._conj_table is not None:
            return self._conj_table[a]
        half = self._half
        if half is not None and half.conj is not None:
            Q, C = half.Q, half.conj
            return C[a % Q] + Q * C[a // Q]
        return self._conjugate_slow(a)

    def conjugate_row(self, ys) -> list[int]:
        """[conjugate(y) for y in ys], choosing the regime once for the
        row: one table lookup, or one per half, or digit loops."""
        if self._conj_table is not None:
            C = self._conj_table
            return [C[y] for y in ys]
        half = self._half
        if half is not None and half.conj is not None:
            Q, C = half.Q, half.conj
            return [C[y % Q] + Q * C[y // Q] for y in ys]
        return [self._conjugate_slow(y) for y in ys]

    def _conjugate_slow(self, a: int) -> int:
        f = self.field
        return self.encode([f.conjugate(d) for d in self.decode(a)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, ChainRing) and self.e == other.e
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash((self.field, self.e))

    def __repr__(self) -> str:
        return f"GF({self.q})[u]/(u^{self.e})"


@functools.lru_cache(maxsize=RING_CACHE_SIZE)
def ring_over(field: Field, e: int) -> ChainRing:
    """The ring GF(q)[u]/(u^e) over the given field, so each ring builds
    its tables once.  Equal fields share a ring; the cache is bounded
    because a code document may name any field and any e."""
    return ChainRing(field, e)


def chain_ring(q: int, e: int) -> ChainRing:
    """The ring GF(q)[u]/(u^e) over the canonical field (cached)."""
    p, m = factor_prime_power(q)
    return ring_over(field_make(p, m), e)


@dataclass(frozen=True)
class ChainRingElement:
    """The image `quasiabelian.cyclic_to_chain` returns: an element code
    of `ring`, with no arithmetic of its own."""

    ring: ChainRing
    code: int
