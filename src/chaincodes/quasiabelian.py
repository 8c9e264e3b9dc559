"""Quasi-abelian codes through group-algebra decomposition.

For a prime p not dividing |A|, the group algebra F_{p^m}[A x Z_{p^s}]
splits into a product of chain rings GF(p^{m_i})[u]/(u^{p^s}), one factor
per orbit of A under multiplication by q = p^m.  An orbit's size and its
Euclidean and Hermitian types depend only on the order d of its elements,
so `decompose` lists one record per divisor d of the exponent of A (field
degree m * ord_d(q), multiplicity n_of_order(d) / ord_d(q)) without
visiting the elements.  Codes over the algebra that are modules over
F_{p^m}[A x Z_{p^s}] correspond to tuples of linear codes over the factors,
so counting them (plain, Euclidean self-dual, Hermitian self-dual) reduces
to products of the per-ring counts in `counting`.

Groups are tuples of cyclic orders; elements are integer tuples with
componentwise arithmetic.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass

from .chainring import ChainRing, ChainRingElement, ring_over
from .gf import Field, field_make, factor_prime_power, factorize, is_prime
from . import counting
from .counting import _MAX_DEPTH


class AbelianGroup:
    """A finite abelian group given by a list of cyclic orders."""

    __slots__ = ("invariants",)

    def __init__(self, invariants) -> None:
        inv = tuple(invariants)
        if any(type(d) is not int or d < 1 for d in inv):
            raise ValueError(f"cyclic orders must be ints >= 1, got {inv!r}")
        # order-1 components contribute nothing; dropping them normalizes
        # the trivial group to the empty product
        self.invariants = tuple(d for d in inv if d > 1)

    @classmethod
    def from_spec(cls, spec: str) -> "AbelianGroup":
        """Parse a comma-separated list of cyclic orders; "1" (or an empty
        string) is the trivial group."""
        text = spec.strip()
        if not text:
            return cls(())
        return cls(int(part) for part in text.split(","))

    @property
    def order(self) -> int:
        return math.prod(self.invariants)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.invariants) if self.invariants else 1

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.invariants)

    def elements(self):
        """Every element, in lexicographic order (only for small groups)."""
        return itertools.product(*(range(d) for d in self.invariants))

    def check(self, a) -> tuple[int, ...]:
        a = tuple(a)
        if len(a) != len(self.invariants):
            raise ValueError(f"element {a} has the wrong arity for {self}")
        if any(type(x) is not int or not 0 <= x < d
               for x, d in zip(a, self.invariants)):
            raise ValueError(f"element {a!r} out of range for {self}")
        return a

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d
                     for x, y, d in zip(a, b, self.invariants))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.invariants))

    def smul(self, k: int, a) -> tuple[int, ...]:
        return tuple(k * x % d for x, d in zip(a, self.invariants))

    def n_of_order(self, d: int) -> int:
        """How many elements have order exactly d: prod_i gcd(k, n_i)
        elements satisfy k*a = 0, and Moebius inversion over k | d keeps
        those of order exactly d."""
        if d < 1:
            raise ValueError("order must be >= 1")
        primes = list(factorize(d))
        total = 0
        for r in range(len(primes) + 1):
            for drop in itertools.combinations(primes, r):
                k = d // math.prod(drop)
                total += (-1) ** r * math.prod(
                    math.gcd(k, n) for n in self.invariants)
        return total

    def __eq__(self, other) -> bool:
        return (isinstance(other, AbelianGroup)
                and self.invariants == other.invariants)

    def __hash__(self) -> int:
        return hash(self.invariants)

    def __repr__(self) -> str:
        if not self.invariants:
            return "AbelianGroup(trivial)"
        return "AbelianGroup(%s)" % " x ".join(
            f"Z{d}" for d in self.invariants)


def multiplicative_order(base: int, mod: int) -> int:
    """Least t >= 1 with base^t = 1 (mod mod); mod 1 gives 1.

    The order divides the Carmichael exponent lambda(mod), the lcm of
    lambda(r^k) = r^(k-1) (r - 1) over the prime powers r^k of mod (halved
    for 2^k, k >= 3).  Starting from lambda, each prime r is divided out as
    long as base^(t/r) is still 1."""
    if mod < 1:
        raise ValueError("modulus must be >= 1")
    if mod == 1:
        return 1
    if math.gcd(base, mod) != 1:
        raise ValueError(f"{base} is not invertible mod {mod}")
    lam: dict[int, int] = {}
    for r, k in factorize(mod).items():
        if r == 2:
            part = {2: k - 1 if k < 3 else k - 2}
        else:
            part = factorize(r - 1)
            part[r] = k - 1
        for f, j in part.items():
            lam[f] = max(lam.get(f, 0), j)
    t = math.prod(f ** j for f, j in lam.items())
    for f in lam:
        while t % f == 0 and pow(base, t // f, mod) == 1:
            t //= f
    return t


def divisors(n: int) -> list[int]:
    """The divisors of n in increasing order, from its factorisation."""
    out = [1]
    for r, k in factorize(n).items():
        out = [d * r ** j for d in out for j in range(k + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# the factorization of F_{p^m}[A x Z_{p^s}] into chain rings, by divisor
#
# The orbit {q^i a} of an element a of order d has ord_d(q) members, and
# whether it contains -a (or -sqrt(q) a) is a question about the residues
# mod d alone, so every orbit of order-d elements has the same degree and
# types.  Both types ask whether a unit mod d lies in the cyclic group <q>
# mod d, whose order t = ord_d(q) the caller has already computed.

def _euclidean_type(d: int, q: int, t: int) -> str:
    """"I" when a = -a (d <= 2), "II" when -a lies in the orbit of a,
    "III" otherwise.  For d > 2, -1 has order 2, so it lies in <q> iff t is
    even and q^(t/2), the one element of order 2 there, is -1."""
    if d <= 2:
        return "I"
    return "II" if t % 2 == 0 and pow(q, t // 2, d) == d - 1 else "III"


def _hermitian_type(d: int, r: int, t: int) -> str:
    """"I'" when -r*a lies in the orbit of a under q = r^2, else "II'".
    (-r)^2 = q, so -r has order t or 2t mod d and lies in the cyclic group
    <q> of order t iff (-r)^t = 1."""
    return "I'" if pow(-r % d, t, d) == 1 % d else "II'"


def _check_coprime(j: int, q: int) -> None:
    p, _ = factor_prime_power(q)
    if math.gcd(j, p) != 1:
        raise ValueError(f"need gcd({j}, {p}) = 1")


def is_good_pair(j: int, q: int) -> bool:
    """Whether j divides q^t + 1 for some t >= 1, i.e. -1 lies in <q> mod j."""
    _check_coprime(j, q)
    return _euclidean_type(j, q, multiplicative_order(q, j)) != "III"


def is_oddly_good_pair(j: int, q: int) -> bool:
    """Whether j divides q^t + 1 for some odd t >= 1.  Then -q = q^(t+1)
    lies in <q^2> mod j, and conversely -q = q^(2k) gives -1 = q^(2k-1)."""
    _check_coprime(j, q)
    return _hermitian_type(j, q, multiplicative_order(q * q, j)) == "I'"


# the reports print field orders in decimal, and CPython refuses int -> str
# conversions above 4300 digits by default
_REPORT_LIMIT = 10 ** 4300
_REPORT_BITS = _REPORT_LIMIT.bit_length() - 1      # 2^bits <= limit


def _field_order(p: int, degree: int) -> int:
    """p^degree for a report, refused above 4300 digits.  Since p^degree >=
    2^(degree * (bits(p) - 1)), a large degree is refused before the power
    is built; a power that passes that test has fewer than 2 * _REPORT_BITS
    bits and is cheap to build and compare."""
    if (degree * (p.bit_length() - 1) > _REPORT_BITS
            or p ** degree >= _REPORT_LIMIT):
        raise ValueError(f"field order {p}^{degree} has over 4300 digits, "
                         f"too many for the report to print")
    return p ** degree


@dataclass(frozen=True)
class DivisorFactor:
    """The multiplicity chain-ring factors GF(p^degree)[u]/(u^depth) of the
    algebra that come from the orbits of elements of order divisor."""
    divisor: int
    degree: int
    multiplicity: int
    euclidean_type: str
    hermitian_type: str | None


@dataclass(frozen=True)
class DecompositionReport:
    p: int
    m: int
    s: int
    group: AbelianGroup
    factors: tuple[DivisorFactor, ...]

    @property
    def depth(self) -> int:
        return self.p ** self.s

    def _count_types(self, attr: str, labels) -> tuple[int, ...]:
        return tuple(sum(f.multiplicity for f in self.factors
                         if getattr(f, attr) == label) for label in labels)

    def count_euclidean_types(self) -> tuple[int, int, int]:
        return self._count_types("euclidean_type", ("I", "II", "III"))

    def count_hermitian_types(self) -> tuple[int, int]:
        if self.m % 2:
            raise ValueError("Hermitian types need an even field degree")
        return self._count_types("hermitian_type", ("I'", "II'"))

    def grouped_factors(self) -> list[tuple[int, int, int, str, str | None]]:
        """(divisor, field degree, multiplicity, euclidean type, hermitian
        type) per divisor."""
        return [astuple(f) for f in self.factors]

    def factor_rings(self) -> list[ChainRing]:
        """The actual chain rings in divisor order, multiplicity copies each."""
        rings = []
        for f in self.factors:
            ring = ring_over(field_make(self.p, f.degree), self.depth)
            rings += [ring] * f.multiplicity
        return rings

    def _field_orders(self) -> list[int]:
        return [_field_order(self.p, f.degree) for f in self.factors]

    def to_text(self) -> str:
        total = sum(f.multiplicity for f in self.factors)
        head = (f"GF({_field_order(self.p, self.m)})[A x Z{self.depth}] with "
                f"A = {self.group!r}: {total} factors")
        lines = [head, "divisor  field  depth  count  type"]
        for f, order in zip(self.factors, self._field_orders()):
            th = f.hermitian_type
            label = f.euclidean_type if th is None else f"{f.euclidean_type}/{th}"
            lines.append(f"{f.divisor:<7d}  {order:<5d}  "
                         f"{self.depth:<5d}  {f.multiplicity:<5d}  {label}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "p": self.p, "m": self.m, "s": self.s,
            "group": list(self.group.invariants),
            "factors": [
                {"divisor": f.divisor, "field_order": order,
                 "depth": self.depth, "multiplicity": f.multiplicity,
                 "euclidean_type": f.euclidean_type,
                 "hermitian_type": f.hermitian_type}
                for f, order in zip(self.factors, self._field_orders())],
        }


def _chain_depth(p: int, m: int, s: int) -> int:
    """The u-depth p^s, refused above _MAX_DEPTH before the power is built;
    since p^s >= p, that also bounds the primality test."""
    if m < 1 or s < 1:
        raise ValueError("need m >= 1 and s >= 1")
    if p > 1 and (s > _MAX_DEPTH.bit_length() or p ** s > _MAX_DEPTH):
        raise ValueError(f"u-depth p^s with s = {s} is over {_MAX_DEPTH}, "
                         f"the largest a chain ring allows")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p ** s


def decompose(p: int, m: int, s: int, group: AbelianGroup) -> DecompositionReport:
    """Split F_{p^m}[A x Z_{p^s}] into chain-ring factors, one per orbit of
    A under multiplication by q = p^m, each GF(p^{m * orbit size})[u]/(u^{p^s}).
    The n_of_order(d) elements of order d fall into orbits of ord_d(q)
    members each, so one record per divisor d of exp(A) lists them all.
    Only q mod d and sqrt(q) mod d enter, so q itself is never built."""
    _chain_depth(p, m, s)
    if group.order % p == 0:
        raise ValueError(
            f"group order {group.order} not coprime to the characteristic {p}")
    factors = []
    for d in divisors(group.exponent):
        q = pow(p, m, d)
        t = multiplicative_order(q, d)
        count = group.n_of_order(d)
        if count % t:
            raise AssertionError("orbit size does not divide the order count")
        factors.append(DivisorFactor(
            divisor=d, degree=m * t, multiplicity=count // t,
            euclidean_type=_euclidean_type(d, q, t),
            hermitian_type=(_hermitian_type(d, pow(p, m // 2, d), t)
                            if m % 2 == 0 else None)))
    return DecompositionReport(p, m, s, group, tuple(factors))


# ---------------------------------------------------------------------------
# group-algebra elements and the cyclic-to-chain map

class GroupAlgebraElement:
    """A finitely supported map group -> field, the element sum c_g Y^g.

    Addition is coefficient-wise; multiplication is convolution with the
    exponents added in the group.
    """

    __slots__ = ("group", "field", "coeffs")

    def __init__(self, group: AbelianGroup, field: Field, coeffs=None) -> None:
        self.group = group
        self.field = field
        clean: dict[tuple[int, ...], int] = {}
        for g, c in (coeffs or {}).items():
            c = field.check(c)
            if c:
                clean[group.check(g)] = c
        self.coeffs = clean

    @classmethod
    def monomial(cls, group: AbelianGroup, field: Field, g, c=1) -> "GroupAlgebraElement":
        return cls(group, field, {tuple(g): c})

    @classmethod
    def zero(cls, group: AbelianGroup, field: Field) -> "GroupAlgebraElement":
        return cls(group, field, {})

    @classmethod
    def one(cls, group: AbelianGroup, field: Field) -> "GroupAlgebraElement":
        return cls(group, field, {group.identity: 1})

    def _compat(self, other: "GroupAlgebraElement") -> None:
        if not isinstance(other, GroupAlgebraElement):
            raise TypeError("expected a group-algebra element")
        if other.group != self.group or other.field != self.field:
            raise ValueError("mixed-algebra operands")

    def __add__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = self.field.add(out.get(g, 0), c)
        return GroupAlgebraElement(self.group, self.field, out)

    def __neg__(self):
        return GroupAlgebraElement(
            self.group, self.field,
            {g: self.field.neg(c) for g, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compat(other)
        f = self.field
        out: dict[tuple[int, ...], int] = {}
        for g1, c1 in self.coeffs.items():
            for g2, c2 in other.coeffs.items():
                g = self.group.add(g1, g2)
                out[g] = f.add(out.get(g, 0), f.mul(c1, c2))
        return GroupAlgebraElement(self.group, self.field, out)

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAlgebraElement)
                and self.group == other.group and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.group, self.field, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*Y^{g}" for g, c in sorted(self.coeffs.items()))


def algebra_elements(group: AbelianGroup, field: Field):
    """Every element of field[group], in a deterministic order.  Only
    sensible for tiny groups and fields."""
    gs = list(group.elements())
    for codes in itertools.product(range(field.q), repeat=len(gs)):
        yield GroupAlgebraElement(group, field, dict(zip(gs, codes)))


def _cyclic_match(ring: ChainRing, group: AbelianGroup) -> None:
    if len(group.invariants) != 1 or group.order != ring.e:
        raise ValueError(
            f"need a cyclic group of order {ring.e}, got {group!r}")
    p = ring.field.p
    n = ring.e
    while n % p == 0:
        n //= p
    if n != 1:
        raise ValueError(
            f"u-depth {ring.e} is not a power of the characteristic {p}")


def cyclic_to_chain(ring: ChainRing, x: GroupAlgebraElement) -> ChainRingElement:
    """The ring isomorphism field[Z_{p^s}] -> field[u]/(u^{p^s}) fixing the
    field and sending the degree-1 monomial to 1 + u, evaluated by Horner's
    rule in 1 + u.  A field code is the code of the degree-0 ring element,
    so the coefficients enter the ring unchanged.  The image comes back as
    a ChainRingElement record: its `ring` and its element `code`."""
    _cyclic_match(ring, x.group)
    if x.field != ring.field:
        raise ValueError("element field does not match the ring")
    one_u = ring.add(1, ring.u)
    acc = 0
    for j in range(ring.e - 1, -1, -1):
        acc = ring.add(ring.mul(acc, one_u), x.coeffs.get((j,), 0))
    return ChainRingElement(ring, acc)


# ---------------------------------------------------------------------------
# closed-form counts of quasi-abelian codes and their self-dual subfamilies

# the `counting` kind of the self-dual codes each factor type holds
_SELF_DUAL_KIND = {"I": "esd", "II": "hsd", "I'": "hsd"}


def _count(p: int, m: int, s: int, group: AbelianGroup, n: int,
           kind: str | None) -> int:
    """Validate the arguments, decompose, and multiply per-factor counts.

    With kind None every factor carries a free linear code, counted at any
    depth.  Otherwise kind names the factor type that decides: type I
    factors hold Euclidean self-dual codes, types II and I' Hermitian
    self-dual ones, and types III and II' pair each orbit with its dual
    orbit, so each pair carries one free linear code.  The self-dual closed
    forms hold for depth 3 only, so other depths are refused.

    The product is estimated, before any count is taken, as the sum over
    the factors of their `counting` estimates times the number of factor
    counts multiplied in; in powers of p that is never above the product,
    and under it by at most the sum of the factors' slacks.  An estimate
    over counting.COUNT_BITS_CAP is refused, and a self-dual factor that
    is 0 by its length alone makes the product 0 outright.  A factor whose
    field order p^degree would have over COUNT_BITS_CAP bits is refused
    before that order is built.

    Only after those checks is anything counted.  Many divisors share a
    factor ring (A = Z125 x Z128 has 32 divisor records over 14 field
    orders), so the powers are summed per distinct (field order, kind),
    each distinct ring is counted once, and the product of the counts'
    powers is taken in one squaring chain (`_power_product`).
    """
    e = _chain_depth(p, m, s)
    if n < 1:
        raise ValueError("need n >= 1")
    if kind == "hermitian_type" and m % 2:
        raise ValueError("Hermitian counts need an even field degree")
    if kind:
        counting.check_self_dual_depth(e)
    powers: dict[tuple[int, str | None], int] = {}    # (field order, kind)
    exponent = 0                        # of the estimate, a power of p
    linear = counting.linear_exponent(e, n)
    for f in decompose(p, m, s, group).factors:
        label = getattr(f, kind) if kind else None
        power = f.multiplicity
        if label in ("III", "II'"):
            if power % 2:
                raise AssertionError("paired orbits failed to pair up")
            power //= 2
        # p^degree has floor(degree * log2(p)) + 1 bits; clipped first, as
        # in `counting.check_bits`, since a float cannot hold every int
        if (min(f.degree, counting.COUNT_BITS_CAP + 1) * math.log2(p)
                >= counting.COUNT_BITS_CAP):
            raise ValueError(f"factor field order {p}^{f.degree} has over "
                             f"{counting.COUNT_BITS_CAP} bits")
        qf = p ** f.degree
        sd = _SELF_DUAL_KIND.get(label)
        x = linear if sd is None else counting.self_dual_exponent(qf, n, sd)
        if x is None:
            return 0
        exponent += power * f.degree * x
        powers[qf, sd] = powers.get((qf, sd), 0) + power
    counting.check_bits(exponent, p)
    # each qf = p^degree is a prime power by construction, so the count
    # cores skip only the factorisation that the public counts start with
    cores = {None: lambda qf: counting._count_linear(qf, e, n),
             "esd": lambda qf: counting._count_esd(qf, n),
             "hsd": lambda qf: counting._count_hsd(qf, n)}
    return _power_product([(cores[sd](qf), power)
                           for (qf, sd), power in powers.items()])


def _power_product(pairs) -> int:
    """The product of v^k over the (v, k) pairs, by one squaring chain
    (Straus, Amer. Math. Monthly 71, 1964): for each bit of the largest k,
    from the top, square the product, then multiply in every v whose k has
    that bit set.  All the powers share one chain of squarings, and each v
    is multiplied in as it is, never first raised to a power of its own."""
    total = 1
    for bit in reversed(range(max(k for _, k in pairs).bit_length())):
        total *= total
        for v, k in pairs:
            if k >> bit & 1:
                total *= v
    return total


def count_qa(p: int, m: int, s: int, group: AbelianGroup, n: int) -> int:
    """Number of codes in field[A x Z_{p^s} x B] closed under multiplication
    by the subalgebra field[A x Z_{p^s}], where |B| = n.  The answer depends
    on B only through n: the product over the chain-ring factors of
    `counting.count_linear` at depth p^s, which holds at every depth.
    """
    return _count(p, m, s, group, n, None)


def count_qa_esd(p: int, m: int, s: int, group: AbelianGroup, n: int) -> int:
    """Number of Euclidean self-dual codes among those counted by count_qa;
    depth p^s must be 3.

    Per divisor d of the group exponent: if d divides p^{mt} + 1 for some t
    (a "good" divisor) the factor codes must be self-dual themselves,
    Euclidean when p^m fixes d (order 1) and Hermitian otherwise; bad
    divisors pair factors with their duals, contributing a free linear code
    per pair.
    """
    return _count(p, m, s, group, n, "euclidean_type")


def count_qa_hsd(p: int, m: int, s: int, group: AbelianGroup, n: int) -> int:
    """Number of Hermitian self-dual codes among those counted by count_qa;
    needs even m so the coefficient field carries conjugation, and depth
    p^s = 3.

    Per divisor d: if d divides p^{(m/2)t} + 1 for some odd t (an "oddly
    good" divisor) the factors must be Hermitian self-dual; otherwise
    factors pair with duals and each pair contributes a free linear code.
    """
    return _count(p, m, s, group, n, "hermitian_type")
