"""Quasi-abelian codes through group-algebra decomposition.

For a prime p not dividing |A|, the group algebra F_{p^m}[A x Z_{p^s}]
splits into a product of chain rings GF(p^{m_i})[u]/(u^{p^s}), one factor
per orbit of A under multiplication by p^m.  Codes over the algebra that
are modules over F_{p^m}[A x Z_{p^s}] correspond to tuples of linear codes
over the factors, so counting them (plain, Euclidean self-dual, Hermitian
self-dual) reduces to products of the per-ring counts in `counting`.

Groups are tuples of cyclic orders; elements are integer tuples with
componentwise arithmetic.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .chainring import ChainRing, ChainRingElement
from .gf import Field, FieldElement, field_make, factor_prime_power, is_prime
from .gf import DEFAULT_MAX_ORDER
from . import counting


class AbelianGroup:
    """A finite abelian group given by a list of cyclic orders."""

    __slots__ = ("invariants", "_elements")

    def __init__(self, invariants) -> None:
        inv = tuple(int(d) for d in invariants)
        if any(d < 1 for d in inv):
            raise ValueError(f"cyclic orders must be >= 1, got {inv}")
        # order-1 components contribute nothing; dropping them normalizes
        # the trivial group to the empty product
        self.invariants = tuple(d for d in inv if d > 1)
        self._elements = None

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

    def elements(self) -> tuple[tuple[int, ...], ...]:
        if self._elements is None:
            self._elements = tuple(itertools.product(
                *(range(d) for d in self.invariants)))
        return self._elements

    def check(self, a) -> tuple[int, ...]:
        a = tuple(a)
        if len(a) != len(self.invariants):
            raise ValueError(f"element {a} has the wrong arity for {self}")
        if any(not 0 <= x < d for x, d in zip(a, self.invariants)):
            raise ValueError(f"element {a} out of range for {self}")
        return a

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d
                     for x, y, d in zip(a, b, self.invariants))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.invariants))

    def smul(self, k: int, a) -> tuple[int, ...]:
        return tuple(k * x % d for x, d in zip(a, self.invariants))

    def element_order(self, a) -> int:
        a = self.check(a)
        return math.lcm(*(d // math.gcd(x, d)
                          for x, d in zip(a, self.invariants))) if a else 1

    def n_of_order(self, d: int) -> int:
        """How many elements have order exactly d: prod_i gcd(k, n_i)
        elements satisfy k*a = 0, and Moebius inversion over k | d keeps
        those of order exactly d."""
        if d < 1:
            raise ValueError("order must be >= 1")
        primes = [f for f in divisors(d) if is_prime(f)]
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
    """Least t >= 1 with base^t = 1 (mod mod); mod 1 gives 1."""
    if mod < 1:
        raise ValueError("modulus must be >= 1")
    if mod == 1:
        return 1
    if math.gcd(base, mod) != 1:
        raise ValueError(f"{base} is not invertible mod {mod}")
    t, acc = 1, base % mod
    while acc != 1:
        acc = acc * base % mod
        t += 1
    return t


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("need n >= 1")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


# ---------------------------------------------------------------------------
# orbits of A under multiplication by q and their symmetry types

@dataclass(frozen=True)
class CyclotomicClass:
    """An orbit {q^i * a} of A under multiplication by q = p^m."""
    group: AbelianGroup
    q: int
    rep: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def euclidean_type(self) -> str:
        """"I" when a = -a, "II" when -a sits in the orbit but a != -a,
        "III" when the orbit of -a is a different class."""
        neg = self.group.neg(self.rep)
        if neg == self.rep:
            return "I"
        return "II" if neg in self.members else "III"

    def hermitian_type(self) -> str:
        """"I'" when the orbit contains -sqrt(q)*a, else "II'"."""
        r = math.isqrt(self.q)
        if r * r != self.q:
            raise ValueError("Hermitian types need a square multiplier order")
        target = self.group.neg(self.group.smul(r, self.rep))
        return "I'" if target in self.members else "II'"


def cyclotomic_class(group: AbelianGroup, q: int, a) -> CyclotomicClass:
    """The orbit of a under multiplication by q, with the lexicographically
    smallest member as representative."""
    p, _ = factor_prime_power(q)
    if group.order % p == 0:
        raise ValueError(
            f"group order {group.order} not coprime to the characteristic {p}")
    a = group.check(a)
    members = [a]
    cur = group.smul(q, a)
    while cur != a:
        members.append(cur)
        cur = group.smul(q, cur)
    members = tuple(sorted(members))
    return CyclotomicClass(group, q, members[0], members)


def cyclotomic_classes(group: AbelianGroup, q: int) -> list[CyclotomicClass]:
    """The orbit partition of the whole group, sorted by representative."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for a in sorted(group.elements()):
        if a in seen:
            continue
        cls = cyclotomic_class(group, q, a)
        seen.update(cls.members)
        out.append(cls)
    return out


def is_good_pair(j: int, q: int) -> bool:
    """Whether j divides q^t + 1 for some t >= 1.  Since q^t mod j is
    periodic with period ord_j(q), scanning that far decides it."""
    p, _ = factor_prime_power(q)
    if math.gcd(j, p) != 1:
        raise ValueError(f"need gcd({j}, {p}) = 1")
    target = (-1) % j
    return any(pow(q, t, j) == target
               for t in range(1, multiplicative_order(q, j) + 1))


def is_oddly_good_pair(j: int, q: int) -> bool:
    """Whether j divides q^t + 1 for some odd t >= 1; odd t up to twice
    the order of q mod j covers every odd residue of the period."""
    p, _ = factor_prime_power(q)
    if math.gcd(j, p) != 1:
        raise ValueError(f"need gcd({j}, {p}) = 1")
    target = (-1) % j
    return any(pow(q, t, j) == target
               for t in range(1, 2 * multiplicative_order(q, j) + 1, 2))


# ---------------------------------------------------------------------------
# the factorization of F_{p^m}[A x Z_{p^s}] into chain rings

@dataclass(frozen=True)
class ClassFactor:
    """One chain-ring factor GF(p^degree)[u]/(u^depth) of the algebra."""
    rep: tuple[int, ...]
    order: int
    size: int
    degree: int
    euclidean_type: str
    hermitian_type: str | None


@dataclass(frozen=True)
class DecompositionReport:
    p: int
    m: int
    s: int
    group: AbelianGroup
    classes: tuple[ClassFactor, ...]

    @property
    def depth(self) -> int:
        return self.p ** self.s

    def count_euclidean_types(self) -> tuple[int, int, int]:
        types = [c.euclidean_type for c in self.classes]
        return types.count("I"), types.count("II"), types.count("III")

    def count_hermitian_types(self) -> tuple[int, int]:
        if self.m % 2:
            raise ValueError("Hermitian types need an even field degree")
        types = [c.hermitian_type for c in self.classes]
        return types.count("I'"), types.count("II'")

    def grouped_factors(self) -> list[tuple[int, int, int, str, str | None]]:
        """(divisor, field degree, multiplicity, euclidean type, hermitian
        type) with identical factors merged."""
        key = lambda c: (c.order, c.degree, c.euclidean_type, c.hermitian_type)
        out = []
        for (d, deg, te, th), grp in itertools.groupby(
                sorted(self.classes, key=key), key=key):
            out.append((d, deg, sum(1 for _ in grp), te, th))
        return out

    def factor_rings(self, *, max_order: int = DEFAULT_MAX_ORDER) -> list[ChainRing]:
        """The actual chain rings, one per class, in class order."""
        return [ChainRing(field_make(self.p, c.degree, max_order=max_order),
                          self.depth)
                for c in self.classes]

    def to_text(self) -> str:
        head = (f"GF({self.p ** self.m})[A x Z{self.depth}] with "
                f"A = {self.group!r}: {len(self.classes)} factors")
        lines = [head, "divisor  field  depth  count  type"]
        for d, deg, mult, te, th in self.grouped_factors():
            label = te if th is None else f"{te}/{th}"
            lines.append(f"{d:<7d}  {self.p ** deg:<5d}  {self.depth:<5d}  "
                         f"{mult:<5d}  {label}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "p": self.p, "m": self.m, "s": self.s,
            "group": list(self.group.invariants),
            "factors": [
                {"divisor": d, "field_order": self.p ** deg,
                 "depth": self.depth, "multiplicity": mult,
                 "euclidean_type": te, "hermitian_type": th}
                for d, deg, mult, te, th in self.grouped_factors()],
        }


def decompose(p: int, m: int, s: int, group: AbelianGroup) -> DecompositionReport:
    """Split F_{p^m}[A x Z_{p^s}] into chain-ring factors, one per orbit of
    A under multiplication by p^m, each GF(p^{m * orbit size})[u]/(u^{p^s})."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1 or s < 1:
        raise ValueError("need m >= 1 and s >= 1")
    if group.order % p == 0:
        raise ValueError(
            f"group order {group.order} not coprime to the characteristic {p}")
    q = p ** m
    facs = []
    for cls in cyclotomic_classes(group, q):
        facs.append(ClassFactor(
            rep=cls.rep,
            order=group.element_order(cls.rep),
            size=cls.size,
            degree=m * cls.size,
            euclidean_type=cls.euclidean_type(),
            hermitian_type=cls.hermitian_type() if m % 2 == 0 else None))
    report = DecompositionReport(p, m, s, group, tuple(facs))
    if sum(c.size for c in report.classes) != group.order:
        raise AssertionError("orbits do not partition the group")
    return report


# ---------------------------------------------------------------------------
# group-algebra elements, coset reindexing, and the cyclic-to-chain map

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
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise ValueError("coefficient from a different field")
                c = c.code
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

    def scale(self, c) -> "GroupAlgebraElement":
        if isinstance(c, FieldElement):
            c = c.code
        c = self.field.check(c)
        return GroupAlgebraElement(
            self.group, self.field,
            {g: self.field.mul(c, x) for g, x in self.coeffs.items()})

    def shift(self, g) -> "GroupAlgebraElement":
        """Multiply by the monomial Y^g."""
        g = self.group.check(g)
        return GroupAlgebraElement(
            self.group, self.field,
            {self.group.add(h, g): c for h, c in self.coeffs.items()})

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
    gs = sorted(group.elements())
    for codes in itertools.product(range(field.q), repeat=len(gs)):
        yield GroupAlgebraElement(group, field, dict(zip(gs, codes)))


def subgroup_closure(group: AbelianGroup, gens) -> tuple[tuple[int, ...], ...]:
    """The subgroup generated by the given elements, sorted.  Closure under
    addition suffices: negatives are iterated sums in a finite group."""
    closed = {group.identity}
    closed.update(group.check(g) for g in gens)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                c = group.add(a, b)
                if c not in closed:
                    closed.add(c)
                    changed = True
    return tuple(sorted(closed))


def _check_subgroup(group: AbelianGroup, sub) -> tuple[tuple[int, ...], ...]:
    elems = tuple(sorted(group.check(h) for h in sub))
    eset = set(elems)
    if group.identity not in eset:
        raise ValueError("subgroup must contain the identity")
    for a in elems:
        if group.neg(a) not in eset:
            raise ValueError("subgroup not closed under negation")
        for b in elems:
            if group.add(a, b) not in eset:
                raise ValueError("subgroup not closed under addition")
    return elems


def coset_representatives(group: AbelianGroup, sub) -> list[tuple[int, ...]]:
    """Lexicographically smallest representative of every coset of the
    subgroup, sorted."""
    elems = _check_subgroup(group, sub)
    eset = set(elems)
    reps = []
    assigned: set[tuple[int, ...]] = set()
    for g in sorted(group.elements()):
        if g in assigned:
            continue
        reps.append(g)
        assigned.update(group.add(g, h) for h in eset)
    return reps


def coset_split(group: AbelianGroup, sub, x: GroupAlgebraElement
                ) -> list[GroupAlgebraElement]:
    """Reindex x by cosets of the subgroup: component i collects the
    coefficients on coset g_i + sub, shifted back by -g_i so its support
    lies inside the subgroup.  Bijective and addition-preserving; the
    component count is the subgroup index."""
    if x.group != group:
        raise ValueError("element from a different group")
    reps = coset_representatives(group, sub)
    eset = set(_check_subgroup(group, sub))
    parts = []
    for g in reps:
        comp = {}
        for h in sorted(eset):
            c = x.coeffs.get(group.add(g, h))
            if c:
                comp[h] = c
        parts.append(GroupAlgebraElement(group, x.field, comp))
    return parts


def coset_join(group: AbelianGroup, sub, parts) -> GroupAlgebraElement:
    """Inverse of coset_split."""
    reps = coset_representatives(group, sub)
    if len(parts) != len(reps):
        raise ValueError(f"expected {len(reps)} components, got {len(parts)}")
    sset = set(_check_subgroup(group, sub))
    field = parts[0].field
    out = GroupAlgebraElement.zero(group, field)
    for g, comp in zip(reps, parts):
        if set(comp.support) - sset:
            raise ValueError("component support leaves the subgroup")
        out = out + comp.shift(g)
    return out


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


@functools.lru_cache(maxsize=None)
def _one_plus_u_powers(ring: ChainRing) -> tuple[int, ...]:
    one_u = ring.add(1, ring.u)
    pows = [1]
    for _ in range(ring.e - 1):
        pows.append(ring.mul(pows[-1], one_u))
    return tuple(pows)


def cyclic_to_chain(ring: ChainRing, x: GroupAlgebraElement) -> ChainRingElement:
    """The ring isomorphism field[Z_{p^s}] -> field[u]/(u^{p^s}) fixing the
    field and sending the degree-1 monomial to 1 + u."""
    _cyclic_match(ring, x.group)
    if x.field != ring.field:
        raise ValueError("element field does not match the ring")
    pows = _one_plus_u_powers(ring)
    acc = 0
    for (j,), c in x.coeffs.items():
        acc = ring.add(acc, ring.smul(c, pows[j]))
    return ChainRingElement(ring, acc)


def chain_to_cyclic(ring: ChainRing, group: AbelianGroup,
                    a) -> GroupAlgebraElement:
    """Inverse of cyclic_to_chain.  The change of basis is unitriangular
    (binomial coefficients), so back-substitution from the top power down
    recovers the coefficients."""
    _cyclic_match(ring, group)
    if isinstance(a, ChainRingElement):
        if a.ring != ring:
            raise ValueError("element from a different ring")
        a = a.code
    f = ring.field
    rows = [ring.decode(p) for p in _one_plus_u_powers(ring)]
    target = list(ring.decode(ring.check(a)))
    coeffs = {}
    for j in range(ring.e - 1, -1, -1):
        c = target[j]
        if c:
            coeffs[(j,)] = c
            target = [f.sub(t, f.mul(c, r)) for t, r in zip(target, rows[j])]
    if any(target):
        raise AssertionError("back-substitution left a nonzero remainder")
    return GroupAlgebraElement(group, f, coeffs)


# ---------------------------------------------------------------------------
# closed-form counts of quasi-abelian codes and their self-dual subfamilies

def _chain_depth(p: int, s: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if s < 1:
        raise ValueError("need s >= 1")
    return p ** s


def _divisor_data(p: int, m: int, group: AbelianGroup):
    if group.order % p == 0:
        raise ValueError(
            f"group order {group.order} not coprime to the characteristic {p}")
    q = p ** m
    for d in divisors(group.exponent):
        ord_d = multiplicative_order(q, d)
        count = group.n_of_order(d)
        if count % ord_d:
            raise AssertionError("orbit size does not divide the order count")
        yield d, ord_d, count


def count_qa(p: int, m: int, s: int, group: AbelianGroup, n: int, *,
             linear_provider=None) -> int:
    """Number of codes in field[A x Z_{p^s} x B] closed under multiplication
    by the subalgebra field[A x Z_{p^s}], where |B| = n.  The answer depends
    on B only through n.

    linear_provider(q, e, n) overrides the per-ring code count; the default
    is `counting.count_linear`, certified for depth p^s = 3.
    """
    e = _chain_depth(p, s)
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    provider = linear_provider or counting.count_linear
    total = 1
    for d, ord_d, count in _divisor_data(p, m, group):
        total *= provider(p ** (m * ord_d), e, n) ** (count // ord_d)
    return total


def count_qa_esd(p: int, m: int, s: int, group: AbelianGroup, n: int, *,
                 linear_provider=None, esd_provider=None,
                 hsd_provider=None) -> int:
    """Number of Euclidean self-dual codes among those counted by count_qa.

    Per divisor d of the group exponent: if d divides p^{mt} + 1 for some t
    (a "good" divisor) the factor codes must be self-dual themselves,
    Euclidean when p^m fixes d (order 1) and Hermitian otherwise; bad
    divisors pair factors with their duals, contributing a free linear code
    per pair.  Default providers are the depth-3 closed forms.
    """
    e = _chain_depth(p, s)
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if e != 3 and not (linear_provider and esd_provider and hsd_provider):
        raise ValueError(
            f"self-dual counts for depth {e} need explicit providers; "
            f"closed forms ship only for depth 3")
    linear = linear_provider or counting.count_linear
    esd = esd_provider or (lambda q, nn: counting.count_esd(q, nn))
    hsd = hsd_provider or (lambda q, nn: counting.count_hsd(q, nn))
    q = p ** m
    total = 1
    for d, ord_d, count in _divisor_data(p, m, group):
        if is_good_pair(d, q):
            if ord_d == 1:
                total *= esd(q, n) ** count
            else:
                total *= hsd(p ** (m * ord_d), n) ** (count // ord_d)
        else:
            if count % (2 * ord_d):
                raise AssertionError("bad-divisor orbits failed to pair up")
            total *= linear(p ** (m * ord_d), e, n) ** (count // (2 * ord_d))
    return total


def count_qa_hsd(p: int, m: int, s: int, group: AbelianGroup, n: int, *,
                 linear_provider=None, hsd_provider=None) -> int:
    """Number of Hermitian self-dual codes among those counted by count_qa;
    needs even m so the coefficient field carries conjugation.

    Per divisor d: if d divides p^{(m/2)t} + 1 for some odd t (an "oddly
    good" divisor) the factors must be Hermitian self-dual; otherwise
    factors pair with duals and each pair contributes a free linear code.
    """
    e = _chain_depth(p, s)
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if m % 2:
        raise ValueError("Hermitian counts need an even field degree")
    if e != 3 and not (linear_provider and hsd_provider):
        raise ValueError(
            f"self-dual counts for depth {e} need explicit providers; "
            f"closed forms ship only for depth 3")
    linear = linear_provider or counting.count_linear
    hsd = hsd_provider or (lambda q, nn: counting.count_hsd(q, nn))
    root = p ** (m // 2)
    total = 1
    for d, ord_d, count in _divisor_data(p, m, group):
        if is_oddly_good_pair(d, root):
            total *= hsd(p ** (m * ord_d), n) ** (count // ord_d)
        else:
            if count % (2 * ord_d):
                raise AssertionError("paired orbits failed to pair up")
            total *= linear(p ** (m * ord_d), e, n) ** (count // (2 * ord_d))
    return total
