"""Tests for group-algebra decomposition, cosets, and quasi-abelian counts."""
import collections
import itertools
import math
import time
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers

from chaincodes import counting
from chaincodes.census import enumerate_submodules
from chaincodes.chainring import ChainRing, ChainRingElement, chain_ring
from chaincodes.counting import (
    COUNT_BITS_CAP,
    count_esd,
    count_hsd,
    count_linear,
    linear_exponent,
    self_dual_exponent,
)
from chaincodes.gf import DEFAULT_MAX_ORDER, factor_prime_power, field_make
from chaincodes.quasiabelian import (
    AbelianGroup,
    GroupAlgebraElement,
    algebra_elements,
    chain_to_cyclic,
    coset_join,
    coset_representatives,
    coset_split,
    count_qa,
    count_qa_esd,
    count_qa_hsd,
    cyclic_to_chain,
    decompose,
    divisors,
    is_good_pair,
    is_oddly_good_pair,
    multiplicative_order,
    subgroup_closure,
)

MAX_EXAMPLES = 120


def order_scan_good(j, q):
    """Direct scan: q^t = -1 mod j for some t up to 2j covers every case."""
    return any(pow(q, t, j) == (-1) % j for t in range(1, 2 * j + 1))


def order_scan_oddly_good(j, q):
    return any(pow(q, t, j) == (-1) % j for t in range(1, 4 * j + 1, 2))


# ---------------------------------------------------------------------------
# abelian groups

def test_group_normalization_and_basics():
    g = AbelianGroup.from_spec("2,4")
    assert g.invariants == (2, 4)
    assert g.order == 8 and g.exponent == 4
    assert AbelianGroup((1, 3, 1)).invariants == (3,)
    assert AbelianGroup.from_spec("1").order == 1
    assert repr(g) == "AbelianGroup(Z2 x Z4)"


def test_group_arithmetic():
    g = AbelianGroup.from_spec("2,4")
    a, b = (1, 3), (1, 2)
    assert g.add(a, b) == (0, 1)
    assert g.neg(a) == (1, 1)
    assert g.add(a, g.neg(a)) == g.identity
    assert g.smul(3, a) == (1, 1)
    assert element_order(g, (1, 2)) == 2
    assert element_order(g, (0, 1)) == 4
    assert element_order(g, g.identity) == 1
    with pytest.raises(ValueError):
        g.check((2, 0))


def element_order(group, a):
    """Order of a group element: the lcm of its cyclic components' orders."""
    return math.lcm(*(d // math.gcd(x, d)
                      for x, d in zip(group.check(a), group.invariants)))


def order_scan(group):
    """Element scan: how many elements have each order."""
    return collections.Counter(element_order(group, a) for a in group.elements())


def test_order_statistics_partition_the_group():
    # 20,50 / 8,125 / 12,18 / 4,4,2 have exponents that are not squarefree
    for spec in ("2,4", "3,3", "6", "2,2,2", "15", "20,50", "8,125", "12,18",
                 "4,4,2", "1"):
        g = AbelianGroup.from_spec(spec)
        scanned = order_scan(g)
        counted = {d: g.n_of_order(d) for d in divisors(g.exponent)}
        assert sum(counted.values()) == g.order
        assert counted == {d: scanned[d] for d in counted}
        # orders that do not divide the exponent occur nowhere
        for d in range(1, 2 * g.exponent + 3):
            if g.exponent % d:
                assert g.n_of_order(d) == 0
        with pytest.raises(ValueError):
            g.n_of_order(0)


def test_multiplicative_order_and_divisors():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 1) == 1
    assert multiplicative_order(2, 5) == 4
    with pytest.raises(ValueError):
        multiplicative_order(2, 4)       # not coprime
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    with pytest.raises(ValueError):
        divisors(0)


def order_step_reference(base, mod):
    """Least t >= 1 with base^t = 1 (mod mod), by stepping t = 1, 2, ..."""
    t, acc = 1, base % mod
    while acc != 1 % mod:
        acc = acc * base % mod
        t += 1
    return t


def test_multiplicative_order_matches_stepping():
    for q in (2, 3, 4, 5, 8, 9, 16):
        for d in range(1, 2000):
            if math.gcd(q, d) == 1:
                assert multiplicative_order(q, d) == order_step_reference(q, d)


def test_divisors_match_trial_division():
    for n in range(1, 1500):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    assert divisors(2 ** 40) == [2 ** k for k in range(41)]


def test_multiplicative_order_of_a_twelve_digit_prime_modulus():
    mod = 999999999989
    start = time.perf_counter()
    t = multiplicative_order(2, mod)
    assert time.perf_counter() - start < 1.0
    assert pow(2, t, mod) == 1
    rest, primes, r = t, set(), 2
    while r * r <= rest:
        while rest % r == 0:
            primes.add(r)
            rest //= r
        r += 1
    primes.add(rest)
    for r in primes - {1}:
        assert pow(2, t // r, mod) != 1


def test_factoring_work_bound_refuses_quickly():
    # two primes just above 2^20: trial division cannot split the product;
    # nor can it certify the prime 10^18 + 3, which is refused as q too
    big = 1048583 * 1048589
    prime = 10 ** 18 + 3
    start = time.perf_counter()
    for call in (lambda: multiplicative_order(2, big), lambda: divisors(big),
                 lambda: decompose(2, 1, 1, AbelianGroup([big])),
                 lambda: factor_prime_power(prime),
                 lambda: count_esd(prime, 2), lambda: chain_ring(prime, 1)):
        with pytest.raises(ValueError, match="trial division"):
            call()
    assert time.perf_counter() - start < 3.0


# ---------------------------------------------------------------------------
# cyclotomic classes: the orbit-scan reference for the per-divisor records

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


def cyclotomic_class(group, q, a):
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


def cyclotomic_classes(group, q):
    """The orbit partition of the whole group, sorted by representative."""
    seen = set()
    out = []
    for a in sorted(group.elements()):
        if a in seen:
            continue
        cls = cyclotomic_class(group, q, a)
        seen.update(cls.members)
        out.append(cls)
    return out


def scan_grouped(p, m, group):
    """decompose's grouped_factors rebuilt from the orbit scan: classes with
    equal (order, degree, types) merged, sorted."""
    classes = cyclotomic_classes(group, p ** m)
    key = collections.Counter(
        (element_order(group, c.rep), m * c.size, c.euclidean_type(),
         c.hermitian_type() if m % 2 == 0 else None) for c in classes)
    return [(d, deg, mult, te, th)
            for (d, deg, te, th), mult in sorted(key.items())]

def test_classes_partition_z7_under_doubling():
    g = AbelianGroup.from_spec("7")
    classes = cyclotomic_classes(g, 2)
    members = [set(c.members) for c in classes]
    assert members == [{(0,)}, {(1,), (2,), (4,)}, {(3,), (5,), (6,)}]
    assert [c.euclidean_type() for c in classes] == ["I", "III", "III"]


def test_class_types_on_z5():
    g = AbelianGroup.from_spec("5")
    classes = cyclotomic_classes(g, 2)
    assert [sorted(c.members) for c in classes] == [
        [(0,)], [(1,), (2,), (3,), (4,)]]
    assert classes[1].euclidean_type() == "II"


def test_classes_cover_the_group_and_respect_orbit_sizes():
    for spec, q in [("2,4", 3), ("3,3", 2), ("15", 2), ("5", 4)]:
        g = AbelianGroup.from_spec(spec)
        classes = cyclotomic_classes(g, q)
        seen = set()
        for c in classes:
            assert c.rep == min(c.members)
            assert c.size == multiplicative_order(
                q, element_order(g, c.rep)) if c.rep != g.identity else True
            seen.update(c.members)
        assert seen == set(g.elements())


def test_hermitian_class_types_need_square_q():
    g = AbelianGroup.from_spec("2")
    classes = cyclotomic_classes(g, 9)
    assert [c.hermitian_type() for c in classes] == ["I'", "I'"]
    with pytest.raises(ValueError):
        cyclotomic_class(g, 3, (1,)).hermitian_type()


def test_type_three_classes_pair_up():
    for spec, q in [("7", 2), ("9", 2), ("15", 2), ("5", 3)]:
        g = AbelianGroup.from_spec(spec)
        classes = cyclotomic_classes(g, q)
        threes = [c for c in classes if c.euclidean_type() == "III"]
        assert len(threes) % 2 == 0
        for c in threes:
            negated = cyclotomic_class(g, q, g.neg(c.rep))
            assert negated.euclidean_type() == "III"
            assert set(negated.members) != set(c.members)
            assert negated.size == c.size


# ---------------------------------------------------------------------------
# good pairs

def test_good_pair_table_against_direct_scan():
    for j in range(1, 200):
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81):
            if math.gcd(j, q) != 1:
                continue
            assert is_good_pair(j, q) == order_scan_good(j, q)
            assert is_oddly_good_pair(j, q) == order_scan_oddly_good(j, q)
            # oddly good is strictly stronger
            if is_oddly_good_pair(j, q):
                assert is_good_pair(j, q)


def test_good_pair_examples():
    assert is_good_pair(2, 3)
    assert is_oddly_good_pair(2, 3)
    assert not is_good_pair(8, 3)
    assert is_good_pair(5, 3)
    assert not is_oddly_good_pair(5, 3)    # 3^2 = -1 mod 5 needs an even power


# ---------------------------------------------------------------------------
# decomposition reports

def test_decompose_two_cubes_of_three():
    rep = decompose(3, 1, 1, AbelianGroup.from_spec("2"))
    assert rep.depth == 3
    rings = rep.factor_rings()
    assert rings == [chain_ring(3, 3), chain_ring(3, 3)]
    assert rep.count_euclidean_types() == (2, 0, 0)


def test_decompose_z7_times_z2_over_gf2():
    rep = decompose(2, 1, 1, AbelianGroup.from_spec("7"))
    grouped = rep.grouped_factors()
    assert grouped == [(1, 1, 1, "I", None), (7, 3, 2, "III", None)]
    assert [r.field.q for r in rep.factor_rings()] == [2, 8, 8]
    assert all(r.e == 2 for r in rep.factor_rings())
    assert "divisor" in rep.to_text()
    assert rep.to_json()["factors"][0]["multiplicity"] == 1


def test_decompose_validates_arguments():
    with pytest.raises(ValueError):
        decompose(4, 1, 1, AbelianGroup.from_spec("3"))
    with pytest.raises(ValueError):
        decompose(3, 1, 1, AbelianGroup.from_spec("6"))
    with pytest.raises(ValueError):
        decompose(3, 0, 1, AbelianGroup.from_spec("2"))


def test_depth_and_report_sizes_are_refused_before_they_are_built():
    trivial = AbelianGroup.from_spec("1")
    assert decompose(2, 1, 16, trivial).depth == 2 ** 16
    for p, s in [(2, 17), (2, 20000), (3, 11), (257, 2), (65537, 1)]:
        with pytest.raises(ValueError, match="u-depth"):
            decompose(p, 1, s, trivial)
    with pytest.raises(ValueError, match="u-depth"):
        count_qa(2, 1, 10 ** 12, trivial, 1)
    # ord_100000007(2) = 50000003: the factor field 2^50000003 has millions
    # of digits, so the report refuses it while the decomposition stands
    rep = decompose(2, 1, 1, AbelianGroup.from_spec("100000007"))
    assert rep.factors[-1].degree == 50000003
    for report in (rep.to_text, rep.to_json):
        with pytest.raises(ValueError, match="field order"):
            report()
    # 2^14284 has 4300 digits and prints; 2^14285 has 4301
    assert decompose(2, 14284, 1, trivial).to_text().startswith(
        f"GF({2 ** 14284})[A x Z2]")
    for report in (decompose(2, 14285, 1, trivial).to_text,
                   decompose(3, 9013, 1, trivial).to_json):
        with pytest.raises(ValueError, match="field order"):
            report()
    assert decompose(3, 9012, 1, trivial).to_json()["factors"][0][
        "field_order"] == 3 ** 9012


def test_decomposition_dimensions_add_up():
    for p, m, spec in [(2, 1, "7"), (2, 2, "3,3"), (3, 1, "2,4"), (5, 1, "6")]:
        g = AbelianGroup.from_spec(spec)
        rep = decompose(p, m, 1, g)
        assert sum(f.degree * f.multiplicity for f in rep.factors) == m * g.order
        assert rep.count_euclidean_types()[2] % 2 == 0


# 20,50 / 8,125 / 12,18 / 4,4,2 / 9,27 have exponents that are not squarefree
SCAN_CASES = [
    (2, 1, "7"), (2, 1, "9"), (2, 1, "15"), (2, 1, "21"), (2, 1, "7,9"),
    (2, 1, "3,5,7"), (2, 1, "125"), (2, 1, "9,27"), (2, 2, "3,3"),
    (2, 2, "15"), (2, 2, "5,5"), (2, 4, "17"), (2, 2, "45"), (2, 3, "7,7"),
    (3, 1, "2,4"), (3, 1, "8"), (3, 1, "20,50"), (3, 1, "8,125"),
    (3, 2, "2"), (3, 2, "20,50"), (3, 2, "5"), (3, 2, "4,4,2"), (3, 4, "10"),
    (3, 1, "1"), (5, 1, "6"), (5, 2, "12,18"), (5, 4, "6"), (5, 1, "12,18"),
    (7, 1, "8,12"), (7, 2, "8,12"), (7, 2, "20"), (11, 2, "3,5"),
    (13, 1, "21"), (2, 6, "9,7"), (2, 1, "5,5"), (3, 1, "16"), (5, 1, "4,4"),
    (3, 2, "8"),
]


@pytest.mark.parametrize("p,m,spec", SCAN_CASES, ids=str)
def test_decompose_matches_orbit_scan(p, m, spec):
    g = AbelianGroup.from_spec(spec)
    rep = decompose(p, m, 1, g)
    classes = cyclotomic_classes(g, p ** m)
    assert rep.grouped_factors() == scan_grouped(p, m, g)
    types = [c.euclidean_type() for c in classes]
    assert rep.count_euclidean_types() == (
        types.count("I"), types.count("II"), types.count("III"))
    if m % 2 == 0:
        htypes = [c.hermitian_type() for c in classes]
        assert rep.count_hermitian_types() == (
            htypes.count("I'"), htypes.count("II'"))
    scanned = collections.Counter(p ** (m * c.size) for c in classes)
    if max(scanned) <= DEFAULT_MAX_ORDER:
        rings = rep.factor_rings()
        assert collections.Counter(r.field.q for r in rings) == scanned
        assert all(r.e == p for r in rings)
    else:
        with pytest.raises(ValueError):
            rep.factor_rings()


def test_decompose_large_group_without_element_scan():
    rep = decompose(2, 1, 1, AbelianGroup.from_spec("999,1001"))
    assert sum(f.multiplicity for f in rep.factors) == 7743
    assert sum(f.degree * f.multiplicity for f in rep.factors) == 999999
    assert [f.divisor for f in rep.factors] == divisors(999999)


def test_decompose_never_builds_the_field_order():
    """Only p^m mod d enters: m = 10^30 splits at once, into the factors
    of m = 4 with the degrees scaled, as 2^m and 2^(m/2) mod 3 depend on
    m mod 4 alone."""
    start = time.perf_counter()
    huge = decompose(2, 10 ** 30, 1, AbelianGroup([3]))
    assert time.perf_counter() - start < 1
    small = decompose(2, 4, 1, AbelianGroup([3]))
    assert [(f.divisor, f.degree // 10 ** 30, f.multiplicity, f.euclidean_type,
             f.hermitian_type) for f in huge.factors] == [
        (f.divisor, f.degree // 4, f.multiplicity, f.euclidean_type,
         f.hermitian_type) for f in small.factors]


def test_count_qa_refuses_a_factor_field_order_over_the_bit_cap():
    with pytest.raises(ValueError, match="factor field order 3\\^100000000000"):
        count_qa(3, 10 ** 11, 1, AbelianGroup(()), 1)
    # 2^100000 is under the cap: the chain ring R(2^100000, 2) has 3 codes
    # of length 1, and counting them factors 2^100000 in O(log) divisions
    start = time.perf_counter()
    assert count_qa(2, 100000, 1, AbelianGroup(()), 1) == 3
    assert time.perf_counter() - start < 1


def test_count_qa_takes_factor_field_orders_unfactored():
    """A factor field order p^degree is a prime power by construction, so
    the counts never factor it: 65521^16000 has 256,000 bits, and trial
    division took 2.1 s of the 2.2 s this count took when it was factored."""
    start = time.perf_counter()
    assert count_qa(65521, 16000, 1, AbelianGroup(()), 1) == 65522
    assert time.perf_counter() - start < 0.3


def test_hermitian_type_counts_need_even_degree():
    rep = decompose(3, 1, 1, AbelianGroup.from_spec("2"))
    with pytest.raises(ValueError):
        rep.count_hermitian_types()
    rep2 = decompose(3, 2, 1, AbelianGroup.from_spec("2"))
    assert rep2.count_hermitian_types() == (2, 0)


# ---------------------------------------------------------------------------
# group algebra arithmetic

def test_group_algebra_ring_identities():
    g = AbelianGroup.from_spec("2")
    f = field_make(2, 1)
    one = GroupAlgebraElement.one(g, f)
    y = GroupAlgebraElement.monomial(g, f, (1,))
    # (1 + Y)^2 = 1 + Y^2 = 0 in characteristic 2 with Y^2 = 1
    nil = one + y
    assert nil * nil == GroupAlgebraElement.zero(g, f)
    assert y * y == one
    assert (one + y).support == ((0,), (1,))


def test_group_algebra_axioms_on_sample():
    g = AbelianGroup.from_spec("2,2")
    f = field_make(3, 1)
    els = list(algebra_elements(g, f))
    assert len(els) == 3 ** 4
    sample = els[:: 9]
    one = GroupAlgebraElement.one(g, f)
    for a in sample:
        assert a * one == a
        assert a + GroupAlgebraElement.zero(g, f) == a
        for b in sample:
            assert a * b == b * a
            assert a + b == b + a
    a, b, c = els[5], els[23], els[61]
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_group_algebra_shift_and_scale():
    g = AbelianGroup.from_spec("4")
    f = field_make(5, 1)
    x = GroupAlgebraElement(g, f, {(0,): 1, (2,): 3})
    assert x.shift((1,)) == GroupAlgebraElement(g, f, {(1,): 1, (3,): 3})
    assert x.scale(2) == GroupAlgebraElement(g, f, {(0,): 2, (2,): 1})
    assert x.shift((1,)) == x * GroupAlgebraElement.monomial(g, f, (1,))


@pytest.mark.parametrize("orders", [[2.9], ["3"], [3.0], [True, 2]])
def test_group_orders_are_exact_ints(orders):
    """No order is coerced: 2.9 is not Z2 and "3" is not Z3."""
    with pytest.raises(ValueError, match="cyclic orders must be ints"):
        AbelianGroup(orders)


@pytest.mark.parametrize("element", [(1.0,), (True,), ("1",)])
def test_group_elements_are_exact_ints(element):
    with pytest.raises(ValueError, match="out of range"):
        AbelianGroup([3]).check(element)


def test_a_float_group_element_is_refused_before_the_chain_ring_map():
    """A float exponent used to pass the group check and end in a
    TypeError inside cyclic_to_chain."""
    with pytest.raises(ValueError, match="out of range"):
        cyclic_to_chain(chain_ring(3, 3), GroupAlgebraElement(
            AbelianGroup([3]), field_make(3, 1), {(1.0,): 2}))


@pytest.mark.parametrize("flag", [True, False])
def test_group_algebra_refuses_bool_coefficients(flag):
    g = AbelianGroup.from_spec("4")
    f = field_make(5, 1)
    with pytest.raises(ValueError):
        GroupAlgebraElement(g, f, {(0,): flag})
    with pytest.raises(ValueError):
        GroupAlgebraElement.monomial(g, f, (1,), flag)


def test_group_algebra_rejects_mixed_parents():
    f = field_make(2, 1)
    a = GroupAlgebraElement.one(AbelianGroup.from_spec("2"), f)
    b = GroupAlgebraElement.one(AbelianGroup.from_spec("3"), f)
    with pytest.raises(ValueError):
        a + b


# ---------------------------------------------------------------------------
# subgroups and coset components

def test_subgroup_closure_and_cosets():
    g = AbelianGroup.from_spec("2,4")
    sub = subgroup_closure(g, [(0, 2)])
    assert set(sub) == {(0, 0), (0, 2)}
    reps = coset_representatives(g, sub)
    assert len(reps) == 4
    covered = {g.add(r, s) for r in reps for s in sub}
    assert covered == set(g.elements())


def test_coset_split_components_live_on_the_subgroup():
    g = AbelianGroup.from_spec("2,3")
    f = field_make(2, 2)
    sub = subgroup_closure(g, [(0, 1)])        # {0} x Z3
    x = GroupAlgebraElement(g, f, {(0, 0): 1, (0, 2): 2, (1, 1): 3})
    parts = coset_split(g, sub, x)
    assert len(parts) == 2                     # index of the subgroup
    for part in parts:
        assert all(gg in sub for gg in part.support)
    assert coset_join(g, sub, parts) == x


@given(seed=integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=MAX_EXAMPLES)
def test_coset_split_is_linear_and_invertible(seed):
    import random
    rng = random.Random(seed)
    g = AbelianGroup.from_spec("2,3")
    f = field_make(2, 2)
    sub = subgroup_closure(g, [(0, 1)])

    def rand_el():
        return GroupAlgebraElement(
            g, f, {a: rng.randrange(4) for a in g.elements()})

    x, y = rand_el(), rand_el()
    sx, sy, sxy = (coset_split(g, sub, z) for z in (x, y, x + y))
    assert all(a + b == c for a, b, c in zip(sx, sy, sxy))
    assert coset_join(g, sub, sx) == x


def test_coset_split_respects_subalgebra_multiplication():
    g = AbelianGroup.from_spec("2,3")
    f = field_make(2, 1)
    sub = subgroup_closure(g, [(0, 1)])
    h = GroupAlgebraElement(g, f, {(0, 0): 1, (0, 2): 1})   # supported in sub
    x = GroupAlgebraElement(g, f, {(0, 1): 1, (1, 0): 1, (1, 2): 1})
    lhs = coset_split(g, sub, h * x)
    rhs = [h * part for part in coset_split(g, sub, x)]
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the cyclic-to-chain isomorphism

def test_cyclic_iso_literal_example():
    g = AbelianGroup.from_spec("3")
    f = field_make(3, 1)
    ring = chain_ring(3, 3)
    x = GroupAlgebraElement(g, f, {(0,): 1, (1,): 1, (2,): 1})
    image = cyclic_to_chain(ring, x)
    assert image.code == ring.mul(ring.u, ring.u)        # 1 + Y + Y^2 -> u^2
    y = GroupAlgebraElement.monomial(g, f, (1,))
    assert cyclic_to_chain(ring, y).code == ring.add(1, ring.u)


def test_cyclic_iso_is_a_bijective_ring_map():
    g = AbelianGroup.from_spec("3")
    f = field_make(3, 1)
    ring = chain_ring(3, 3)
    els = list(algebra_elements(g, f))
    images = {cyclic_to_chain(ring, x).code for x in els}
    assert len(images) == 27
    for x in els:
        for y in els:
            assert cyclic_to_chain(ring, x + y).code == ring.add(
                cyclic_to_chain(ring, x).code, cyclic_to_chain(ring, y).code)
            assert cyclic_to_chain(ring, x * y).code == ring.mul(
                cyclic_to_chain(ring, x).code, cyclic_to_chain(ring, y).code)


def test_cyclic_iso_roundtrip_both_ways():
    g = AbelianGroup.from_spec("4")
    f = field_make(2, 2)
    ring = ChainRing(f, 4)
    for x in itertools.islice(algebra_elements(g, f), 0, 256, 7):
        assert chain_to_cyclic(ring, g, cyclic_to_chain(ring, x).code) == x
    for code in range(0, ring.size, 11):
        assert cyclic_to_chain(ring, chain_to_cyclic(ring, g, code)).code == code


def test_cyclic_iso_deep_chain_roundtrip():
    g = AbelianGroup.from_spec("9")
    f = field_make(3, 1)
    ring = ChainRing(f, 9)
    for code in (0, 1, 5000, 19682, 12345):
        assert cyclic_to_chain(ring, chain_to_cyclic(ring, g, code)).code == code


def test_cyclic_iso_rejects_mismatched_shapes():
    ring = chain_ring(3, 3)
    g = AbelianGroup.from_spec("2")
    f = field_make(3, 1)
    with pytest.raises(ValueError):
        cyclic_to_chain(ring, GroupAlgebraElement.one(g, f))
    with pytest.raises(ValueError):
        chain_to_cyclic(ring, g, 1)


def test_cyclic_to_chain_returns_a_code_record():
    """The image is a frozen (ring, code) record; chain_to_cyclic takes the
    code alone."""
    ring = chain_ring(3, 3)
    g = AbelianGroup.from_spec("3")
    image = cyclic_to_chain(ring, GroupAlgebraElement.monomial(g, field_make(3, 1), (1,)))
    assert image == ChainRingElement(ring, ring.add(1, ring.u))
    with pytest.raises(FrozenInstanceError):
        image.code = 0
    with pytest.raises(ValueError, match="not an element code"):
        chain_to_cyclic(ring, g, image)


# ---------------------------------------------------------------------------
# quasi-abelian counts

def test_count_qa_known_values():
    z2 = AbelianGroup.from_spec("2")
    triv = AbelianGroup.from_spec("1")
    assert count_qa(3, 1, 1, z2, 1) == 16
    assert count_qa(3, 1, 1, triv, 2) == 76
    assert count_qa(3, 1, 1, z2, 2) == 76 ** 2
    # Z4 splits as GF(3) x GF(3) x GF(9) factors; length 1 sees 4 ideals each
    assert count_qa(3, 1, 1, AbelianGroup.from_spec("4"), 1) == 64


def test_count_qa_matches_factorwise_census():
    z2 = AbelianGroup.from_spec("2")
    rep = decompose(3, 1, 1, z2)
    sizes = [enumerate_submodules(r, 1).size for r in rep.factor_rings()]
    assert count_qa(3, 1, 1, z2, 1) == math.prod(sizes) == 16


@pytest.mark.parametrize("m,s,spec,n,expected", [
    (1, 1, "7", 1, 27),     # GF(2) + 2 GF(8) factors at depth 2, 3 ideals each
    (1, 1, "3", 2, 495),    # R(2,2)^2 and R(4,2)^2: 15 * 33 codes
    (1, 2, "3", 1, 25),     # GF(2) and GF(4) factors at depth 4, 5 ideals each
])
def test_count_qa_at_other_depths_matches_factor_censuses(m, s, spec, n, expected):
    group = AbelianGroup.from_spec(spec)
    sizes = [enumerate_submodules(r, n).size
             for r in decompose(2, m, s, group).factor_rings()]
    assert count_qa(2, m, s, group, n) == math.prod(sizes) == expected


def test_count_qa_esd_known_values():
    z2 = AbelianGroup.from_spec("2")
    triv = AbelianGroup.from_spec("1")
    assert count_qa_esd(3, 1, 1, triv, 4) == 176
    assert count_qa_esd(3, 1, 1, z2, 4) == 176 ** 2 == 30976
    for n in (1, 3, 5):
        assert count_qa_esd(3, 1, 1, z2, n) == 0


def test_count_qa_esd_splits_by_divisor_type():
    # Z8 over GF(3) mixes all three branches: divisors 1 and 2 pair with
    # themselves pointwise, 4 pairs through the quadratic extension, and 8
    # is not good so its two orbits merge into plain linear counts
    z8 = AbelianGroup.from_spec("8")
    got = count_qa_esd(3, 1, 1, z8, 4)
    assert got == count_esd(3, 4) ** 2 * count_hsd(9, 4) * count_linear(9, 3, 4)


def test_count_qa_hsd_known_values():
    z2 = AbelianGroup.from_spec("2")
    triv = AbelianGroup.from_spec("1")
    assert count_qa_hsd(3, 2, 1, triv, 2) == 40
    assert count_qa_hsd(3, 2, 1, z2, 2) == 40 ** 2 == 1600
    for n in (1, 3, 5):
        assert count_qa_hsd(3, 2, 1, z2, n) == 0
    with pytest.raises(ValueError):
        count_qa_hsd(3, 1, 1, z2, 2)      # odd field degree


def test_count_qa_hsd_splits_by_divisor_type():
    # over GF(9) the divisor 5 is not oddly good at 3, so its orbits merge
    # pairwise into linear counts over the quadratic extension
    z5 = AbelianGroup.from_spec("5")
    got = count_qa_hsd(3, 2, 1, z5, 2)
    assert got == count_hsd(9, 2) * count_linear(81, 3, 2)


def test_count_qa_gates_unproven_depths():
    # the self-dual closed forms hold at depth 3 only
    z2 = AbelianGroup.from_spec("2")
    with pytest.raises(ValueError, match="depth 3 only, got depth 4"):
        count_qa_esd(2, 1, 2, z2, 2)
    with pytest.raises(ValueError, match="depth 3 only, got depth 4"):
        count_qa_hsd(2, 2, 2, z2, 2)
    with pytest.raises(ValueError, match="depth 3 only, got depth 2"):
        count_qa_esd(2, 1, 1, AbelianGroup.from_spec("7"), 2)


@pytest.mark.parametrize("count,m,spec,n", [
    (count_qa, 1, ",".join(["2"] * 10), 150),     # 1,024 factors of 26.7 k bits
    (count_qa_esd, 1, ",".join(["2"] * 10), 200),
    (count_qa_hsd, 2, "2,2,2,2,2", 400),
])
def test_count_qa_over_the_bit_cap_is_refused_at_once(count, m, spec, n):
    """The factors' estimates, times their multiplicities, add up over the
    cap before any factor is counted."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"over the cap of {COUNT_BITS_CAP} bits"):
        count(3, m, 1, AbelianGroup.from_spec(spec), n)
    assert time.perf_counter() - start < 1


def test_count_qa_estimate_is_the_sum_of_the_factor_estimates():
    # the benchmark's largest qa count, over F_3[A x Z_3] with
    # A = Z_125 x Z_128, stays inside the cap
    group = AbelianGroup.from_spec("125,128")
    value = count_qa(3, 1, 1, group, 2)
    estimate = sum(f.multiplicity * f.degree * linear_exponent(3, 2)
                   for f in decompose(3, 1, 1, group).factors) * math.log2(3)
    assert estimate <= value.bit_length() == 76084 <= COUNT_BITS_CAP
    # a self-dual factor that is 0 by its length alone makes the count 0,
    # however large the other factors are
    assert self_dual_exponent(3, 2, "esd") is None
    assert count_qa_esd(3, 1, 1, AbelianGroup.from_spec(",".join(["2"] * 10)),
                        10 ** 6 + 2) == 0


def qa_product_reference(p, m, s, group, n, kind):
    """The per-factor product: every divisor record's count taken by the
    public closed forms, raised to its power and multiplied in one at a
    time.  kind is None, "euclidean_type" or "hermitian_type"."""
    e = p ** s
    total = 1
    for f in decompose(p, m, s, group).factors:
        label = getattr(f, kind) if kind else None
        qf = p ** f.degree
        if label in ("III", "II'"):
            total *= count_linear(qf, e, n) ** (f.multiplicity // 2)
        elif label is None:
            total *= count_linear(qf, e, n) ** f.multiplicity
        elif label == "I":
            total *= count_esd(qf, n) ** f.multiplicity
        else:
            total *= count_hsd(qf, n) ** f.multiplicity
    return total


def check_against_reference(p, m, spec, lengths):
    group = AbelianGroup.from_spec(spec)
    for n in lengths:
        assert count_qa(p, m, 1, group, n) == qa_product_reference(
            p, m, 1, group, n, None), n
        if p == 3:
            assert count_qa_esd(3, m, 1, group, n) == qa_product_reference(
                3, m, 1, group, n, "euclidean_type"), n
            if m % 2 == 0:
                assert count_qa_hsd(3, m, 1, group, n) == qa_product_reference(
                    3, m, 1, group, n, "hermitian_type"), n


@pytest.mark.parametrize("p,m,spec", SCAN_CASES, ids=str)
def test_counts_match_the_per_factor_product(p, m, spec):
    check_against_reference(p, m, spec, (1, 2, 4))


# the benchmark's groups; length 4 is over the cap on the two large ones
@pytest.mark.parametrize("spec,lengths", [
    ("1000", (1, 2, 4)), ("10,100", (1, 2, 4)), ("8,125", (1, 2, 4)),
    ("2,500", (1, 2, 4)), ("20,50", (1, 2, 4)), ("16,625", (1, 2)),
    ("125,128", (1, 2))])
@pytest.mark.parametrize("m", [1, 2])
def test_benchmark_group_counts_match_the_per_factor_product(spec, lengths, m):
    check_against_reference(3, m, spec, lengths)


@pytest.fixture
def core_calls(monkeypatch):
    """Counts the calls of the three count cores."""
    calls = collections.Counter()
    for name in ("_count_linear", "_count_esd", "_count_hsd"):
        def counted(*args, name=name, core=getattr(counting, name)):
            calls[name] += 1
            return core(*args)
        monkeypatch.setattr(counting, name, counted)
    return calls


def test_count_qa_counts_each_distinct_factor_ring_once(core_calls):
    group = AbelianGroup.from_spec("125,128")
    factors = decompose(3, 1, 1, group).factors
    assert (len(factors), len({f.degree for f in factors})) == (32, 14)
    count_qa(3, 1, 1, group, 2)
    assert core_calls == {"_count_linear": 14}
    # Z2 splits GF(3)[Z2 x Z3] into two copies of R(3,3)
    expected = count_esd(3, 100) ** 2
    core_calls.clear()
    assert count_qa_esd(3, 1, 1, AbelianGroup.from_spec("2"), 100) == expected
    assert core_calls == {"_count_esd": 1}
