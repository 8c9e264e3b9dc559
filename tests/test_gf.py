"""Tests for the finite-field layer."""
import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers, lists, sampled_from

from chaincodes import gf
from chaincodes.gf import (
    Field,
    _pmul,
    _prem,
    canonical_modulus,
    digit_add,
    digit_neg,
    digit_sub,
    factor_prime_power,
    factorize,
    field_make,
    is_irreducible,
    is_prime,
)

MAX_EXAMPLES = 200

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49]
SQUARE_ORDERS = [4, 9, 16, 25, 49]
# every field with eager tables: m > 1 and q <= 128
TABLE_ORDERS = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]


def poly_mul_mod_p(a, b, p):
    """Schoolbook product of coefficient tuples (constant term first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def irreducible_by_factor_scan(coeffs, p):
    """Independent oracle: no monic factor pair multiplies back to coeffs."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] != 1 or (deg > 1 and coeffs[0] == 0):
        return False
    for d in range(1, deg // 2 + 1):
        for low_a in itertools.product(range(p), repeat=d):
            a = low_a + (1,)
            for low_b in itertools.product(range(p), repeat=deg - d):
                b = low_b + (1,)
                if poly_mul_mod_p(a, b, p) == tuple(coeffs):
                    return False
    return True


# ---------------------------------------------------------------------------
# primes, prime powers, moduli

def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-1, 50):
        assert is_prime(n) == (n in primes)


def test_factorize_matches_brute_reading():
    for n in range(1, 2000):
        primes = factorize(n)
        assert math.prod(p ** k for p, k in primes.items()) == n
        for p, k in primes.items():
            assert k >= 1 and is_prime(p)
            assert all(p % d for d in range(2, math.isqrt(p) + 1))
        assert is_prime(n) == (primes == {n: 1} and n > 1)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_strips_a_prime_power_in_logarithmic_divisions():
    start = time.perf_counter()
    assert factorize(3 ** 200000) == {3: 200000}
    assert time.perf_counter() - start < 1
    for k in range(1, 70):
        assert factorize(2 ** k * 3 ** (k // 2) * 7) == {
            2: k, **({3: k // 2} if k > 1 else {}), 7: 1}


def test_factoring_certifies_primes_below_its_bound():
    # trial division up to 2^20 settles every number below 2^40
    assert factor_prime_power(1000000000039) == (1000000000039, 1)
    assert factor_prime_power(1048573 ** 2) == (1048573, 2)
    with pytest.raises(ValueError, match="trial division"):
        is_prime(1048583 * 1048589)


def test_factor_prime_power_roundtrip():
    for p in (2, 3, 5, 7, 11):
        for m in range(1, 6):
            assert factor_prime_power(p ** m) == (p, m)


@pytest.mark.parametrize("bad", [0, 1, 6, 10, 12, 15, 36, 100])
def test_factor_prime_power_rejects_composites(bad):
    with pytest.raises(ValueError):
        factor_prime_power(bad)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (5, 2), (7, 2)])
def test_canonical_modulus_is_first_irreducible(p, m):
    got = canonical_modulus(p, m)
    assert irreducible_by_factor_scan(got, p)
    # first monic irreducible in lexicographic coefficient order
    for low in itertools.product(range(p), repeat=m):
        cand = low + (1,)
        if irreducible_by_factor_scan(cand, p):
            assert cand == got
            break
        assert not is_irreducible(cand, p)


def test_canonical_modulus_known_values():
    assert canonical_modulus(2, 2) == (1, 1, 1)
    assert canonical_modulus(3, 2) == (1, 0, 1)


def test_is_irreducible_agrees_with_factor_scan():
    for p in (2, 3):
        for deg in (1, 2, 3, 4):
            for low in itertools.product(range(p), repeat=deg):
                cand = low + (1,)
                assert is_irreducible(cand, p) == \
                    irreducible_by_factor_scan(cand, p)


def test_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        Field(2, 2, (0, 0, 1))        # x^2 factors
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1))           # wrong degree
    with pytest.raises(ValueError):
        Field(4, 1)                   # not prime
    with pytest.raises(ValueError):
        field_make(2, 30)             # exceeds default order bound


@pytest.mark.parametrize("modulus", [
    (5, 4, 1), (2.9, 1, 1), (2, 1, 1.0), (2, True, 1), (-1, 1, 1), ("2", 1, 1),
])
def test_field_refuses_a_modulus_it_would_coerce(modulus):
    """Each of these reduces to the irreducible x^2 + x + 2, yet an explicit
    modulus is taken as given: only ints in range(p).  field_make refuses
    it with GF(9) over x^2 + x + 2 already cached (1.0 and True compare
    equal to 1), and caches nothing new."""
    assert field_make(3, 2, (2, 1, 1)).modulus == (2, 1, 1)
    cached = gf._cached_field.cache_info().currsize
    with pytest.raises(ValueError, match="range"):
        Field(3, 2, list(modulus))
    with pytest.raises(ValueError, match="range"):
        field_make(3, 2, modulus)
    assert gf._cached_field.cache_info().currsize == cached


# ---------------------------------------------------------------------------
# arithmetic

def test_gf4_multiplication_table():
    f = field_make(2, 2)
    x = f.encode((0, 1))
    assert f.mul(x, x) == f.encode((1, 1))       # x^2 = x + 1
    assert f.mul(x, f.encode((1, 1))) == 1       # x * (x + 1) = 1
    assert f.inv(x) == f.encode((1, 1))


def test_gf9_squares():
    f = field_make(3, 2)
    x = f.encode((0, 1))
    assert f.mul(x, x) == f.neg(1)               # x^2 = -1 under x^2 + 1
    assert f.pow(x, 4) == 1


@pytest.mark.parametrize("q", TABLE_ORDERS)
def test_tables_match_polynomial_arithmetic(q):
    p, m = factor_prime_power(q)
    f = field_make(p, m)
    polys = [f.decode(a) for a in range(q)]
    for a in range(q):
        assert f._mul_table[a] == [
            f.encode(_prem(_pmul(polys[a], pb, p), f.modulus, p)) for pb in polys]
    assert f._inv_table[0] == 0
    assert all(f._mul_table[a][f._inv_table[a]] == 1 for a in range(1, q))


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 125])
def test_table_fields_add_subtract_and_negate_as_the_digit_loops(q, monkeypatch):
    """Extension fields with a mul table add, subtract and negate by
    lookup, with no digit loop, on every pair."""
    p, m = factor_prime_power(q)
    f = field_make(p, m)
    els = range(q)
    expected = ([[digit_add(a, b, p) for b in els] for a in els],
                [[digit_sub(a, b, p) for b in els] for a in els],
                [digit_neg(a, p) for a in els])

    def refuse(*args):
        raise AssertionError("digit loop on a table field")
    for name in ("digit_add", "digit_sub", "digit_neg"):
        monkeypatch.setattr(gf, name, refuse)
    assert ([[f.add(a, b) for b in els] for a in els],
            [[f.sub(a, b) for b in els] for a in els],
            [f.neg(a) for a in els]) == expected


def test_tables_are_eager_exactly_on_small_extensions():
    orders = sorted(p ** m for p in (2, 3, 5, 7, 11, 13) for m in range(1, 9)
                    if p ** m <= 256)
    eager = [q for q in orders if Field(*factor_prime_power(q))._mul_table]
    assert eager == TABLE_ORDERS


def test_table_build_makes_one_slow_product_per_pair_of_digits(monkeypatch):
    calls = []
    slow = Field._mul_slow

    def counted(field, a, b):
        calls.append((a, b))
        return slow(field, a, b)
    monkeypatch.setattr(Field, "_mul_slow", counted)
    Field(2, 7)
    units = [2 ** k for k in range(7)]
    assert sorted(calls) == [(a, b) for a in units for b in units]


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_field_axioms_exhaustive(q):
    p, m = factor_prime_power(q)
    f = field_make(p, m)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # spot-check associativity and distributivity on a deterministic slice
    sample = els[:: max(1, len(els) // 8)]
    for a in sample:
        for b in sample:
            assert f.add(a, b) == f.add(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            assert f.mul(a, b) == f.mul(b, a)
            for c in sample:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49])
def test_frobenius_is_additive(q):
    p, m = factor_prime_power(q)
    f = field_make(p, m)
    for a in f.elements():
        for b in f.elements():
            assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


DIGITS = lists(integers(min_value=0, max_value=6), max_size=12)


@given(p=sampled_from([2, 3, 5, 7]), da=DIGITS, db=DIGITS)
@settings(deadline=None, max_examples=MAX_EXAMPLES)
def test_digit_core_matches_per_digit_reference(p, da, db):
    da = [d % p for d in da]
    db = [d % p for d in db]
    width = max(len(da), len(db))
    da += [0] * (width - len(da))
    db += [0] * (width - len(db))

    def number(digits):
        return sum(d * p ** i for i, d in enumerate(digits))

    a, b = number(da), number(db)
    assert digit_add(a, b, p) == number([(x + y) % p for x, y in zip(da, db)])
    assert digit_sub(a, b, p) == number([(x - y) % p for x, y in zip(da, db)])
    assert digit_neg(a, p) == number([-x % p for x in da])


@given(a=integers(min_value=0, max_value=48), k=integers(min_value=0, max_value=60))
@settings(deadline=None, max_examples=MAX_EXAMPLES)
def test_pow_matches_repeated_multiplication(a, k):
    f = field_make(7, 2)
    acc = 1
    for _ in range(k):
        acc = f.mul(acc, a)
    assert f.pow(a, k) == acc


def test_encode_decode_roundtrip():
    f = field_make(3, 3)
    for a in f.elements():
        assert f.encode(f.decode(a)) == a
    assert f.decode(f.encode((2, 1))) == (2, 1, 0)


@pytest.mark.parametrize("coeffs", [
    [2.9], [1.0], ["1"], [True], [False], [None], [2], [-1], [1, 3],
])
def test_encode_refuses_coefficients_it_would_coerce(coeffs):
    """Only ints in range(p) are coefficients: 2.9 is not truncated to 2,
    2 is not reduced to 0 over GF(2), and a bool is not an int here."""
    f = field_make(2, 2)
    with pytest.raises(ValueError, match="is not a coefficient in range"):
        f.encode(coeffs)


def test_field_make_is_one_bounded_cache_keyed_by_modulus():
    assert field_make(3, 2) is field_make(3, 2)
    other = field_make(3, 2, (2, 1, 1))
    assert other is field_make(3, 2, (2, 1, 1))
    assert other.modulus == (2, 1, 1) and other != field_make(3, 2)
    cache = gf._cached_field       # behind field_make's modulus check
    assert cache.cache_info().maxsize is not None
    misses = cache.cache_info().misses
    for _ in range(2):          # a construction that raises is not cached
        with pytest.raises(ValueError, match="not irreducible"):
            field_make(2, 2, (0, 0, 1))
    assert cache.cache_info().misses == misses + 2


# ---------------------------------------------------------------------------
# conjugation and trace down to the index-2 subfield

@pytest.mark.parametrize("q", SQUARE_ORDERS)
def test_conjugation_is_an_involution_fixing_the_subfield(q):
    p, m = factor_prime_power(q)
    f = field_make(p, m)
    assert f.has_conjugation
    r = f.sqrt_q
    for a in f.elements():
        assert f.conjugate(f.conjugate(a)) == a
        assert (f.conjugate(a) == a) == f.in_subfield(a)
        assert f.conjugate(a) == f.pow(a, r)
    assert sum(f.in_subfield(a) for a in f.elements()) == r


@pytest.mark.parametrize("q", SQUARE_ORDERS)
def test_conjugation_is_a_field_automorphism(q):
    p, m = factor_prime_power(q)
    f = field_make(p, m)
    for a in f.elements():
        for b in f.elements():
            assert f.conjugate(f.add(a, b)) == f.add(f.conjugate(a), f.conjugate(b))
            assert f.conjugate(f.mul(a, b)) == f.mul(f.conjugate(a), f.conjugate(b))


def test_conjugation_refused_on_odd_degree():
    f = field_make(2, 3)
    assert not f.has_conjugation
    with pytest.raises(ValueError):
        f.conjugate(1)


@pytest.mark.parametrize("q,tabled", [(4, True), (9, True), (16, True),
                                      (25, True), (2 ** 14, False)])
def test_conjugation_reads_its_table_first(q, tabled):
    """Up to q = 4096 the first call tables every conjugate and later calls
    read the table; GF(2^14) computes each power (checked on every 61st
    element).  Either way conjugation is x -> x^sqrt(q) and an involution,
    and GF(8) is refused on every call, not only the first."""
    f = field_make(*factor_prime_power(q))
    r = f.sqrt_q
    for a in range(0, q, 1 if tabled else 61):
        assert f.conjugate(a) == f.pow(a, r)
        assert f.conjugate(f.conjugate(a)) == a
    assert (f._conj_table is not None) == tabled
    odd = field_make(2, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="not a quadratic extension"):
            odd.conjugate(1)
    assert odd._conj_table is None


@pytest.mark.parametrize("q", SQUARE_ORDERS)
def test_trace_partitions_the_field(q):
    p, m = factor_prime_power(q)
    f = field_make(p, m)
    r = f.sqrt_q
    seen = []
    for t in f.elements():
        if not f.in_subfield(t):
            with pytest.raises(ValueError):
                f.trace_preimage(t)
            continue
        pre = f.trace_preimage(t)
        assert len(pre) == q // r
        for a in pre:
            assert f.trace(a) == t
            assert f.trace(a) == f.add(a, f.conjugate(a))
        seen.extend(pre)
    assert sorted(seen) == list(f.elements())
