"""Tests for the closed-form code-counting formulas."""
import itertools
import time
from math import log2

import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers, sampled_from

from chaincodes.census import (
    enumerate_field_self_dual,
    enumerate_sd_standard_forms,
    enumerate_submodules,
)
from chaincodes.chainring import chain_ring
from chaincodes.codes import EUCLIDEAN, HERMITIAN, field_rref
from chaincodes.counting import (
    _MAX_DEPTH,
    COUNT_BITS_CAP,
    _rogers_szego,
    count_esd,
    count_hsd,
    count_linear,
    gaussian_binomial,
    gaussian_row,
    self_dual_exponent,
    sigma_e,
    sigma_h,
)
from chaincodes.gf import factor_prime_power, field_make

MAX_EXAMPLES = 150


def field_subspace_bases(field, vectors, n):
    """The RREF bases of all subspaces of the span of the vectors, by
    extending every found basis by every vector; kept apart from the
    library's cover search, so the Gaussian check has a route of its own."""
    vecs = [tuple(v) for v in vectors]
    found = {()}
    queue = [()]
    while queue:
        basis = queue.pop()
        for v in vecs:
            rows = field_rref(field, n, list(basis) + [v])
            if rows not in found:
                found.add(rows)
                queue.append(rows)
    return found


def subspace_dim_counts(q, n):
    """Brute subspace census of GF(q)^n, bucketed by dimension."""
    p, m = factor_prime_power(q)
    f = field_make(p, m)
    vectors = list(itertools.product(range(q), repeat=n))
    buckets = [0] * (n + 1)
    for basis in field_subspace_bases(f, vectors, n):
        buckets[len(basis)] += 1
    return buckets


def chain_sum_reference(q, e, n):
    """The chain sum written out literally: 1 plus, for every chain
    n >= h_1 >= ... >= h_t > 0 with t <= e, the product of
    [n - h_(j+1), h_j - h_(j+1)]_q q^(h_(j+1) (n - h_j)) with h_(t+1) = 0."""
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


def linear_dp_reference(q, e, n):
    """The chain sum as an e-step programme over the dimension, every step
    g'[a] = sum_{b <= a} [n - b, a - b]_q q^(b (n - a)) g[b] from
    g = [1, 0, ..., 0], then sum(g); it divides and builds its Gaussian
    rows anew in every step, so past `gaussian_row` it shares nothing with
    the library's Rogers-Szego route."""
    g = gaussian_row(n, q)
    for _ in range(e - 1):
        g_next = [0] * (n + 1)
        for b, x in enumerate(g):
            weight = q ** (b * (n - b)) * x       # q^(b (n - a)) g[b] at a = b
            for a, c in enumerate(gaussian_row(n - b, q), b):
                g_next[a] += c * weight
                weight //= q ** b
        g = g_next
    return sum(g)


# ---------------------------------------------------------------------------
# Gaussian binomials

@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_gaussian_binomial_counts_subspaces(q, n):
    buckets = subspace_dim_counts(q, n)
    for k in range(n + 1):
        assert gaussian_binomial(n, k, q) == buckets[k]


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(2, 1, 4) == 5
    assert gaussian_binomial(0, 0, 2) == 1


@given(n=integers(min_value=0, max_value=8), k=integers(min_value=-2, max_value=10),
       q=sampled_from([2, 3, 4, 5, 7, 9]))
@settings(deadline=None, max_examples=MAX_EXAMPLES)
def test_gaussian_binomial_symmetry_and_range(n, k, q):
    assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
    if k < 0 or k > n:
        assert gaussian_binomial(n, k, q) == 0
    else:
        assert gaussian_binomial(n, k, q) >= 1


@given(n=integers(min_value=1, max_value=8), k=integers(min_value=1, max_value=7),
       q=sampled_from([2, 3, 4, 5]))
@settings(deadline=None, max_examples=MAX_EXAMPLES)
def test_gaussian_binomial_pascal_identity(n, k, q):
    lhs = gaussian_binomial(n, k, q)
    rhs = q ** k * gaussian_binomial(n - 1, k, q) + gaussian_binomial(n - 1, k - 1, q)
    assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_gaussian_row_matches_gaussian_binomial(q):
    for h in range(31):
        assert gaussian_row(h, q) == [gaussian_binomial(h, k, q)
                                      for k in range(h + 1)]


def test_gaussian_binomial_domain_errors():
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 1)


# ---------------------------------------------------------------------------
# linear-code counts over the chain rings

def test_linear_count_known_values():
    assert count_linear(2, 3, 1) == 4
    assert count_linear(2, 3, 2) == 37
    assert count_linear(3, 3, 2) == 76
    assert count_linear(4, 3, 2) == 139
    for q in (2, 3, 4, 5, 9):
        # length 1 sees exactly the ideal chain 0 < u^2 < u < 1
        assert count_linear(q, 3, 1) == 4
    # and at every depth e up to the cap, the e + 1 ideals of the chain
    for e in (1, 2, 4, 7, _MAX_DEPTH):
        assert count_linear(2, e, 1) == e + 1


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_linear_count_matches_census(q, n):
    assert count_linear(q, 3, n) == enumerate_submodules(chain_ring(q, 3), n).size


@pytest.mark.parametrize("q,e,n,message", [
    (6, 2, 1, "not a prime power: 6"), (6, 3, 1, "not a prime power: 6"),
    (1, 3, 2, "not a prime power: 1"),
    (2, 0, 1, "need n >= 1 and e >= 1"), (2, 2, 0, "need n >= 1 and e >= 1"),
    (2, 3, 0, "need n >= 1 and e >= 1"), (6, 0, 2, "need n >= 1 and e >= 1"),
    (2, _MAX_DEPTH + 1, 1, f"depth e = {_MAX_DEPTH + 1} is over {_MAX_DEPTH}"),
    (2, 10 ** 9, 1, f"depth e = {10 ** 9} is over {_MAX_DEPTH}")])
def test_invalid_linear_count_inputs_are_refused(q, e, n, message):
    with pytest.raises(ValueError, match=message):
        count_linear(q, e, n)


def test_count_linear_depth_one_is_subspace_total():
    for q, n in [(2, 3), (3, 2), (4, 2)]:
        assert count_linear(q, 1, n) == sum(subspace_dim_counts(q, n))
    for q in (2, 3, 4):
        for n in range(1, 41):
            assert count_linear(q, 1, n) == sum(
                gaussian_binomial(n, k, q) for k in range(n + 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_count_linear_matches_literal_chain_sum(q):
    for e in range(1, 6):
        for n in range(1, 9):
            assert count_linear(q, e, n) == chain_sum_reference(q, e, n)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_count_linear_matches_dynamic_programme(q):
    for e in range(1, 6):
        for n in range(1, 41):
            assert count_linear(q, e, n) == linear_dp_reference(q, e, n), (e, n)


def row_sum_reference(h, q, c):
    """sum_k [h, k]_q q^(c k), by Horner's rule in x = q^c over the
    Gaussian row."""
    x = q ** c
    total = 0
    for g in reversed(gaussian_row(h, q)):
        total = total * x + g
    return total


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 27])
def test_rogers_szego_values_match_gaussian_row_sums(q):
    for h in range(61):
        for c in range(7):
            assert _rogers_szego(h, q, q ** c) == row_sum_reference(h, q, c), (h, c)


def test_count_linear_at_length_300_is_pinned():
    # residue and bit length computed once by linear_dp_reference (17.7 s
    # on a 2-vCPU Xeon); the library answers in about 0.5 s
    value = count_linear(2, 3, 300)
    assert value % (2 ** 61 - 1) == 1259067240832744557
    assert value.bit_length() == 67505


@pytest.mark.parametrize("q,e,n", [(2, 1, 60), (2, 2, 60), (2, 3, 59),
                                   (3, 3, 40), (4, 4, 30), (9, 5, 21),
                                   (2, 7, 12), (5, 2, 1), (2, _MAX_DEPTH, 1)])
def test_count_linear_bit_length_within_stated_slack(q, e, n):
    estimate = e * (n * n // 4) * log2(q)
    bits = count_linear(q, e, n).bit_length()
    assert estimate <= bits <= estimate + e * (log2(n + 1) + 2) + 1


@pytest.mark.parametrize("q,e,n", [(2, 3, 700), (9, 3, 333), (2, 4, 513),
                                   (2, 2, 10 ** 400), (2, 65536, 5)])
def test_count_linear_over_the_bit_cap_is_refused_at_once(q, e, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"over the cap of {COUNT_BITS_CAP} bits"):
        count_linear(q, e, n)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# residue-field self-dual baselines

SIGMA_E_CASES = [(2, 2, 1), (2, 4, 3), (3, 2, 0), (3, 4, 8), (4, 2, 1), (5, 2, 2)]


@pytest.mark.parametrize("q,n,expected", SIGMA_E_CASES)
def test_sigma_e_values_and_brute_force(q, n, expected):
    assert sigma_e(q, n) == expected
    p, m = factor_prime_power(q)
    census = enumerate_field_self_dual(field_make(p, m), n, EUCLIDEAN)
    assert len(census) == expected


SIGMA_H_CASES = [(4, 2, 3), (9, 2, 4), (4, 4, 27)]


@pytest.mark.parametrize("q,n,expected", SIGMA_H_CASES)
def test_sigma_h_values_and_brute_force(q, n, expected):
    assert sigma_h(q, n) == expected
    p, m = factor_prime_power(q)
    census = enumerate_field_self_dual(field_make(p, m), n, HERMITIAN)
    assert len(census) == expected


def test_sigma_odd_length_is_zero():
    for q in (2, 3, 4, 5, 9):
        for n in (1, 3, 5, 7):
            assert sigma_e(q, n) == 0
    for q in (4, 9, 16, 25):
        for n in (1, 3, 5, 7):
            assert sigma_h(q, n) == 0


def test_sigma_h_rejects_non_squares():
    with pytest.raises(ValueError):
        sigma_h(2, 2)
    with pytest.raises(ValueError):
        sigma_h(3, 4)


# ---------------------------------------------------------------------------
# self-dual counts over the depth-3 chain ring

def test_count_esd_known_values():
    assert count_esd(2, 2) == 3
    assert count_esd(3, 2) == 0          # sigma_e(3, 2) = 0 blocks length 2
    assert count_esd(3, 4) == 176
    assert count_esd(3, 4) == 8 * 22


def test_count_esd_matches_standard_form_sweep_at_length_four():
    # the ambient module has 43339 submodules, so sweep admissible
    # standard forms instead of running the full census
    sweep = enumerate_sd_standard_forms(chain_ring(2, 3), 4, EUCLIDEAN)
    assert count_esd(2, 4) == sweep.size == 87


def test_count_hsd_known_values():
    assert count_hsd(4, 2) == 15
    assert count_hsd(9, 2) == 40
    assert count_hsd(4, 2) == sigma_h(4, 2) * (1 + gaussian_binomial(1, 1, 4) * 4)


def test_count_hsd_checks_squareness_only_for_even_lengths():
    for q in (2, 3, 4, 9):
        for n in (1, 3, 5, 7):
            assert count_esd(q, n) == 0
            assert count_hsd(q, n) == 0
    with pytest.raises(ValueError):
        count_hsd(2, 2)
    with pytest.raises(ValueError):
        count_hsd(3, 4)


SELF_DUAL_COUNTS = {"esd": count_esd, "hsd": count_hsd,
                    "sigma-e": sigma_e, "sigma-h": sigma_h}
# bits the bit length may exceed the estimate by, plus log2(q)/2 for the
# rounded-down Hermitian exponents
SELF_DUAL_SLACK = {"esd": 7, "sigma-e": 4, "hsd": 5, "sigma-h": 2}


@pytest.mark.parametrize("kind", sorted(SELF_DUAL_COUNTS))
def test_self_dual_bit_length_within_stated_slack(kind):
    hermitian = kind in ("hsd", "sigma-h")
    for q in ((4, 9, 16, 25, 64, 81, 121, 1024) if hermitian
              else (2, 3, 4, 5, 7, 8, 9, 11, 27, 125, 128, 243)):
        for n in range(1, 121):
            value = SELF_DUAL_COUNTS[kind](q, n)
            exponent = self_dual_exponent(q, n, kind)
            assert (value == 0) == (exponent is None), (q, n)
            if value:
                estimate = exponent * log2(q)
                slack = SELF_DUAL_SLACK[kind] + (log2(q) / 2 if hermitian else 0)
                assert estimate <= value.bit_length() <= estimate + slack, (q, n)


@pytest.mark.parametrize("kind,q,n", [("esd", 2, 20000), ("esd", 3, 10 ** 400),
                                      ("hsd", 9, 2000), ("sigma-e", 2, 10 ** 6),
                                      ("sigma-h", 4, 2000), ("esd", 5, 1700)])
def test_self_dual_counts_over_the_bit_cap_are_refused_at_once(kind, q, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"over the cap of {COUNT_BITS_CAP} bits"):
        SELF_DUAL_COUNTS[kind](q, n)
    assert time.perf_counter() - start < 1


def test_gaussian_binomial_bit_length_and_cap():
    for q in (2, 3, 4, 6, 9):
        for n in range(0, 41):
            for k in range(n + 1):
                estimate = k * (n - k) * log2(q)
                bits = gaussian_binomial(n, k, q).bit_length()
                assert estimate <= bits <= estimate + 3, (q, n, k)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"over the cap of {COUNT_BITS_CAP} bits"):
        gaussian_binomial(4000, 2000, 2)
    assert time.perf_counter() - start < 1
    assert gaussian_binomial(10 ** 9, 10 ** 9 + 1, 2) == 0


def test_self_dual_bit_cap_leaves_zero_counts_and_the_largest_pins():
    # counts that are 0 by their length alone are answered, whatever n
    assert count_esd(3, 10 ** 6 + 2) == 0 == count_esd(2, 10 ** 9 + 1)
    assert count_hsd(4, 10 ** 9 + 1) == 0 == count_hsd(2, 10 ** 9 + 1)
    with pytest.raises(ValueError, match="square field order"):
        count_hsd(2, 10 ** 9)
    # the largest self-dual count the benchmark's golden file pins
    assert count_hsd(9, 300).bit_length() == 106986


def test_count_domain_errors():
    with pytest.raises(ValueError):
        count_esd(6, 2)
    with pytest.raises(ValueError):
        count_esd(2, 0)
    with pytest.raises(ValueError):
        count_hsd(4, -2)

