"""Tests for the brute-force censuses and the constructive enumerations."""
import collections
import hashlib
import itertools
import math
import random
import time
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis.strategies import (booleans, data, integers, lists,
                                   sampled_from)

import chaincodes.census as census_module
from chaincodes.census import (
    CODEWORD_CAP,
    MEMBER_CAP,
    _all_matrices,
    _census_of,
    _climb,
    _congruence_solver,
    _FpView,
    code_fingerprint,
    enumerate_field_self_dual,
    enumerate_hsd_constructive,
    enumerate_sd_standard_forms,
    enumerate_self_dual,
    enumerate_submodules,
    hermitian_sd_extend,
)
from chaincodes.chainring import ChainRing, chain_ring
from chaincodes.codes import (EUCLIDEAN, HERMITIAN, FieldCode, LinearCode,
                              dumps_code, inner_product)
from chaincodes.counting import (count_esd, count_hsd, count_linear,
                                 gaussian_binomial, sigma_e)
from chaincodes.gf import factor_prime_power, field_make


# ---------------------------------------------------------------------------
# packed GF(p) rows

@settings(max_examples=200, deadline=None)
@given(sampled_from([2, 3, 5, 7, 11, 13, 17, 257]), integers(1, 24), data())
def test_lane_reduction_and_base_p_reading(p, width, draw):
    view = _FpView(chain_ring(p, 1), width)
    assert_window_layout(view)
    lanes = draw.draw(lists(integers(0, p * p - 1), min_size=width,
                            max_size=width))
    packed = sum(x << (i * view.lane) for i, x in enumerate(lanes))
    reduced = view.reduce(packed)
    assert [(reduced >> (i * view.lane)) & view.lane_mask
            for i in range(width)] == [x % p for x in lanes]
    assert reduced >> (width * view.lane) == 0
    assert view.code(reduced) == sum(x % p * p ** i for i, x in enumerate(lanes))


def test_packed_rows_round_trip_ring_vectors():
    ring = chain_ring(9, 3)
    view = _FpView(ring, 2)
    for vec in [(0, 0), (1, 0), (0, 728), (ring.q, 5), (364, 81)]:
        row = view.encode(vec)
        assert view.decode(row) == vec
        assert view.code(row) == vec[0] + vec[1] * ring.size


def test_closure_rows_are_the_ring_multiples():
    ring = chain_ring(9, 3)
    view = _FpView(ring, 2)
    vec = (5, 100)
    mults = [ring.q ** t * ring.field.p ** j
             for t in range(ring.e) for j in range(ring.field.m)]
    assert view.closure_rows(view.encode(vec)) == [
        view.encode(tuple(ring.mul(c, x) for x in vec)) for c in mults]


@pytest.mark.parametrize("q,n,gens", [
    (2, 3, [(1, 2, 7), (0, 4, 6)]),
    (4, 2, [(1, 13), (0, 20)]),
    (9, 2, [(9, 50), (0, 81)]),
    (9, 2, [(1, 300)]),
])
def test_fingerprint_is_sorted_packed_codewords(q, n, gens):
    code = LinearCode(chain_ring(q, 3), n, gens)
    size = code.ring.size
    packed = sorted(sum(x * size ** k for k, x in enumerate(w))
                    for w in code.codewords())
    assert code_fingerprint(code) == tuple(packed)
    assert len(packed) == code.cardinality()


@settings(max_examples=60, deadline=None)
@given(sampled_from([2, 3, 5, 7]), integers(1, 2), data())
def test_fingerprint_is_sorted_packed_codewords_for_random_generators(p, m, draw):
    q = p ** m
    e = draw.draw(integers(1, max(t for t in (1, 2, 3) if q ** t <= 2500)))
    ring = chain_ring(q, e)
    n = draw.draw(integers(1, max(k for k in (1, 2, 3) if ring.size ** k <= 2500)))
    gens = draw.draw(lists(lists(integers(0, ring.size - 1), min_size=n,
                                 max_size=n), min_size=1, max_size=3))
    code = LinearCode(ring, n, gens)
    packed = sorted(sum(x * ring.size ** k for k, x in enumerate(w))
                    for w in code.codewords())
    assert code_fingerprint(code) == tuple(packed)


def assert_top_lane_echelon(view, basis):
    """The view's one basis convention: each row is 1 on its top lane and
    every other row is 0 there, and the rows go by ascending pivot."""
    pivots = []
    for row in basis:
        top = row.bit_length() - 1
        pivots.append(top - top % view.lane)
        assert row >> pivots[-1] == 1
    assert pivots == sorted(set(pivots))
    for row, pc in zip(basis, pivots):
        assert all((row >> other) & view.lane_mask == 0
                   for other in pivots if other != pc)


@pytest.mark.parametrize("q,e,n,inner", [
    (2, 3, 2, None), (4, 2, 2, None), (2, 3, 4, EUCLIDEAN),
    (3, 3, 2, None), (9, 1, 2, None), (5, 2, 2, None), (9, 3, 2, HERMITIAN),
])
def test_every_basis_pivots_on_its_rows_top_lanes(q, e, n, inner):
    """Climb bases, their members' module bases and module bases of random
    generators all pivot on top lanes, the form `fingerprint` reads."""
    ring = chain_ring(q, e)
    view, bases = _climb(ring, n, inner)
    for basis in bases:
        assert_top_lane_echelon(view, basis)
        assert view.module_basis([view.decode(row) for row in basis]) == basis
    rng = random.Random(100 * q + 10 * e + n)
    for _ in range(30):
        gens = [[rng.randrange(ring.size) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        assert_top_lane_echelon(view, view.module_basis(gens))


# the lane width b of every prime the tests use; at p = 11 it is one bit
# over bits(p^2 - 1), so that the first guard step does not carry
LANE_WIDTHS = {2: 2, 3: 4, 5: 5, 7: 6, 11: 8, 13: 8, 257: 17}


def assert_window_layout(view):
    """Rows and spans share one layout: lanes of b bits, the least width
    whose guard steps reduce p^2 - 1 mod p, and windows of a power of two
    (at least 8) of lanes, a whole number of bytes."""
    p, b, lanes = view.p, view.lane, view._window_lanes
    assert LANE_WIDTHS.get(p, b) == b
    assert lanes >= 8 and lanes & (lanes - 1) == 0
    assert lanes * b == 8 * view._window_bytes
    assert p * p - 1 < 1 << b
    half, r = 1 << (b - 1), p * p             # lanes in range(r)
    for s, bias in view._steps:
        assert s % p == 0 and s <= half
        assert bias == view._ones * (half - s)
        assert (r - 1) + (half - s) < 1 << b  # the largest lane does not carry
        r = max(s, r - s)
    assert view._steps[-1][0] == p and r == p
    # one bit less would not hold p^2 - 1, or its first step would carry
    assert p * p - 1 >= half or p * p - 1 >= half // 2 + p * (half // 2 // p)


def _fingerprint_reference(view, basis):
    """The odd-p fingerprint one codeword at a time: the closure of the
    packed rows with every sum reduced, each codeword read by itself."""
    acc = [0]
    for row in basis:
        multiples = [view.reduce(c * row) for c in range(view.p)]
        acc = [view.reduce(v + s) for v in acc for s in multiples]
    return tuple(sorted(view.code(v) for v in acc))


@pytest.mark.parametrize("q,e,n,inner,padded", [
    (3, 3, 2, None, True), (9, 3, 2, HERMITIAN, False),
    (9, 3, 2, EUCLIDEAN, False), (5, 3, 2, EUCLIDEAN, True),
    (25, 1, 2, None, True), (7, 1, 3, None, True),
])
def test_packed_span_fingerprint_matches_reference(q, e, n, inner, padded):
    """Every basis the climb reaches, all ranks, against the per-codeword
    closure; padded windows are raised to the floor of 8 lanes."""
    view, bases = _climb(chain_ring(q, e), n, inner)
    w, lanes = n * e * view.m, view._window_lanes
    assert_window_layout(view)
    assert max(w, 8) <= lanes < 2 * max(w, 8)
    assert (lanes == 8 > w) == padded
    for basis in bases:
        assert view.fingerprint(basis) == _fingerprint_reference(view, basis)


@pytest.mark.parametrize("q,e,n,code_bytes", [
    (3, 1, 4, 1), (3, 1, 10, 2), (9, 3, 2, 3), (5, 1, 27, 8), (3, 1, 50, 10),
])
def test_fingerprint_read_out_at_every_code_width(q, e, n, code_bytes):
    """Codes of 1, 2, 3, 8 and more than 8 bytes, in windows of 4, 8, 8, 20
    and 32 bytes: the memoryview cast of whole windows, the strided read
    into 8-byte items and the per-window read above 64 bits."""
    ring = chain_ring(q, e)
    view = _FpView(ring, n)
    assert_window_layout(view)
    assert view._code_bytes == code_bytes <= view._window_bytes
    gens = [[(3 * i + 7 * k + 1) % ring.size for k in range(n)]
            for i in range(3)]
    code = LinearCode(ring, n, gens)
    packed = sorted(sum(x * ring.size ** k for k, x in enumerate(w))
                    for w in code.codewords())
    assert code_fingerprint(code) == tuple(packed)
    assert len(packed) == code.cardinality() > 1


# (q, e, n): windows of 4 and 8 bytes read by the memoryview cast
# (GF(3)^4; R(9,3)^2, GF(11)^4 and R(13,2)^2), strided reads of 5 bytes
# (p = 5, codes of 1 and 2 bytes), 6 bytes (p = 7), 16 bytes (GF(11)^12),
# 20 bytes (GF(5)^27, 8-byte codes) and 17 bytes (p = 257), and 32 bytes
# with 10-byte codes read one window at a time (GF(3)^50), so every
# read-out runs
FINGERPRINT_SPACES = [(3, 1, 50), (9, 3, 2), (3, 1, 4), (5, 3, 2), (5, 1, 3),
                      (25, 1, 2), (7, 1, 3), (49, 1, 2), (11, 1, 4),
                      (11, 1, 12), (13, 2, 2), (5, 1, 27), (257, 1, 3)]


@settings(max_examples=150, deadline=None)
@given(sampled_from(FINGERPRINT_SPACES), data())
def test_fingerprint_of_random_bases_matches_reference(space, draw):
    """Any subset of a module basis is a reduced echelon basis in pivot
    order, so each drawn subset (at most 2,500 codewords, the empty one
    too) is checked against the per-codeword closure."""
    q, e, n = space
    ring = chain_ring(q, e)
    view = _FpView(ring, n)
    assert view.fingerprint([]) == (0,)
    gens = draw.draw(lists(lists(integers(0, ring.size - 1), min_size=n,
                                 max_size=n), min_size=1, max_size=3))
    basis = view.module_basis(gens)
    keep = draw.draw(lists(booleans(), min_size=len(basis),
                           max_size=len(basis)))
    cap = max(k for k in range(len(basis) + 1) if view.p ** k <= 2500)
    rows = [row for row, kept in zip(basis, keep) if kept][:cap]
    assert view.fingerprint(rows) == _fingerprint_reference(view, rows)


# sha256 of repr(census.fingerprints), every member's sorted codeword codes
# in census order, as computed before the row and span lanes were merged
# into one layout
NH_9_2_DIGEST = "dc9d07380d2079fbefe1c467a7cb02b1e6ee60ae37c79dcbcb1e96b9e3d7bc22"
NH_4_2_DIGEST = "dc58ed84eb7adaeec0fc37ec254072a97af258e2f1f696633cbba3ea300daf11"


@pytest.mark.parametrize("build,size,digest", [
    (lambda: enumerate_submodules(chain_ring(3, 3), 3), 5776,
     "636c0c25ec663df3fd798aa15c5ed6a58d58112cc49758095ca671887d54313b"),
    (lambda: enumerate_sd_standard_forms(chain_ring(9, 3), 2, HERMITIAN), 40,
     NH_9_2_DIGEST),
    (lambda: enumerate_hsd_constructive(9, 2), 40, NH_9_2_DIGEST),
    (lambda: enumerate_sd_standard_forms(chain_ring(3, 3), 4, EUCLIDEAN), 176,
     "a2efba4383e5b3aa89247c58b69899abb7e8c6447228cbf3c079d1b701b00b3d"),
    (lambda: enumerate_submodules(chain_ring(4, 3), 2), 139,
     "3f2b65032876b9c02fc656245a5f9fc9b493f7787b3985deb07d46d2da0df7ce"),
    (lambda: enumerate_submodules(chain_ring(2, 3), 3), 802,
     "11a7efc98bc728dfdfc6bb99f5bc1d4ce69f740df5a00664d8427ac1aabb1dfb"),
    (lambda: enumerate_sd_standard_forms(chain_ring(2, 3), 4, EUCLIDEAN), 87,
     "a25447ce3be1c983d3df63e3acff7b18fe71e886564a5edae623da296ff1921d"),
    (lambda: enumerate_self_dual(chain_ring(4, 3), 2, HERMITIAN), 15,
     NH_4_2_DIGEST),
    (lambda: enumerate_hsd_constructive(4, 2), 15, NH_4_2_DIGEST),
], ids=["submodules-3-3-3", "standard-forms-9-3-2-H", "constructive-9-2",
        "standard-forms-3-3-4-E", "submodules-4-3-2", "submodules-2-3-3",
        "standard-forms-2-3-4-E", "self-dual-4-3-2-H", "constructive-4-2"])
def test_census_fingerprints_match_their_pinned_digests(build, size, digest):
    """Censuses over odd and even p pinned byte for byte, so no change of
    lane layout or fingerprint kernel can change a census.  Each member's
    record is the words at places p^j of its fingerprint, and the sorted
    records put the fingerprints in sorted order."""
    census = build()
    assert census.size == size
    assert hashlib.sha256(repr(census.fingerprints).encode()).hexdigest() == digest
    p = census.ring.field.p
    assert census.bases == tuple(sorted(census.bases))
    assert census.fingerprints == tuple(sorted(census.fingerprints))
    for record, fp in zip(census.bases, census.fingerprints):
        assert len(fp) == p ** len(record)
        assert tuple(fp[p ** j] for j in range(len(record))) == record


# p = 2 and odd p, every span at most 729 codewords
RECORD_SPACES = [(2, 3, 3), (4, 2, 2), (3, 3, 2), (9, 1, 2), (5, 1, 3),
                 (7, 1, 3), (25, 1, 2)]


@settings(max_examples=150, deadline=None)
@given(sampled_from(RECORD_SPACES), data())
def test_records_compare_as_their_fingerprints_do(space, draw):
    """A record, the codes of a reduced echelon basis's rows in pivot
    order, is the words at places p^j of the basis's fingerprint, and two
    records compare as their fingerprints do: two subsets of one basis
    (rows below the first difference shared), a subset and its prefix
    (also a reduced echelon basis), and two unrelated module bases."""
    q, e, n = space
    ring = chain_ring(q, e)
    view = _FpView(ring, n)
    vectors = lists(lists(integers(0, ring.size - 1), min_size=n,
                          max_size=n), min_size=1, max_size=3)
    basis = view.module_basis(draw.draw(vectors))

    def subset():
        keep = draw.draw(lists(booleans(), min_size=len(basis),
                               max_size=len(basis)))
        return [row for row, kept in zip(basis, keep) if kept]
    a, b = subset(), subset()
    prefix = a[:draw.draw(integers(0, len(a)))]
    other = view.module_basis(draw.draw(vectors))
    for x, y in ((a, b), (prefix, a), (a, other)):
        rx, ry = tuple(map(view.code, x)), tuple(map(view.code, y))
        fx, fy = view.fingerprint(x), view.fingerprint(y)
        assert tuple(fx[view.p ** j] for j in range(len(x))) == rx
        assert (rx < ry) == (fx < fy) and (rx == ry) == (fx == fy)


READ_OUT_SPACES = sorted(set(FINGERPRINT_SPACES + RECORD_SPACES))


def test_read_out_spaces_cover_every_read_out():
    """The spaces read rows by a memoryview cast of whole windows, by
    strided slices of each code's bytes, and one window at a time."""
    kinds = set()
    for q, e, n in READ_OUT_SPACES:
        view = _FpView(chain_ring(q, e), n)
        kinds.add("window" if view._code_bytes > 8 else
                  "cast" if view._window_bytes in (1, 2, 4, 8) else "strided")
    assert kinds == {"cast", "strided", "window"}


@pytest.mark.parametrize("q,e,n", READ_OUT_SPACES)
def test_batched_read_out_crosses_slice_boundaries(q, e, n):
    """Two whole slices of READ_ROWS rows and a short third one, read in
    one `row_codes` pass, give every vector's own base-|R| code."""
    ring = chain_ring(q, e)
    view = _FpView(ring, n)
    rng = random.Random(q * 1000 + e * 100 + n)
    vecs = [[rng.randrange(ring.size) for _ in range(n)]
            for _ in range(2 * census_module.READ_ROWS + 3)]
    expected = [sum(x * ring.size ** k for k, x in enumerate(v)) for v in vecs]
    assert list(view.row_codes(map(view.encode, vecs))) == expected
    assert list(view.row_codes([])) == []


@settings(max_examples=150, deadline=None)
@given(sampled_from(READ_OUT_SPACES), integers(1, 7), data())
def test_census_records_match_per_row_codes(space, slice_rows, draw):
    """`_census_of` reads every basis's rows in one batched pass, in slices
    of a few rows here so that bases straddle slice boundaries; each record
    is `tuple(map(view.code, basis))` all the same.  Empty bases, an empty
    census and a repeated basis included."""
    q, e, n = space
    ring = chain_ring(q, e)
    view = _FpView(ring, n)
    gens = lists(lists(integers(0, ring.size - 1), min_size=n, max_size=n),
                 max_size=3)
    bases = [view.module_basis(draw.draw(gens))
             for _ in range(draw.draw(integers(0, 4)))]
    bases += bases[:draw.draw(integers(0, 1))]
    expected = tuple(sorted(tuple(map(view.code, basis)) for basis in bases))
    with unittest.mock.patch.object(census_module, "READ_ROWS", slice_rows):
        census = _census_of(ring, n, "batched", bases, view)
    assert census.bases == expected and census.size == len(bases)


def _encode_reference(view, vec):
    """A vector's packed row digit by digit: digit t of entry k in lane
    k*e*m + t."""
    row = 0
    for k, r in enumerate(vec):
        for t in range(view.digits):
            row |= (r // view.p ** t % view.p) << ((k * view.digits + t) * view.lane)
    return row


@pytest.mark.parametrize("q,e,n", READ_OUT_SPACES)
def test_encode_matches_digit_reference_on_every_element(q, e, n):
    """Every ring element at every coordinate (all 729 of R(9,3), all 257
    of GF(257)), through a fresh memo and through a filled one."""
    ring = chain_ring(q, e)
    view = _FpView(ring, n)
    vecs = [tuple((r + 7 * k) % ring.size for k in range(n))
            for r in range(ring.size)]
    for _ in range(2):
        assert [view.encode(v) for v in vecs] == [
            _encode_reference(view, v) for v in vecs]
    assert len(view._entry_lanes) == ring.size


@settings(max_examples=100, deadline=None)
@given(sampled_from(READ_OUT_SPACES), data())
def test_encode_matches_digit_reference_on_random_vectors(space, draw):
    q, e, n = space
    ring = chain_ring(q, e)
    view = _FpView(ring, n)
    for vec in draw.draw(lists(lists(integers(0, ring.size - 1), min_size=n,
                                     max_size=n), min_size=1, max_size=4)):
        assert view.encode(vec) == _encode_reference(view, vec)
        assert view.decode(view.encode(vec)) == tuple(vec)


# ---------------------------------------------------------------------------
# full submodule censuses

@pytest.mark.parametrize("q,n,expected", [
    (2, 1, 4), (2, 2, 37), (3, 1, 4), (3, 2, 76), (4, 1, 4), (4, 2, 139),
])
def test_submodule_census_sizes(q, n, expected):
    census = enumerate_submodules(chain_ring(q, 3), n)
    assert census.size == expected
    assert census.size == count_linear(q, 3, n)
    assert len(census.fingerprint_set()) == expected


def _normalized_candidates(ring, n):
    """Vectors whose leading nonzero coordinate is exactly u^v.  Every
    nonzero vector is a unit multiple of one of these, so extending by them
    reaches every submodule."""
    out = []
    for lead in range(n):
        for v in range(ring.e):
            head = ring.q ** v
            for tail in itertools.product(range(ring.size), repeat=n - 1 - lead):
                out.append((0,) * lead + (head,) + tail)
    return out


def all_extensions_reference(ring, n):
    """The submodule census by extending every found submodule M by every
    untried coset v + M and closing under R: slower than the cover-only
    search in `enumerate_submodules`, and kept as its reference."""
    view = _FpView(ring, n)
    cands = []
    for v in _normalized_candidates(ring, n):
        row = view.encode(v)
        cands.append((row, view.closure_rows(row)))
    found = {(): ([], [])}
    queue = [()]
    while queue:
        basis, pivots = found[queue.pop()]
        cosets = set()
        for vec_row, closure in cands:
            rest = view.reduce_row(basis, pivots, vec_row)
            if not rest or rest in cosets:
                continue
            cosets.add(rest)
            nb, np_ = list(basis), list(pivots)
            for row in closure:
                view.insert_row(nb, np_, row)
            nkey = tuple(nb)
            if nkey not in found:
                found[nkey] = (nb, np_)
                queue.append(nkey)
    return _census_of(ring, n, "all",
                      [basis for basis, _ in found.values()], view)


def count_by_type(q, e, n, conj):
    """Submodules of R(q,e)^n whose conjugate type is conj = (mu'_1, ...,
    mu'_e), mu'_i the GF(q)-dimension of u^(i-1)M / u^i M: the product over
    i of q^(mu'_(i+1) (n - mu'_i)) [n - mu'_(i+1), mu'_i - mu'_(i+1)]_q,
    with mu'_(e+1) = 0 (Butler's per-type count for abelian p-groups)."""
    mu = tuple(conj) + (0,)
    total = 1
    for i in range(e):
        total *= q ** (mu[i + 1] * (n - mu[i]))
        total *= gaussian_binomial(n - mu[i + 1], mu[i] - mu[i + 1], q)
    return total


def conjugate_type_from_rows(view, code):
    """mu'_i = (rank u^(i-1)M - rank u^i M) / m, the ranks of the GF(p)
    spans of the module rows shifted up by u^i."""
    rows = view.module_basis(code.gens)
    step, keep = view.m * view.lane, view._u_keep
    ranks = []
    for _ in range(view.ring.e + 1):
        basis, pivots = [], []
        ranks.append(sum(view.insert_row(basis, pivots, r) for r in rows))
        rows = [(r << step) & keep for r in rows]
    return tuple((a - b) // view.m for a, b in zip(ranks, ranks[1:]))


@pytest.mark.parametrize("q,e,n", [
    (2, 3, 2), (2, 3, 3), (3, 3, 2), (4, 3, 2), (2, 2, 3), (4, 2, 2),
    (2, 4, 2), (2, 5, 2), (9, 1, 2), (8, 1, 3),
])
def test_cover_search_matches_all_extensions_reference(q, e, n):
    ring = chain_ring(q, e)
    census = enumerate_submodules(ring, n)
    ref = all_extensions_reference(ring, n)
    assert census.size == ref.size
    assert census.fingerprints == ref.fingerprints
    # same codes in the same order, down to the generator rows
    assert [c.gens for c in census.codes] == [c.gens for c in ref.codes]


def count_calls(monkeypatch, name):
    """Record every call of the _FpView method `name`."""
    calls = []
    method = getattr(_FpView, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)
    monkeypatch.setattr(_FpView, name, counted)
    return calls


def test_cover_search_work_pin(monkeypatch):
    """R(4,3)^2 has 270 covering pairs M < N, and the search inserts the
    m = 2 rows x^j v of each once: 540 row insertions, against 1,068 when
    every candidate vector was tried and 48,600 by all extensions."""
    calls = count_calls(monkeypatch, "insert_reduced")
    enumerate_submodules.cache_clear()
    assert enumerate_submodules(chain_ring(4, 3), 2).size == 139
    assert len(calls) <= 540


def test_censuses_span_no_basis_until_fingerprints_are_read(monkeypatch):
    """No enumerator builds a fingerprint: the census records its members'
    basis rows, and the first read of `fingerprints` spans each member's
    basis once, a second read none."""
    calls = count_calls(monkeypatch, "fingerprint")
    builds = [
        lambda: enumerate_submodules(chain_ring(4, 3), 2),
        lambda: enumerate_self_dual(chain_ring(4, 3), 2, HERMITIAN),
        lambda: enumerate_sd_standard_forms(chain_ring(9, 3), 2, HERMITIAN),
        lambda: enumerate_hsd_constructive(9, 2),
    ]
    for enumerator in (enumerate_submodules, enumerate_self_dual,
                       enumerate_sd_standard_forms,
                       enumerate_hsd_constructive):
        enumerator.cache_clear()
    for build in builds:
        census = build()
        assert census.size > 0 and not calls
        assert len(census.fingerprint_set()) == census.size == len(calls)
        assert census.fingerprints and len(calls) == census.size
        calls.clear()


def _reduce_row_reference(view, basis, pivots, row):
    """Add-and-reduce: take c times each basis row off, reduce mod p."""
    for brow, bp in zip(basis, pivots):
        c = (row >> bp) & view.lane_mask
        if c:
            row = view.reduce(row + (view.p - c) * brow)
    return row


def _module_basis_reference(view, gens):
    """The reduced echelon basis and pivots by add-and-reduce insertion."""
    basis, pivots = [], []
    for g in gens:
        for row in view.closure_rows(view.encode(g)):
            row = _reduce_row_reference(view, basis, pivots, row)
            if not row:
                continue
            top = row.bit_length() - 1
            pc = top - top % view.lane
            row = view.reduce(row * pow(row >> pc, view.p - 2, view.p))
            basis[:] = [_reduce_row_reference(view, [row], [pc], b) for b in basis]
            pos = sum(bp < pc for bp in pivots)
            basis.insert(pos, row)
            pivots.insert(pos, pc)
    return basis, pivots


def _socle_lines_reference(view, basis, pivots):
    """`socle_lines` with every sum added and reduced mod p.  The lines of
    each leading block are listed as the p = 2 kernel lists them: the
    multiples c*row of each lower row in the outer loop."""
    p, lane, m, reduce = view.p, view.lane, view.m, view.reduce
    pivot_row = dict(zip(pivots, basis))
    images, kernel = {}, []
    for bit in range(0, view.n * view.digits * lane, lane):
        if bit in pivot_row:
            continue
        src, img = 1 << bit, 0
        if (bit // lane) % view.digits < view.digits - m:
            target = bit + m * lane
            row = pivot_row.get(target)
            img = 1 << target if row is None else reduce(
                (p - 1) * (row - (1 << target)))
        while img:
            top = img.bit_length() - 1
            pc = top - top % lane
            c = img >> pc
            if pc not in images:
                inv = pow(c, p - 2, p)
                images[pc] = (reduce(img * inv), reduce(src * inv))
                break
            bimg, bsrc = images[pc]
            img = reduce(img + (p - c) * bimg)
            src = reduce(src + (p - c) * bsrc)
        else:
            for krow, kbit in kernel:
                src = _reduce_row_reference(view, [krow], [kbit], src)
            kernel.append((src, bit))
    rows = [row for row, _ in kernel]
    lines = []
    for lead in range(0, len(rows), m):
        acc = [rows[lead]]
        for row in rows[:lead]:
            acc = [reduce(v + reduce(c * row)) for c in range(p) for v in acc]
        lines += acc
    return lines


@settings(max_examples=150, deadline=None)
@given(sampled_from([(2, 3, 3), (4, 2, 2), (2, 2, 3), (8, 1, 3), (4, 3, 2),
                     (2, 5, 2)]), data())
def test_xor_kernels_match_add_and_reduce_at_p_2(space, draw):
    """At p = 2 `reduce_row`, `insert_row` (through `module_basis`) and
    `socle_lines` add rows by XOR; they give the bases, reduced rows and
    lines of the add-and-reduce reference."""
    q, e, n = space
    ring = chain_ring(q, e)
    view = _FpView(ring, n)
    vectors = lists(lists(integers(0, ring.size - 1), min_size=n, max_size=n),
                    max_size=3)
    gens = draw.draw(vectors)
    basis, pivots = _module_basis_reference(view, gens)
    assert view.module_basis(gens) == basis
    for vec in draw.draw(vectors):
        row = view.encode(vec)
        assert (view.reduce_row(basis, pivots, row)
                == _reduce_row_reference(view, basis, pivots, row))
    assert view.socle_lines(basis, pivots) == _socle_lines_reference(
        view, basis, pivots)


@pytest.mark.parametrize("q,e,n", [(2, 3, 2), (4, 2, 2), (8, 1, 2), (2, 2, 3)])
def test_socle_lines_match_add_and_reduce_on_every_climb_basis(q, e, n):
    """The XOR elimination of `socle_lines` against the reference on every
    submodule of a p = 2 space."""
    view, bases = _climb(chain_ring(q, e), n)
    for basis in bases:
        pivots = [(r.bit_length() - 1) // view.lane * view.lane for r in basis]
        assert view.socle_lines(basis, pivots) == _socle_lines_reference(
            view, basis, pivots)


def test_socle_search_reduce_row_pin(monkeypatch):
    """On R(2,3)^3 no row is reduced: the cover rows x^j v come out of the
    socle elimination already reduced and are inserted as they are.  That
    was 2,625 calls while they went through `insert_row`, and 201,874 when
    every candidate was reduced modulo every found submodule."""
    calls = count_calls(monkeypatch, "reduce_row")
    enumerate_submodules.cache_clear()
    assert enumerate_submodules(chain_ring(2, 3), 3).size == 802
    assert len(calls) == 0


@pytest.mark.parametrize("q,n,expected", [(3, 3, 5776), (2, 4, 43339)])
def test_frontier_census_matches_formula(q, n, expected):
    try:
        census = enumerate_submodules(chain_ring(q, 3), n)
        assert census.size == expected == count_linear(q, 3, n)
        assert len(census.fingerprint_set()) == expected
    finally:
        enumerate_submodules.cache_clear()     # R(2,3)^4 holds ~290 MB


@pytest.mark.parametrize("q,e,n,expected", [
    (2, 2, 3, 129), (4, 2, 2, 33), (5, 2, 2, 45), (2, 4, 2, 83),
    (2, 5, 2, 177), (2, 1, 4, 67), (8, 1, 3, 148),
])
def test_census_confirms_chain_sum_off_e3(q, e, n, expected):
    assert count_linear(q, e, n) == expected
    assert enumerate_submodules(chain_ring(q, e), n).size == expected


@pytest.mark.parametrize("q,e,n", [
    (2, 2, 3), (4, 2, 2), (5, 2, 2), (2, 4, 2), (2, 5, 2), (2, 1, 4),
    (8, 1, 3), (2, 3, 3), (3, 3, 2), (4, 3, 2), (2, 2, 4), (2, 4, 3),
])
def test_census_histogram_by_type_matches_per_type_count(q, e, n):
    ring = chain_ring(q, e)
    view = _FpView(ring, n)
    histogram = collections.Counter()
    for code in enumerate_submodules(ring, n).codes:
        conj = conjugate_type_from_rows(view, code)
        k = code.type_profile
        assert conj == tuple(sum(k[:e - i + 1]) for i in range(1, e + 1))
        histogram[conj] += 1
    assert histogram == {conj: count_by_type(q, e, n, conj)
                         for conj in histogram}
    # every type the formula allows shows up: the counts sum to the total
    types = itertools.combinations_with_replacement(range(n, -1, -1), e)
    assert sum(count_by_type(q, e, n, c) for c in types) == count_linear(q, e, n)
    assert sum(histogram.values()) == count_linear(q, e, n)


def test_prime_field_census_counts_every_subspace():
    census = enumerate_submodules(chain_ring(17, 1), 3)
    assert census.size == 616 == sum(gaussian_binomial(3, k, 17)
                                     for k in range(4))


def test_census_codes_are_pairwise_distinct_and_complete():
    ring = chain_ring(2, 3)
    census = enumerate_submodules(ring, 2)
    # fingerprints are the sorted packed codewords, so distinct means unequal
    seen = set()
    for code in census.codes:
        fp = code_fingerprint(code)
        assert fp not in seen
        seen.add(fp)
    # every singly generated module appears
    for gen in itertools.product(ring.elements(), repeat=2):
        assert code_fingerprint(LinearCode(ring, 2, [gen])) in seen


def test_census_is_cached_and_reports_shape():
    ring = chain_ring(2, 3)
    a = enumerate_submodules(ring, 2)
    assert a is enumerate_submodules(ring, 2)
    assert (a.ring, a.n, a.filter_label, a.size) == (ring, 2, "all", 37)
    assert len(a.fingerprints) == 37


def test_census_caches_are_bounded():
    for enumerator in (enumerate_submodules, enumerate_self_dual,
                       enumerate_sd_standard_forms, enumerate_hsd_constructive):
        maxsize = enumerator.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 64


def test_census_bound_guard():
    with pytest.raises(ValueError):     # 8^9 = 2^27 vectors, over 2^24
        enumerate_submodules(chain_ring(2, 3), 9)
    with pytest.raises(ValueError):
        enumerate_self_dual(chain_ring(9, 3), 4, HERMITIAN)
    enumerate_submodules(chain_ring(2, 3), 2)
    with pytest.raises(ValueError):     # a cached census does not skip the guard
        enumerate_self_dual(chain_ring(2, 3), 9, EUCLIDEAN)


def test_census_member_cap_refuses_before_any_work():
    """R(2,2)^6 has 4,096 vectors, inside the vector bound, but 2,972,475
    submodules: the member cap refuses it from count_linear alone."""
    ring = chain_ring(2, 2)
    assert count_linear(2, 2, 6) == 2972475 > MEMBER_CAP
    with pytest.raises(ValueError, match="member cap"):
        enumerate_submodules(ring, 6)
    # the largest censuses the tests run stay inside the cap
    assert count_linear(2, 3, 4) == 43339 <= MEMBER_CAP
    assert count_linear(2, 2, 5) == 55989 <= MEMBER_CAP


def test_self_dual_census_runs_no_full_census():
    """The isotropic climb never builds the full submodule census."""
    enumerate_self_dual.cache_clear()
    misses = enumerate_submodules.cache_info().misses
    assert enumerate_self_dual(chain_ring(2, 3), 4, EUCLIDEAN).size == 87
    assert enumerate_submodules.cache_info().misses == misses


# ---------------------------------------------------------------------------
# self-dual censuses

def test_euclidean_self_dual_census():
    census = enumerate_self_dual(chain_ring(2, 3), 2, EUCLIDEAN)
    assert census.size == 3 == count_esd(2, 2)
    for code in census.codes:
        assert code.is_self_dual(EUCLIDEAN)


def test_hermitian_self_dual_census():
    census = enumerate_self_dual(chain_ring(4, 3), 2, HERMITIAN)
    assert census.size == 15 == count_hsd(4, 2)
    for code in census.codes:
        assert code.is_self_dual(HERMITIAN)
        assert code.cardinality() ** 2 == (4 ** 3) ** 2    # |C|^2 = |R|^n


def test_self_dual_censuses_empty_at_odd_length():
    assert enumerate_self_dual(chain_ring(2, 3), 1, EUCLIDEAN).size == 0
    assert enumerate_self_dual(chain_ring(4, 3), 1, HERMITIAN).size == 0


def _scan_self_dual(ring, n, gens, card, inner):
    """Raw orthogonality reference: C is self-dual iff its generators
    pairwise annihilate and exactly |C| vectors of R^n annihilate all of
    them."""
    for a in gens:
        for b in gens:
            if inner_product(ring, a, b, inner):
                return False
    if inner == HERMITIAN:
        rows = [tuple(ring.conjugate(x) for x in g) for g in gens]
    else:
        rows = list(gens)
    count = 0
    for w in itertools.product(range(ring.size), repeat=n):
        for g in rows:
            s = 0
            for gi, wi in zip(g, w):
                if gi and wi:
                    s = ring.add(s, ring.mul(gi, wi))
            if s:
                break
        else:
            count += 1
            if count > card:
                return False
    return count == card


@pytest.mark.parametrize("q,e,n", [
    (2, 1, 4), (3, 1, 4), (4, 1, 4), (9, 1, 2), (2, 2, 2), (2, 2, 3),
    (3, 2, 2), (4, 2, 2), (4, 2, 3), (2, 4, 2), (2, 5, 1), (2, 3, 3),
    (3, 3, 2), (4, 3, 2)])
def test_is_self_dual_is_membership_in_the_scan_oracle(q, e, n):
    """The climb census, the R^n scan over the full census and the
    is_self_dual filter of the full census keep the same codes at every
    depth, and for e = 1 the FieldCode test agrees as well."""
    ring = chain_ring(q, e)
    full = enumerate_submodules(ring, n)
    inners = [EUCLIDEAN, HERMITIAN] if ring.field.has_conjugation else [EUCLIDEAN]
    for inner in inners:
        climb = enumerate_self_dual(ring, n, inner)
        scanned = [(fp, code) for fp, code in zip(full.fingerprints, full.codes)
                   if _scan_self_dual(ring, n, code.gens, len(fp), inner)]
        # fingerprint for fingerprint, in the same order, down to the rows
        assert climb.fingerprints == tuple(fp for fp, _ in scanned)
        assert [c.gens for c in climb.codes] == [c.gens for _, c in scanned]
        kept = {fp for fp, code in zip(full.fingerprints, full.codes)
                if code.is_self_dual(inner)}
        assert kept == climb.fingerprint_set()
        if e == 1:
            kept = {fp for fp, code in zip(full.fingerprints, full.codes)
                    if FieldCode.from_rows(ring.field, n, code.gens)
                    .is_self_dual(inner)}
            assert kept == climb.fingerprint_set()


def test_climb_census_matches_standard_forms_at_ne_2_4():
    """NE(2,4) and NE(3,4): the climb and the sweep find the same codes."""
    for q, expected in ((2, 87), (3, 176)):
        ring = chain_ring(q, 3)
        climb = enumerate_self_dual(ring, 4, EUCLIDEAN)
        assert climb.size == expected == count_esd(q, 4)
        assert climb.fingerprint_set() == enumerate_sd_standard_forms(
            ring, 4, EUCLIDEAN).fingerprint_set()


def test_a_code_has_the_same_generators_in_every_census():
    """Every route's census reads each member's generator rows off its
    fingerprint, so one code has the same rows in every census: NE(2,4)
    by the climb and the sweep, NH(4,2) and NH(9,2) by those two and by
    the constructive route."""
    for q, n, inner, expected in ((2, 4, EUCLIDEAN, 87), (4, 2, HERMITIAN, 15),
                                  (9, 2, HERMITIAN, 40)):
        ring = chain_ring(q, 3)
        routes = [enumerate_self_dual(ring, n, inner),
                  enumerate_sd_standard_forms(ring, n, inner)]
        if inner == HERMITIAN:
            routes.append(enumerate_hsd_constructive(q, n))
        docs = [[dumps_code(code) for code in census.codes] for census in routes]
        assert len(docs[0]) == expected
        assert all(other == docs[0] for other in docs[1:])


@pytest.mark.parametrize("q,e,n,inner,expected", [
    (2, 2, 4, EUCLIDEAN, 39), (3, 2, 4, EUCLIDEAN, 41), (4, 2, 4, HERMITIAN, 523),
])
def test_depth_two_self_dual_census_data(q, e, n, inner, expected):
    """Census data at e = 2, where no closed form ships: each value equals
    sum_k so(q,n,k) * lambda(k) over the k-dimensional self-orthogonal
    residue codes, the shape of the e = 3 formula."""
    census = enumerate_self_dual(chain_ring(q, e), n, inner)
    assert census.size == expected == len(census.fingerprint_set())
    for code in census.codes[::max(1, expected // 20)]:
        assert code.is_self_dual(inner)


# ---------------------------------------------------------------------------
# constructive Hermitian enumeration

def test_constructive_census_matches_oracle():
    for q, size in ((4, 15), (9, 40), (16, 85)):
        cons = enumerate_hsd_constructive(q, 2)
        oracle = enumerate_self_dual(chain_ring(q, 3), 2, HERMITIAN)
        assert cons.size == oracle.size == size == count_hsd(q, 2)
        assert cons.fingerprints == oracle.fingerprints


def test_constructive_census_reduces_with_one_view(monkeypatch):
    # one packed view for each of the two residue-field censuses and one
    # for the constructed codes, however many codes there are
    built = []

    class CountedView(_FpView):
        def __init__(self, ring, n):
            built.append((ring, n))
            super().__init__(ring, n)
    monkeypatch.setattr("chaincodes.census._FpView", CountedView)
    for enumerator in (enumerate_hsd_constructive, enumerate_self_dual,
                       enumerate_submodules):
        enumerator.cache_clear()
    assert enumerate_hsd_constructive(9, 2).size == 40
    assert len(built) <= 3


def test_census_keeps_a_repeated_member():
    # a duplicate in a constructive stream must show, not be merged away
    ring = chain_ring(2, 3)
    view = _FpView(ring, 1)
    basis = view.module_basis([(2,)])
    code = LinearCode(ring, 1, [(2,)])
    census = _census_of(ring, 1, "twice", [basis, basis], view)
    assert census.size == 2
    assert len(census.fingerprint_set()) == 1 < census.size
    assert census.fingerprints[0] == census.fingerprints[1] == code_fingerprint(code)
    first, second = census.codes
    assert first.equal(code) and first.gens == second.gens


def test_constructive_census_without_oracle_support():
    census = enumerate_hsd_constructive(9, 2)
    assert census.size == 40 == count_hsd(9, 2)
    for code in census.codes:
        assert code.is_self_dual(HERMITIAN)
    assert len(census.fingerprint_set()) == 40


def test_constructive_census_builds_its_ring_once(monkeypatch):
    enumerate_field_self_dual(field_make(2, 2), 2, HERMITIAN)
    builds = []
    build = ChainRing._build_tables

    def counted(ring):
        builds.append(ring)
        build(ring)
    monkeypatch.setattr(ChainRing, "_build_tables", counted)
    enumerate_hsd_constructive.cache_clear()
    assert enumerate_hsd_constructive(4, 2).size == 15
    assert len(builds) <= 1


def test_constructive_census_rejects_bad_parameters():
    with pytest.raises(ValueError):
        enumerate_hsd_constructive(3, 2)     # non-square order
    assert enumerate_hsd_constructive(4, 3).size == 0


@pytest.mark.parametrize("n", [-3, -1, 0])
def test_sweep_and_constructive_route_refuse_lengths_below_one(n):
    # both return at once on odd n, so the length is checked before that
    with pytest.raises(ValueError, match="n >= 1"):
        enumerate_hsd_constructive(4, n)
    with pytest.raises(ValueError, match="n >= 1"):
        enumerate_sd_standard_forms(chain_ring(2, 3), n, EUCLIDEAN)


def test_extension_stream_counts_and_invariants():
    f = field_make(2, 2)
    c1 = FieldCode.from_rows(f, 2, [(1, 1)])
    assert c1.is_self_dual(HERMITIAN)
    for c0, expected in [(FieldCode.zero(f, 2), 1), (c1, 4)]:
        produced = list(hermitian_sd_extend(c1, c0))
        assert len(produced) == expected == 4 ** c0.dim
        fps = {code_fingerprint(c) for c in produced}
        assert len(fps) == expected
        for code in produced:
            assert code.is_self_dual(HERMITIAN)
            assert code.torsion(1) == c1
            assert code.residue() == c0
            assert code.torsion(2) == code.residue().dual(HERMITIAN)


def test_extension_stream_rejects_bad_inputs():
    f = field_make(2, 2)
    c1 = FieldCode.from_rows(f, 2, [(1, 1)])
    with pytest.raises(ValueError):
        list(hermitian_sd_extend(FieldCode.from_rows(f, 2, [(1, 0)]),
                                 FieldCode.zero(f, 2)))
    with pytest.raises(ValueError):
        list(hermitian_sd_extend(c1, FieldCode.from_rows(f, 2, [(1, 0)])))
    f2 = field_make(2, 1)
    with pytest.raises(ValueError):
        list(hermitian_sd_extend(FieldCode.from_rows(f2, 2, [(1, 1)]),
                                 FieldCode.zero(f2, 2)))


def test_extension_stream_refuses_pairs_over_the_oracle_bound(monkeypatch):
    """c1 = c0 = four copies of <(1,1)> in GF(4)^8 would stream 4^16 codes;
    the pair is refused before any code is built.  With dim(c0) = 3 there
    are 4^12 = DEFAULT_ORACLE_BOUND codes, and the first one comes out."""
    f = field_make(2, 2)
    rows = [tuple(int(j // 2 == i) for j in range(8)) for i in range(4)]
    c1 = FieldCode.from_rows(f, 8, rows)
    assert c1.is_self_dual(HERMITIAN)
    built = []
    trusted = LinearCode._trusted

    def counted(ring, n, gens):
        built.append(None)
        return trusted(ring, n, gens)
    monkeypatch.setattr(LinearCode, "_trusted", staticmethod(counted))
    with pytest.raises(ValueError, match="oracle bound"):
        next(hermitian_sd_extend(c1, c1))
    assert not built
    assert 4 ** 12 == census_module.DEFAULT_ORACLE_BOUND
    first = next(hermitian_sd_extend(c1, FieldCode.from_rows(f, 8, rows[:3])))
    assert first.is_self_dual(HERMITIAN) and len(built) == 1


# ---------------------------------------------------------------------------
# standard-form sweeps

@pytest.mark.parametrize("q,n,inner,expected", [
    (2, 2, EUCLIDEAN, 3),
    (4, 2, HERMITIAN, 15),
    (9, 2, HERMITIAN, 40),
    (4, 4, EUCLIDEAN, 1685),
])
def test_standard_form_sweep_counts(q, n, inner, expected):
    sweep = enumerate_sd_standard_forms(chain_ring(q, 3), n, inner)
    count = count_esd if inner == EUCLIDEAN else count_hsd
    assert sweep.size == expected == count(q, n)
    for code in sweep.codes:
        assert code.is_self_dual(inner)


def test_standard_form_sweep_matches_oracle_sets():
    for q, inner, expected in ((2, EUCLIDEAN, 3), (4, EUCLIDEAN, 5),
                               (5, EUCLIDEAN, 4), (9, EUCLIDEAN, 4),
                               (4, HERMITIAN, 15), (9, HERMITIAN, 40)):
        ring = chain_ring(q, 3)
        sweep = enumerate_sd_standard_forms(ring, 2, inner)
        assert (sweep.fingerprint_set()
                == enumerate_self_dual(ring, 2, inner).fingerprint_set())
        count = count_esd if inner == EUCLIDEAN else count_hsd
        assert sweep.size == count(q, 2) == expected


def test_standard_form_sweep_matches_constructive_route_on_slow_path():
    # R(16,3) has 4,096 elements, past the 256-element table limit, so its
    # arithmetic runs on the slow path
    sweep = enumerate_sd_standard_forms(chain_ring(16, 3), 2, HERMITIAN)
    cons = enumerate_hsd_constructive(16, 2)
    assert sweep.fingerprints == cons.fingerprints
    assert sweep.size == cons.size == count_hsd(16, 2) == 85


def test_standard_form_sweep_ne_2_6():
    """NE(2,6) = 15,255: the Euclidean formula at n = 6, by the sweep.  The
    digest pins the records, read by the batched p = 2 read-out."""
    try:
        sweep = enumerate_sd_standard_forms(chain_ring(2, 3), 6, EUCLIDEAN)
    finally:
        enumerate_sd_standard_forms.cache_clear()   # 15,255 x 512 codewords
    assert sweep.size == count_esd(2, 6) == 15255
    assert hashlib.sha256(repr(sweep.bases).encode()).hexdigest() == (
        "bce5cc458fc9a0ee2696a603c9beb22f83fde937c3680e24c1173eed494fba1e")
    assert len(sweep.fingerprint_set()) == sweep.size
    for i in range(0, sweep.size, 1017):
        assert sweep.codes[i].is_self_dual(EUCLIDEAN)
        assert sweep.codes[i].cardinality() == len(sweep.fingerprints[i]) == 8 ** 3


def test_nh_4_4_by_sweep_and_constructive_route():
    """NH(4,4) = 9,099 by two routes, member for member, from the records
    alone: no fingerprint of 4,096 codewords is built."""
    try:
        sweep = enumerate_sd_standard_forms(chain_ring(4, 3), 4, HERMITIAN)
        cons = enumerate_hsd_constructive(4, 4)
        assert sweep.size == cons.size == count_hsd(4, 4) == 9099
        assert sweep.bases == cons.bases
        assert "fingerprints" not in vars(sweep)
        assert "fingerprints" not in vars(cons)
    finally:
        enumerate_sd_standard_forms.cache_clear()
        enumerate_hsd_constructive.cache_clear()


def test_standard_form_sweep_ne_5_4():
    """NE(5,4) = 672, where the climb refuses R(5,3)^4 for its size."""
    try:
        sweep = enumerate_sd_standard_forms(chain_ring(5, 3), 4, EUCLIDEAN)
        assert sweep.size == count_esd(5, 4) == 672 == len(set(sweep.bases))
        assert "fingerprints" not in vars(sweep)
    finally:
        enumerate_sd_standard_forms.cache_clear()


def test_standard_form_sweep_work_pins(monkeypatch):
    """The sweep solves the congruences once per block shape, not once per
    column choice, and places each solution under its canonical column
    choice only: one GF(p) reduction (`_FpView.module_basis`) per census
    member, and no LinearCode until `codes` is read, then one per member,
    built without re-validation (`LinearCode._trusted`).  Placing every solution under every column choice and
    dropping the repeated spans took 492 reductions for the 87 codes of
    R(2,3)^4 and 1,632 for the 176 of R(3,3)^4.  A41 and A42 are solved,
    not searched: on R(q,3)^4 for q = 2, 3, 4 the sweep makes at most 299,
    1,222 and 4,971 fmat_mul calls, where filtering them over all q^(k^2)
    matrices took 551, 3,910 and 70,875 (on R(2,3)^4, 6,612 when the
    congruences were solved inside the column loops, 640 while C4 and B41
    were filtered too)."""
    muls, built, reduced = [], [], []
    fmat_mul, trusted = census_module.fmat_mul, LinearCode._trusted
    module_basis = _FpView.module_basis

    def counted_mul(*args, **kwargs):
        muls.append(None)
        return fmat_mul(*args, **kwargs)

    def counted_code(ring, n, rows):
        built.append(None)
        return trusted(ring, n, rows)

    def counted_basis(self, gens):
        reduced.append(None)
        return module_basis(self, gens)
    for q, expected, mul_bound in ((2, 87, 299), (3, 176, 1222),
                                   (4, 1685, 4971)):
        muls.clear(), built.clear(), reduced.clear()
        enumerate_sd_standard_forms.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(census_module, "fmat_mul", counted_mul)
                patch.setattr(LinearCode, "_trusted", staticmethod(counted_code))
                patch.setattr(_FpView, "module_basis", counted_basis)
                sweep = enumerate_sd_standard_forms(chain_ring(q, 3), 4,
                                                    EUCLIDEAN)
                assert not built
                assert len(sweep.codes) == len(built) == sweep.size
        finally:
            enumerate_sd_standard_forms.cache_clear()
        assert sweep.size == count_esd(q, 4) == expected
        assert len(reduced) == sweep.size
        assert len(muls) <= mul_bound


@pytest.mark.parametrize("build,calls", [
    (lambda: enumerate_sd_standard_forms(chain_ring(2, 3), 4, EUCLIDEAN), 522),
    (lambda: enumerate_sd_standard_forms(chain_ring(9, 3), 2, HERMITIAN), 240),
    (lambda: enumerate_hsd_constructive(4, 2), 90),
    (lambda: enumerate_hsd_constructive(9, 2), 240),
], ids=["sweep-2-3-4-E", "sweep-9-3-2-H", "constructive-4-2",
        "constructive-9-2"])
def test_module_basis_inserts_only_nonzero_closure_rows(monkeypatch, build,
                                                        calls):
    """`module_basis` leaves out the closure rows u^t g that are zero, so
    on standard-form generators every `insert_row` call inserts a row and
    the calls add up to the members' summed rank: 522, 240, 90 and 240
    calls, against 648, 264, 108 and 264 while the zero rows were tried."""
    inserted = []
    insert_row = _FpView.insert_row

    def counted(self, basis, pivots, row):
        inserted.append(insert_row(self, basis, pivots, row))
        return inserted[-1]
    monkeypatch.setattr(_FpView, "insert_row", counted)
    for enumerator in (enumerate_sd_standard_forms, enumerate_hsd_constructive):
        enumerator.cache_clear()
    census = build()
    assert len(inserted) == sum(map(len, census.bases)) == calls
    assert all(inserted)


@pytest.mark.parametrize("q,inner", [
    (2, EUCLIDEAN), (3, EUCLIDEAN), (4, EUCLIDEAN), (5, EUCLIDEAN),
    (9, EUCLIDEAN), (4, HERMITIAN), (9, HERMITIAN),
])
def test_congruence_solver_matches_brute_force(q, inner):
    """For k <= 2 the sweep's solver of X + dag(X) = G lists exactly the
    k x k matrices satisfying it, for random G = dag(G): q^(k(k-1)/2) r^k
    of them for Hermitian q = r^2, q^(k(k-1)/2) for odd-p Euclidean, and
    q^(k(k+1)/2) or none, as G's diagonal is zero or not, for p = 2."""
    f = field_make(*factor_prime_power(q))
    conj = f.conjugate if inner == HERMITIAN else (lambda x: x)
    solve = _congruence_solver(f, inner)
    rng = random.Random(q)
    self_conj = [x for x in range(q) if conj(x) == x]
    for k in (0, 1, 2):
        squares = list(_all_matrices(q, k, k))
        for trial in range(8):
            G = [[0] * k for _ in range(k)]
            for i in range(k):
                G[i][i] = rng.choice(self_conj) if trial else 0
                for j in range(i + 1, k):
                    G[i][j] = rng.randrange(q)
                    G[j][i] = conj(G[i][j])
            brute = {X for X in squares
                     if all(f.add(X[i][j], conj(X[j][i])) == G[i][j]
                            for i in range(k) for j in range(k))}
            solved = [tuple(map(tuple, X)) for X in solve(G)]
            assert len(solved) == len(set(solved))
            assert set(solved) == brute
            if inner == HERMITIAN:
                count = q ** (k * (k - 1) // 2) * math.isqrt(q) ** k
            elif f.p > 2:
                count = q ** (k * (k - 1) // 2)
            else:
                count = q ** (k * (k + 1) // 2) if not any(
                    G[i][i] for i in range(k)) else 0
            assert len(solved) == count


def test_e3_self_dual_routes_refuse_hopeless_sizes():
    """The sweep and the constructive route refuse, before any search, a
    census whose closed-form count of members would hold more than
    CODEWORD_CAP codewords in its fingerprints, and the sweep a level-0
    search over the oracle bound; NH(4,4), the largest census either
    route has run, holds 9,099 x 4^6 = 37.3 M codewords and stays inside."""
    assert count_hsd(4, 4) * 64 ** 2 <= CODEWORD_CAP
    refused = [
        lambda: enumerate_sd_standard_forms(chain_ring(2, 3), 8, EUCLIDEAN),
        lambda: enumerate_sd_standard_forms(chain_ring(7, 3), 4, EUCLIDEAN),
        lambda: enumerate_hsd_constructive(4, 6),
    ]
    for call in refused:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="codeword cap"):
            call()
        assert time.perf_counter() - start < 1
    # NE(3,10) has no members, but 6 * 3^25 level-0 block tuples to search
    assert count_esd(3, 10) == 0
    with pytest.raises(ValueError, match="oracle bound"):
        enumerate_sd_standard_forms(chain_ring(3, 3), 10, EUCLIDEAN)


def test_climb_refuses_e3_censuses_over_the_codeword_cap():
    """R(2,3)^8 passes the 2^24 vector bound, but its 18,383,895 self-dual
    codes hold 7.5e10 codewords: the climb is refused before it starts.
    NH(4,4), the largest census the climb has run, stays inside."""
    assert count_esd(2, 8) == 18383895
    start = time.perf_counter()
    with pytest.raises(ValueError, match="codeword cap"):
        enumerate_self_dual(chain_ring(2, 3), 8, EUCLIDEAN)
    assert time.perf_counter() - start < 1
    assert count_hsd(4, 4) * 64 ** 2 <= CODEWORD_CAP


def test_standard_form_sweep_guards():
    with pytest.raises(ValueError):
        enumerate_sd_standard_forms(chain_ring(2, 2), 2, EUCLIDEAN)
    with pytest.raises(ValueError):
        enumerate_sd_standard_forms(chain_ring(2, 3), 2, HERMITIAN)
    assert enumerate_sd_standard_forms(chain_ring(2, 3), 3, EUCLIDEAN).size == 0


# ---------------------------------------------------------------------------
# residue-field helpers

def test_field_subspace_scan_counts():
    # the e = 1 census lists the subspaces; a k-space has q^k codewords
    by_dim = collections.Counter(
        len(fp) for fp in enumerate_submodules(chain_ring(2, 1), 3).fingerprints)
    assert by_dim == {1: 1, 2: 7, 4: 7, 8: 1}
    assert enumerate_submodules(chain_ring(3, 1), 2).size == 6


def test_field_self_dual_census_values():
    assert len(enumerate_field_self_dual(field_make(2, 1), 2, EUCLIDEAN)) == 1
    assert len(enumerate_field_self_dual(field_make(2, 2), 2, HERMITIAN)) == 3
    assert len(enumerate_field_self_dual(field_make(3, 1), 2, EUCLIDEAN)) == \
        sigma_e(3, 2)
