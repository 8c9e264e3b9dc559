"""Tests for the chain ring GF(q)[u]/(u^e)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes.chainring import ChainRing, chain_ring, ring_over
from chaincodes.gf import Field, digit_add, digit_neg, digit_sub, field_make

SMALL_RINGS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (2, 4), (5, 2)]
# above the 256-element table limit: R(9,3) splits into tabled halves of
# 81 elements, R(16,3)'s halves (256) are too large and keep the digit loops
SLOW_RINGS = [(9, 3), (16, 3)]
# the regime each ring above the table limit takes: halves of q^ceil(e/2)
# elements are tabled up to 128 of them
HALF_RINGS = {(9, 3): "half", (8, 3): "half", (3, 6): "half", (4, 5): "half",
              (2, 9): "half", (3, 7): "half", (16, 3): "digits"}
# table-path rings at the 256-element limit, and with odd p
TABLE_EDGE_RINGS = [(16, 2), (4, 4), (2, 8), (9, 2), (5, 3)]


def brute_mul(ring, a, b):
    """Convolution of u-adic digit strings, truncated at u^e."""
    f = ring.field
    da, db = ring.decode(a), ring.decode(b)
    out = [0] * ring.e
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            if i + j < ring.e:
                out[i + j] = f.add(out[i + j], f.mul(x, y))
    return ring.encode(out)


# ---------------------------------------------------------------------------
# construction

def test_chain_ring_cache_and_repr():
    r = chain_ring(4, 3)
    assert r is chain_ring(4, 3)
    assert repr(r) == "GF(4)[u]/(u^3)"
    assert r.size == 64 and r.q == 4 and r.e == 3


def test_ring_over_is_the_one_ring_cache():
    assert ring_over(field_make(2, 2), 3) is chain_ring(4, 3)
    # a code document may name any field and any e up to the size limit
    assert ring_over.cache_info().maxsize is not None


def test_chain_ring_rejects_bad_parameters():
    with pytest.raises(ValueError):
        chain_ring(6, 3)
    with pytest.raises(ValueError):
        ChainRing(field_make(2, 1), 0)


def test_encode_decode_roundtrip():
    r = chain_ring(3, 3)
    for a in r.elements():
        assert r.encode(r.decode(a)) == a
    assert r.decode(r.u) == (0, 1, 0)


@pytest.mark.parametrize("digits", [
    [1.9, "1"], [1.0], ["1"], [True], [False], [None], [4], [-1], [0, 1, 4],
])
def test_encode_refuses_digits_it_would_coerce(digits):
    """Only ints in range(q) are u-coefficients: 1.9 is not truncated and a
    bool is not an int here."""
    with pytest.raises(ValueError, match="is not an element code of GF"):
        chain_ring(4, 3).encode(digits)


# ---------------------------------------------------------------------------
# arithmetic

@pytest.mark.parametrize("q,e", SMALL_RINGS + TABLE_EDGE_RINGS + SLOW_RINGS)
def test_multiplication_matches_digit_convolution(q, e):
    r = chain_ring(q, e)
    els = list(r.elements())
    step = max(1, len(els) // 40)
    for a in els[::step]:
        for b in els[::step]:
            assert r.mul(a, b) == brute_mul(r, a, b)
    assert (r._mul_table is not None) == (r.size <= 256)
    if r._mul_table is not None:
        p = r.field.p
        assert r._add_table == [[digit_add(a, b, p) for b in els] for a in els]
        assert r._val_table == [r._valuation_slow(a) for a in els]


def regime(ring) -> str:
    if ring._mul_table is not None:
        return "table"
    return "digits" if ring._half is None else "half"


def gf9_alt_ring():
    """R(9,3) over GF(9) with the non-canonical modulus x^2 + x + 2."""
    return ring_over(Field(3, 2, [2, 1, 1]), 3)


@pytest.mark.parametrize("ring", [chain_ring(q, e) for q, e in HALF_RINGS]
                         + [chain_ring(4, 3), gf9_alt_ring(), chain_ring(3, 3),
                            chain_ring(5, 3)], ids=repr)
def test_every_regime_matches_the_digit_loops(ring):
    f, p = ring.field, ring.field.p
    els = list(ring.elements())
    sample = els[:: max(1, len(els) // 40)] + [els[-1]]
    for a in sample:
        assert ring.neg(a) == digit_neg(a, p)
        if f.has_conjugation:
            digits = [f.conjugate(d) for d in ring.decode(a)]
            assert ring.conjugate(a) == ring.encode(digits)
        if ring.is_unit(a):
            assert ring.unit_inverse(a) == ring._unit_inverse_slow(a)
        for b in sample:
            assert ring.add(a, b) == digit_add(a, b, p)
            assert ring.sub(a, b) == digit_sub(a, b, p)
            assert ring.mul(a, b) == brute_mul(ring, a, b)


# a ring per regime: full tables (R(4,3), R(9,1), R(4,2)), half tables
# (R(9,3) over either GF(9), R(27,2) with halves of 27), digit loops
# (R(16,3), and R(257,1) over 256 elements)
ROW_RINGS = [chain_ring(4, 3), chain_ring(9, 3), gf9_alt_ring(),
             chain_ring(16, 3), chain_ring(9, 1), chain_ring(257, 1),
             chain_ring(4, 2), chain_ring(27, 2)]


@st.composite
def row_kernel_args(draw):
    """A ring, a scalar (0, 1 and units among them) and two rows, the
    second one sometimes all zero."""
    ring = draw(st.sampled_from(ROW_RINGS))
    element = st.integers(0, ring.size - 1)
    unit = element.filter(ring.is_unit)
    entry = st.sampled_from([0, 1, ring.u]) | unit | element
    c = draw(st.sampled_from([0, 1, ring.size - 1]) | unit | element)
    n = draw(st.integers(0, 6))
    row = st.lists(entry, min_size=n, max_size=n)
    return ring, c, draw(row), draw(st.just([0] * n) | row)


@settings(max_examples=400, deadline=None)
@given(row_kernel_args())
def test_row_kernels_match_the_elementwise_products(args):
    ring, c, xs, ys = args
    p = ring.field.p
    products = [brute_mul(ring, c, y) for y in ys]
    assert ring.scale_row(c, ys) == products == [ring.mul(c, y) for y in ys]
    assert (ring.sub_mul_row(xs, c, ys)
            == [digit_sub(x, cy, p) for x, cy in zip(xs, products)]
            == [ring.sub(x, ring.mul(c, y)) for x, y in zip(xs, ys)])


@pytest.mark.parametrize("ring", [chain_ring(9, 3), chain_ring(27, 2)],
                         ids=repr)
def test_half_table_row_product_is_mul_on_every_pair(ring):
    """The half-table branch of `scale_row` is `mul` with the scalar's
    rows fetched once: every scalar, every entry."""
    assert regime(ring) == "half"
    els = list(ring.elements())
    for c in els:
        assert ring.scale_row(c, els) == [ring.mul(c, y) for y in els]


@pytest.mark.parametrize("q,e", [(3, 3), (4, 3)])
def test_table_rings_subtract_and_negate_by_lookup(q, e, monkeypatch):
    """Full-table rings negate from a table and subtract as add[a][neg[b]],
    with no digit loop, for odd and even p alike."""
    ring = chain_ring(q, e)
    p = ring.field.p
    els = list(ring.elements())
    expected_neg = [digit_neg(a, p) for a in els]
    expected_sub = [[digit_sub(a, b, p) for b in els] for a in els]

    def refuse(*args):
        raise AssertionError("digit loop on a table ring")
    monkeypatch.setattr("chaincodes.chainring.digit_sub", refuse)
    monkeypatch.setattr("chaincodes.chainring.digit_neg", refuse)
    assert [ring.neg(a) for a in els] == expected_neg
    assert [[ring.sub(a, b) for b in els] for a in els] == expected_sub


@pytest.mark.parametrize("ring", [chain_ring(9, 3), gf9_alt_ring()], ids=repr)
def test_half_tables_invert_every_unit(ring):
    for a in ring.elements():
        if ring.is_unit(a):
            inv = ring.unit_inverse(a)
            assert inv == ring._unit_inverse_slow(a) and ring.mul(a, inv) == 1
        else:
            with pytest.raises(ZeroDivisionError):
                ring.unit_inverse(a)


def test_each_ring_takes_its_regime():
    got = {(q, e): regime(chain_ring(q, e)) for q, e in HALF_RINGS}
    assert got == HALF_RINGS
    assert regime(gf9_alt_ring()) == "half"
    for q, e in SMALL_RINGS + TABLE_EDGE_RINGS:
        assert regime(chain_ring(q, e)) == "table"
    # a ring over 256 elements whose halves are at the limit of 128
    assert regime(chain_ring(2, 14)) == "half"
    assert regime(chain_ring(2, 15)) == "digits"
    # conjugation is tabled with the rest, and refused without a square q
    assert chain_ring(9, 3)._half.conj is not None
    assert chain_ring(8, 3)._half.conj is None
    with pytest.raises(ValueError):
        chain_ring(8, 3).conjugate(1)


def test_half_table_build_makes_one_slow_product_per_pair_of_digits(monkeypatch):
    calls = []
    slow = ChainRing._mul_slow

    def counted(ring, a, b):
        calls.append((a, b))
        return slow(ring, a, b)
    monkeypatch.setattr(ChainRing, "_mul_slow", counted)
    ring = ChainRing(field_make(3, 2), 3)  # R(9,3): halves of h*m = 4 digits
    units = [3 ** k for k in range(4)]
    assert sorted(calls) == [(a, b) for a in units for b in units]
    calls.clear()
    ring.mul(300, 500)
    ring.unit_inverse(301)
    assert calls == []


def test_table_build_makes_one_slow_product_per_pair_of_digits(monkeypatch):
    calls = []
    slow = ChainRing._mul_slow

    def counted(ring, a, b):
        calls.append((a, b))
        return slow(ring, a, b)
    monkeypatch.setattr(ChainRing, "_mul_slow", counted)
    ChainRing(field_make(2, 2), 3)                 # R(4,3): e*m = 6 digits
    units = [2 ** k for k in range(6)]
    assert sorted(calls) == [(a, b) for a in units for b in units]


@pytest.mark.parametrize("q,e", SMALL_RINGS + SLOW_RINGS)
def test_ring_axioms_on_slice(q, e):
    r = chain_ring(q, e)
    els = list(r.elements())
    sample = els[:: max(1, len(els) // 10)]
    for a in sample:
        assert r.add(a, 0) == a and r.mul(a, 1) == a
        assert r.add(a, r.neg(a)) == 0
        for b in sample:
            assert r.add(a, b) == r.add(b, a)
            assert r.sub(a, b) == r.add(a, r.neg(b))
            assert r.mul(a, b) == r.mul(b, a)
            for c in sample:
                assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))


def test_u_is_nilpotent_of_index_e():
    for q, e in SMALL_RINGS:
        r = chain_ring(q, e)
        power = 1
        for i in range(e):
            assert power != 0
            assert r.valuation(power) == i
            power = r.mul(power, r.u)
        assert power == 0


# ---------------------------------------------------------------------------
# valuation, units, ideals

@pytest.mark.parametrize("q,e", SMALL_RINGS)
def test_unit_group_size_and_inverses(q, e):
    r = chain_ring(q, e)
    units = [a for a in r.elements() if r.is_unit(a)]
    assert len(units) == q ** e - q ** (e - 1)
    for a in units:
        inv = r.unit_inverse(a)
        assert r.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        r.unit_inverse(r.u)


@pytest.mark.parametrize("q,e", SMALL_RINGS)
def test_valuation_grades_the_ideal_chain(q, e):
    r = chain_ring(q, e)
    for v in range(e + 1):
        layer = sum(1 for a in r.elements() if r.valuation(a) >= v)
        assert layer == q ** (e - v)
    assert r.valuation(0) == e


@pytest.mark.parametrize("q,e", [(2, 3), (3, 3), (4, 2)])
def test_valuation_is_additive_under_multiplication(q, e):
    r = chain_ring(q, e)
    for a in r.elements():
        for b in r.elements():
            got = r.valuation(r.mul(a, b))
            assert got == min(e, r.valuation(a) + r.valuation(b))


def test_shift_up_down_roundtrip():
    r = chain_ring(3, 3)
    for a in r.elements():
        v = r.valuation(a)
        if v < r.e:
            assert r.shift_up(r.shift_down(a, v), v) == a
        assert r.residue(a) == r.decode(a)[0]
    assert r.shift_up(1, 2) == r.mul(r.u, r.u)


# ---------------------------------------------------------------------------
# conjugation

@pytest.mark.parametrize("q,e", [(4, 2), (4, 3), (9, 2), (9, 3)])
def test_conjugation_is_digitwise_and_involutive(q, e):
    r = chain_ring(q, e)
    f = r.field
    for a in r.elements():
        digits = r.decode(a)
        expect = r.encode(tuple(f.conjugate(d) for d in digits))
        assert r.conjugate(a) == expect
        assert r.conjugate(r.conjugate(a)) == a


@pytest.mark.parametrize("q,e", [(4, 3), (9, 2)])
def test_conjugation_is_a_ring_automorphism(q, e):
    r = chain_ring(q, e)
    els = list(r.elements())
    sample = els[:: max(1, len(els) // 25)]
    for a in sample:
        for b in sample:
            assert r.conjugate(r.add(a, b)) == r.add(r.conjugate(a), r.conjugate(b))
            assert r.conjugate(r.mul(a, b)) == r.mul(r.conjugate(a), r.conjugate(b))


def test_conjugation_refused_without_square_residue_field():
    r = chain_ring(2, 3)
    with pytest.raises(ValueError):
        r.conjugate(1)


def test_smul_embeds_field_scalars():
    r = chain_ring(4, 3)
    for c in r.field.elements():
        for a in (0, 1, r.u, 37, r.size - 1):
            assert r.smul(c, a) == r.mul(c, a)
    # over a prime field the scalar action is plain repeated addition
    r3 = chain_ring(3, 3)
    for c in range(3):
        for a in (1, r3.u, 20):
            acc = 0
            for _ in range(c):
                acc = r3.add(acc, a)
            assert r3.smul(c, a) == acc
