"""Tests for linear codes over the chain ring and their residue-field shadows."""
import functools
import itertools
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.strategies import integers, lists, tuples

from chaincodes.census import enumerate_submodules
from chaincodes.chainring import ChainRing, chain_ring, ring_over
from chaincodes.codes import (
    EUCLIDEAN,
    HERMITIAN,
    FieldCode,
    LinearCode,
    _standard_form,
    code_from_json,
    code_to_json,
    dumps_code,
    field_code_from_json,
    field_rref,
    fmat,
    fmat_dagger,
    fmat_identity,
    fmat_inv,
    fmat_mul,
    inner_product,
    loads_code,
)
from chaincodes.gf import Field, field_make

MAX_EXAMPLES = 120


def all_vectors(ring, n):
    return itertools.product(ring.elements(), repeat=n)


def brute_codewords(code):
    """Membership scan over the full ambient module."""
    return {v for v in all_vectors(code.ring, code.n) if code.contains(v)}


def brute_dual(code, inner):
    """Orthogonality scan against the generators."""
    ring = code.ring
    out = set()
    for w in all_vectors(ring, code.n):
        if all(inner_product(ring, g, w, inner) == 0 for g in code.gens):
            out.add(w)
    return out


def brute_torsion(code, i):
    """Residues of the vectors that land in the code after scaling by u^i."""
    ring = code.ring
    out = set()
    for v in all_vectors(ring, code.n):
        scaled = tuple(ring.shift_up(x, i) for x in v)
        if code.contains(scaled):
            out.add(tuple(ring.residue(x) for x in v))
    return out


# ---------------------------------------------------------------------------
# inner products

def test_inner_product_examples():
    r = chain_ring(4, 3)
    u = r.u
    assert inner_product(r, (u, u), (u, u), HERMITIAN) == r.add(
        r.mul(u, r.conjugate(u)), r.mul(u, r.conjugate(u)))
    assert inner_product(r, (1, 0), (0, 1)) == 0
    assert inner_product(r, (1, 1), (1, 1)) == r.add(1, 1)
    with pytest.raises(ValueError):
        inner_product(r, (1,), (1,), "symplectic")


def test_hermitian_product_is_conjugate_symmetric():
    r = chain_ring(4, 2)
    for v in all_vectors(r, 2):
        for w in all_vectors(r, 2):
            lhs = inner_product(r, v, w, HERMITIAN)
            rhs = r.conjugate(inner_product(r, w, v, HERMITIAN))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# standard form

def test_standard_form_worked_example():
    r = chain_ring(4, 3)
    u = r.u
    u2 = r.mul(u, u)
    code = LinearCode(r, 2, [(u, u), (0, u2)])
    sf = code.standard_form()
    assert sf.pivot_vals == (1, 2)
    assert code.type_profile == (0, 1, 1)
    assert code.cardinality() == 4 ** 2 * 4


def test_standard_form_full_and_zero():
    r = chain_ring(2, 3)
    full = LinearCode.full(r, 3)
    assert full.type_profile == (3, 0, 0)
    assert full.cardinality() == r.size ** 3
    zero = LinearCode.zero(r, 3)
    assert zero.type_profile == (0, 0, 0)
    assert zero.cardinality() == 1
    assert list(zero.codewords()) == [(0, 0, 0)]


def test_standard_form_is_a_fixed_point():
    r = chain_ring(3, 3)
    code = LinearCode(r, 3, [(1, 2, r.u), (0, r.u, 1), (0, 0, r.mul(r.u, r.u))])
    sf = code.standard_form()
    again = LinearCode(r, 3, sf.unpermuted_rows()).standard_form()
    assert again.rows == sf.rows or LinearCode(
        r, 3, again.unpermuted_rows()).equal(code)
    # the span is unchanged either way
    assert LinearCode(r, 3, sf.unpermuted_rows()).equal(code)


def test_pivot_valuations_are_sorted():
    r = chain_ring(2, 3)
    code = LinearCode(r, 4, [(r.u, 1, 0, 1), (0, r.u, r.u, 0), (1, 1, 1, 1)])
    sf = code.standard_form()
    assert list(sf.pivot_vals) == sorted(sf.pivot_vals)
    assert sf.rank == len(sf.rows)


@given(gens=lists(tuples(integers(0, 7), integers(0, 7)), min_size=0, max_size=3))
@settings(deadline=None, max_examples=MAX_EXAMPLES)
def test_cardinality_matches_codeword_scan(gens):
    r = chain_ring(2, 3)
    code = LinearCode(r, 2, gens)
    words = set(code.codewords())
    assert len(words) == code.cardinality()
    assert words == brute_codewords(code)


@given(gens=lists(tuples(integers(0, 26), integers(0, 26)), min_size=1, max_size=2))
@settings(deadline=None, max_examples=60)
def test_codewords_are_closed_under_the_module_action(gens):
    r = chain_ring(3, 3)
    code = LinearCode(r, 2, gens)
    words = list(code.codewords())
    probe = words[: 12]
    for v in probe:
        for w in probe:
            assert code.contains(tuple(r.add(a, b) for a, b in zip(v, w)))
        for c in (r.u, 2):
            assert code.contains(tuple(r.mul(c, a) for a in v))


def test_contains_rejects_outsiders():
    r = chain_ring(2, 3)
    code = LinearCode(r, 2, [(r.u, 0), (0, r.u)])
    assert code.contains((r.u, r.u))
    assert not code.contains((1, 0))
    assert not code.contains((1, r.u))
    with pytest.raises(ValueError):
        code.contains((1,))


@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_not_element_codes(flag):
    """A bool is an int to isinstance, but not an element code: refused as
    a generator entry and as a word entry, as the document loader does."""
    r = chain_ring(4, 3)
    with pytest.raises(ValueError):
        LinearCode(r, 2, [[flag, 1]])
    code = LinearCode(r, 2, [[1, 1]])
    with pytest.raises(ValueError):
        code.contains((flag, 1))
    with pytest.raises(ValueError):
        code.contains((1, flag))


# ---------------------------------------------------------------------------
# torsion and residue codes

@pytest.mark.parametrize("gens", [
    [(2, 2), (0, 4)],          # u codes as 2, u^2 as 4 over GF(2)
    [(1, 3)],
    [(2, 0), (0, 1)],
    [],
])
def test_torsion_matches_membership_scan(gens):
    r = chain_ring(2, 3)
    code = LinearCode(r, 2, gens)
    for i in range(3):
        tor = code.torsion(i)
        assert set(tor.codewords()) == brute_torsion(code, i)
    assert code.residue() == code.torsion(0)


def test_torsion_tower_is_increasing():
    r = chain_ring(3, 3)
    code = LinearCode(r, 2, [(1, 2), (0, r.u)])
    t0, t1, t2 = (code.torsion(i) for i in range(3))
    assert t0.subspace_of(t1) and t1.subspace_of(t2)
    assert code.cardinality() == 3 ** (t0.dim + t1.dim + t2.dim)


def test_torsion_rejects_other_depths():
    r = chain_ring(2, 2)
    code = LinearCode.full(r, 1)
    with pytest.raises(ValueError):
        code.torsion(1)
    code3 = LinearCode.full(chain_ring(2, 3), 1)
    with pytest.raises(ValueError):
        code3.torsion(3)


# ---------------------------------------------------------------------------
# duality

DUAL_CASES = [
    (2, 2, [(2, 2), (0, 4)]),
    (2, 2, [(1, 1)]),
    (2, 2, []),
    (2, 1, [(2,)]),
    (3, 2, [(3, 1)]),
]


@pytest.mark.parametrize("q,n,gens", DUAL_CASES)
def test_euclidean_dual_matches_orthogonality_scan(q, n, gens):
    r = chain_ring(q, 3)
    code = LinearCode(r, n, gens)
    dual = code.dual(EUCLIDEAN)
    assert set(dual.codewords()) == brute_dual(code, EUCLIDEAN)
    assert code.cardinality() * dual.cardinality() == r.size ** n
    assert code.dual(EUCLIDEAN).dual(EUCLIDEAN).equal(code)


@pytest.mark.parametrize("gens", [[(2, 2), (0, 4)], [(1, 6)], [], [(3, 5), (0, 4)]])
def test_hermitian_dual_matches_orthogonality_scan(gens):
    r = chain_ring(4, 3)
    code = LinearCode(r, 2, gens)
    dual = code.dual(HERMITIAN)
    assert set(dual.codewords()) == brute_dual(code, HERMITIAN)
    assert code.dual(HERMITIAN).dual(HERMITIAN).equal(code)
    # the Hermitian dual is the coordinatewise conjugate of the Euclidean one
    assert dual.equal(code.dual(EUCLIDEAN).conjugate_code())


def test_dual_type_profile_flips():
    r = chain_ring(2, 3)
    code = LinearCode(r, 3, [(1, 0, 1), (0, 2, 0)])   # type (1, 1, 0)
    k, l, m = code.type_profile
    dk, dl, dm = code.dual(EUCLIDEAN).type_profile
    assert (dk, dl, dm) == (3 - k - l - m, m, l)


def test_hermitian_dual_needs_conjugation():
    r = chain_ring(2, 3)
    with pytest.raises(ValueError):
        LinearCode.full(r, 1).dual(HERMITIAN)


def test_self_dual_examples():
    r4 = chain_ring(4, 3)
    u, u2 = r4.u, r4.mul(r4.u, r4.u)
    code = LinearCode(r4, 2, [(u, u), (0, u2)])
    assert code.is_self_orthogonal(HERMITIAN)
    assert code.is_self_dual(HERMITIAN)

    # x generates GF(4); 1 + x*conj(x) = 0 but 1 + x^2 != 0
    x = r4.field.encode((0, 1))
    gen = LinearCode(r4, 2, [(1, x)])
    assert gen.is_self_dual(HERMITIAN)
    assert not gen.is_self_orthogonal(EUCLIDEAN)

    r2 = chain_ring(2, 3)
    assert LinearCode(r2, 2, [(1, 1)]).is_self_dual(EUCLIDEAN)
    assert not LinearCode(r2, 2, [(1, 0)]).is_self_orthogonal(EUCLIDEAN)
    assert not LinearCode.zero(r2, 2).is_self_dual(EUCLIDEAN)


def test_equal_distinguishes_codes():
    r = chain_ring(2, 3)
    a = LinearCode(r, 2, [(1, 1)])
    b = LinearCode(r, 2, [(1, 1), (2, 2)])
    c = LinearCode(r, 2, [(1, 0)])
    assert a.equal(b)
    assert not a.equal(c)


# full tables (R(2,3), R(4,3), R(4,2), R(9,1)), half tables (R(9,3)) and
# digit loops (R(16,3))
FORM_RINGS = [chain_ring(2, 3), chain_ring(4, 3), chain_ring(9, 3),
              chain_ring(16, 3), chain_ring(4, 2), chain_ring(9, 1)]


@st.composite
def ring_codes(draw, rings=FORM_RINGS, lengths=range(1, 5)):
    """A code of one of `lengths` over one of `rings`, its rows random
    multiples of random powers of u."""
    ring = draw(st.sampled_from(rings))
    n = draw(st.sampled_from(lengths))
    row = st.tuples(st.integers(0, ring.e - 1), st.lists(
        st.integers(0, ring.size - 1), min_size=n, max_size=n))
    rows = draw(st.lists(row, max_size=4))
    return LinearCode(ring, n, [[ring.shift_up(x, v) for x in xs]
                                for v, xs in rows])


def assert_is_standard_form(sf):
    """Pivot u^v at column j with zeros left of it, the whole row divisible
    by u^v, v nondecreasing, and perm a permutation."""
    q = sf.ring.q
    assert sorted(sf.perm) == list(range(sf.n))
    assert list(sf.pivot_vals) == sorted(sf.pivot_vals)
    for j, (row, v) in enumerate(zip(sf.rows, sf.pivot_vals)):
        assert len(row) == sf.n and 0 <= v < sf.ring.e
        assert row[j] == q ** v and not any(row[:j])
        assert all(x % q ** v == 0 for x in row)


@settings(max_examples=200, deadline=None)
@given(code=ring_codes(), hermitian=st.booleans())
def test_dual_carries_a_standard_form_of_itself(code, hermitian):
    ring, n = code.ring, code.n
    inner = HERMITIAN if hermitian and ring.field.has_conjugation else EUCLIDEAN
    dual = code.dual(inner)
    sf = dual._std
    assert sf is not None
    assert_is_standard_form(sf)
    fresh = LinearCode(ring, n, dual.gens)       # reduces its own generators
    assert sf.pivot_vals == _standard_form(ring, n, dual.gens).pivot_vals
    assert dual.cardinality() == fresh.cardinality()
    # the form's rows span the dual: both lie in the other, sizes agree
    assert all(fresh.contains(w) for w in sf.unpermuted_rows())
    assert all(dual.contains(g) for g in fresh.standard_form().unpermuted_rows())
    if ring.e == 3:
        assert dual.residue() == fresh.residue()
        for i in range(3):
            assert dual.torsion(i) == fresh.torsion(i)
    if ring.size ** n <= 4096:
        assert set(dual.codewords()) == set(fresh.codewords())


@settings(max_examples=150, deadline=None)
@given(code=ring_codes([chain_ring(4, 3), chain_ring(9, 3), chain_ring(16, 3),
                        chain_ring(4, 2), chain_ring(9, 1)]),
       reduced=st.booleans())
def test_conjugate_code_carries_the_conjugated_form(code, reduced):
    """conj(C)'s form is exactly the one `_standard_form` finds on the
    conjugated generators, whether C's form was already computed or not."""
    if reduced:
        code.standard_form()
    conj = code.conjugate_code()
    assert conj.standard_form() == _standard_form(code.ring, code.n, conj.gens)


@st.composite
def code_pairs(draw):
    """Two codes of one length over one ring: unrelated, a code and a
    subcode (rows scaled and mixed), or one code on two generator sets."""
    a = draw(ring_codes(lengths=range(1, 4)))
    ring, n = a.ring, a.n
    kind = draw(st.sampled_from(["random", "subcode", "same"]))
    if kind == "random":
        return a, draw(ring_codes([ring], [n]))
    element = st.integers(0, ring.size - 1)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = [0] * n
        for g in a.gens:
            c = draw(element)
            row = [ring.add(x, ring.mul(c, y)) for x, y in zip(row, g)]
        rows.append(row)
    if kind == "same":
        # g - c*row for each generator g: with the rows, they span a again
        for g, row in zip(a.gens, rows + [[0] * n] * len(a.gens)):
            c = draw(element)
            rows.append([ring.sub(x, ring.mul(c, y)) for x, y in zip(g, row)])
    return a, LinearCode(ring, n, rows)


@settings(max_examples=200, deadline=None)
@given(pair=code_pairs())
def test_equal_agrees_with_two_way_containment(pair):
    a, b = pair
    both = (all(a.contains(g) for g in b.gens)
            and all(b.contains(g) for g in a.gens))
    assert a.equal(b) == b.equal(a) == both


# ---------------------------------------------------------------------------
# residue-field codes

def test_field_rref_and_dims():
    f = field_make(2, 1)
    rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    basis = field_rref(f, 3, rows)
    assert len(basis) == 2
    code = FieldCode.from_rows(f, 3, rows)
    assert code.dim == 2
    assert code.cardinality() == 4
    assert len(set(code.codewords())) == 4


def test_field_dual_and_subspaces():
    f = field_make(3, 1)
    code = FieldCode.from_rows(f, 3, [(1, 1, 1)])
    dual = code.dual(EUCLIDEAN)
    assert dual.dim == 2
    assert all(sum(a * b for a, b in zip(v, w)) % 3 == 0
               for v in code.codewords() for w in dual.codewords())
    assert dual.dual(EUCLIDEAN) == code
    assert FieldCode.zero(f, 3).subspace_of(code)
    assert code.subspace_of(FieldCode.full(f, 3))
    assert not dual.subspace_of(code)


def test_field_self_dual_examples():
    f2 = field_make(2, 1)
    assert FieldCode.from_rows(f2, 2, [(1, 1)]).is_self_dual(EUCLIDEAN)
    f4 = field_make(2, 2)
    x = f4.encode((0, 1))
    herm = FieldCode.from_rows(f4, 2, [(1, x)])
    assert herm.is_self_dual(HERMITIAN) == (
        f4.add(f4.mul(1, f4.conjugate(1)), f4.mul(x, f4.conjugate(x))) == 0)


@pytest.mark.parametrize("entry", [1.9, "1", 1.0, None,
                                   pytest.param((1, 0), id="(1, 0)")])
def test_field_code_entries_are_not_coerced(entry):
    """Entries are element codes only, over a field and over a ring alike:
    no float, string, None or coefficient tuple is taken for one."""
    f, ring = field_make(2, 1), chain_ring(4, 3)
    with pytest.raises(ValueError, match="not an element code"):
        FieldCode.from_rows(f, 2, [[entry, True]])
    with pytest.raises(ValueError, match="not an element code"):
        FieldCode.full(f, 2).contains([entry, 1])
    with pytest.raises(ValueError, match="not an element code"):
        LinearCode(ring, 2, [[entry, 1]])
    with pytest.raises(ValueError, match="not an element code"):
        LinearCode.full(ring, 2).contains([entry, 1])
    assert FieldCode.full(f, 2).contains([1, 1])
    assert LinearCode.full(ring, 2).contains([ring.u, 1])


def test_field_code_conjugate():
    f = field_make(2, 2)
    x = f.encode((0, 1))
    code = FieldCode.from_rows(f, 2, [(1, x)])
    conj = code.conjugate_code()
    assert set(conj.codewords()) == {
        tuple(f.conjugate(c) for c in w) for w in code.codewords()}


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([4, 9, 16]), data=st.data())
def test_field_code_conjugates_stay_in_rref(q, data):
    """Conjugation fixes 0 and 1, so the conjugated RREF basis is the
    conjugate code's RREF basis: the FieldCode of the conjugated rows."""
    f = field_make(*{4: (2, 2), 9: (3, 2), 16: (2, 4)}[q])
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                       max_size=n), max_size=3))
    code = FieldCode(f, n, rows)
    conj = code.conjugate_code()
    assert isinstance(conj, FieldCode)
    assert conj == FieldCode(f, n, [[f.conjugate(x) for x in row]
                                    for row in rows])


def test_field_codes_over_a_non_canonical_field():
    """GF(9) with modulus x^2 + x + 2, which chain_ring never builds: the
    torsion codes are e = 1 LinearCodes over the code's own field."""
    field = Field(3, 2, [2, 1, 1])
    ring = ring_over(field, 3)
    u, u2 = ring.u, ring.u ** 2
    code = LinearCode(ring, 3, [(u, 4 * u, 7 * u + u2), (0, u2, 5 * u2)])
    # the span, closed under the ring's own add and mul
    span = {(0,) * 3}
    for g in code.gens:
        multiples = {tuple(ring.mul(r, x) for x in g) for r in ring.elements()}
        span = {tuple(ring.add(a, b) for a, b in zip(s, m))
                for s in span for m in multiples}

    def hermitian(v, w):
        return functools.reduce(field.add, (field.mul(a, field.conjugate(b))
                                            for a, b in zip(v, w)), 0)

    for i in range(3):
        t = code.torsion(i)
        assert isinstance(t, FieldCode) and isinstance(t, LinearCode)
        assert t.field == field and t.ring.e == 1
        # {v mod u : u^i v in C}: each such u^i v is a codeword divisible
        # by u^i, and v mod u is its quotient's residue
        expected = {tuple(ring.residue(ring.shift_down(x, i)) for x in c)
                    for c in span if all(ring.valuation(x) >= i for x in c)}
        assert len(expected) == 9 ** i
        assert set(t.codewords()) == expected
        back = field_code_from_json(json.loads(dumps_code(t)))
        assert back == t and back.field.modulus == (2, 1, 1)
        dual = t.dual(HERMITIAN)
        assert isinstance(dual, FieldCode) and dual.field == field
        assert set(dual.codewords()) == {
            w for w in itertools.product(range(9), repeat=3)
            if all(hermitian(c, w) == 0 for c in expected)}


def test_documents_over_one_field_share_one_ring(monkeypatch):
    """x^3 + x + 1 is not GF(8)'s canonical modulus, so only the ring
    factory can hand out this ring; two loads build its tables once."""
    field = Field(2, 3, [1, 1, 0, 1])
    assert field != field_make(2, 3)
    ring = ChainRing(field, 2)
    text = dumps_code(LinearCode(ring, 2, [(1, ring.u + 3), (0, ring.u)]))
    builds = []
    build = ChainRing._build_tables

    def counted(r):
        builds.append(r)
        build(r)
    monkeypatch.setattr(ChainRing, "_build_tables", counted)
    field_builds = []
    field_build = Field._build_tables

    def field_counted(f):
        field_builds.append(f)
        field_build(f)
    monkeypatch.setattr(Field, "_build_tables", field_counted)
    first, second = loads_code(text), loads_code(text)
    assert first.ring is second.ring is ring_over(field, 2)
    assert first.ring.field.modulus == (1, 1, 0, 1)
    assert len(builds) <= 1
    # and one Field: the second load takes it from field_make's cache
    assert len(field_builds) <= 1


def test_documents_keep_their_own_modulus_in_either_order():
    """GF(9) over x^2 + 1 (canonical) and over x^2 + x + 2: the field cache
    keys on the modulus, so neither document comes back over the other's
    field, whichever was loaded first."""
    codes = []
    for ring in (chain_ring(9, 3), ring_over(Field(3, 2, [2, 1, 1]), 3)):
        u = ring.u
        codes.append(LinearCode(ring, 3, [(1, 4 * u + 5, 7), (0, u, u * u + 2)]))
    texts = [dumps_code(c) for c in codes]
    for i in (0, 1, 0, 1, 1, 0):
        back = loads_code(texts[i])
        assert back.ring.field.modulus == codes[i].ring.field.modulus
        assert back.ring == codes[i].ring
        assert back.gens == codes[i].gens
        assert dumps_code(back) == texts[i]
    assert codes[0].ring.field.modulus == (1, 0, 1)


@pytest.mark.parametrize("modulus", [None, (2, 1, 1)])
def test_dump_and_load_round_trip_every_entry(modulus):
    """Every element of R(9,3) over either GF(9), in one document."""
    ring = ring_over(field_make(3, 2, modulus), 3)
    rows = [tuple(range(k, k + 9)) for k in range(0, ring.size, 9)]
    code = LinearCode(ring, 9, rows)
    assert loads_code(dumps_code(code)).gens == code.gens
    assert code_from_json(code_to_json(code)).gens == code.gens


def test_dumped_entries_share_no_lists():
    """A repeated entry is written once per occurrence, as fresh lists."""
    ring = chain_ring(4, 3)
    obj = code_to_json(LinearCode(ring, 3, [(5, 5, 5), (0, 5, ring.u)]))
    lists = [x for row in obj["rows"] for entry in row for x in (entry, *entry)]
    assert len({id(x) for x in lists}) == len(lists) == 6 * 4
    obj["rows"][0][0][0][0] = 0
    assert obj["rows"][0][1][0] == [1, 0]


def digit_loop_document(code):
    """The document the schema defines, digit by digit: entry x holds
    c_(t,j) = the base-p digit t*m + j of x at [t][j]."""
    f, e = code.ring.field, code.ring.e
    rows = [[[[x // f.p ** (t * f.m + j) % f.p for j in range(f.m)]
              for t in range(e)] for x in row] for row in code.gens]
    return {"p": f.p, "m": f.m, "e": e, "n": code.n,
            "modulus": list(f.modulus), "rows": rows}


@pytest.mark.parametrize("q", [2, 4, 9])
def test_memoized_documents_match_the_digit_loop(q, monkeypatch):
    """Every element of R(q,3) in one code, written with an empty memo and
    again from the memo it filled; a document changed by its caller leaves
    the memo as it was."""
    ring = chain_ring(q, 3)
    monkeypatch.setattr(ring, "doc_digits", {})
    n = min(9, ring.size)
    code = LinearCode(ring, n, [[(k + j) % ring.size for j in range(n)]
                                for k in range(0, ring.size, n)])
    expected = digit_loop_document(code)
    first = code_to_json(code)
    assert len(ring.doc_digits) == ring.size
    first["rows"][0][0][0][0] = 1 - first["rows"][0][0][0][0]
    assert code_to_json(code) == expected
    assert first != expected


def test_rings_over_the_memo_limit_keep_no_document_memo():
    ring = chain_ring(5, 6)                  # 15,625 elements
    code = LinearCode(ring, 2, [(1, 12345), (0, ring.size - 1)])
    assert code_to_json(code) == digit_loop_document(code)
    assert ring.doc_digits is None
    assert chain_ring(16, 3).doc_digits is not None      # 4,096 elements


# ---------------------------------------------------------------------------
# matrix helpers

def test_fmat_inverse_and_dagger():
    f = field_make(2, 2)
    x = f.encode((0, 1))
    a = fmat([(1, x), (x, 1)])
    inv = fmat_inv(f, a)
    assert inv is not None
    assert fmat_mul(f, a, inv) == fmat_identity(2)
    singular = fmat([(1, 1), (1, 1)])
    assert fmat_inv(f, singular) is None
    dag = fmat_dagger(f, a)
    assert dag == fmat([(1, f.conjugate(x)), (f.conjugate(x), 1)])
    f3 = field_make(3, 1)
    for w, y, z, t in itertools.product(range(3), repeat=4):
        m = fmat([(w, y), (z, t)])
        inv = fmat_inv(f3, m)
        assert (inv is None) == ((w * t - y * z) % 3 == 0)
        if inv is not None:
            assert fmat_mul(f3, m, inv) == fmat_identity(2)


def test_fmat_mul_degenerate_shapes():
    f = field_make(2, 1)
    tall = fmat([(), ()])                       # 2 x 0
    assert fmat_mul(f, tall, (), cols=3) == ((0, 0, 0), (0, 0, 0))
    assert fmat_mul(f, tall, (), cols=0) == ((), ())
    assert fmat_mul(f, (), fmat([(1, 0)])) == ()


# ---------------------------------------------------------------------------
# serialization

def test_linear_code_json_roundtrip():
    r = chain_ring(4, 3)
    code = LinearCode(r, 2, [(r.u, 1), (0, 5)])
    text = dumps_code(code)
    back = loads_code(text)
    assert back.ring == code.ring and back.n == code.n
    assert back.equal(code)
    obj = json.loads(text)
    assert code_from_json(obj).equal(code)
    assert code_to_json(code) == obj


def test_codes_and_censuses_pickle():
    r = chain_ring(4, 3)
    code = LinearCode(r, 3, [(r.u, 1, 7), (0, 5, r.u)])
    fresh = pickle.loads(pickle.dumps(code))
    std = code.standard_form()
    cached = pickle.loads(pickle.dumps(code))
    assert fresh.equal(code) and cached.equal(code)
    assert cached.standard_form() == std
    enumerate_submodules.cache_clear()
    census = enumerate_submodules(chain_ring(2, 3), 2)
    unread = pickle.loads(pickle.dumps(census))     # before codes are read
    codes = census.codes
    read = pickle.loads(pickle.dumps(census))
    for back in (unread, read):
        assert back.fingerprints == census.fingerprints
        assert all(a.equal(b) and a.gens == b.gens
                   for a, b in zip(back.codes, codes, strict=True))


def test_field_code_json_roundtrip():
    f = field_make(3, 2)
    code = FieldCode.from_rows(f, 3, [(1, 2, 3), (0, 1, 1)])
    obj = code_to_json(code)
    back = field_code_from_json(obj)
    assert back == code


@pytest.mark.parametrize("n", [0, -1])
def test_field_codes_refuse_lengths_below_one(n):
    f = field_make(2, 1)
    for make in (FieldCode.zero, FieldCode.full):
        with pytest.raises(ValueError, match=f"length must be >= 1, got {n}"):
            make(f, n)
    with pytest.raises(ValueError, match=f"length must be >= 1, got {n}"):
        FieldCode.from_rows(f, n, [])
    obj = code_to_json(FieldCode.from_rows(f, 1, []))
    obj["n"] = n
    # both loaders give the message LinearCode gives
    for load in (code_from_json, field_code_from_json):
        with pytest.raises(ValueError, match=f"length must be >= 1, got {n}"):
            load(dict(obj))


@pytest.mark.parametrize("n", [1, 3])
def test_code_documents_refuse_rows_of_the_wrong_length(n):
    r = chain_ring(4, 3)
    obj = code_to_json(LinearCode(r, 2, [(1, r.u + 3), (0, 1)]))
    obj["n"] = n
    field_obj = code_to_json(FieldCode.from_rows(field_make(3, 2), 2, [(1, 4)]))
    field_obj["n"] = n
    # both loaders give the message LinearCode gives
    message = f"generator length 2 != n = {n}"
    with pytest.raises(ValueError, match=message):
        LinearCode(r, n, [(1, r.u + 3)])
    with pytest.raises(ValueError, match=message):
        code_from_json(obj)
    with pytest.raises(ValueError, match=message):
        field_code_from_json(field_obj)


def test_loads_code_rejects_garbage():
    with pytest.raises(ValueError):
        loads_code("not json")
    with pytest.raises(ValueError):
        loads_code(json.dumps({"q": 4}))
    with pytest.raises(ValueError, match="malformed code document"):
        loads_code("[" * 100_000)          # nested past the recursion limit


def _document_with(path, value):
    """A valid R(4,3) document with the value at the given key path, as JSON
    text; an infinite float is written as 1e400, which json reads as inf."""
    r = chain_ring(4, 3)
    obj = code_to_json(LinearCode(r, 2, [(1, r.u + 3)]))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(obj).replace("Infinity", "1e400")


NON_INTEGER_ENTRIES = [
    (("p",), float("inf")), (("m",), float("inf")), (("e",), float("inf")),
    (("n",), float("inf")), (("modulus", 0), float("inf")),
    (("rows", 0, 1, 0, 0), float("inf")),
    (("p",), 2.9), (("p",), "2"), (("n",), True), (("rows", 0, 1, 0, 0), 1.5),
] + [(path, value) for path in (("rows", 0, 1, 0, 0), ("modulus", 0))
     for value in (True, False, None, {})]


@pytest.mark.parametrize("path,value", NON_INTEGER_ENTRIES)
def test_code_documents_accept_only_json_integers(path, value):
    text = _document_with(path, value)
    if value == float("inf"):
        assert "1e400" in text
    with pytest.raises(ValueError, match="malformed code document"):
        loads_code(text)
    obj = json.loads(text)
    if path != ("e",):
        obj["e"] = 1                     # reload it as a field code
    obj["rows"] = [[entry[:1] for entry in row] for row in obj["rows"]]
    with pytest.raises(ValueError, match="malformed code document"):
        field_code_from_json(obj)


# what dumps_code never writes: coefficient lists of the wrong length and
# integers outside range(p), which reducing or padding would turn into a
# different code
NON_CANONICAL_ENTRIES = [
    (("rows", 0, 1, 0), []), (("rows", 0, 1, 0), [1]),
    (("rows", 0, 1, 0), [1, 1, 0]), (("rows", 0, 1, 0, 0), 3),
    (("rows", 0, 1, 0, 1), -1), (("modulus", 0), 3), (("modulus", 1), -1),
]


@pytest.mark.parametrize("path,value", NON_CANONICAL_ENTRIES)
def test_code_documents_accept_only_canonical_coefficients(path, value):
    text = _document_with(path, value)
    with pytest.raises(ValueError, match="malformed code document"):
        loads_code(text)
    obj = json.loads(text)
    obj["e"] = 1                         # reload it as a field code
    obj["rows"] = [[entry[:1] for entry in row] for row in obj["rows"]]
    with pytest.raises(ValueError, match="malformed code document"):
        field_code_from_json(obj)


def test_lenient_reading_would_load_a_different_code():
    bad = ('{"p":2,"m":2,"e":3,"n":2,"modulus":[3,-1,1],'
           '"rows":[[[[7,-1],[0,0],[0,0]],[[1],[],[0,0]]]]}')
    with pytest.raises(ValueError, match="malformed code document"):
        loads_code(bad)
    good = ('{"p":2,"m":2,"e":3,"n":2,"modulus":[1,1,1],'
            '"rows":[[[[1,1],[0,0],[0,0]],[[1,0],[0,0],[0,0]]]]}')
    assert loads_code(good).gens == ((3, 1),)


@pytest.mark.parametrize("load", [code_from_json, field_code_from_json])
@pytest.mark.parametrize("obj", [[], "rows", None, 3])
def test_code_documents_must_be_objects(load, obj):
    with pytest.raises(ValueError, match="malformed code document"):
        load(obj)


@pytest.mark.parametrize("load", [code_from_json, field_code_from_json])
@pytest.mark.parametrize("key", ["p", "m", "e", "n", "modulus", "rows"])
def test_code_documents_missing_a_key_are_malformed(load, key):
    obj = code_to_json(FieldCode.from_rows(field_make(3, 2), 2, [(1, 4)]))
    assert load(dict(obj)).n == 2
    del obj[key]
    with pytest.raises(ValueError, match=f"malformed code document: missing key '{key}'"):
        load(obj)


def test_field_code_entries_hold_one_coefficient_list():
    obj = code_to_json(FieldCode.from_rows(field_make(3, 2), 2, [(1, 4)]))
    assert field_code_from_json(obj).basis == ((1, 4),)
    for entry in ([], [[1, 0], [0, 0]]):
        obj["rows"][0][0] = entry
        with pytest.raises(ValueError, match="malformed code document"):
            field_code_from_json(obj)
