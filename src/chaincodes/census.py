"""Brute-force censuses and constructive enumeration of codes.

The census oracle never touches the standard-form machinery: a submodule of
R^n is a subspace of the prime-field vector space GF(p)^(e*m*n) closed under
multiplication by u and by the field generator, so the enumeration does a
breadth-first search over single-generator extensions with canonical RREF
bases over GF(p) as search keys.  Every submodule is generated by vectors
whose leading nonzero coordinate is a plain power of u, which keeps the
candidate set small without giving up exhaustiveness.

The GF(p) rows are packed integers (see `_FpView`): reducing, scaling and
adding a row are a few big-int operations, multiplication by u and by the
field generator are lane shifts, and a row's base-p reading is the packed
base-|R| code of its vector, so fingerprints (sorted codeword codes) come
out of the row span without decoding any codeword.

Self-duality is likewise decided by raw orthogonality counting, so these
censuses independently confirm the closed-form counts and the standard-form
based dual computation.

The constructive side (`hermitian_sd_extend`) builds every Hermitian
self-dual chain-ring code that lifts a prescribed pair of residue-field
codes (the u-torsion C1 and the residue code C0), by completing the
generator blocks level by level; trace preimages parameterize the free
diagonal choices.
"""
from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

from .gf import Field, field_make, factor_prime_power
from .chainring import ChainRing, chain_ring
from .codes import (EUCLIDEAN, HERMITIAN, FieldCode, LinearCode, _check_inner,
                    _unpermute, code_to_json, field_rref, fmat, fmat_add,
                    fmat_dagger, fmat_identity, fmat_inv, fmat_mul, fmat_neg,
                    inner_product)
from . import counting

DEFAULT_ORACLE_BOUND = 1 << 24


# ---------------------------------------------------------------------------
# prime-field linear algebra on packed coefficient rows

class _FpView:
    """Vectors over R^n as GF(p) coefficient rows, each packed into one int.

    Coordinate i = (k*e + t)*m + j of a row is the x^j u^t coefficient of
    entry k, and it sits in lane i: bits [i*L, (i+1)*L) of the int.  A ring
    code is sum c_{t,j} p^(t*m + j), so the base-|R| code of a vector is the
    base-p reading sum c_i p^i of its row.

    The lane width L serves two jobs.  Lanes holding up to p^2 - 1 (a
    reduced row plus a multiple of another) are reduced mod p all at once
    by a multiply-shift (Barrett) division, which needs L bits for
    (p^2 - 1) * magic.  Multiplying a reduced row by
    sum_i p^i * 2^((w-1-i)*L) collects its base-p reading in lane w - 1
    with nothing carried in from below, which needs 2^L >= p^w.  So a row
    takes about w^2 * log2(p) bits: a few hundred at census sizes, where
    p^w = |R|^n is at most the oracle bound.
    """

    def __init__(self, ring: ChainRing, n: int):
        f = ring.field
        p, m, e = f.p, f.m, ring.e
        w = n * e * m
        self.ring = ring
        self.n = n
        self.p = p
        self.digits = e * m                      # lanes per ring entry
        # Barrett: floor(x / p) == (x * magic) >> shift for 0 <= x < p^2
        shift = (p * p - 1).bit_length() + p.bit_length()
        magic = -(-(1 << shift) // p)
        lane = max(((p * p - 1) * magic).bit_length(), (p ** w - 1).bit_length())
        self.lane = lane
        self.lane_mask = (1 << lane) - 1
        self._shift = shift
        self._magic = magic
        self._quot_mask = sum(((1 << (lane - shift)) - 1) << (i * lane)
                              for i in range(w))
        self._gather = sum(p ** i << ((w - 1 - i) * lane) for i in range(w))
        self._gather_shift = (w - 1) * lane
        # multiplying by u moves each coefficient up m lanes within its
        # entry; the u^(e-1) coefficients fall off the top
        self._u_keep = sum(self.lane_mask << (i * lane)
                           for i in range(w) if i % self.digits >= m)
        # multiplying by x moves each coefficient up one lane within its
        # (entry, u-power) group; x^m folds back as -(f_0 + ... + f_(m-1) x^(m-1))
        self._x_top = sum(self.lane_mask << (i * lane)
                          for i in range(w) if i % m == m - 1)
        self._x_fold = sum((-c % p) << (j * lane)
                           for j, c in enumerate(f.modulus[:m]))

    # -- lanes ---------------------------------------------------------------

    def reduce(self, x: int) -> int:
        """Every lane mod p, for lanes holding at most p^2 - 1."""
        quot = ((x * self._magic) >> self._shift) & self._quot_mask
        return x - self.p * quot

    def code(self, row: int) -> int:
        """Base-p reading of a reduced row: the vector's code in base |R|."""
        return ((row * self._gather) >> self._gather_shift) & self.lane_mask

    def encode(self, vec) -> int:
        """Packed row of a vector of ring codes."""
        p, lane = self.p, self.lane
        row = 0
        pos = 0
        for r in vec:
            for _ in range(self.digits):
                r, c = divmod(r, p)
                row |= c << pos
                pos += lane
        return row

    def decode(self, row: int) -> tuple[int, ...]:
        """Vector of ring codes of a reduced row."""
        code, size = self.code(row), self.ring.size
        vec = []
        for _ in range(self.n):
            code, r = divmod(code, size)
            vec.append(r)
        return tuple(vec)

    # -- module structure ------------------------------------------------------

    def closure_rows(self, row: int) -> list[int]:
        """Rows of u^t x^j times the vector, t < e and j < m."""
        m, lane = self.ring.field.m, self.lane
        out = []
        for _ in range(self.ring.e):
            xj = row
            for j in range(m):
                out.append(xj)
                if j < m - 1:
                    top = xj & self._x_top
                    xj = self.reduce(((xj - top) << lane)
                                     + (top >> ((m - 1) * lane)) * self._x_fold)
            row = (row << (m * lane)) & self._u_keep
        return out

    def reduce_row(self, basis, pivots, row: int) -> int:
        """The row minus its projection on a reduced echelon basis; pivots
        are the bit offsets of the basis rows' leading lanes."""
        p, mask = self.p, self.lane_mask
        for brow, bp in zip(basis, pivots):
            c = (row >> bp) & mask
            if c:
                row = self.reduce(row + (p - c) * brow)
        return row

    def insert_row(self, basis: list, pivots: list, row: int) -> bool:
        """Insert a row into a reduced echelon basis, ordered by pivot;
        returns False when it is dependent."""
        row = self.reduce_row(basis, pivots, row)
        if not row:
            return False
        p, mask = self.p, self.lane_mask
        low = (row & -row).bit_length() - 1
        pc = low - low % self.lane
        c = (row >> pc) & mask
        if c != 1:
            row = self.reduce(row * pow(c, p - 2, p))
        for idx, brow in enumerate(basis):
            c = (brow >> pc) & mask
            if c:
                basis[idx] = self.reduce(brow + (p - c) * row)
        pos = bisect.bisect(pivots, pc)
        basis.insert(pos, row)
        pivots.insert(pos, pc)
        return True

    def module_basis(self, gens) -> list[int]:
        """Reduced GF(p) echelon basis of the R-span of the vectors; it is
        canonical, one per submodule."""
        basis: list = []
        pivots: list = []
        for g in gens:
            for row in self.closure_rows(self.encode(g)):
                self.insert_row(basis, pivots, row)
        return basis

    def fingerprint(self, basis) -> tuple[int, ...]:
        """Every vector in the GF(p)-span, encoded as a single integer in
        base |R| (coordinate 0 least significant), sorted."""
        reduce = self.reduce
        acc = [0]
        for row in basis:
            multiples = [reduce(c * row) for c in range(self.p)]
            acc = [reduce(w + s) for w in acc for s in multiples]
        return tuple(sorted(map(self.code, acc)))


def code_fingerprint(code: LinearCode) -> tuple[int, ...]:
    """Canonical fingerprint: the sorted tuple of all codewords, each packed
    into one integer.  Computed straight from the generators by prime-field
    closure, independent of the standard-form machinery."""
    view = _FpView(code.ring, code.n)
    return view.fingerprint(view.module_basis(code.gens))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Census:
    """A deterministic, fingerprint-sorted list of codes."""
    ring: ChainRing
    n: int
    filter_label: str
    codes: tuple[LinearCode, ...]
    fingerprints: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.codes)

    def fingerprint_set(self) -> frozenset:
        return frozenset(self.fingerprints)

    def manifest(self) -> dict:
        f = self.ring.field
        return {"p": f.p, "m": f.m, "e": self.ring.e, "n": self.n,
                "filter": self.filter_label, "count": str(self.size)}

    def to_json(self) -> dict:
        return {"manifest": self.manifest(),
                "codes": [code_to_json(c) for c in self.codes]}


def _build_census(ring: ChainRing, n: int, label: str, entries) -> Census:
    pairs = sorted(entries, key=lambda t: t[0])
    return Census(ring, n, label,
                  tuple(c for _, c in pairs), tuple(fp for fp, _ in pairs))


def _normalized_candidates(ring: ChainRing, n: int):
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


def _check_bound(ring: ChainRing, n: int, bound: int) -> None:
    if ring.size ** n > bound:
        raise ValueError(
            f"census of {ring!r}^{n} has {ring.size ** n} vectors, over the "
            f"oracle bound {bound}")


def _bounded(enumerator, ring: ChainRing, n: int, *args, bound: int):
    """enumerator(ring, n, *args) under the caller's bound.  The census does
    not depend on the bound, so whenever the default bound admits it the call
    is keyed like the plain one and shares its cache entry."""
    _check_bound(ring, n, bound)
    if ring.size ** n <= DEFAULT_ORACLE_BOUND:
        return enumerator(ring, n, *args)
    return enumerator(ring, n, *args, bound=bound)


@functools.lru_cache(maxsize=None)
def enumerate_submodules(ring: ChainRing, n: int, *,
                         bound: int = DEFAULT_ORACLE_BOUND) -> Census:
    """Every linear code of length n over the ring, by exhaustive search."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_bound(ring, n, bound)
    view = _FpView(ring, n)
    cands = []
    for v in _normalized_candidates(ring, n):
        row = view.encode(v)
        cands.append((row, view.closure_rows(row)))

    found: dict[tuple, tuple[list, list]] = {(): ([], [])}
    queue = [()]
    while queue:
        key = queue.pop()
        basis, pivots = found[key]
        cosets = set()    # v = v' mod the submodule gives the same extension
        for vec_row, closure in cands:
            rest = view.reduce_row(basis, pivots, vec_row)
            if not rest or rest in cosets:
                continue  # inside this submodule, or a tried coset of it
            cosets.add(rest)
            nb, np_ = list(basis), list(pivots)
            for row in closure:
                view.insert_row(nb, np_, row)
            nkey = tuple(nb)
            if nkey not in found:
                found[nkey] = (nb, np_)
                queue.append(nkey)

    entries = []
    for basis, _ in found.values():
        code = LinearCode(ring, n, [view.decode(row) for row in basis])
        entries.append((view.fingerprint(basis), code))
    return _build_census(ring, n, "all", entries)


def _scan_self_dual(ring: ChainRing, n: int, gens, card: int, inner: str) -> bool:
    """Raw orthogonality oracle: C is self-dual iff its generators pairwise
    annihilate and exactly |C| vectors of R^n annihilate all of them."""
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


@functools.lru_cache(maxsize=None)
def enumerate_self_dual(ring: ChainRing, n: int, inner: str = EUCLIDEAN, *,
                        bound: int = DEFAULT_ORACLE_BOUND) -> Census:
    """The self-dual members of the full census, decided by the scan oracle."""
    _check_inner(inner)
    if inner == HERMITIAN and not ring.field.has_conjugation:
        raise ValueError("Hermitian census needs a square field order")
    full = _bounded(enumerate_submodules, ring, n, bound=bound)
    entries = [(fp, code) for fp, code in zip(full.fingerprints, full.codes)
               if _scan_self_dual(ring, n, code.gens, len(fp), inner)]
    return _build_census(ring, n, f"self-dual-{inner}", entries)


def validate_generalized_count(q: int, e: int, n: int, *,
                               bound: int = DEFAULT_ORACLE_BOUND) -> int:
    """Census-check the conjectural chain-sum count for e != 3 and register
    the validation so counting.count_linear will release the value."""
    expected = counting.linear_count_sum(q, e, n)
    census = _bounded(enumerate_submodules, chain_ring(q, e), n, bound=bound)
    if census.size != expected:
        raise ValueError(
            f"generalized count mismatch at (q={q}, e={e}, n={n}): "
            f"formula gives {expected}, census found {census.size}")
    counting.register_generalized_validation(q, e, n)
    return expected


# ---------------------------------------------------------------------------
# residue-field censuses (the e = 1 special case, re-expressed as FieldCodes)

def _ring_over(field: Field, e: int) -> ChainRing:
    """GF(q)[u]/(u^e) over the field; the canonical field's ring comes from
    the cached factory, so its tables are built once."""
    if field == field_make(field.p, field.m):
        return chain_ring(field.q, e)
    return ChainRing(field, e)


def enumerate_field_codes(field: Field, n: int, *,
                          bound: int = DEFAULT_ORACLE_BOUND) -> tuple[FieldCode, ...]:
    census = _bounded(enumerate_submodules, _ring_over(field, 1), n, bound=bound)
    return tuple(FieldCode.from_rows(field, n, c.gens) for c in census.codes)


def enumerate_field_self_dual(field: Field, n: int, inner: str = EUCLIDEAN, *,
                              bound: int = DEFAULT_ORACLE_BOUND) -> tuple[FieldCode, ...]:
    census = _bounded(enumerate_self_dual, _ring_over(field, 1), n, inner,
                      bound=bound)
    return tuple(FieldCode.from_rows(field, n, c.gens) for c in census.codes)


def field_subspaces(field: Field, vectors, n: int) -> tuple[FieldCode, ...]:
    """All subspaces of the span of the given vectors, ordered by (dim, basis)."""
    vecs = [tuple(v) for v in vectors]
    found: dict[tuple, tuple[tuple[int, ...], ...]] = {(): ()}
    queue = [()]
    while queue:
        key = queue.pop()
        basis = found[key]
        for v in vecs:
            rows = field_rref(field, n, list(basis) + [v])
            if rows == basis or rows in found:
                continue
            found[rows] = rows
            queue.append(rows)
    subs = sorted(found, key=lambda b: (len(b), b))
    return tuple(FieldCode(field, n, b) for b in subs)


# ---------------------------------------------------------------------------
# constructive enumeration of Hermitian self-dual codes for e = 3

def _all_matrices(q: int, rows: int, cols: int):
    """All rows x cols matrices over the field codes 0..q-1, in lex order."""
    if rows == 0 or cols == 0:
        yield tuple(() for _ in range(rows))
        return
    for flat in itertools.product(range(q), repeat=rows * cols):
        yield tuple(flat[i * cols:(i + 1) * cols] for i in range(rows))


def _hermitian_completions(field: Field, G):
    """All X with G + X + X^dagger = 0, for Hermitian G.  Diagonal entries
    run over trace preimages, the strict upper triangle is free, and the
    lower triangle is forced."""
    k = len(G)
    diag = [field.trace_preimage(field.neg(G[i][i])) for i in range(k)]
    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for dvals in itertools.product(*diag):
        for uvals in itertools.product(range(field.q), repeat=len(upper)):
            x = [[0] * k for _ in range(k)]
            for i, v in enumerate(dvals):
                x[i][i] = v
            for (i, j), v in zip(upper, uvals):
                x[i][j] = v
                x[j][i] = field.conjugate(field.sub(field.neg(G[i][j]), v))
            yield fmat(x)


def _assemble_e3_code(ring: ChainRing, n: int, perm, k: int, l: int,
                      A2, A30, A31, A40, A41, A42,
                      B3, B40, B41, C4) -> LinearCode:
    """Rows [I A2 A30+uA31 A40+uA41+u^2A42; 0 uI uB3 uB40+u^2B41;
    0 0 u^2I u^2C4] in permuted block coordinates, mapped back through perm."""
    q = ring.q
    rows = []
    for i in range(k):
        row = [1 if j == i else 0 for j in range(k)]
        row += [A2[i][j] for j in range(l)]
        row += [A30[i][j] + q * A31[i][j] for j in range(l)]
        row += [A40[i][j] + q * A41[i][j] + q * q * A42[i][j] for j in range(k)]
        rows.append(row)
    for i in range(l):
        row = [0] * k
        row += [q if j == i else 0 for j in range(l)]
        row += [q * B3[i][j] for j in range(l)]
        row += [q * B40[i][j] + q * q * B41[i][j] for j in range(k)]
        rows.append(row)
    for i in range(l):
        row = [0] * (k + l)
        row += [q * q if j == i else 0 for j in range(l)]
        row += [q * q * C4[i][j] for j in range(k)]
        rows.append(row)
    return LinearCode(ring, n, [_unpermute(perm, row) for row in rows])


def hermitian_sd_extend(c1: FieldCode, c0: FieldCode):
    """Stream every Hermitian self-dual code over GF(q)[u]/(u^3) whose
    u-torsion code is c1 and whose residue code is c0.

    c1 must be Hermitian self-dual of length n = 2*dim(c1) and c0 a subcode
    of c1.  Yields exactly q^(dim(c0) * n / 2) pairwise distinct codes, in a
    deterministic order.
    """
    f = c1.field
    if not f.has_conjugation:
        raise ValueError("needs a square field order")
    n = c1.n
    if 2 * c1.dim != n or not c1.is_self_dual(HERMITIAN):
        raise ValueError("c1 must be Hermitian self-dual of dimension n/2")
    if c0.field != f or c0.n != n or not c0.subspace_of(c1):
        raise ValueError("c0 must be a subcode of c1")
    k = c0.dim
    l = n // 2 - k
    ring = _ring_over(f, 3)

    # complete c0's basis to a basis of c1; the completion is reduced to
    # zero on c0's pivot columns, then echelonized on its own pivots
    p0 = [next(c for c, x in enumerate(row) if x) for row in c0.basis]
    ext_raw = []
    for row in c1.basis:
        r = list(row)
        for crow, piv in zip(c0.basis, p0):
            if r[piv]:
                coef = r[piv]
                r = [f.sub(x, f.mul(coef, y)) for x, y in zip(r, crow)]
        ext_raw.append(r)
    ext = field_rref(f, n, ext_raw)
    if len(ext) != l:
        raise AssertionError("completion of c0 inside c1 has the wrong rank")
    p1 = [next(c for c, x in enumerate(row) if x) for row in ext]

    rest = [c for c in range(n) if c not in p0 and c not in p1]
    top_rest = [[row[c] for c in rest] for row in c0.basis]
    # regroup the non-pivot columns so the k x k tail block of c0 inverts;
    # self-duality of c1 guarantees some k-subset works
    for comb in itertools.combinations(range(len(rest)), k):
        a40 = fmat([[top_rest[i][j] for j in comb] for i in range(k)])
        a40_inv = fmat_inv(f, a40)
        if a40_inv is not None:
            block4 = [rest[j] for j in comb]
            block3 = [rest[j] for j in range(len(rest)) if j not in comb]
            break
    else:
        raise AssertionError("no invertible tail block; is c1 self-dual?")

    perm = tuple(p0 + p1 + block3 + block4)
    A2 = fmat([[row[c] for c in p1] for row in c0.basis])
    A30 = fmat([[row[c] for c in block3] for row in c0.basis])
    A40 = a40
    B3 = fmat([[row[c] for c in block3] for row in ext])
    B40 = fmat([[row[c] for c in block4] for row in ext])
    C4 = fmat_dagger(f, fmat_neg(f, fmat_mul(f, a40_inv, A30)))

    for A31 in _all_matrices(f.q, k, l):
        w = fmat_mul(f, A30, fmat_dagger(f, A31), cols=k)
        G1 = fmat_add(f, w, fmat_dagger(f, w))
        for X in _hermitian_completions(f, G1):
            A41 = fmat_dagger(f, fmat_mul(f, a40_inv, X))
            G2 = fmat_add(f, fmat_mul(f, A31, fmat_dagger(f, A31), cols=k),
                          fmat_mul(f, A41, fmat_dagger(f, A41)))
            for Y in _hermitian_completions(f, G2):
                A42 = fmat_dagger(f, fmat_mul(f, a40_inv, Y))
                t = fmat_add(f, fmat_mul(f, A31, fmat_dagger(f, B3)),
                             fmat_mul(f, A41, fmat_dagger(f, B40)))
                B41 = fmat_dagger(f, fmat_neg(f, fmat_mul(f, a40_inv, t)))
                yield _assemble_e3_code(ring, n, perm, k, l,
                                        A2, A30, A31, A40, A41, A42,
                                        B3, B40, B41, C4)


@functools.lru_cache(maxsize=None)
def enumerate_hsd_constructive(q: int, n: int) -> Census:
    """All Hermitian self-dual codes over GF(q)[u]/(u^3) of length n, built
    constructively from every (torsion, residue) pair of field codes."""
    p, m = factor_prime_power(q)
    field = field_make(p, m)
    if not field.has_conjugation:
        raise ValueError("Hermitian enumeration needs a square field order")
    ring = chain_ring(q, 3)
    if n % 2:
        return _build_census(ring, n, f"self-dual-{HERMITIAN}-constructive", [])
    entries = []
    for c1 in enumerate_field_self_dual(field, n, HERMITIAN):
        words = [w for w in c1.codewords() if any(w)]
        for c0 in field_subspaces(field, words, n):
            for code in hermitian_sd_extend(c1, c0):
                entries.append((code_fingerprint(code), code))
    return _build_census(ring, n, f"self-dual-{HERMITIAN}-constructive", entries)


# ---------------------------------------------------------------------------
# self-dual codes by direct enumeration of admissible standard forms

@functools.lru_cache(maxsize=None)
def enumerate_sd_standard_forms(ring: ChainRing, n: int,
                                inner: str = EUCLIDEAN) -> Census:
    """Third route to the self-dual census for e = 3: run over all standard
    generator matrices of self-dual shape (k = h, l = m) whose blocks pass
    the orthogonality congruences, and deduplicate the spans.  Level-wise
    filtering keeps the search tiny at desk scale."""
    _check_inner(inner)
    if ring.e != 3:
        raise ValueError("standard-form enumeration is for e = 3")
    f = ring.field
    if inner == HERMITIAN and not f.has_conjugation:
        raise ValueError("Hermitian enumeration needs a square field order")
    label = f"self-dual-{inner}-standard-forms"
    if n % 2:
        return _build_census(ring, n, label, [])

    if inner == HERMITIAN:
        def dag(mat):
            return fmat_dagger(f, mat)
    else:
        def dag(mat):
            return fmat(zip(*mat)) if mat else ()

    def is_zero(mat) -> bool:
        return all(not x for row in mat for x in row)

    def tilde(mat):
        return fmat_add(f, mat, dag(mat))

    q = f.q
    # distinct spans are told apart by their canonical GF(p) basis; only the
    # survivors are fingerprinted
    view = _FpView(ring, n)
    seen: dict[tuple, LinearCode] = {}

    def level0_blocks(k: int, l: int):
        """All (A2, A30, A40, B3, B40, C4) over GF(q) passing the
        valuation-0 part of the congruences."""
        ident_k = fmat_identity(k)
        ident_l = fmat_identity(l)
        for B3 in _all_matrices(q, l, l):
            for B40 in _all_matrices(q, l, k):
                g = fmat_add(f, ident_l, fmat_mul(f, B3, dag(B3)))
                g = fmat_add(f, g, fmat_mul(f, B40, dag(B40), cols=l))
                if not is_zero(g):
                    continue
                b3d = dag(B3)
                b40d = dag(B40)
                for A40 in _all_matrices(q, k, k):
                    a40a40 = fmat_mul(f, A40, dag(A40))
                    for A30 in _all_matrices(q, k, l):
                        A2 = fmat_neg(f, fmat_add(
                            f, fmat_mul(f, A30, b3d),
                            fmat_mul(f, A40, b40d)))
                        g = fmat_add(f, ident_k,
                                     fmat_mul(f, A2, dag(A2), cols=k))
                        g = fmat_add(f, g, fmat_mul(f, A30, dag(A30), cols=k))
                        g = fmat_add(f, g, a40a40)
                        if not is_zero(g):
                            continue
                        for C4 in _all_matrices(q, l, k):
                            g = fmat_add(f, A30, fmat_mul(f, A40, dag(C4)))
                            if is_zero(g):
                                yield A2, A30, A40, B3, B40, C4

    def lifts(k: int, l: int, A30, A40, B3, B40):
        """All (A31, A41, A42, B41) passing the valuation-1 and -2 parts."""
        for A31 in _all_matrices(q, k, l):
            w0 = tilde(fmat_mul(f, A31, dag(A30), cols=k))
            a31a31 = fmat_mul(f, A31, dag(A31), cols=k)
            a31b3 = fmat_mul(f, A31, dag(B3))
            for A41 in _all_matrices(q, k, k):
                g = fmat_add(f, w0, tilde(fmat_mul(f, A41, dag(A40))))
                if not is_zero(g):
                    continue
                h2 = fmat_add(f, a31a31, fmat_mul(f, A41, dag(A41)))
                a41b40 = fmat_mul(f, A41, dag(B40))
                for B41 in _all_matrices(q, l, k):
                    g = fmat_add(f, a31b3, fmat_mul(f, A40, dag(B41)))
                    g = fmat_add(f, g, a41b40)
                    if not is_zero(g):
                        continue
                    for A42 in _all_matrices(q, k, k):
                        g = fmat_add(f, h2, tilde(fmat_mul(f, A42, dag(A40))))
                        if is_zero(g):
                            yield A31, A41, A42, B41

    for k in range(n // 2 + 1):
        l = n // 2 - k
        for s0 in itertools.combinations(range(n), k):
            left1 = [c for c in range(n) if c not in s0]
            for s1 in itertools.combinations(left1, l):
                left2 = [c for c in left1 if c not in s1]
                for s2 in itertools.combinations(left2, l):
                    block4 = tuple(c for c in left2 if c not in s2)
                    perm = s0 + s1 + s2 + block4
                    for A2, A30, A40, B3, B40, C4 in level0_blocks(k, l):
                        for A31, A41, A42, B41 in lifts(k, l, A30, A40, B3, B40):
                            code = _assemble_e3_code(
                                ring, n, perm, k, l, A2, A30, A31,
                                A40, A41, A42, B3, B40, B41, C4)
                            basis = view.module_basis(code.gens)
                            seen.setdefault(tuple(basis), code)
                    # a standard form of any self-dual code appears under
                    # some sorted block choice, so this sweep is exhaustive
    return _build_census(ring, n, label,
                         [(view.fingerprint(basis), code)
                          for basis, code in seen.items()])
