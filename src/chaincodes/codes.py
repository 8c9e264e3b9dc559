"""Linear codes over GF(q)[u]/(u^e) and over GF(q).

A LinearCode is the row span of a generator matrix over the chain ring.
Gaussian elimination with column permutations brings any generator matrix
to a block-triangular standard form whose pivots are powers of u with
nondecreasing exponents; for e = 3 the pivot multiplicities give the usual
type (k, l, m).  Its row steps, and those of `contains`, are the ring's
row kernels `scale_row` and `sub_mul_row`.  Duals for both the Euclidean
and the Hermitian inner product come out of the standard form by
valuation-aware back-substitution, and the rows it builds are, reordered,
a standard form of the dual, which the dual carries.  The Hermitian dual
is the Euclidean dual of the conjugated code, and conjugation maps
standard forms to standard forms, so the dual of a dual that this module
built needs no elimination.  Two codes are equal when they have the same
size and one holds the other's generators.
Self-duality needs no dual: a chain ring is a Frobenius ring, so
|C| |C^perp| = |R|^n, and C = C^perp exactly when C is self-orthogonal
and |C|^2 = |R|^n, at every depth e and for field codes alike.

FieldCode is the e = 1 case: a LinearCode over GF(q)[u]/(u) = GF(q) whose
generators are its reduced row echelon basis, so field codes compare and
hash by basis.  Torsion and residue codes of a LinearCode land there.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, mul

from .gf import Field, field_make
from .chainring import ChainRing, ring_over

EUCLIDEAN = "euclidean"
HERMITIAN = "hermitian"


def _check_inner(inner: str, field: Field | None = None) -> str:
    if inner not in (EUCLIDEAN, HERMITIAN):
        raise ValueError(f"inner product must be {EUCLIDEAN!r} or {HERMITIAN!r}")
    if inner == HERMITIAN and field is not None and not field.has_conjugation:
        raise ValueError("the Hermitian product needs a square field order, "
                         f"got q={field.q}")
    return inner


def inner_product(ring, v, w, inner: str = EUCLIDEAN) -> int:
    """Sum of v_i * w_i over the chain ring, with w conjugated for the
    Hermitian product."""
    _check_inner(inner)
    s = 0
    if inner == HERMITIAN:
        for a, b in zip(v, w):
            if a and b:
                s = ring.add(s, ring.mul(a, ring.conjugate(b)))
    else:
        for a, b in zip(v, w):
            if a and b:
                s = ring.add(s, ring.mul(a, b))
    return s


# ---------------------------------------------------------------------------
# standard form

@dataclass(frozen=True)
class StandardForm:
    """Result of row reduction over the chain ring.

    rows are in permuted coordinates: pivot j sits at column j and equals
    u^(pivot_vals[j]), row j is zero left of it and divisible by
    u^(pivot_vals[j]), and pivot_vals is nondecreasing.  perm[j] is the
    original index of permuted column j.

    `_standard_form` computes one from generators, and a conjugate code's
    is the conjugate of its source's, exactly what `_standard_form` gives
    on the conjugated generators.  A dual's form is read off its code's
    form by `LinearCode.dual` and is not re-reduced: it may differ row for
    row from `_standard_form` of the dual's generators, with the same
    pivot_vals.
    """
    ring: ChainRing
    n: int
    perm: tuple[int, ...]
    pivot_vals: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_vals)

    @property
    def profile(self) -> tuple[int, ...]:
        """Pivot multiplicity per valuation; (k, l, m) when e = 3."""
        counts = [0] * self.ring.e
        for v in self.pivot_vals:
            counts[v] += 1
        return tuple(counts)

    def unpermuted_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_unpermute(self.perm, row) for row in self.rows)


def _unpermute(perm, row) -> tuple[int, ...]:
    """The vector with row[pos] at coordinate perm[pos]."""
    vec = [0] * len(perm)
    for pos, entry in enumerate(row):
        vec[perm[pos]] = entry
    return tuple(vec)


def _standard_form(ring: ChainRing, n: int, gens) -> StandardForm:
    q, e = ring.q, ring.e
    rows = [list(g) for g in gens]
    nr = len(rows)
    perm = list(range(n))
    pivot_vals: list[int] = []
    r = 0
    while r < nr and r < n:
        # smallest valuation wins; ties go to the smallest (row, column)
        best = None
        for i in range(r, nr):
            for c in range(r, n):
                a = rows[i][c]
                if a:
                    v = ring.valuation(a)
                    if best is None or v < best[0]:
                        best = (v, i, c)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, i, c = best
        rows[r], rows[i] = rows[i], rows[r]
        if c != r:
            perm[r], perm[c] = perm[c], perm[r]
            for row in rows:
                row[r], row[c] = row[c], row[r]
        # scale the pivot row so the pivot becomes exactly u^v
        winv = ring.unit_inverse(ring.shift_down(rows[r][r], v))
        if winv != 1:
            rows[r] = ring.scale_row(winv, rows[r])
        # clear the u^(>=v) part of column r everywhere else; rows not yet
        # processed lose the entry entirely, earlier rows keep it mod u^v
        qv = q ** v
        prow = rows[r]
        for i2 in range(nr):
            if i2 == r:
                continue
            bh = rows[i2][r] // qv
            if bh:
                rows[i2] = ring.sub_mul_row(rows[i2], bh, prow)
        pivot_vals.append(v)
        r += 1
    return StandardForm(ring, n, tuple(perm), tuple(pivot_vals),
                        tuple(tuple(row) for row in rows[:r]))


# ---------------------------------------------------------------------------

class LinearCode:
    """Row span of a generator matrix over a chain ring."""

    __slots__ = ("ring", "n", "gens", "_std")

    def __init__(self, ring: ChainRing, n: int, gens):
        if n < 1:
            raise ValueError(f"length must be >= 1, got {n}")
        self.ring = ring
        self.n = n
        packed = []
        for row in gens:
            vec = tuple(map(ring.check, row))
            if len(vec) != n:
                raise ValueError(f"generator length {len(vec)} != n = {n}")
            packed.append(vec)
        self.gens: tuple[tuple[int, ...], ...] = tuple(packed)
        self._std: StandardForm | None = None

    @classmethod
    def _trusted(cls, ring: ChainRing, n: int, rows) -> LinearCode:
        """The code on rows that are already tuples of n in-range ring
        codes, taken as they are: for rows the library built itself."""
        code = cls.__new__(cls)
        code.ring = ring
        code.n = n
        code.gens = tuple(rows)
        code._std = None
        return code

    @classmethod
    def zero(cls, ring: ChainRing, n: int) -> LinearCode:
        return cls(ring, n, [])

    @classmethod
    def full(cls, ring: ChainRing, n: int) -> LinearCode:
        return cls(ring, n, fmat_identity(n))

    # -- structure ------------------------------------------------------------

    def standard_form(self) -> StandardForm:
        # deterministic, so two threads racing here only compute it twice
        if self._std is None:
            self._std = _standard_form(self.ring, self.n, self.gens)
        return self._std

    @property
    def type_profile(self) -> tuple[int, ...]:
        """(k, l, m) for e = 3; generally one count per pivot valuation."""
        return self.standard_form().profile

    def cardinality(self) -> int:
        e = self.ring.e
        return self.ring.q ** sum(e - v for v in self.standard_form().pivot_vals)

    def contains(self, word) -> bool:
        w = list(map(self.ring.check, word))
        if len(w) != self.n:
            raise ValueError("word length mismatch")
        ring = self.ring
        std = self.standard_form()
        w = [w[i] for i in std.perm]
        for j, v in enumerate(std.pivot_vals):
            b = w[j]
            if b:
                qv = ring.q ** v
                if b % qv:
                    return False
                w = ring.sub_mul_row(w, b // qv, std.rows[j])
        return not any(w)

    def codewords(self):
        """Every codeword once, as tuples of ring codes."""
        ring = self.ring
        q, e, n = ring.q, ring.e, self.n
        std = self.standard_form()
        acc = [(0,) * n]
        for row, v in zip(std.rows, std.pivot_vals):
            nxt = []
            for c in range(q ** (e - v)):
                if c:
                    scaled = tuple(ring.mul(c, x) for x in row)
                    nxt.extend(tuple(ring.add(a, b) for a, b in zip(w, scaled))
                               for w in acc)
                else:
                    nxt.extend(acc)
            acc = nxt
        for w in acc:
            yield _unpermute(std.perm, w)

    def conjugate_code(self) -> LinearCode:
        """The code of the conjugated generators.  Conjugation is a ring
        automorphism that fixes u and keeps valuations, so `_standard_form`
        makes the same pivot choices on the conjugated rows and returns
        exactly the conjugates of this code's form, with the same perm and
        pivot values: a form already computed here is carried over.  It
        fixes 0 and 1 too, so the conjugate of a FieldCode's RREF basis is
        the RREF basis of the conjugate code, which stays a FieldCode."""
        ring, n = self.ring, self.n
        conj = ring.conjugate
        code = type(self)._trusted(
            ring, n, [tuple(map(conj, row)) for row in self.gens])
        std = self._std
        if std is not None:
            code._std = StandardForm(
                ring, n, std.perm, std.pivot_vals,
                tuple(tuple(map(conj, row)) for row in std.rows))
        return code

    def equal(self, other: LinearCode) -> bool:
        """Same set of codewords: |C| = |D| and D's generators lie in C.
        Then D is a subset of C of the same finite size, so D = C."""
        if not isinstance(other, LinearCode):
            raise ValueError("can only compare with another LinearCode")
        if self.ring != other.ring or self.n != other.n:
            return False
        return (self.cardinality() == other.cardinality()
                and all(self.contains(g) for g in other.gens))

    # -- torsion --------------------------------------------------------------

    def torsion(self, i: int) -> FieldCode:
        """The residue-field code {v mod u : u^i * v in C}; e = 3 only."""
        ring = self.ring
        if ring.e != 3:
            raise ValueError("torsion codes are defined here for e = 3 only")
        if not 0 <= i < ring.e:
            raise ValueError(f"torsion index must be in 0..{ring.e - 1}")
        std = self.standard_form()
        vecs = [_unpermute(std.perm,
                           [ring.residue(ring.shift_down(x, v)) for x in row])
                for row, v in zip(std.rows, std.pivot_vals) if v <= i]
        return FieldCode.from_rows(ring.field, self.n, vecs)

    def residue(self) -> FieldCode:
        return self.torsion(0)

    # -- duality ----------------------------------------------------------------

    def dual(self, inner: str = EUCLIDEAN) -> LinearCode:
        """The dual code under the chosen inner product, returned with its
        standard form attached.

        With C's form (rank r, pivots u^(v_i) at columns i < r, in C's
        permuted coordinates), back-substitution builds one row g_c for
        each free column c >= r, with 1 at c and 0 at the other free
        columns, and one row h_i for each pivot with v_i > 0, with
        u^(e-v_i) at i and nonzero only at pivots j < i.  The generators
        are the g_c, then the h_i by increasing i.

        These rows are a standard form of the dual once columns and rows
        are reordered: the free columns first, then the pivots with
        v_i > 0 by decreasing i, then the pivots with v_i = 0.  The g_c
        come first, with pivot 1 and zeros at the free columns before
        theirs.  The h_i follow by decreasing i, with pivot values e - v_i,
        nondecreasing since v is nondecreasing in i; the columns before h_i
        are free or pivots j > i, where h_i is 0.  Every h_i is divisible by
        u^(e-v_i): by induction down from i, each sum back-substitution
        divides at pivot j < i is a sum of (row-j entry) * (entry of h_i),
        divisible by u^(v_j) * u^(e-v_i), and the quotient by u^(v_j) it
        takes, the sum's digits shifted down v_j places, keeps u^(e-v_i).

        The Hermitian dual is the Euclidean dual of conj(C): [v, w] =
        sum v_i conj(w_i) vanishes on C exactly when the Euclidean product
        of conj(C) with w does.  C's form is computed first, so that
        conj(C) carries it and the dual of a dual this library built needs
        no elimination."""
        if _check_inner(inner, self.ring.field) == HERMITIAN:
            self.standard_form()
            return self.conjugate_code().dual(EUCLIDEAN)
        ring = self.ring
        n, e, q = self.n, ring.e, ring.q
        std = self.standard_form()
        r = std.rank
        vals = std.pivot_vals

        def back_solve(g: list[int], start: int) -> list[int]:
            # rows below `start` are already satisfied; solve upward
            for i in range(start - 1, -1, -1):
                row = std.rows[i]
                s = 0
                for t in range(i + 1, n):
                    if row[t] and g[t]:
                        s = ring.add(s, ring.mul(row[t], g[t]))
                s = ring.neg(s)
                v = vals[i]
                if s % q ** v:
                    raise AssertionError("standard form lost row divisibility")
                g[i] = s // q ** v
            return g

        rows = []
        for c in range(r, n):
            g = [0] * n
            g[c] = 1
            rows.append(back_solve(g, r))
        k = vals.count(0)     # pivots k.. have v > 0
        for i in range(k, r):
            g = [0] * n
            g[i] = q ** (e - vals[i])  # the element u^(e-v)
            rows.append(back_solve(g, i))
        dual = LinearCode._trusted(
            ring, n, [_unpermute(std.perm, g) for g in rows])
        # the form: the h_i by decreasing i, and the columns in the same
        # order; at n = 1 the order is (0,), and itemgetter of one index
        # would return the entry rather than a tuple
        rows[n - r:] = reversed(rows[n - r:])
        pick = itemgetter(*range(r, n), *range(r - 1, k - 1, -1),
                          *range(k)) if n > 1 else tuple
        dual._std = StandardForm(
            ring, n, pick(std.perm),
            (0,) * (n - r) + tuple([e - v for v in reversed(vals[k:])]),
            tuple(map(pick, rows)))
        return dual

    def is_self_orthogonal(self, inner: str = EUCLIDEAN) -> bool:
        """Whether the generators pairwise annihilate; the product is
        sesquilinear, so then the whole code does.  The standard-form rows
        span C, are sparse, and share one column permutation, which leaves
        every inner product unchanged."""
        _check_inner(inner, self.ring.field)
        rows = self.standard_form().rows
        return all(inner_product(self.ring, a, b, inner) == 0
                   for a in rows for b in rows)

    def is_self_dual(self, inner: str = EUCLIDEAN) -> bool:
        """C = C^perp.  A chain ring is a Frobenius ring, so |C| |C^perp| =
        |R|^n for both inner products (Wood 1999): a self-orthogonal C is
        its own dual exactly when |C|^2 = |R|^n, at every depth e."""
        return (self.is_self_orthogonal(inner)
                and self.cardinality() ** 2 == self.ring.size ** self.n)

    def __repr__(self) -> str:
        return (f"LinearCode({self.ring!r}, n={self.n}, "
                f"generators={len(self.gens)})")


# ---------------------------------------------------------------------------
# codes over the residue field

def field_rref(field: Field, n: int, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over GF(q); canonical per subspace."""
    mat = [list(r) for r in rows]
    pr = 0
    for c in range(n):
        piv = None
        for i in range(pr, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[pr], mat[piv] = mat[piv], mat[pr]
        inv = field.inv(mat[pr][c])
        if inv != 1:
            mat[pr] = [field.mul(inv, x) for x in mat[pr]]
        prow = mat[pr]
        for i in range(len(mat)):
            if i != pr and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y))
                          for x, y in zip(mat[i], prow)]
        pr += 1
        if pr == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pr] if any(r))


class FieldCode(LinearCode):
    """A linear code over GF(q): the e = 1 LinearCode over GF(q)[u]/(u),
    generated by its canonical RREF basis."""

    __slots__ = ()

    def __init__(self, field: Field, n: int, rows):
        super().__init__(ring_over(field, 1), n, rows)
        self.gens = field_rref(field, n, self.gens)

    @classmethod
    def from_rows(cls, field: Field, n: int, rows) -> FieldCode:
        return cls(field, n, rows)

    @classmethod
    def zero(cls, field: Field, n: int) -> FieldCode:
        return cls(field, n, ())

    @classmethod
    def full(cls, field: Field, n: int) -> FieldCode:
        return cls(field, n, fmat_identity(n))

    @property
    def field(self) -> Field:
        return self.ring.field

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return self.gens

    @property
    def dim(self) -> int:
        return len(self.gens)

    def subspace_of(self, other: FieldCode) -> bool:
        return all(other.contains(row) for row in self.gens)

    def dual(self, inner: str = EUCLIDEAN) -> FieldCode:
        return FieldCode(self.field, self.n, super().dual(inner).gens)

    def __eq__(self, other):
        if not isinstance(other, FieldCode):
            return NotImplemented
        return (self.field, self.n, self.gens) == (other.field, other.n, other.gens)

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.gens))

    def __repr__(self) -> str:
        return f"FieldCode(GF({self.field.q}), n={self.n}, dim={self.dim})"


# ---------------------------------------------------------------------------
# small dense matrices over the residue field (row-major tuples)

def fmat(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(r) for r in rows)


def fmat_identity(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if j == i else 0 for j in range(k)) for i in range(k))


def fmat_mul(field: Field, a, b, cols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Matrix product; pass `cols` when b can be empty (inner dimension 0),
    since a zero-row matrix cannot carry its column count."""
    if b:
        cols = len(b[0])
    elif cols is None:
        cols = 0
    if cols == 0:
        return tuple(() for _ in a)
    out = []
    for arow in a:
        row = [0] * cols
        for i, x in enumerate(arow):
            if x:
                brow = b[i]
                for j in range(cols):
                    if brow[j]:
                        row[j] = field.add(row[j], field.mul(x, brow[j]))
        out.append(tuple(row))
    return tuple(out)


def fmat_add(field: Field, a, b):
    return tuple(tuple(field.add(x, y) for x, y in zip(r1, r2))
                 for r1, r2 in zip(a, b))


def fmat_neg(field: Field, a):
    return tuple(tuple(field.neg(x) for x in r) for r in a)


def fmat_dagger(field: Field, a):
    """Conjugate transpose."""
    return tuple(tuple(field.conjugate(x) for x in col) for col in zip(*a)) if a else ()


def fmat_inv(field: Field, a) -> tuple[tuple[int, ...], ...] | None:
    """Inverse of a square matrix, or None when singular: [A | I] reduces
    to [I | A^-1] exactly when A is invertible."""
    k = len(a)
    ident = fmat_identity(k)
    rref = field_rref(field, 2 * k, [tuple(row) + e for row, e in zip(a, ident)])
    if tuple(row[:k] for row in rref) != ident:
        return None
    return tuple(row[k:] for row in rref)


# ---------------------------------------------------------------------------
# serialization: one portable schema for ring codes (any e) and field codes
# (e = 1).  An entry is e lists of m coefficients in range(p), the x^j u^t
# coefficient c_(t,j) at [t][j]; its code is the base-p reading
# sum c_(t,j) p^(t*m + j) of those e*m digits, as in `chainring`.

def code_to_json(code: LinearCode) -> dict:
    """The document of a code.  Each entry's e tuples of m digits come from
    the ring's memo (`ChainRing.doc_digits`), filled on first use, or from
    a memo for this call on rings too large to keep one; the lists are
    built fresh, so the result shares nothing with the memo."""
    ring = code.ring
    f = ring.field
    p, m, size = f.p, f.m, ring.e * f.m
    digits = ring.doc_digits
    if digits is None:
        digits = {}
    for x in set(chain.from_iterable(code.gens)).difference(digits):
        ds, rest = [], x
        for _ in range(size):
            rest, d = divmod(rest, p)
            ds.append(d)
        digits[x] = tuple(tuple(ds[i:i + m]) for i in range(0, size, m))
    rows = [[[list(cs) for cs in digits[x]] for x in row] for row in code.gens]
    return {"p": p, "m": m, "e": ring.e, "n": code.n,
            "modulus": list(f.modulus), "rows": rows}


def _doc(x, kind: type, what: str):
    """A JSON integer or list of a code document.  Other values are
    malformed, not coerced: int() would truncate 2.9 and overflow on 1e400,
    and a string or an object would iterate like a list."""
    if type(x) is not kind:
        raise ValueError(f"malformed code document: {what} must be "
                         f"{kind.__name__}, got {type(x).__name__}")
    return x


def _doc_all(xs: list, kind: type, what: str) -> list:
    """xs, once every value in it is exactly `kind` (so a bool is not an
    int); otherwise `_doc` refuses the first value that is not."""
    if not set(map(type, xs)) <= {kind}:
        for x in xs:
            _doc(x, kind, what)
    return xs


def _doc_key(obj: dict, key: str, kind: type):
    """The value at a key that every code document has."""
    if key not in obj:
        raise ValueError(f"malformed code document: missing key {key!r}")
    return _doc(obj[key], kind, key)


def _doc_field(obj: dict) -> Field:
    """The document's field from `field_make`'s cache; the modulus is
    checked first, so nothing reduced or coerced becomes a cache key."""
    modulus = tuple(_doc_all(_doc_key(obj, "modulus", list), int,
                             "modulus coefficient"))
    p, m = _doc_key(obj, "p", int), _doc_key(obj, "m", int)
    if modulus and (min(modulus) < 0 or max(modulus) >= p):
        raise ValueError("malformed code document: modulus coefficients "
                         f"must lie in range({p})")
    return field_make(p, m, modulus)


def code_from_json(obj: dict) -> LinearCode:
    """The code of a document, checked whole: every entry must be e lists
    of exactly m integers in range(p) each, nothing padded or reduced."""
    f = _doc_field(_doc(obj, dict, "document"))
    ring = ring_over(f, _doc_key(obj, "e", int))
    p, m, e = f.p, f.m, ring.e
    rows = _doc_all(_doc_key(obj, "rows", list), list, "row")
    entries = _doc_all([x for row in rows for x in row], list, "entry")
    if not set(map(len, entries)) <= {e}:
        raise ValueError("malformed code document: entry does not have "
                         f"{e} coefficient lists")
    lists = _doc_all([cs for x in entries for cs in x], list, "coefficient list")
    coeffs = _doc_all([c for cs in lists for c in cs], int, "coefficient")
    if not set(map(len, lists)) <= {m} or coeffs and (
            min(coeffs) < 0 or max(coeffs) >= p):
        raise ValueError("malformed code document: a coefficient list "
                         f"must hold {m} integers in range({p})")
    n = _doc_key(obj, "n", int)
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    for row in rows:
        if len(row) != n:
            raise ValueError(f"generator length {len(row)} != n = {n}")
    # every coefficient is in range(p), so every entry is in range(q^e)
    powers = [p ** k for k in range(e * m)]
    return LinearCode._trusted(ring, n, [
        tuple(sum(map(mul, chain.from_iterable(x), powers)) for x in row)
        for row in rows])


def field_code_from_json(obj: dict) -> FieldCode:
    if _doc_key(_doc(obj, dict, "document"), "e", int) != 1:
        raise ValueError("field codes must have e = 1")
    code = code_from_json(obj)
    return FieldCode(code.ring.field, code.n, code.gens)


# what json.dumps(obj, sort_keys=True, separators=(",", ":")) would build
# on every call
_DOC_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_code(code: LinearCode) -> str:
    return _DOC_ENCODER.encode(code_to_json(code)) + "\n"


def loads_code(text: str) -> LinearCode:
    """Parse the portable schema as a chain-ring code (works for any e;
    use field_code_from_json to reload an e = 1 file as a FieldCode)."""
    try:
        obj = json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"malformed code document: {exc}") from exc
    return code_from_json(obj)
