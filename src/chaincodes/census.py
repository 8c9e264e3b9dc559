"""Brute-force censuses and constructive enumeration of codes.

The census oracle never touches the standard-form machinery: a submodule of
R^n is a subspace of the prime-field vector space GF(p)^(e*m*n) closed under
multiplication by u and by the field generator, so the enumeration does a
search over covers M < M + Rv (quotient GF(q), the simple module) with
canonical RREF bases over GF(p) as search keys.  Every submodule is reached
because it has a composition series.  The covers of M are the GF(q)-lines
of S/M, where S = {v : u*v in M} comes out of one elimination per M, so no
vector outside S is ever tried (see `_climb`).

The GF(p) rows are packed integers in one lane layout (see `_FpView`),
each lane the least width at which a short fixed list of guard-bit
compare-and-subtract steps reduces p^2 - 1 mod p: reducing, scaling and
adding a row are a few big-int operations, multiplication by u and by the
field generator are lane shifts, and log2 of a window's lane count SWAR
merges read a row's base-p reading, the packed base-|R| code of its vector.
So fingerprints (sorted codeword codes) come out of the row span without
decoding any codeword.  For p = 2 they are the XOR closure of the basis
rows' codes.  For odd p the whole span is built in one int, a codeword per
window of the rows' own lanes, each window whole bytes: every basis row's
multiples are added by bytes repetition and reduced mod p by the last
guard step of the row reduction, and the same merges then read every
window's code at once (see `_FpView.reduce`, `code` and `_read_windows`
for why no lane, field or window carries into the next).  Neither is sorted:
every basis in the view pivots on each row's top lane, so with the rows
added in increasing pivot order the span comes out in code order.  The
census records, the codes of every member's basis rows, are read by the
same read-out: all rows side by side, one window each, a slice of
READ_ROWS rows per pass (`_FpView.row_codes`).  A vector is packed entry
by entry from a per-view memo of each ring code's lanes, and at p = 2,
where a reduced lane is 0 or 1, every row addition in the echelon
routines is an XOR and nothing is reduced.

The self-dual censuses run the same search on the self-orthogonal covers
only, each step tested by raw inner products of ring vectors; the codes C
it reaches with |C|^2 = |R|^n are the self-dual ones.  So these censuses
independently confirm the closed-form counts and the standard-form based
dual computation.

The constructive side (`hermitian_sd_extend`) builds every Hermitian
self-dual chain-ring code that lifts a prescribed pair of residue-field
codes (the u-torsion C1 and the residue code C0), by completing the
generator blocks level by level; trace preimages parameterize the free
diagonal choices.  `enumerate_hsd_constructive` draws both residue codes
from the e = 1 cover search: C1 from the Hermitian self-dual census of
GF(q)^n, and C0 as the image of each subspace of GF(q)^(n/2) under C1's
basis.

Every route, constructive ones included, hands `_census_of` only the
canonical GF(p) bases of its members, and a `Census` records each member
as the base-|R| codes of its basis rows and nothing else.  Fingerprints
are built from those records when `Census.fingerprints` is first read, and
codes when `Census.codes` is first read, with the recorded rows as their
generators, so a code has the same generators in every census, whichever
route found it, and a caller that reads only sizes or codes never spans a
basis.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import sys
from collections.abc import Iterator
from dataclasses import dataclass

from .gf import Field, field_make, factor_prime_power
from .chainring import ChainRing, ring_over
from .codes import (EUCLIDEAN, HERMITIAN, FieldCode, LinearCode, _check_inner,
                    _unpermute, field_rref, fmat, fmat_add, fmat_dagger,
                    fmat_identity, fmat_inv, fmat_mul, fmat_neg, inner_product)
from .counting import count_esd, count_hsd, count_linear

DEFAULT_ORACLE_BOUND = 1 << 24
MEMBER_CAP = 1 << 16        # largest full census, counted by count_linear
CODEWORD_CAP = 1 << 26      # most codewords an e = 3 self-dual census spans
CENSUS_CACHE_SIZE = 64      # censuses each enumerator keeps
READ_ROWS = 4096            # rows per read-out pass of `_FpView.row_codes`


# ---------------------------------------------------------------------------
# prime-field linear algebra on packed coefficient rows

_ITEM_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}     # memoryview item sizes


def _split(code: int, size: int, n: int) -> tuple[int, ...]:
    """Vector of ring codes of a base-|R| code, |R| = size: its n digits,
    coordinate 0 least significant."""
    vec = []
    for _ in range(n):
        code, r = divmod(code, size)
        vec.append(r)
    return tuple(vec)


class _FpView:
    """Vectors over R^n as GF(p) coefficient rows, each packed into one int.

    Coordinate i = (k*e + t)*m + j of a row is the x^j u^t coefficient of
    entry k, and it sits in lane i: bits [i*b, (i+1)*b) of the int.  A ring
    code is sum c_{t,j} p^(t*m + j), so the base-|R| code of a vector is the
    base-p reading sum c_i p^i of its row.

    Rows and fingerprint spans share one lane layout.  The lane width b is
    the least at which a few guard-bit subtractions reduce a lane holding
    up to p^2 - 1 (a reduced row plus a multiple of another) mod p, all
    lanes at once (see `reduce`): the least b with p*ceil(p/2) <= 2^(b-1).
    That is 2 bits at p = 2, 4 at p = 3 and 5 at p = 5, so a row of
    w = n*e*m lanes takes w*b bits.  A window is W lanes, W the
    least power of two >= max(w, 8), so W*b is a multiple of 8 and a window
    is whole bytes.  A row is one window with lanes w..W-1 zero, and
    log2(W) SWAR merges read its base-p code (see `code`); a fingerprint
    span lays whole codewords side by side in one int, one per window, and
    the same merges read every window at once (see `fingerprint`); so do
    census records, with a row in each window (see `row_codes`).  Both read
    their codes out through `_read_windows`.

    A vector is packed by `encode` from a memo, filled as ring codes are
    first seen, of each code's e*m lanes.  At p = 2 every lane of a
    reduced row is 0 or 1 and adding two reduced rows lane by lane mod 2
    is their XOR, so `reduce_row`, `insert_reduced` and the elimination of
    `socle_lines` add rows by XOR and call no `reduce`.

    A basis is kept in reduced echelon form with each row's pivot, 1, on
    its top nonzero lane, every other row 0 there, and the rows in
    increasing pivot order; it is canonical, one per GF(p)-span, and it is
    the basis `fingerprint` needs as it stands.
    """

    def __init__(self, ring: ChainRing, n: int):
        f = ring.field
        p, m, e = f.p, f.m, ring.e
        w = n * e * m
        self.ring = ring
        self.n = n
        self.p = p
        self.m = m
        self.digits = e * m                      # lanes per ring entry
        self._entry_lanes: dict[int, int] = {}   # ring code -> lanes (encode)
        # the subtrahends of `reduce`: each the least multiple of p at
        # least half the one before (p^2 to start), down to p
        steps = [p * -(-p // 2)]
        while steps[-1] > p:
            steps.append(p * -(-steps[-1] // (2 * p)))
        b = (steps[0] - 1).bit_length() + 1     # 2^(b-1) >= steps[0]
        self.lane = b
        self.lane_mask = (1 << b) - 1
        self._entry_bits = self.digits * b
        self._window_lanes = 1 << (max(w, 8) - 1).bit_length()
        self._window_bytes = self._window_lanes * b // 8
        self._code_bytes = -(-(p ** w - 1).bit_length() // 8)
        self._window_masks: dict[int, tuple[int, int, list[int]]] = {}
        ones, _, merges = self._masks(1)
        self._ones = ones & ((1 << w * b) - 1)   # row constants: w lanes
        self._steps = [(s, self._ones * ((1 << (b - 1)) - s)) for s in steps]
        self._merges = [(b << j, (1 << (b << j)) - p ** (1 << j), mask)
                        for j, mask in enumerate(merges)]
        # multiplying by u moves each coefficient up m lanes within its
        # entry; the u^(e-1) coefficients fall off the top
        self._u_keep = sum(self.lane_mask << (i * b)
                           for i in range(w) if i % self.digits >= m)
        # multiplying by x moves each coefficient up one lane within its
        # (entry, u-power) group; x^m folds back as -(f_0 + ... + f_(m-1) x^(m-1))
        self._x_top = sum(self.lane_mask << (i * b)
                          for i in range(w) if i % m == m - 1)
        self._x_fold = sum((-c % p) << (j * b)
                           for j, c in enumerate(f.modulus[:m]))

    # -- lanes ---------------------------------------------------------------

    def reduce(self, x: int) -> int:
        """Every lane mod p, for lanes holding at most p^2 - 1.

        One guard-bit step per subtrahend s, a multiple of p: adding the
        bias 2^(b-1) - s to a lane x sets its top (guard) bit exactly when
        x >= s, and subtracting s times each guard bit takes s off exactly
        those lanes, so every lane keeps its value mod p.  That needs
        bias >= 0, that is s <= 2^(b-1), and x + bias < 2^b, that is
        x < 2^(b-1) + s, so that nothing carries out of the lane.

        Lanes start in range(r), r = p^2, and each s is the least multiple
        of p with 2s >= r; the step takes them into range(s), since
        r - s <= s, and the next step starts from r = s.  So the first s is
        p*ceil(p/2), each later s is at most the one before, and all are at
        most 2^(b-1) by the choice of b; and x < r <= 2s <= 2^(b-1) + s.
        The subtrahends fall strictly while r > p (p*ceil(r/2p) < r), and
        the last, s = p, leaves range(p).  One bit less would not do: for
        odd p, 2^(b-2) < p*ceil(p/2) = p(p + 1)/2, so any multiple s of p
        up to 2^(b-2) is at most p(p - 1)/2, and 2^(b-2) + s < p^2 would
        carry a lane holding p^2 - 1; for p = 2, one bit cannot hold 3."""
        guard, ones = self.lane - 1, self._ones
        for s, bias in self._steps:
            x -= s * (((x + bias) >> guard) & ones)
        return x

    def code(self, row: int) -> int:
        """Base-p reading of a reduced row: the vector's code in base |R|.

        Merge j turns each pair of fields of 2^j lanes, lo below hi, into
        the one field lo + p^(2^j) * hi of 2^(j+1) lanes.  Before merge j
        each field holds less than p^(2^j), as a lane holds less than p, so
        after it each holds at most p^(2^j) - 1 + p^(2^j) * (p^(2^j) - 1)
        < p^(2^(j+1)), which fits its 2^(j+1) * b bits since p < 2^b: no
        field carries into the next.  The pair lo + 2^d * hi, d = 2^j * b,
        becomes that field by taking (2^d - p^(2^j)) * hi off it, with hi
        read through the low-field mask; what each pair loses is at most
        its own value, so nothing borrows across pairs.  After log2(W)
        merges the window is one field, the code."""
        for width, drop, mask in self._merges:
            row -= drop * ((row >> width) & mask)
        return row

    def encode(self, vec) -> int:
        """Packed row of a vector of ring codes.

        An entry's e*m lanes, its base-p digits, are read from a memo of
        the ring codes seen so far (ring code -> lanes at bit 0), filled by
        the digit loop on a code's first use: an entry then costs a lookup
        and a shift, and no table of all |R| codes is built."""
        memo, step = self._entry_lanes, self._entry_bits
        row = pos = 0
        for r in vec:
            lanes = memo.get(r)
            if lanes is None:
                lanes, x = 0, r
                for shift in range(0, step, self.lane):
                    x, c = divmod(x, self.p)
                    lanes |= c << shift
                memo[r] = lanes
            row |= lanes << pos
            pos += step
        return row

    def decode(self, row: int) -> tuple[int, ...]:
        """Vector of ring codes of a reduced row."""
        return _split(self.code(row), self.ring.size, self.n)

    # -- module structure ------------------------------------------------------

    def x_rows(self, row: int) -> list[int]:
        """Rows of x^j times the vector, j < m."""
        m, lane = self.m, self.lane
        out = [row]
        for _ in range(m - 1):
            top = row & self._x_top
            row = self.reduce(((row - top) << lane)
                              + (top >> ((m - 1) * lane)) * self._x_fold)
            out.append(row)
        return out

    def closure_rows(self, row: int) -> list[int]:
        """Rows of u^t x^j times the vector, t < e and j < m, the zero ones
        left out.  x is a unit, so u^t x^j v is zero exactly when u^t v is,
        that is for t >= e - valuation(v): the powers of u stop there."""
        if not row:
            return []
        step, keep = self.m * self.lane, self._u_keep
        rows = self.x_rows(row)
        out = list(rows)
        for _ in range(self.ring.e - 1):
            rows = [(r << step) & keep for r in rows]
            if not rows[0]:
                break
            out += rows
        return out

    def socle_lines(self, basis, pivots) -> list[int]:
        """One vector per GF(q)-line of S/M, where M is the submodule with
        this reduced echelon basis and S = {v : u*v in M}.

        M and the span C of the unit rows off its pivot lanes are both
        GF(q)-subspaces (pivot lanes come in whole blocks of m lanes, the
        GF(q)-coordinates), so reduction mod M is a GF(q)-linear projection
        onto C and S/M is the kernel K of v -> u*v mod M on C.  K comes out
        of one elimination over the unit rows of C, from the lowest lane
        up, each paired with its image: u*e_i is e_(i+m), which reduces mod
        M to itself off the pivots and to e_P - r_P on the pivot P of the
        basis row r_P.  A source whose image cancels is a kernel row with
        its pivot on its own lane, its top lane, so K's reduced echelon
        basis builds up as it goes.  K is x-closed, so its rows come in
        blocks of m: a row g with the field element 1 in its leading (top
        nonzero) block, g pivoting on that block's lane 0, followed by
        x g, ..., x^(m-1) g.  The lines of K are then g plus any GF(p)
        combination of the rows of lower blocks, once per leading block.
        Every line vector is zero on M's pivots and has 1 in its leading
        block, so its rows x^j v are already reduced against M and against
        each other.

        At p = 2 every lane of a reduced row is 0 or 1, so the elimination
        adds rows by XOR and never reduces, and each leading coefficient
        is already 1.
        """
        p, lane, mask, m, reduce = self.p, self.lane, self.lane_mask, self.m, self.reduce
        xor = p == 2
        pivot_row = dict(zip(pivots, basis))
        step = m * lane
        images: dict[int, tuple[int, int]] = {}   # pivot bit -> (image, source)
        kernel: list[tuple[int, int]] = []        # (row, pivot bit), pivots ascending
        for bit in range(0, self.n * self.digits * lane, lane):
            if bit in pivot_row:
                continue
            src = 1 << bit
            if (bit // lane) % self.digits < self.digits - m:
                target = bit + step
                row = pivot_row.get(target)
                if row is None:
                    img = 1 << target
                elif xor:
                    img = row ^ (1 << target)
                else:
                    img = reduce((p - 1) * (row - (1 << target)))
            else:
                img = 0                            # u*e_i = 0 at the top u-power
            while img:
                top = img.bit_length() - 1
                pc = top - top % lane
                c = img >> pc
                hit = images.get(pc)
                if hit is None:
                    if c != 1:
                        inv = pow(c, p - 2, p)
                        img, src = reduce(img * inv), reduce(src * inv)
                    images[pc] = (img, src)
                    break
                bimg, bsrc = hit
                if xor:
                    img ^= bimg
                    src ^= bsrc
                else:
                    img = reduce(img + (p - c) * bimg)
                    src = reduce(src + (p - c) * bsrc)
            else:
                # every kernel row so far pivots below this lane and is zero here
                for krow, kbit in kernel:
                    c = (src >> kbit) & mask
                    if c:
                        src = src ^ krow if xor else reduce(src + (p - c) * krow)
                kernel.append((src, bit))
        rows = [row for row, _ in kernel]
        lines = []
        for lead in range(0, len(rows), m):
            acc = [rows[lead]]
            for row in rows[:lead]:
                if xor:
                    acc += [v ^ row for v in acc]
                else:
                    multiples = [reduce(c * row) for c in range(p)]
                    acc = [reduce(v + s) for v in acc for s in multiples]
            lines += acc
        return lines

    def reduce_row(self, basis, pivots, row: int) -> int:
        """The reduced row minus its projection on a reduced echelon basis;
        pivots are the bit offsets of the basis rows' top lanes.  At p = 2
        every lane is 0 or 1 and the row takes a basis row off by XOR."""
        p, mask = self.p, self.lane_mask
        for brow, bp in zip(basis, pivots):
            c = (row >> bp) & mask
            if c:
                row = row ^ brow if p == 2 else self.reduce(row + (p - c) * brow)
        return row

    def insert_row(self, basis: list, pivots: list, row: int) -> bool:
        """Insert a row into a reduced echelon basis, ordered by pivot;
        returns False when it is dependent."""
        row = self.reduce_row(basis, pivots, row)
        if not row:
            return False
        top = row.bit_length() - 1
        c = row >> (top - top % self.lane)
        if c != 1:
            row = self.reduce(row * pow(c, self.p - 2, self.p))
        self.insert_reduced(basis, pivots, row)
        return True

    def insert_reduced(self, basis: list, pivots: list, row: int) -> None:
        """Insert a reduced row that is zero on the basis pivots and 1 on
        its own top lane: only that new pivot is cleared out of the basis
        (by XOR at p = 2)."""
        p, mask = self.p, self.lane_mask
        top = row.bit_length() - 1
        pc = top - top % self.lane
        for idx, brow in enumerate(basis):
            c = (brow >> pc) & mask
            if c:
                basis[idx] = (brow ^ row if p == 2
                              else self.reduce(brow + (p - c) * row))
        pos = bisect.bisect(pivots, pc)
        basis.insert(pos, row)
        pivots.insert(pos, pc)

    def module_basis(self, gens) -> list[int]:
        """Reduced GF(p) echelon basis of the R-span of the vectors; it is
        canonical, one per submodule."""
        basis: list = []
        pivots: list = []
        for g in gens:
            for row in self.closure_rows(self.encode(g)):
                self.insert_row(basis, pivots, row)
        return basis

    def _masks(self, count: int) -> tuple[int, int, list[int]]:
        """The lane constants over `count` windows: ONES (bit 0 of every
        lane), the bias of the last guard step of `reduce` (2^(b-1) - p in
        every lane) and the merge masks of `code` (the low field of each
        pair of 2^j lanes, j < log2(W)), each one window's bytes repeated."""
        masks = self._window_masks.get(count)
        if masks is None:
            b, size = self.lane, self._window_bytes
            bits = 8 * size

            def spread(pattern: int) -> int:
                return int.from_bytes(pattern.to_bytes(size, "little") * count,
                                      "little")
            ones = spread(sum(1 << i for i in range(0, bits, b)))
            merges, width = [], b
            while width < bits:
                merges.append(spread(sum(((1 << width) - 1) << i
                                         for i in range(0, bits, 2 * width))))
                width *= 2
            masks = self._window_masks[count] = (
                ones, ones * ((1 << (b - 1)) - self.p), merges)
        return masks

    def fingerprint(self, basis) -> tuple[int, ...]:
        """Every vector in the GF(p)-span, encoded as a single integer in
        base |R| (coordinate 0 least significant), sorted.

        The basis must be the view's reduced echelon basis, in increasing
        pivot order, as `insert_row` and `insert_reduced` keep it.  Then
        the span comes out sorted with no sort: each row's pivot is its top
        lane, and the rows are added in pivot order, each new row's
        coefficient the most significant digit of a word's place.  Two
        words agree above the highest pivot where their coefficients differ
        (every row is zero above its pivot), and at that pivot each holds
        its own coefficient (no other row is nonzero there), so their codes
        compare as those coefficients do, and so as their places do.  The
        word at place p^i is the code of basis row i itself: those words
        are a `Census` member's record, and `Census.codes` reads each
        member's generators from the record, not from the fingerprint.

        For p = 2 a row's code is its lanes read as bits, so the span is
        the XOR closure of the basis rows' codes, doubled row by row.

        For odd p the whole span is built in one int, one codeword per
        window, with the basis rows as they stand: each row multiplies the
        window count by p.  The accumulator's bytes are repeated p times,
        and copy s gets the reduced multiple s*row, its bytes repeated once
        per window, added to each of its windows.  Every lane then holds at
        most 2p - 2 < 2^(b-1) + p, and the last guard step of `reduce`
        (s = p) reduces it mod p.  The multiples s*row are built the same
        way, one addition of the row at a time.

        Every window then holds a reduced codeword, and `_read_windows`,
        the read-out `row_codes` uses for census records too, reads every
        window's code at once."""
        if self.p == 2:
            acc = [0]
            for c in map(self.code, basis):
                acc += [x ^ c for x in acc]
            return tuple(acc)
        p, size, guard = self.p, self._window_bytes, self.lane - 1
        ones1, bias1, merges = self._masks(1)
        acc, windows = 0, 1
        for row in basis:
            multiples = [0, row]
            for _ in range(p - 2):
                x = multiples[-1] + row
                multiples.append(x - p * (((x + bias1) >> guard) & ones1))
            copies = acc.to_bytes(windows * size, "little") * p
            added = b"".join(s.to_bytes(size, "little") * windows
                             for s in multiples)
            acc = (int.from_bytes(copies, "little")
                   + int.from_bytes(added, "little"))
            windows *= p
            ones, bias, merges = self._masks(windows)
            acc -= p * (((acc + bias) >> guard) & ones)
        return tuple(self._read_windows(acc, windows, merges))

    def row_codes(self, rows) -> Iterator[int]:
        """The codes of reduced rows, in order, as `code` reads each one.

        READ_ROWS rows at a time are laid side by side in one int, one
        window each (a row's lanes w..W-1 are zero, so it fills its window
        and no more), and `_read_windows` reads every window at once.  Every
        pass uses the masks of the first: a shorter last pass has no bits
        above its own windows, so the longer masks read it just the same."""
        rows, size, merges = iter(rows), self._window_bytes, None
        while chunk := list(itertools.islice(rows, READ_ROWS)):
            if merges is None:
                merges = self._masks(len(chunk))[2]
            acc = int.from_bytes(b"".join(map(int.to_bytes, chunk,
                                              itertools.repeat(size),
                                              itertools.repeat("little"))),
                                 "little")
            yield from self._read_windows(acc, len(chunk), merges)

    def _read_windows(self, acc: int, windows: int, merges) -> list[int]:
        """The codes of the first `windows` windows of an int, each window
        holding a reduced row (lanes in range(p)), with the merge masks of
        `_masks` over at least that many windows.

        The merges of `code` run once over the whole int.  Each merge mask
        is the one-window mask repeated, so every window goes through the
        merges `code` makes on a single row, and by the argument there no
        field carries into the next: a window's last field is the window
        itself, so no window carries or borrows into the next, and each
        ends up holding its row's code.  The codes are read out of the
        int's bytes with no Python code per window: by a memoryview cast
        when a window is 2, 4 or 8 bytes, by strided slices of each code's
        bytes otherwise, and one window at a time for codes over 8 bytes."""
        for (width, drop, _), merge in zip(self._merges, merges):
            acc -= drop * ((acc >> width) & merge)
        size = self._window_bytes
        data = acc.to_bytes(windows * size, "little")
        if size in _ITEM_FORMAT and sys.byteorder == "little":
            return memoryview(data).cast(_ITEM_FORMAT[size]).tolist()
        code = self._code_bytes
        if code > 8:
            return [int.from_bytes(data[i:i + code], "little")
                    for i in range(0, len(data), size)]
        item = 1 << (code - 1).bit_length()
        out = bytearray(windows * item)
        for k in range(code):
            slot = k if sys.byteorder == "little" else item - 1 - k
            out[slot::item] = data[k::size]
        return memoryview(out).cast(_ITEM_FORMAT[item]).tolist()


def code_fingerprint(code: LinearCode) -> tuple[int, ...]:
    """Canonical fingerprint: the sorted tuple of all codewords, each packed
    into one integer.  Computed straight from the generators by prime-field
    closure, independent of the standard-form machinery."""
    view = _FpView(code.ring, code.n)
    return view.fingerprint(view.module_basis(code.gens))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Census:
    """A deterministic census: one record per member, a repeated member
    kept twice.  A member's record is the tuple of base-|R| codes of its
    reduced echelon GF(p) basis rows (see `_FpView`), in increasing pivot
    order, and the sorted records are the whole census.  Fingerprints and
    codes are built from them when first read, so a code has the same
    generators in every census, whichever route found it.

    The records sort as the fingerprints do.  A fingerprint lists the span
    of the basis rows r_0, r_1, ... by place: the word at place
    j = sum c_i p^i is the code of sum c_i r_i (see `_FpView.fingerprint`),
    so the word at place p^i is the code of r_i, record entry i, and the
    words at places below p^i depend only on the rows below i.  If two
    records first differ at entry i, their rows below i are equal (a
    reduced row is the base-p reading of its code), so their fingerprints
    agree at every place below p^i and hold the two entries at place p^i:
    they compare as those entries do.  If one record is a proper prefix of
    the other, of length k, the first p^k words of the longer fingerprint
    are the whole shorter one, so the shorter record and the shorter
    fingerprint both come first.  Equal records give equal fingerprints.
    """
    ring: ChainRing
    n: int
    filter_label: str
    bases: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.bases)

    def fingerprint_set(self) -> frozenset:
        return frozenset(self.fingerprints)

    @functools.cached_property
    def fingerprints(self) -> tuple[tuple[int, ...], ...]:
        """The members' fingerprints (sorted codeword codes, see
        `_FpView.fingerprint`) in record order, which is fingerprint
        order, built on first read: each record is re-encoded as packed
        rows of one view of R^n and spanned."""
        if not self.bases:
            return ()
        size, n = self.ring.size, self.n
        view = _FpView(self.ring, n)
        return tuple(view.fingerprint([view.encode(_split(c, size, n))
                                       for c in record])
                     for record in self.bases)

    @functools.cached_property
    def codes(self) -> tuple[LinearCode, ...]:
        """The members' codes in record order, built on first read; each
        member's recorded basis rows generate its code."""
        ring, n = self.ring, self.n
        return tuple(LinearCode._trusted(ring, n, [_split(c, ring.size, n)
                                                   for c in record])
                     for record in self.bases)


def _check_bound(ring: ChainRing, n: int) -> None:
    if ring.size ** n > DEFAULT_ORACLE_BOUND:
        raise ValueError(
            f"census of {ring!r}^{n} has {ring.size ** n} vectors, over the "
            f"oracle bound {DEFAULT_ORACLE_BOUND}")


def _check_codewords(ring: ChainRing, n: int, inner: str) -> None:
    """Refuse an e = 3 self-dual census whose members, by the closed-form
    count, span more than CODEWORD_CAP codewords all told, as many as
    their fingerprints would hold."""
    size = (count_hsd if inner == HERMITIAN else count_esd)(ring.q, n)
    if (words := size * ring.size ** (n // 2)) > CODEWORD_CAP:
        raise ValueError(
            f"self-dual census of {ring!r}^{n} holds {words} codewords, over "
            f"the codeword cap {CODEWORD_CAP}")


def _climb(ring: ChainRing, n: int, inner: str | None = None):
    """The cover search: the packed view of R^n and the reduced GF(p)
    echelon basis of every submodule it reaches, self-orthogonal ones only
    when an inner product is given.

    A found submodule M is extended only to its covers.  For v outside M
    with u*v inside M, u*R*v lies in M, so N = M + Rv is M plus the
    GF(p)-span of the x^j v (j < m) and N/M is GF(q), the simple R-module.
    Such v make up S = {v : u*v in M} minus M, and v gives the same N as
    every other nonzero vector of its GF(q)-line in S/M, so the covers of M
    are exactly those lines; `_FpView.socle_lines` lists one vector per
    line.  Nothing is missed: every submodule N has a composition series
    0 = N_0 < N_1 < ... < N_k = N with simple factors, and for any v in
    N_(i+1) but not in N_i, u*v lies in N_i (u kills the factor) and
    N_(i+1) = N_i + Rv is a cover of N_i, so the search climbs every step
    of the series.

    With an inner product, a line v is kept only when <v,v> = 0 and v is
    orthogonal to the R-generators found on the way to M, which span M.
    Every submodule of a self-orthogonal code is self-orthogonal, so each
    step of its composition series is such a cover and the search still
    reaches it.  The test holds for the whole line, since
    <rv, sv> = r*conj(s)*<v,v>, and orthogonality to the generators gives
    orthogonality to M, since <v, rg> is r or conj(r) times <v,g>; so M + Rv
    is self-orthogonal.  Orthogonality is computed by `inner_product` on
    the decoded vectors, never through standard forms.

    Without an inner product the search visits the whole lattice, which has
    count_linear(q, e, n) members, so it is refused over MEMBER_CAP.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_bound(ring, n)
    if inner is None and (members := count_linear(ring.q, ring.e, n)) > MEMBER_CAP:
        raise ValueError(f"census of {ring!r}^{n} has {members} members, "
                         f"over the member cap {MEMBER_CAP}")
    view = _FpView(ring, n)
    found: dict[tuple, tuple[list, list, tuple]] = {(): ([], [], ())}
    queue = [()]
    while queue:
        basis, pivots, gens = found[queue.pop()]
        for v in view.socle_lines(basis, pivots):
            path = gens
            if inner is not None:
                vec = view.decode(v)
                if any(inner_product(ring, vec, g, inner) for g in (vec,) + gens):
                    continue
                path = gens + (vec,)
            nb, np_ = list(basis), list(pivots)
            for row in view.x_rows(v):           # reduced, see socle_lines
                view.insert_reduced(nb, np_, row)
            nkey = tuple(nb)
            if nkey not in found:
                found[nkey] = (nb, np_, path)
                queue.append(nkey)
    return view, [basis for basis, _, _ in found.values()]


def _census_of(ring: ChainRing, n: int, label: str, bases,
               view: _FpView | None = None) -> Census:
    """The census of the codes with this list of reduced GF(p) echelon
    bases in the view: their sorted records, each the codes of a basis's
    rows (see `Census`).  Every row of every basis is read by one
    `_FpView.row_codes` pass, READ_ROWS rows at a time, and the codes are
    regrouped by basis as they come, so no more than one slice of rows is
    packed at once.  A repeated basis is kept twice, not merged, and an
    empty census needs no view."""
    if not bases:
        return Census(ring, n, label, ())
    codes = view.row_codes(itertools.chain.from_iterable(bases))
    return Census(ring, n, label, tuple(sorted(
        tuple(itertools.islice(codes, len(basis))) for basis in bases)))


@functools.lru_cache(maxsize=CENSUS_CACHE_SIZE)
def enumerate_submodules(ring: ChainRing, n: int) -> Census:
    """Every linear code of length n over the ring, by the cover search
    (see `_climb`)."""
    view, bases = _climb(ring, n)
    return _census_of(ring, n, "all", bases, view)


@functools.lru_cache(maxsize=CENSUS_CACHE_SIZE)
def enumerate_self_dual(ring: ChainRing, n: int,
                        inner: str = EUCLIDEAN) -> Census:
    """The self-dual codes of length n: the self-orthogonal submodules the
    cover search reaches (see `_climb`) with |C|^2 = |R|^n.  At e = 3 a
    census whose closed-form count of members would hold more than
    CODEWORD_CAP codewords is refused before the search."""
    _check_inner(inner, ring.field)
    if ring.e == 3 and n >= 1:
        _check_bound(ring, n)
        _check_codewords(ring, n, inner)
    view, bases = _climb(ring, n, inner)
    rank = ring.e * ring.field.m * n
    return _census_of(ring, n, f"self-dual-{inner}",
                      [basis for basis in bases if 2 * len(basis) == rank], view)


# ---------------------------------------------------------------------------
# residue-field censuses (the e = 1 special case, re-expressed as FieldCodes)

def enumerate_field_self_dual(field: Field, n: int,
                              inner: str = EUCLIDEAN) -> tuple[FieldCode, ...]:
    census = enumerate_self_dual(ring_over(field, 1), n, inner)
    return tuple(FieldCode.from_rows(field, n, c.gens) for c in census.codes)


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


def _assemble_e3_rows(q: int, k: int, l: int, A2, A30, A31, A40, A41, A42,
                      B3, B40, B41, C4) -> list[list[int]]:
    """Rows [I A2 A30+uA31 A40+uA41+u^2A42; 0 uI uB3 uB40+u^2B41;
    0 0 u^2I u^2C4] over GF(q)[u]/(u^3), in permuted block coordinates."""
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
    return rows


def hermitian_sd_extend(c1: FieldCode, c0: FieldCode):
    """Stream every Hermitian self-dual code over GF(q)[u]/(u^3) whose
    u-torsion code is c1 and whose residue code is c0.

    c1 must be Hermitian self-dual of length n = 2*dim(c1) and c0 a subcode
    of c1.  Yields exactly q^(dim(c0) * n / 2) pairwise distinct codes, in a
    deterministic order; a pair yielding more than DEFAULT_ORACLE_BOUND is
    refused before any code is built.
    """
    ring = ring_over(c1.field, 3)
    for rows in _hermitian_sd_rows(c1, c0):
        yield LinearCode._trusted(ring, c1.n, rows)


def _hermitian_sd_rows(c1: FieldCode, c0: FieldCode):
    """The generator rows of each code `hermitian_sd_extend` yields, in the
    same order and after the same checks."""
    f = c1.field
    _check_inner(HERMITIAN, f)
    n = c1.n
    if 2 * c1.dim != n or not c1.is_self_dual(HERMITIAN):
        raise ValueError("c1 must be Hermitian self-dual of dimension n/2")
    if c0.field != f or c0.n != n or not c0.subspace_of(c1):
        raise ValueError("c0 must be a subcode of c1")
    k = c0.dim
    if (codes := f.q ** (k * n // 2)) > DEFAULT_ORACLE_BOUND:
        raise ValueError(f"the pair yields {codes} codes, over the oracle "
                         f"bound {DEFAULT_ORACLE_BOUND}")
    l = n // 2 - k

    # complete c0's basis to a basis of c1: c0's pivots are among c1's, so
    # c1's RREF rows with any other pivot vanish on c0's pivot columns and
    # are already echelonized
    p0 = [next(c for c, x in enumerate(row) if x) for row in c0.basis]
    ext = [row for row in c1.basis
           if next(c for c, x in enumerate(row) if x) not in p0]
    p1 = [next(c for c, x in enumerate(row) if x) for row in ext]

    rest = [c for c in range(n) if c not in p0 and c not in p1]
    top_rest = [[row[c] for c in rest] for row in c0.basis]
    # regroup the non-pivot columns so the k x k tail block of c0 inverts:
    # self-duality of c1 makes c0 rank k on them, and the pivots of its
    # RREF there are the first k-subset of them that inverts
    comb = [next(j for j, x in enumerate(row) if x)
            for row in field_rref(f, len(rest), top_rest)]
    if len(comb) < k:
        raise AssertionError("no invertible tail block; is c1 self-dual?")
    block4 = [rest[j] for j in comb]
    block3 = [rest[j] for j in range(len(rest)) if j not in comb]
    A40 = fmat([[top_rest[i][j] for j in comb] for i in range(k)])
    a40_inv = fmat_inv(f, A40)

    perm = tuple(p0 + p1 + block3 + block4)
    A2 = fmat([[row[c] for c in p1] for row in c0.basis])
    A30 = fmat([[row[c] for c in block3] for row in c0.basis])
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
                rows = _assemble_e3_rows(f.q, k, l, A2, A30, A31, A40, A41,
                                         A42, B3, B40, B41, C4)
                yield [_unpermute(perm, r) for r in rows]


@functools.lru_cache(maxsize=CENSUS_CACHE_SIZE)
def enumerate_hsd_constructive(q: int, n: int) -> Census:
    """All Hermitian self-dual codes over GF(q)[u]/(u^3) of length n, built
    constructively from every (torsion, residue) pair of field codes.

    The torsion codes c1 are the Hermitian self-dual codes of GF(q)^n, and
    the residue codes c0 inside c1 are the images of the subspaces of
    GF(q)^(n/2), taken once from the e = 1 cover search, under c1's
    reduced basis.  Every constructed code is reduced by one packed view of
    R^n, and a repeat would stay in the census.  A census whose count_hsd
    members would hold more than CODEWORD_CAP codewords is refused."""
    p, m = factor_prime_power(q)
    field = field_make(p, m)
    _check_inner(HERMITIAN, field)
    ring = ring_over(field, 3)
    label = f"self-dual-{HERMITIAN}-constructive"
    _check_codewords(ring, n, HERMITIAN)
    if n % 2:
        return _census_of(ring, n, label, [])
    # the field censuses check their bounds before the view of R^n, whose
    # masks cost O((3mn)^3) bit operations, is built
    c1s = enumerate_field_self_dual(field, n, HERMITIAN)
    subs = enumerate_submodules(ring_over(field, 1), n // 2).codes
    view = _FpView(ring, n)
    bases = [view.module_basis(rows) for c1 in c1s for sub in subs
             for rows in _hermitian_sd_rows(c1, FieldCode.from_rows(
                 field, n, fmat_mul(field, sub.gens, c1.basis, cols=n)))]
    return _census_of(ring, n, label, bases, view)


# ---------------------------------------------------------------------------
# self-dual codes by direct enumeration of admissible standard forms

def _congruence_solver(field: Field, inner: str):
    """The solver of X + dag(X) = G over the field, for k x k G with
    dag(G) = G, where dag is the transpose, conjugated for the Hermitian
    form.  Each solution X is a list of rows.

    The strict upper triangle of X is free and forces the lower one, since
    g_ji = x_ji + conj(x_ij).  The diagonal entry x_ii is any x with
    x + conj(x) = g_ii: g_ii / 2 for odd-p Euclidean, anything when
    g_ii = 0 and nothing otherwise for p = 2 Euclidean, and a trace
    preimage of g_ii for Hermitian.  The sweep solves its last two blocks
    with it; it shares no code with the constructive route's
    `_hermitian_completions`, so the two routes cannot fail together."""
    conj = field.conjugate if inner == HERMITIAN else (lambda x: x)
    halves: dict[int, list[int]] = {}      # g -> every x with x + conj(x) = g
    for x in range(field.q):
        halves.setdefault(field.add(x, conj(x)), []).append(x)

    def solve(G):
        k = len(G)
        upper = [(i, j) for i in range(k) for j in range(i + 1, k)]
        for diag in itertools.product(*(halves.get(G[i][i], ())
                                        for i in range(k))):
            for free in itertools.product(range(field.q), repeat=len(upper)):
                x = [[0] * k for _ in range(k)]
                for i, v in enumerate(diag):
                    x[i][i] = v
                for (i, j), v in zip(upper, free):
                    x[i][j] = v
                    x[j][i] = field.sub(G[j][i], conj(v))
                yield x
    return solve


@functools.lru_cache(maxsize=CENSUS_CACHE_SIZE)
def enumerate_sd_standard_forms(ring: ChainRing, n: int,
                                inner: str = EUCLIDEAN) -> Census:
    """Third route to the self-dual census for e = 3: the standard generator
    matrices of self-dual shape (k = h, l = m) whose blocks pass the
    orthogonality congruences, solved once per shape, each placed under its
    canonical column choice only, so every code is built once.  That choice
    makes s0, s0+s1, s0+s1+s2 the RREF pivots of Tor_0 < Tor_1 < Tor_2, the
    greedy (lex-least) column bases, so it is the code's first in the
    sweep's order.  Its last block is Tor_2's non-pivot columns, on which
    the dual Tor_0 is invertible: A40 is invertible, fixes C4 and B41, and
    leaves A41 and A42 a completion each to solve (see `lifts`).

    Refused: a census whose closed-form count of members would hold more
    than CODEWORD_CAP codewords, and a level-0 search of its n/2 + 1 shapes,
    q^((n/2)^2) block tuples each, over DEFAULT_ORACLE_BOUND."""
    _check_inner(inner, ring.field)
    if ring.e != 3:
        raise ValueError("standard-form enumeration is for e = 3")
    f, q = ring.field, ring.q
    label = f"self-dual-{inner}-standard-forms"
    _check_codewords(ring, n, inner)
    if n % 2:
        return _census_of(ring, n, label, [])
    if (tries := (n // 2 + 1) * q ** ((n // 2) ** 2)) > DEFAULT_ORACLE_BOUND:
        raise ValueError(
            f"standard-form sweep of {ring!r}^{n} searches {tries} level-0 "
            f"blocks, over the oracle bound {DEFAULT_ORACLE_BOUND}")

    def dag(mat):
        if inner == HERMITIAN:
            return fmat_dagger(f, mat)
        return fmat(zip(*mat)) if mat else ()

    def is_zero(mat) -> bool:
        return all(not x for row in mat for x in row)

    def tilde(mat):
        return fmat_add(f, mat, dag(mat))

    def forced(a40_inv, t, l: int):
        # the l x k block X with A40 X^dagger = -t; dag(()) loses l if k = 0
        return dag(fmat_neg(f, fmat_mul(f, a40_inv, t))) if t else ((),) * l

    def level0_blocks(k: int, l: int):
        """All (A2, A30, A40, B3, B40, C4) over GF(q) passing the
        valuation-0 part of the congruences, and the inverse of A40."""
        ident_k, ident_l = fmat_identity(k), fmat_identity(l)
        for B3 in _all_matrices(q, l, l):
            for B40 in _all_matrices(q, l, k):
                g = fmat_add(f, ident_l, fmat_mul(f, B3, dag(B3)))
                g = fmat_add(f, g, fmat_mul(f, B40, dag(B40), cols=l))
                if not is_zero(g):
                    continue
                b3d, b40d = dag(B3), dag(B40)
                for A40 in _all_matrices(q, k, k):
                    a40_inv = fmat_inv(f, A40)
                    if a40_inv is None:
                        continue
                    a40a40 = fmat_mul(f, A40, dag(A40))
                    for A30 in _all_matrices(q, k, l):
                        A2 = fmat_neg(f, fmat_add(f, fmat_mul(f, A30, b3d),
                                                  fmat_mul(f, A40, b40d)))
                        g = fmat_add(f, ident_k,
                                     fmat_mul(f, A2, dag(A2), cols=k))
                        g = fmat_add(f, g, fmat_mul(f, A30, dag(A30), cols=k))
                        g = fmat_add(f, g, a40a40)
                        if is_zero(g):
                            yield (A2, A30, A40, B3, B40,
                                   forced(a40_inv, A30, l), a40_inv)

    solve = _congruence_solver(f, inner)

    def lifts(k: int, l: int, A2, A30, A40, B3, B40, C4, a40_inv):
        """The rows of every lift (A31, A41, A42, B41) passing the
        valuation-1 and -2 parts.  A31 is searched; A41 and A42 are solved:
        with X = A41 dag(A40) and Y = A42 dag(A40) the two parts read
        X + dag(X) = -w0 and Y + dag(Y) = -h2, and A40 is invertible."""
        a40_dinv = dag(a40_inv)
        for A31 in _all_matrices(q, k, l):
            w0 = tilde(fmat_mul(f, A31, dag(A30), cols=k))
            a31a31 = fmat_mul(f, A31, dag(A31), cols=k)
            a31b3 = fmat_mul(f, A31, dag(B3))
            for X in solve(fmat_neg(f, w0)):
                A41 = fmat_mul(f, X, a40_dinv)
                h2 = fmat_add(f, a31a31, fmat_mul(f, A41, dag(A41)))
                t = fmat_add(f, a31b3, fmat_mul(f, A41, dag(B40)))
                B41 = forced(a40_inv, t, l)
                for Y in solve(fmat_neg(f, h2)):
                    yield _assemble_e3_rows(q, k, l, A2, A30, A31, A40, A41,
                                            fmat_mul(f, Y, a40_dinv), B3,
                                            B40, B41, C4)

    view = _FpView(ring, n)
    bases = []
    for k in range(n // 2 + 1):
        l = n // 2 - k
        solutions = []
        for blocks in level0_blocks(k, l):
            shape_rows = list(lifts(k, l, *blocks))   # the zero lift passes
            # rows of valuation v <= t, over u^v and mod u, span Tor_t with I
            # on its first k + l*t columns: its RREF in block order, row p
            # pivoting at p; bit j of masks[p]: such a row is nonzero at j
            tor = [tuple(x // q ** ((i >= k) + (i >= k + l)) % q for x in row)
                   for i, row in enumerate(shape_rows[0])]
            masks = [0] * (k + 2 * l)
            for basis in (tor[:k], field_rref(f, n, tor[:k + l]),
                          field_rref(f, n, tor)):
                for p, row in enumerate(basis):
                    masks[p] |= sum(1 << j for j, x in enumerate(row) if x) ^ 1 << p
            solutions.append((masks, shape_rows))
        for s0 in itertools.combinations(range(n), k):
            left1 = [c for c in range(n) if c not in s0]
            for s1 in itertools.combinations(left1, l):
                left2 = [c for c in left1 if c not in s1]
                for s2 in itertools.combinations(left2, l):
                    perm = s0 + s1 + s2 + tuple(c for c in left2 if c not in s2)
                    # canonical: no row is nonzero on a column left of its pivot
                    left = [sum(1 << j for j, c in enumerate(perm) if c < pc)
                            for pc in perm[:k + 2 * l]]
                    for masks, shape_rows in solutions:
                        if any(mask & b for mask, b in zip(masks, left)):
                            continue
                        bases += [view.module_basis(
                            [_unpermute(perm, row) for row in rows])
                            for rows in shape_rows]
    return _census_of(ring, n, label, bases, view)
