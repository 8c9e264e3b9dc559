"""The three benchmark workloads: census, codes and counts.

A workload's constructor is its set-up: it builds every field and ring it
uses and generates its inputs from the seeded ``random.Random``.  ``ops`` is
the list one pass runs, in order.  Each op is (label, call, check): ``call``
is the timed library call, ``check`` decides afterwards, untimed, whether
the result is right.  A check returns OK, WRONG or FAILED; FAILED is a
refusal (a nonzero CLI exit), WRONG is a wrong answer.

The library is reached only through the module objects in ``lib`` at call
time, so the tracer's rebinding of module attributes is seen.
"""
from __future__ import annotations

import inspect
import io
import json
import os
import sys
from collections import Counter, namedtuple

OK, WRONG, FAILED = "ok", "wrong", "failed"

Op = namedtuple("Op", "label call check")
CliResult = namedtuple("CliResult", "code out err")

MERSENNE61 = (1 << 61) - 1
# CPython refuses int <-> str conversions above this many digits
# (sys.int_info.default_max_str_digits); decimal output is parsed in
# smaller chunks so the benchmark never needs to lift the limit.
DIGIT_CHUNK = 4000

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_counts.json")


def run_cli(lib, argv, stdin_text: str = "") -> CliResult:
    """cli.main in-process, with stdin fed and stdout/stderr captured."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = lib.cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return CliResult(code, out.getvalue(), err.getvalue())


def parse_decimal(text: str) -> int:
    text = text.strip()
    if not text.isdigit():
        raise ValueError(f"not a decimal: {text[:40]!r}")
    value = 0
    for i in range(0, len(text), DIGIT_CHUNK):
        chunk = text[i:i + DIGIT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def digest(value: int) -> list:
    """Golden-file form of a count: residue mod 2^61 - 1 and bit length."""
    return [value % MERSENNE61, value.bit_length()]


def _verdict(ok: bool) -> str:
    return OK if ok else WRONG


def _expect(predicate):
    """A check that is OK when the predicate holds for the result."""
    return lambda result: _verdict(predicate(result))


def _lru(fn):
    return inspect.unwrap(fn, stop=lambda f: hasattr(f, "cache_clear"))


class Workload:
    name = ""

    def __init__(self, lib, rng):
        self.lib = lib
        self.rng = rng
        self.ops: list[Op] = []
        self.extra = Counter()   # per-layer figures taken from results

    def before_pass(self) -> None:
        pass

    def after_pass(self) -> None:
        pass


# ---------------------------------------------------------------------------
# census: the desk-scale census list, every enumerator cache cleared per pass

ENUMERATORS = ("enumerate_submodules", "enumerate_self_dual",
               "enumerate_sd_standard_forms", "enumerate_hsd_constructive")


class CensusWorkload(Workload):
    name = "census"

    def __init__(self, lib, rng):
        super().__init__(lib, rng)
        cen, H, E = lib.census, lib.codes.HERMITIAN, lib.codes.EUCLIDEAN
        ring = {qe: lib.chainring.chain_ring(*qe)
                for qe in ((4, 3), (9, 3), (2, 3), (3, 3))}
        lib.gf.field_make(2, 2)
        lib.gf.field_make(3, 2)
        cnt = lib.counting
        # key: (call, expected size, inner product or None, partner route)
        cases = {
            "submodules R(4,3) n=2": (
                lambda: cen.enumerate_submodules(ring[4, 3], 2),
                lambda: cnt.count_linear(4, 3, 2), None, None),
            "self-dual-H R(4,3) n=2": (
                lambda: cen.enumerate_self_dual(ring[4, 3], 2, H),
                lambda: cnt.count_hsd(4, 2), H, "constructive-H q=4 n=2"),
            "sd-standard-forms-H R(9,3) n=2": (
                lambda: cen.enumerate_sd_standard_forms(ring[9, 3], 2, H),
                lambda: cnt.count_hsd(9, 2), H, "constructive-H q=9 n=2"),
            "sd-standard-forms-E R(2,3) n=4": (
                lambda: cen.enumerate_sd_standard_forms(ring[2, 3], 4, E),
                lambda: cnt.count_esd(2, 4), E, None),
            "constructive-H q=4 n=2": (
                lambda: cen.enumerate_hsd_constructive(4, 2),
                lambda: cnt.count_hsd(4, 2), H, "self-dual-H R(4,3) n=2"),
            "constructive-H q=9 n=2": (
                lambda: cen.enumerate_hsd_constructive(9, 2),
                lambda: cnt.count_hsd(9, 2), H,
                "sd-standard-forms-H R(9,3) n=2"),
            "submodules R(3,3) n=2": (
                lambda: cen.enumerate_submodules(ring[3, 3], 2),
                lambda: cnt.count_linear(3, 3, 2), None, None),
        }
        order = list(cases)
        rng.shuffle(order)
        # the self-dual oracle is meant to reuse the submodule census, as in
        # `verify --suite full`; running it second keeps each case's cost
        # independent of the seed once it does
        a = order.index("submodules R(4,3) n=2")
        b = order.index("self-dual-H R(4,3) n=2")
        if b < a:
            order[a], order[b] = order[b], order[a]
        self.expected_size: dict[str, int] = {}
        self.results: dict = {}
        for key in order:
            call, size_fn, inner, partner = cases[key]
            picks = [rng.random() for _ in range(2)]
            self.ops.append(Op(key, call,
                               self._checker(key, size_fn, inner, partner,
                                             picks)))

    def _checker(self, key, size_fn, inner, partner, picks):
        def check(census) -> str:
            if key not in self.expected_size:
                self.expected_size[key] = size_fn()
            if census.size != self.expected_size[key]:
                return WRONG
            fps = census.fingerprint_set()
            if len(fps) != census.size:
                return WRONG
            self.results[key] = census
            if key == "self-dual-H R(4,3) n=2":
                full = self.results.get("submodules R(4,3) n=2")
                if full is not None and not fps <= full.fingerprint_set():
                    return WRONG
                self.extra["sd.kept"] += census.size
                self.extra["sd.scanned"] += self.expected_size["submodules R(4,3) n=2"]
            if key.startswith("sd-standard-forms"):
                self.extra["sdsf.distinct"] += census.size
            other = self.results.get(partner)
            if other is not None and other.fingerprint_set() != fps:
                return WRONG
            for u in picks:
                i = int(u * census.size)
                code, fp = census.codes[i], census.fingerprints[i]
                if inner is None:
                    if code.cardinality() != len(fp):
                        return WRONG
                    continue
                if not code.is_self_dual(inner):
                    return WRONG
                if other is not None:
                    twin = other.codes[other.fingerprints.index(fp)]
                    if not code.equal(twin):
                        return WRONG
            return OK
        return check

    def before_pass(self) -> None:
        self.results.clear()
        for name in ENUMERATORS:
            _lru(getattr(self.lib.census, name)).cache_clear()

    def after_pass(self) -> None:
        self.results.clear()
        self.extra["census.cache_hits"] += sum(
            _lru(getattr(self.lib.census, name)).cache_info().hits
            for name in ENUMERATORS)


# ---------------------------------------------------------------------------
# codes: per-code operations on R(4,3) (table path), R(9,3) (slow path) and
# R(2,3), on random codes and on seeded self-dual codes

def _inner(ring, v, w, hermitian: bool) -> int:
    s = 0
    for a, b in zip(v, w):
        if hermitian:
            b = ring.conjugate(b)
        s = ring.add(s, ring.mul(a, b))
    return s


def code_document(ring, n: int, gens) -> str:
    """The portable JSON schema, written from the documented integer
    encoding (base-q digits are u-coefficients, base-p digits of those are
    polynomial coefficients); this is what dumps_code must print."""
    f = ring.field

    def digits(x, base, count):
        out = []
        for _ in range(count):
            out.append(x % base)
            x //= base
        return out

    rows = [[[digits(d, f.p, f.m) for d in digits(x, ring.q, ring.e)]
             for x in row] for row in gens]
    obj = {"p": f.p, "m": f.m, "e": ring.e, "n": n,
           "modulus": list(f.modulus), "rows": rows}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class CodesWorkload(Workload):
    name = "codes"

    # Shapes are fixed so that a pass costs the same for every seed; the seed
    # draws the entries, the self-dual blocks, permutations and row mixing.
    # Random codes: (n, row valuations); self-dual codes: (inner product,
    # blocks), "A" a free block, "B" a torsion block (see _self_dual_gens).
    RANDOM_SHAPES = ((5, (0, 1)), (6, (0, 0, 2)), (4, (0, 1, 2)), (6, (0, 0, 1, 1)))
    RINGS = ((4, RANDOM_SHAPES, (("hermitian", "AB"), ("hermitian", "AAB"),
                                 ("euclidean", "AB"))),
             (9, RANDOM_SHAPES, (("hermitian", "AB"), ("hermitian", "ABB"),
                                 ("euclidean", "AB"))),
             (2, RANDOM_SHAPES[1::2], (("euclidean", "AAB"), ("euclidean", "ABAB"))))
    CLI_ACTIONS = ("standard-form", "dual", "torsion", "check-sd")

    def __init__(self, lib, rng):
        super().__init__(lib, rng)
        E = lib.codes.EUCLIDEAN
        ops = []
        for q, shapes, self_dual in self.RINGS:
            ring = lib.chainring.chain_ring(q, 3)
            inners = [E, lib.codes.HERMITIAN] if ring.field.has_conjugation else [E]
            for slot, (n, vals) in enumerate(shapes):
                gens = self._random_gens(ring, n, vals)
                ops += self._random_ops(ring, n, gens, inners, slot)
            for inner, blocks in self_dual:
                gens = self._self_dual_gens(ring, blocks, inner != E)
                ops += self._self_dual_ops(ring, 2 * len(blocks), gens, inner)
        rng.shuffle(ops)
        self.ops = ops

    # -- inputs ------------------------------------------------------------

    def _random_gens(self, ring, n, vals):
        """Random rows, row i divisible by exactly u^vals[i] (one entry is a
        unit times u^vals[i])."""
        rng = self.rng
        units = [x for x in ring.elements() if ring.is_unit(x)]
        gens = []
        for v in vals:
            row = [rng.randrange(ring.size) for _ in range(n)]
            row[rng.randrange(n)] = rng.choice(units)
            gens.append(tuple(ring.shift_up(x, v) for x in row))
        return tuple(gens)

    def _self_dual_gens(self, ring, blocks: str, hermitian: bool):
        """A direct sum of length-2 self-dual blocks, coordinates permuted
        and rows mixed by invertible row operations.  Block "A" is the free
        code <(1, a)> with 1 + a a* = 0, block "B" is <(u, u a), (0, u^2)>."""
        rng = self.rng
        roots = [a for a in ring.elements()
                 if _inner(ring, (1, a), (1, a), hermitian) == 0]
        u, u2 = ring.shift_up(1, 1), ring.shift_up(1, 2)
        n = 2 * len(blocks)
        rows = []
        for i, kind in enumerate(blocks):
            a = rng.choice(roots)
            if kind == "A":
                block = [(1, a)]
            else:
                block = [(u, ring.mul(u, a)), (0, u2)]
            for x, y in block:
                row = [0] * n
                row[2 * i], row[2 * i + 1] = x, y
                rows.append(row)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[row[perm[j]] for j in range(n)] for row in rows]
        units = [x for x in ring.elements() if ring.is_unit(x)]
        for i in range(len(rows)):
            unit = rng.choice(units)
            rows[i] = [ring.mul(unit, x) for x in rows[i]]
            j = rng.randrange(len(rows))
            if j != i:
                c = rng.randrange(ring.size)
                rows[i] = [ring.add(x, ring.mul(c, y))
                           for x, y in zip(rows[i], rows[j])]
        return tuple(tuple(r) for r in rows)

    # -- checks shared by several ops ---------------------------------------

    def _code(self, ring, n, gens):
        return self.lib.codes.LinearCode(ring, n, gens)

    def _is_dual(self, ring, n, gens, dual, hermitian: bool) -> bool:
        card = self._code(ring, n, gens).cardinality()
        if card * dual.cardinality() != ring.size ** n:
            return False
        return all(_inner(ring, g, d, hermitian) == 0
                   for g in gens for d in dual.gens)

    def _std_ok(self, ring, n, gens, sf) -> bool:
        vals = list(sf.pivot_vals)
        if vals != sorted(vals):
            return False
        for j, (row, v) in enumerate(zip(sf.rows, vals)):
            if any(row[:j]) or row[j] != ring.q ** v:
                return False
        return self._code(ring, n, sf.unpermuted_rows()).equal(
            self._code(ring, n, gens))

    def _torsion_dim(self, ring, n, gens, i) -> int:
        profile = self._code(ring, n, gens).type_profile
        return sum(profile[: i + 1])

    def _residues_in(self, ring, gens, fcode) -> bool:
        return all(fcode.contains([ring.residue(x) for x in g]) for g in gens)

    def _memo_text(self, verify):
        """Check a CLI text result fully once, then byte for byte."""
        memo = {}

        def check(res) -> str:
            if res.code != 0:
                return FAILED
            if "text" in memo:
                return _verdict(res.out == memo["text"])
            if not verify(res.out):
                return WRONG
            memo["text"] = res.out
            return OK
        return check

    def _read_doc(self, text, ring, n, e):
        """Parse a code document with the benchmark's own decoder; None when
        its header does not name the expected field, depth and length."""
        obj = json.loads(text)
        f = ring.field
        if (obj["p"], obj["m"], obj["modulus"], obj["e"], obj["n"]) != (
                f.p, f.m, list(f.modulus), e, n):
            return None
        p, m = f.p, f.m
        q = p ** m
        gens = []
        for row in obj["rows"]:
            vec = []
            for entry in row:
                x = 0
                for poly in reversed(entry):
                    d = 0
                    for c in reversed(poly):
                        d = d * p + c
                    x = x * q + d
                vec.append(x)
            gens.append(tuple(vec))
        return tuple(gens)

    # -- op lists ----------------------------------------------------------

    def _random_ops(self, ring, n, gens, inners, slot):
        lib, rng = self.lib, self.rng
        E = lib.codes.EUCLIDEAN
        mk = self._code
        inside = [0] * n
        for g in gens:
            c = rng.randrange(ring.size)
            inside = [ring.add(x, ring.mul(c, y)) for x, y in zip(inside, g)]
        outside = tuple(rng.randrange(ring.size) for _ in range(n))
        doc = code_document(ring, n, gens)
        memo = {}

        def expected_contains(word):
            if word not in memo:
                dual = mk(ring, n, gens).dual(E)
                memo[word] = all(_inner(ring, word, d, False) == 0
                                 for d in dual.gens)
            return memo[word]

        def expected_sd(inner):
            key = ("sd", inner)
            if key not in memo:
                herm = inner != E
                memo[key] = (mk(ring, n, gens).cardinality() ** 2 == ring.size ** n
                             and all(_inner(ring, a, b, herm) == 0
                                     for a in gens for b in gens))
            return memo[key]

        label = f"R({ring.q},3) n={n}"
        ops = [
            Op(f"standard_form {label}",
               lambda: mk(ring, n, gens).standard_form(),
               _expect(lambda sf: self._std_ok(ring, n, gens, sf))),
            Op(f"is_self_dual {label}",
               lambda: mk(ring, n, gens).is_self_dual(E),
               _expect(lambda r: r == expected_sd(E))),
            Op(f"contains-in {label}",
               lambda: mk(ring, n, gens).contains(inside),
               _expect(lambda r: r is True)),
            Op(f"contains-out {label}",
               lambda: mk(ring, n, gens).contains(outside),
               _expect(lambda r: r == expected_contains(outside))),
            Op(f"dumps_code {label}",
               lambda: lib.codes.dumps_code(mk(ring, n, gens)),
               _expect(lambda text: text == doc)),
            Op(f"loads_code {label}",
               lambda: lib.codes.loads_code(doc),
               _expect(lambda c: c.ring == ring and c.n == n and c.gens == gens)),
            Op(f"residue {label}",
               lambda: mk(ring, n, gens).residue(),
               _expect(lambda fc: fc.dim == self._torsion_dim(ring, n, gens, 0)
                       and self._residues_in(ring, gens, fc))),
        ]
        i = 1 + slot % 2
        ops.append(Op(f"torsion-{i} {label}",
                      lambda: mk(ring, n, gens).torsion(i),
                      _expect(lambda fc: fc.dim == self._torsion_dim(ring, n, gens, i)
                              and self._residues_in(ring, gens, fc))))
        for inner in inners:
            herm = inner != E
            ops.append(Op(f"dual-{inner[0]} {label}",
                          lambda inner=inner: mk(ring, n, gens).dual(inner),
                          _expect(lambda d, herm=herm:
                                  self._is_dual(ring, n, gens, d, herm))))
        inner = inners[slot % len(inners)]
        ops.append(Op(f"dual-dual-equal-{inner[0]} {label}",
                      lambda: mk(ring, n, gens).dual(inner).dual(inner).equal(
                          mk(ring, n, gens)),
                      _expect(lambda r: r is True)))
        # every CLI action: on R(4,3) each one rebuilds the ring's tables, and
        # these operations must be more than a tenth of the list, so that
        # op_p90_ms falls among them rather than at the edge of their group
        ops += [self._cli_op(ring, n, gens, doc, action, inner, i, label, expected_sd)
                for action in self.CLI_ACTIONS]
        return ops

    def _self_dual_ops(self, ring, n, gens, inner):
        lib = self.lib
        mk = self._code
        doc = code_document(ring, n, gens)
        label = f"SD-{inner[0]} R({ring.q},3) n={n}"

        return [
            Op(f"is_self_dual {label}",
               lambda: mk(ring, n, gens).is_self_dual(inner),
               _expect(lambda r: r is True)),
            Op(f"dual-equal {label}",
               lambda: mk(ring, n, gens).dual(inner).equal(mk(ring, n, gens)),
               _expect(lambda r: r is True)),
            Op(f"dual-dual-equal {label}",
               lambda: mk(ring, n, gens).dual(inner).dual(inner).equal(
                   mk(ring, n, gens)),
               _expect(lambda r: r is True)),
            Op(f"standard_form {label}",
               lambda: mk(ring, n, gens).standard_form(),
               _expect(lambda sf: self._std_ok(ring, n, gens, sf))),
            Op(f"loads_code {label}",
               lambda: lib.codes.loads_code(doc),
               _expect(lambda c: c.ring == ring and c.n == n and c.gens == gens)),
            self._cli_op(ring, n, gens, doc, "check-sd", inner, 1, label,
                         lambda _inner: True),
        ]

    def _cli_op(self, ring, n, gens, doc, action, inner, i, label, expected_sd):
        lib = self.lib
        argv = ["code", action, "-", "--inner", inner]
        if action == "torsion":
            argv += ["--i", str(i)]

        if action == "standard-form":
            def verify(out):
                rows = self._read_doc(out, ring, n, ring.e)
                return rows is not None and self._code(ring, n, rows).equal(
                    self._code(ring, n, gens))
        elif action == "dual":
            def verify(out):
                rows = self._read_doc(out, ring, n, ring.e)
                return rows is not None and self._is_dual(
                    ring, n, gens, self._code(ring, n, rows),
                    inner != lib.codes.EUCLIDEAN)
        elif action == "torsion":
            def verify(out):
                rows = self._read_doc(out, ring, n, 1)
                if rows is None:
                    return False
                fc = lib.codes.FieldCode.from_rows(ring.field, n, rows)
                return (len(rows) == fc.dim == self._torsion_dim(ring, n, gens, i)
                        and self._residues_in(ring, gens, fc))
        else:
            def verify(out):
                return out == ("true\n" if expected_sd(inner) else "false\n")
        return Op(f"cli {action} {label}",
                  lambda: run_cli(lib, argv, doc), self._memo_text(verify))


# ---------------------------------------------------------------------------
# counts: closed-form and quasi-abelian count queries, library and CLI
#
# The parameters that set a query's cost are fixed, so a pass costs the same
# for every seed; the seed draws the order of the pass and a few queries
# that cost milliseconds whichever are drawn (the identity lengths and the
# decompose groups).

LINEAR_LENGTHS = (26, 33, 39)
SD_FORMS = (("esd", 2), ("esd", 3), ("hsd", 4), ("hsd", 9))
SD_LENGTHS = (104, 196, 296)
# groups of order 10^3, all prime to 3; each is asked all three kinds
SMALL_GROUPS = ("1000", "10,100", "8,125", "2,500", "20,50")
QA_LENGTHS = {"qa": (1, 2), "qa-esd": (4,), "qa-hsd": (2,)}
# groups of order 10^4 and 1.6 * 10^4, one query each
LARGE_QUERIES = (("16,625", "qa-hsd", 2), ("125,128", "qa", 2))
DECOMPOSE_GROUPS = ("999", "7,9", "3,5,7", "1001", "125")
QA_FUNCTIONS = {"qa": ("count_qa", 1), "qa-esd": ("count_qa_esd", 1),
                "qa-hsd": ("count_qa_hsd", 2)}
# (start, stop) of the CLI --range queries; the esd one over q = 3 reaches
# counts of more than 4300 decimal digits
CLI_LINEAR_RANGE = (30, 32)
CLI_HSD_RANGE = (100, 102)
CLI_ESD_RANGE = (100, 160)


def golden_keys():
    """Every count the workload can ask for, as (key, kind, args)."""
    for q in (2, 3, 4):
        for n in sorted(set(LINEAR_LENGTHS + tuple(range(CLI_LINEAR_RANGE[0],
                                                        CLI_LINEAR_RANGE[1] + 1)))):
            yield f"linear/{q}/{n}", "linear", (q, n)
    for kind, q in SD_FORMS:
        lengths = set(SD_LENGTHS) | set(range(CLI_HSD_RANGE[0], CLI_HSD_RANGE[1] + 1, 2))
        if (kind, q) == ("esd", 3):
            lengths |= set(range(CLI_ESD_RANGE[0], CLI_ESD_RANGE[1] + 1, 2))
        if kind == "hsd":
            lengths.add(300)
        for n in sorted(lengths):
            yield f"{kind}/{q}/{n}", kind, (q, n)
    for spec in SMALL_GROUPS:
        for kind, lengths in QA_LENGTHS.items():
            for n in lengths:
                yield f"{kind}/{spec}/{n}", kind, (spec, n)
    for spec, kind, n in LARGE_QUERIES:
        yield f"{kind}/{spec}/{n}", kind, (spec, n)
    for spec in DECOMPOSE_GROUPS:
        yield f"decompose/{spec}", "decompose", (spec,)


def golden_value(lib, kind, args):
    cnt, qa = lib.counting, lib.quasiabelian
    if kind == "linear":
        return cnt.count_linear(args[0], 3, args[1])
    if kind == "esd":
        return cnt.count_esd(*args)
    if kind == "hsd":
        return cnt.count_hsd(*args)
    if kind == "decompose":
        group = qa.AbelianGroup.from_spec(args[0])
        return json.dumps(qa.decompose(2, 1, 1, group).to_json(), sort_keys=True)
    spec, n = args
    fn, m = QA_FUNCTIONS[kind]
    return getattr(qa, fn)(3, m, 1, qa.AbelianGroup.from_spec(spec), n)


class CountsWorkload(Workload):
    name = "counts"

    def __init__(self, lib, rng):
        super().__init__(lib, rng)
        with open(GOLDEN_PATH) as fh:
            self.golden = json.load(fh)
        self.identity_memo: dict[int, int] = {}
        cnt, qa = lib.counting, lib.quasiabelian
        ops = []
        for q in (2, 3, 4):
            for n in LINEAR_LENGTHS:
                ops.append(self._lib_op(f"linear/{q}/{n}",
                                        lambda q=q, n=n: cnt.count_linear(q, 3, n)))
        for kind, q in SD_FORMS:
            fn = "count_" + kind
            for n in SD_LENGTHS:
                ops.append(self._lib_op(f"{kind}/{q}/{n}",
                                        lambda fn=fn, q=q, n=n: getattr(cnt, fn)(q, n)))
        for i, spec in enumerate(SMALL_GROUPS):
            for kind, lengths in QA_LENGTHS.items():
                ops.append(self._qa_op(kind, spec, lengths[i % len(lengths)]))
        for spec, kind, n in LARGE_QUERIES:
            ops.append(self._qa_op(kind, spec, n))
        # identity: Z2 splits GF(3)[Z2 x Z3] into two copies of R(3,3)
        z2 = qa.AbelianGroup.from_spec("2")
        for n in rng.sample(range(100, 141, 4), 2):
            ops.append(Op(f"qa-esd/2/{n}",
                          lambda n=n: qa.count_qa_esd(3, 1, 1, z2, n),
                          _expect(lambda v, n=n: v == self._esd3(n) ** 2)))
        for spec in rng.sample(DECOMPOSE_GROUPS, 3):
            group = qa.AbelianGroup.from_spec(spec)
            ops.append(Op(f"decompose/{spec}",
                          lambda group=group: qa.decompose(2, 1, 1, group),
                          _expect(lambda r, spec=spec:
                                  json.dumps(r.to_json(), sort_keys=True)
                                  == self.golden[f"decompose/{spec}"])))
        ops += self._cli_ops()
        rng.shuffle(ops)
        self.ops = ops

    def _esd3(self, n: int) -> int:
        if n not in self.identity_memo:
            self.identity_memo[n] = self.lib.counting.count_esd(3, n)
        return self.identity_memo[n]

    def _lib_op(self, key, call):
        want = self.golden[key][:2]
        return Op(key, call, _expect(lambda v: digest(v) == want))

    def _qa_op(self, kind, spec, n):
        fn, m = QA_FUNCTIONS[kind]
        group = self.lib.quasiabelian.AbelianGroup.from_spec(spec)
        qa = self.lib.quasiabelian
        return self._lib_op(f"{kind}/{spec}/{n}",
                            lambda: getattr(qa, fn)(3, m, 1, group, n))

    def _cli_ops(self):
        """Nine CLI queries per pass, single lengths and ranges; exactly two
        of them print a count of more than 4300 decimal digits.  Their
        parameters are fixed, as the cost of most of them lies near a
        percentile; the seed picks only the decompose group, which costs a
        few milliseconds whichever it is."""
        rng, lib = self.rng, self.lib
        ops = [self._cli_count("linear", {"q": q}, n)
               for q, n in zip((3, 4), LINEAR_LENGTHS[:2])]
        ops.append(self._cli_range("linear", {"q": 2}, *CLI_LINEAR_RANGE, "text"))
        ops.append(self._cli_count("esd", {"q": 3}, SD_LENGTHS[0]))
        ops.append(self._cli_range("hsd", {"q": 9}, *CLI_HSD_RANGE, "json"))
        ops.append(self._cli_count(
            "qa-esd", {"p": 3, "m": QA_FUNCTIONS["qa-esd"][1], "A": SMALL_GROUPS[4]},
            QA_LENGTHS["qa-esd"][0]))
        spec = rng.choice(DECOMPOSE_GROUPS)
        want = self.golden[f"decompose/{spec}"]

        def decompose_check(res):
            if res.code != 0:
                return FAILED
            payload = json.loads(res.out)
            dim_ok = payload.pop("dimension_ok")
            return _verdict(dim_ok is True
                            and json.dumps(payload, sort_keys=True) == want)
        ops.append(Op(f"cli decompose/{spec}",
                      lambda: run_cli(lib, ["decompose", "--p", "2", "--A", spec,
                                            "--format", "json"]),
                      decompose_check))
        # the two known over-limit queries
        ops.append(self._cli_count("hsd", {"q": 4}, 300))
        ops.append(self._cli_range("esd", {"q": 3}, *CLI_ESD_RANGE, "json"))
        return ops

    @staticmethod
    def _argv(kind, params, extra):
        argv = ["count", kind]
        for k, v in params.items():
            argv += [f"--{k}", str(v)]
        return argv + extra

    def _cli_count(self, kind, params, n):
        argv = self._argv(kind, params, ["--n", str(n)])
        key = "/".join([kind, str(params.get("A", params.get("q"))), str(n)])
        want = self.golden[key][:2]

        def check(res):
            if res.code != 0:
                return FAILED
            head, sep, value = res.out.strip().partition(" = ")
            if not sep or not head.startswith(f"{kind}(") \
                    or not head.endswith(f",n={n})"):
                return WRONG
            return _verdict(digest(parse_decimal(value)) == want)
        return Op(f"cli {key}", lambda: run_cli(self.lib, argv), check)

    def _cli_range(self, kind, params, lo, hi, fmt):
        q = params["q"]
        argv = self._argv(kind, params, ["--range", f"{lo}:{hi}", "--format", fmt])
        step = 1 if kind == "linear" else 2   # odd lengths give 0 self-dual codes
        wants = {n: self.golden[f"{kind}/{q}/{n}"][:2]
                 for n in range(lo, hi + 1, step)}

        def check(res):
            if res.code != 0:
                return FAILED
            got = {}
            if fmt == "json":
                for row in json.loads(res.out)["counts"]:
                    got[row["n"]] = parse_decimal(row["count"])
            else:
                for line in res.out.splitlines():
                    head, _, value = line.partition(" = ")
                    got[int(head.rsplit("n=", 1)[1].rstrip(")"))] = parse_decimal(value)
            if set(got) != set(range(lo, hi + 1)):
                return WRONG
            return _verdict(all(digest(got[n]) == w for n, w in wants.items())
                            and all(got[n] == 0 for n in got if n not in wants))
        return Op(f"cli {kind}/{q}/{lo}:{hi}", lambda: run_cli(self.lib, argv), check)


WORKLOADS = {w.name: w for w in (CensusWorkload, CodesWorkload, CountsWorkload)}
