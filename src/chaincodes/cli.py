"""Command-line front end: count tables, code-file transforms, group-algebra
decomposition reports, and the formula-vs-oracle verification suite.

Exit codes: 0 success, 1 usage error, 2 violated mathematical precondition,
3 verification mismatch.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .gf import field_make
from .chainring import chain_ring
from .codes import EUCLIDEAN, HERMITIAN, LinearCode, dumps_code, loads_code
from .counting import (gaussian_binomial, count_linear, count_esd, count_hsd,
                       sigma_e, sigma_h)
from .census import (enumerate_submodules, enumerate_self_dual,
                     enumerate_field_self_dual, enumerate_sd_standard_forms,
                     enumerate_hsd_constructive)
from .quasiabelian import (AbelianGroup, decompose, count_qa, count_qa_esd,
                           count_qa_hsd, algebra_elements, cyclic_to_chain)


# CPython refuses int -> str conversions above a digit limit (4300 by
# default, 640 at the lowest setting); counts are converted in pieces of at
# most this many digits instead of lifting the limit.
_DIGIT_CHUNK = 600

# most lengths one --range may ask for; each is a separate count
_RANGE_LIMIT = 1024


def _decimal(value: int) -> str:
    """Exact decimal string of an integer of any size."""
    if value < 0:
        return "-" + _decimal(-value)
    digits = value.bit_length() * 30103 // 100000 + 1    # >= len(str(value))
    if digits <= _DIGIT_CHUNK:
        return str(value)
    half = digits // 2
    high, low = divmod(value, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


class UsageError(Exception):
    """Bad flags or missing parameters; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The one parser of the process: parsing leaves it unchanged, and each
    subcommand's handler looks its library functions up when it runs."""
    parser = _Parser(prog="chaincodes",
                     description="Linear codes over GF(q)[u]/(u^e): counts, "
                                 "transforms, decompositions, verification.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    pc = sub.add_parser("count", help="evaluate a counting formula")
    pc.add_argument("kind", choices=["linear", "esd", "hsd", "sigma-e",
                                     "sigma-h", "gaussian", "qa", "qa-esd",
                                     "qa-hsd"])
    pc.add_argument("--q", type=int, help="field order")
    pc.add_argument("--n", type=int, help="code length")
    pc.add_argument("--e", type=int, default=3, help="u-depth (default 3)")
    pc.add_argument("--k", type=int, help="subspace dimension (gaussian)")
    pc.add_argument("--p", type=int, help="characteristic (qa kinds)")
    pc.add_argument("--m", type=int, help="field degree (qa kinds)")
    pc.add_argument("--s", type=int, help="cyclic p-part exponent (qa kinds)")
    pc.add_argument("--A", help="group spec, comma-separated cyclic orders "
                                "(qa kinds); '1' is trivial")
    pc.add_argument("--range", dest="n_range",
                    help="inclusive length range a:b instead of --n")
    pc.add_argument("--format", choices=["text", "json"], default="text")
    pc.set_defaults(func=cmd_count)

    pk = sub.add_parser("code", help="transform or test a code file")
    pk.add_argument("action", choices=["standard-form", "dual", "torsion",
                                       "check-sd"])
    pk.add_argument("file", help="code file path, or - for stdin")
    pk.add_argument("--inner", choices=[EUCLIDEAN, HERMITIAN],
                    default=EUCLIDEAN)
    pk.add_argument("--i", type=int, dest="index",
                    help="torsion index (0 = residue)")
    pk.add_argument("--out", help="output path (default stdout)")
    pk.add_argument("--format", choices=["text", "json"], default="text")
    pk.set_defaults(func=cmd_code)

    pd = sub.add_parser("decompose",
                        help="factor a group algebra into chain rings")
    pd.add_argument("--p", type=int, required=False)
    pd.add_argument("--m", type=int, default=1)
    pd.add_argument("--s", type=int, default=1)
    pd.add_argument("--A", default="1")
    pd.add_argument("--format", choices=["text", "json"], default="text")
    pd.set_defaults(func=cmd_decompose)

    pv = sub.add_parser("verify", help="run formula-vs-oracle checks")
    pv.add_argument("--suite", choices=["tiny", "full"], default="tiny")
    pv.add_argument("--timings", action="store_true",
                    help="append a per-check runtime column (not reproducible "
                         "byte-for-byte)")
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.set_defaults(func=cmd_verify)

    return parser


def _need(args, *names):
    missing = [f"--{n}" for n in names if getattr(args, n, None) is None]
    if missing:
        raise UsageError("missing required flags: " + " ".join(missing))


def _lengths(args) -> range:
    if args.n_range:
        try:
            lo, hi = (int(part) for part in args.n_range.split(":"))
        except Exception:
            raise UsageError(f"bad --range {args.n_range!r}, expected a:b")
        if lo < 1 or hi < lo:
            raise UsageError(f"bad --range {args.n_range!r}")
        if hi - lo >= _RANGE_LIMIT:
            raise ValueError(f"--range covers more than {_RANGE_LIMIT} lengths")
        return range(lo, hi + 1)
    if args.n is None:
        raise UsageError("need --n or --range")
    return range(args.n, args.n + 1)


def _group(spec: str) -> AbelianGroup:
    """--A as a group; only orders out of range are a precondition error."""
    try:
        orders = [int(part) for part in spec.split(",")] if spec.strip() else []
    except ValueError:
        raise UsageError(f"bad --A {spec!r}, expected integers a,b,...") from None
    return AbelianGroup(orders)


def cmd_count(args) -> int:
    kind = args.kind
    if kind == "gaussian":
        _need(args, "q", "k")
        params = {"q": args.q, "k": args.k}
        fn = lambda n: gaussian_binomial(n, args.k, args.q)
    elif kind == "linear":
        _need(args, "q")
        params = {"q": args.q, "e": args.e}
        fn = lambda n: count_linear(args.q, args.e, n)
    elif kind in ("esd", "hsd", "sigma-e", "sigma-h"):
        _need(args, "q")
        params = {"q": args.q}
        fn = {"esd": count_esd, "hsd": count_hsd,
              "sigma-e": sigma_e, "sigma-h": sigma_h}[kind]
        fn = (lambda base: lambda n: base(args.q, n))(fn)
    else:
        _need(args, "p", "A")
        m = 1 if args.m is None else args.m
        s = 1 if args.s is None else args.s
        group = _group(args.A)
        params = {"p": args.p, "m": m, "s": s,
                  "A": ",".join(str(d) for d in group.invariants) or "1"}
        base = {"qa": count_qa, "qa-esd": count_qa_esd,
                "qa-hsd": count_qa_hsd}[kind]
        fn = lambda n: base(args.p, m, s, group, n)

    # the caps grow with n, so the largest length is refused before any
    # smaller one is counted
    rows = [(n, fn(n)) for n in reversed(_lengths(args))][::-1]
    param_str = ",".join(f"{k}={v}" for k, v in params.items())
    if args.format == "json":
        payload = {"kind": kind, "params": {k: str(v) for k, v in params.items()},
                   "counts": [{"n": n, "count": _decimal(v)} for n, v in rows]}
        print(json.dumps(payload, sort_keys=True))
    else:
        for n, v in rows:
            print(f"{kind}({param_str},n={n}) = {_decimal(v)}")
    return 0


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_code(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file) as fh:
            text = fh.read()
    code = loads_code(text)

    if args.action == "standard-form":
        sf = code.standard_form()
        out = LinearCode._trusted(code.ring, code.n, sf.unpermuted_rows())
        _emit(dumps_code(out), args.out)
    elif args.action == "dual":
        _emit(dumps_code(code.dual(args.inner)), args.out)
    elif args.action == "torsion":
        if args.index is None:
            raise UsageError("torsion needs --i")
        fc = code.residue() if args.index == 0 else code.torsion(args.index)
        _emit(dumps_code(fc), args.out)
    else:  # check-sd
        verdict = code.is_self_dual(args.inner)
        if args.format == "json":
            _emit(json.dumps({"inner": args.inner,
                              "self_dual": verdict}) + "\n", args.out)
        else:
            _emit(("true" if verdict else "false") + "\n", args.out)
    return 0


def cmd_decompose(args) -> int:
    _need(args, "p")
    group = _group(args.A)
    report = decompose(args.p, args.m, args.s, group)
    total = sum(f.multiplicity * f.degree // report.m for f in report.factors)
    if args.format == "json":
        payload = report.to_json()
        payload["dimension_ok"] = total == group.order
        print(json.dumps(payload, sort_keys=True))
    else:
        print(report.to_text())
        print(f"dimension check: sum of orbit sizes {total} = |A| = "
              f"{group.order} (ok)")
    return 0


# ---------------------------------------------------------------------------
# verification suite

def _subspace_count(q: int, n: int, k: int) -> int:
    """The k-dimensional subspaces of GF(q)^n: the members of the e = 1
    census whose GF(p) bases have k*m rows, q = p^m."""
    ring = chain_ring(q, 1)
    rank = k * ring.field.m
    return sum(1 for basis in enumerate_submodules(ring, n).bases
               if len(basis) == rank)


def _iso_check() -> str:
    ring = chain_ring(3, 3)
    group = AbelianGroup.from_spec("3")
    field = field_make(3, 1)
    elems = list(algebra_elements(group, field))
    image = {a: cyclic_to_chain(ring, a).code for a in elems}
    for a in elems:
        for b in elems:
            if cyclic_to_chain(ring, a + b).code != ring.add(image[a], image[b]):
                return "additive failure"
            if cyclic_to_chain(ring, a * b).code != ring.mul(image[a], image[b]):
                return "multiplicative failure"
    return "ok" if len(set(image.values())) == len(elems) else "not bijective"


def _tiny_checks() -> list[tuple[str, str, object]]:
    f2, f4 = field_make(2, 1), field_make(2, 2)
    return [
        ("N(q=2,e=3,n=1) formula", "4", lambda: count_linear(2, 3, 1)),
        ("N(q=2,e=3,n=1) census", "4",
         lambda: enumerate_submodules(chain_ring(2, 3), 1).size),
        ("N(q=2,e=3,n=2) formula", "37", lambda: count_linear(2, 3, 2)),
        ("N(q=2,e=3,n=2) census", "37",
         lambda: enumerate_submodules(chain_ring(2, 3), 2).size),
        ("NE(q=2,n=2) formula", "3", lambda: count_esd(2, 2)),
        ("NE(q=2,n=2) census", "3",
         lambda: enumerate_self_dual(chain_ring(2, 3), 2, EUCLIDEAN).size),
        ("NH(q=4,n=2) formula", "15", lambda: count_hsd(4, 2)),
        ("NH(q=4,n=2) census", "15",
         lambda: enumerate_self_dual(chain_ring(4, 3), 2, HERMITIAN).size),
        ("sigma_e(q=2,n=2) formula", "1", lambda: sigma_e(2, 2)),
        ("sigma_e(q=2,n=2) census", "1",
         lambda: len(enumerate_field_self_dual(f2, 2, EUCLIDEAN))),
        ("sigma_h(q=4,n=2) formula", "3", lambda: sigma_h(4, 2)),
        ("sigma_h(q=4,n=2) census", "3",
         lambda: len(enumerate_field_self_dual(f4, 2, HERMITIAN))),
        ("gaussian[4,2]_2 formula", "35", lambda: gaussian_binomial(4, 2, 2)),
        ("gaussian[4,2]_2 subspace scan", "35",
         lambda: _subspace_count(2, 4, 2)),
    ]


def _full_checks() -> list[tuple[str, str, object]]:
    z2 = AbelianGroup.from_spec("2")
    return _tiny_checks() + [
        ("N(q=3,e=3,n=2) formula", "76", lambda: count_linear(3, 3, 2)),
        ("N(q=3,e=3,n=2) census", "76",
         lambda: enumerate_submodules(chain_ring(3, 3), 2).size),
        ("N(q=4,e=3,n=2) formula", "139", lambda: count_linear(4, 3, 2)),
        ("N(q=4,e=3,n=2) census", "139",
         lambda: enumerate_submodules(chain_ring(4, 3), 2).size),
        ("NE(q=3,n=4) formula", "176", lambda: count_esd(3, 4)),
        ("NE(q=3,n=4) standard forms", "176",
         lambda: enumerate_sd_standard_forms(chain_ring(3, 3), 4,
                                             EUCLIDEAN).size),
        ("NH(q=9,n=2) formula", "40", lambda: count_hsd(9, 2)),
        ("NH(q=9,n=2) standard forms", "40",
         lambda: enumerate_sd_standard_forms(chain_ring(9, 3), 2,
                                             HERMITIAN).size),
        ("NH(q=9,n=2) constructive", "40",
         lambda: enumerate_hsd_constructive(9, 2).size),
        ("NH(q=4,n=4) constructive", "9099",
         lambda: enumerate_hsd_constructive(4, 4).size),
        ("qa(p=3,m=1,s=1,A=2,n=1) formula", "16",
         lambda: count_qa(3, 1, 1, z2, 1)),
        ("qa(p=3,m=1,s=1,A=2,n=1) factor censuses", "16",
         lambda: enumerate_submodules(chain_ring(3, 3), 1).size ** 2),
        ("qa-esd(p=3,m=1,s=1,A=2,n=4)", "30976",
         lambda: count_qa_esd(3, 1, 1, z2, 4)),
        ("qa-hsd(p=3,m=2,s=1,A=2,n=2)", "1600",
         lambda: count_qa_hsd(3, 2, 1, z2, 2)),
        ("cyclic-to-chain isomorphism", "ok", _iso_check),
        ("qa-esd(p=3,m=1,s=1,A=2,n=200) vs NE^2", "ok",
         lambda: ("ok" if count_qa_esd(3, 1, 1, z2, 200)
                  == count_esd(3, 200) ** 2 else "mismatch")),
    ]


def cmd_verify(args) -> int:
    checks = _tiny_checks() if args.suite == "tiny" else _full_checks()
    results = []
    for name, expected, thunk in checks:
        t0 = time.perf_counter()
        try:
            value = thunk()
            got = _decimal(value) if isinstance(value, int) else str(value)
        except Exception as exc:  # a crashed check is a failed check
            got = f"error: {exc}"
        dt = time.perf_counter() - t0
        results.append((name, expected, got, got == expected, dt))

    failures = [r for r in results if not r[3]]
    if args.format == "json":
        payload = {"suite": args.suite,
                   "checks": [{"name": n, "expected": e, "got": g,
                               "status": "pass" if ok else "fail"}
                              for n, e, g, ok, _ in results],
                   "passed": not failures}
        if args.timings:
            for entry, (_, _, _, _, dt) in zip(payload["checks"], results):
                entry["seconds"] = round(dt, 3)
        print(json.dumps(payload, sort_keys=True))
    else:
        width = max(len(r[0]) for r in results)
        for name, expected, got, ok, dt in results:
            line = (f"{name:<{width}}  expected {expected:>8}  "
                    f"got {got:>8}  {'pass' if ok else 'FAIL'}")
            if args.timings:
                line += f"  [{dt:.2f}s]"
            print(line)
        print(f"{len(results) - len(failures)}/{len(results)} checks passed"
              + ("" if not failures else
                 "; failing: " + ", ".join(r[0] for r in failures)))
    return 3 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"chaincodes: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help and friends
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    except OSError as exc:  # unreadable or missing input file
        print(f"chaincodes: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"chaincodes: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
