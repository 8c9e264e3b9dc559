"""Spans and call counts for chaincodes, applied from outside the library.

The tracer wraps layer functions wherever a chaincodes module binds them
(``census`` imports ``fmat_*`` and ``field_rref`` by name, the package
re-exports almost everything), so a call is seen whichever binding it goes
through.  Functions that run a bounded amount of work per call get a span:
name, start, end, parent span and operation id, kept in memory.  Element
arithmetic runs millions of times per pass, so it is only counted.

Self time of a span is its duration minus the time its child spans cover.
Spans (and LinearCode constructions) are recorded only while ``on`` is true,
element arithmetic only while ``counting`` is true; both stay false outside
the timed calls, which keeps the benchmark's own result checks out of the
trace.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

# Rings with more elements than this take the slow add/mul path (documented
# eager-table limit of chaincodes.chainring).
RING_TABLE_SIZE = 256

# metric name -> attribute names searched in every chaincodes module; several
# names share one metric where they are one job (the fmat_* helpers, the two
# sigma counts, the three quasi-abelian counts).
SPAN_FUNCTIONS = {
    "census.enumerate_submodules": ["enumerate_submodules"],
    "census.enumerate_self_dual": ["enumerate_self_dual"],
    "census.enumerate_sd_standard_forms": ["enumerate_sd_standard_forms"],
    "census.enumerate_hsd_constructive": ["enumerate_hsd_constructive"],
    "census.hermitian_sd_extend": ["hermitian_sd_extend"],
    "census.field_subspaces": ["field_subspaces"],
    "census.code_fingerprint": ["code_fingerprint"],
    "codes.loads_code": ["loads_code"],
    "codes.dumps_code": ["dumps_code"],
    "codes.field_rref": ["field_rref"],
    "codes.fmat": ["fmat", "fmat_identity", "fmat_mul", "fmat_add",
                   "fmat_neg", "fmat_t", "fmat_dagger", "fmat_inv"],
    "counting.gaussian_binomial": ["gaussian_binomial"],
    "counting.count_linear": ["count_linear"],
    "counting.count_esd": ["count_esd"],
    "counting.count_hsd": ["count_hsd"],
    "counting.sigma": ["sigma_e", "sigma_h"],
    "quasiabelian.multiplicative_order": ["multiplicative_order"],
    "quasiabelian.is_good_pair": ["is_good_pair", "is_oddly_good_pair"],
    "quasiabelian.cyclotomic_classes": ["cyclotomic_classes"],
    "quasiabelian.decompose": ["decompose"],
    "quasiabelian.count_qa": ["count_qa", "count_qa_esd", "count_qa_hsd"],
    "cli.main": ["main"],
}

# metric name -> (class name, method names)
SPAN_METHODS = {
    "codes.standard_form": ("LinearCode", ["standard_form"]),
    "codes.dual": ("LinearCode", ["dual"]),
    "codes.is_self_dual": ("LinearCode", ["is_self_dual"]),
    "codes.equal": ("LinearCode", ["equal"]),
    "codes.contains": ("LinearCode", ["contains"]),
    "codes.torsion": ("LinearCode", ["torsion"]),
    "chainring.ChainRing.init": ("ChainRing", ["__init__"]),
    "gf.Field.init": ("Field", ["__init__"]),
    "quasiabelian.n_of_order": ("AbelianGroup", ["n_of_order"]),
}

# element arithmetic, counted in a pass of its own: counting millions of
# calls would inflate the self time of the spans around them
COUNT_METHODS = {
    "gf.add": ("Field", "add"),
    "gf.mul": ("Field", "mul"),
    "gf.inv": ("Field", "inv"),
    "gf.conjugate": ("Field", "conjugate"),
    "chainring.conjugate": ("ChainRing", "conjugate"),
    "chainring.unit_inverse": ("ChainRing", "unit_inverse"),
}

ROOT = "bench.op"
SDSF = "census.enumerate_sd_standard_forms"


def _modules(lib) -> list:
    return [lib.package] + [getattr(lib, name) for name in lib.LAYERS]


def _find(lib, attr):
    """The distinct objects some chaincodes module binds under this name."""
    found = []
    for mod in _modules(lib):
        obj = vars(mod).get(attr)
        if obj is not None and all(obj is not f for f in found):
            found.append(obj)
    return found


def _rebind(lib, old, new) -> None:
    for mod in _modules(lib):
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


class Tracer:
    def __init__(self):
        self.on = False
        self.counting = False
        self.op = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rec_name = array("l")
        self.rec_parent = array("l")
        self.rec_op = array("l")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.stack: list[list] = []  # [record index, child seconds]
        self.open = Counter()        # open spans per name
        self.self_s = defaultdict(float)
        self.calls = Counter()

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.rec_name)
        self.rec_name.append(nid)
        self.rec_parent.append(self.stack[-1][0] if self.stack else -1)
        self.rec_op.append(self.op)
        self.rec_end.append(0.0)
        self.stack.append([idx, 0.0])
        self.open[name] += 1
        self.rec_start.append(time.perf_counter())

    def exit(self, name: str) -> None:
        t1 = time.perf_counter()
        idx, child = self.stack.pop()
        self.rec_end[idx] = t1
        dur = t1 - self.rec_start[idx]
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self.open[name] -= 1
        if self.stack:
            self.stack[-1][1] += dur

    def run_op(self, fn):
        """Run one benchmark operation under the root span."""
        self.op += 1
        self.enter(ROOT)
        try:
            return fn()
        finally:
            self.exit(ROOT)

    def _span(self, name: str, fn):
        tr = self
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens at each resume, so each resume is
            # one span and the consumer's time between resumes is not
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    traced = tr.on
                    if traced:
                        tr.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if traced:
                            tr.exit(name)
                    yield item
            return functools.update_wrapper(gen_wrapper, fn)

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            tr.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.exit(name)
        return functools.update_wrapper(wrapper, fn)

    def _linear_code_counter(self, fn):
        tr = self
        calls = self.calls

        def wrapper(*args, **kwargs):
            if tr.on:
                calls["codes.LinearCode.init"] += 1
                if tr.open[SDSF]:
                    calls["census.sdsf.assembled"] += 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def _counter(self, name: str, fn):
        tr = self
        calls = self.calls

        def wrapper(*args, **kwargs):
            if tr.counting:
                calls[name] += 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def _ring_counter(self, name: str, fn):
        tr = self
        calls = self.calls

        def wrapper(ring, a, b):
            if tr.counting:
                calls[name] += 1
                if ring.size > RING_TABLE_SIZE:
                    calls["chainring.slow"] += 1
            return fn(ring, a, b)
        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------

    def install_spans(self, lib) -> None:
        """Wrap every spanned function and method of the loaded library."""
        for metric, attrs in SPAN_FUNCTIONS.items():
            for attr in attrs:
                for fn in _find(lib, attr):
                    if getattr(fn, "__module__", "").startswith("chaincodes"):
                        _rebind(lib, fn, self._span(metric, fn))
        for metric, (cls_name, meths) in SPAN_METHODS.items():
            for cls in _find(lib, cls_name):
                for meth in meths:
                    setattr(cls, meth, self._span(metric, vars(cls)[meth]))
        for cls in _find(lib, "LinearCode"):
            cls.__init__ = self._linear_code_counter(vars(cls)["__init__"])

    def install_counters(self, lib) -> None:
        """Wrap the element arithmetic of fields and rings."""
        for metric, (cls_name, meth) in COUNT_METHODS.items():
            for cls in _find(lib, cls_name):
                setattr(cls, meth, self._counter(metric, vars(cls)[meth]))
        for cls in _find(lib, "ChainRing"):
            for meth in ("add", "mul"):
                setattr(cls, meth,
                        self._ring_counter(f"chainring.{meth}", vars(cls)[meth]))

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """JSON lines: the span names, then [name index, start, end, parent
        record, op] per span, parent -1 for a root."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for rec in zip(self.rec_name, self.rec_start, self.rec_end,
                           self.rec_parent, self.rec_op):
                fh.write("[%d,%r,%r,%d,%d]\n" % rec)
