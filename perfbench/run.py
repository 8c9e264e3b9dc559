"""Benchmark of chaincodes: seeded workloads, exact result checks, and
per-layer traces taken from outside the library.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One process, one thread, closed loop: each operation
starts when the previous one has returned.  Set-up (import, rings, inputs)
runs first, then whole passes over the workload's operation list run for
``--seconds`` (a pass that would end later is not started), with one more
set-up every few seconds; the median set-up time is reported.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the same untraced passes run, then one pass with spans and
one pass with element-arithmetic counts, and the last line reports the
per-layer metrics; the spans are written to ``.bench_out/``.  The line
before the last is the run record: Python version, CPUs, seed, passes,
sample counts, failed operations and, when traced, each layer's share of
traced self time.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
LAYERS = ("gf", "chainring", "codes", "counting", "census", "quasiabelian", "cli")
SETUPS = 3          # set-ups before the first pass; the last one is used
SETUP_EVERY_S = 2.0
# The speed of a shared host drifts by a fifth and more over minutes, for
# every program on it alike.  A fixed calibration loop, sampled between
# operations all through the run, measures that speed; the end-to-end times
# are reported at the speed where the loop takes CALIBRATION_S (about its
# time on a 2.1 GHz Xeon VM), and the raw times go to the run record.
CALIBRATION_S = 0.010
CALIBRATION_ROUNDS = 16_000
CALIBRATE_EVERY_S = 0.25

sys.path.insert(0, HERE)
from tracer import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import FAILED, OK, WORKLOADS, WRONG, CliResult  # noqa: E402

SPAN_SELF = [
    "census.enumerate_submodules", "census.enumerate_self_dual",
    "census.enumerate_sd_standard_forms", "census.enumerate_hsd_constructive",
    "census.hermitian_sd_extend", "census.field_subspaces",
    "census.code_fingerprint", "chainring.ChainRing.init",
    "codes.standard_form", "codes.dual", "codes.is_self_dual", "codes.equal",
    "codes.contains", "codes.torsion", "codes.loads_code", "codes.dumps_code",
    "codes.field_rref", "codes.fmat", "counting.gaussian_binomial",
    "counting.count_linear", "counting.count_esd", "counting.count_hsd",
    "counting.sigma", "quasiabelian.n_of_order",
    "quasiabelian.multiplicative_order", "quasiabelian.is_good_pair",
    "quasiabelian.cyclotomic_classes", "quasiabelian.decompose",
    "quasiabelian.count_qa",
]
CALLS = [
    "census.code_fingerprint", "chainring.add", "chainring.mul",
    "chainring.conjugate", "chainring.unit_inverse", "chainring.ChainRing.init",
    "gf.add", "gf.mul", "gf.inv", "gf.conjugate", "gf.Field.init",
    "codes.LinearCode.init", "codes.standard_form",
    "counting.gaussian_binomial", "quasiabelian.n_of_order",
    "quasiabelian.multiplicative_order", "quasiabelian.is_good_pair",
    "quasiabelian.cyclotomic_classes", "quasiabelian.decompose",
    "quasiabelian.count_qa", "cli.main",
]


def calibration_loop() -> float:
    """Seconds for a fixed piece of pure-Python work that never touches the
    library: build a set of small tuples and look half of them up, the kind
    of work the censuses do most.  The collector is off while it runs, so
    the library's heap does not reach it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = set()
        for i in range(CALIBRATION_ROUNDS):
            seen.add((i, i * 7 % 1009, i & 63))
        sum((i, i * 7 % 1009, i & 63) in seen
            for i in range(0, CALIBRATION_ROUNDS, 2))
        del seen
        return time.perf_counter() - t0
    finally:
        gc.enable()


class SpeedProbe:
    """Calibration samples taken between operations, at most one every
    CALIBRATE_EVERY_S, so that their median sees the machine the run saw."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.samples.append(calibration_loop())
            self.last = time.perf_counter()

    def scale(self) -> float:
        """Factor from this run's times to times at the nominal speed."""
        return CALIBRATION_S / statistics.median(self.samples)


class SetupError(Exception):
    """The checkout has no importable chaincodes under src/."""


def load_library():
    """Import chaincodes afresh from the checkout, new caches and all."""
    for name in [m for m in sys.modules
                 if m == "chaincodes" or m.startswith("chaincodes.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        package = importlib.import_module("chaincodes")
    except ImportError as exc:
        raise SetupError(f"cannot import chaincodes from {SRC}: {exc}") from exc
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SetupError(f"chaincodes was imported from {package.__file__}, "
                         f"not from {SRC}")
    mods = {name: importlib.import_module(f"chaincodes.{name}") for name in LAYERS}
    return types.SimpleNamespace(package=package, LAYERS=LAYERS, **mods)


def set_up(workload_cls, seed: int):
    gc.collect()
    t0 = time.perf_counter()
    workload = workload_cls(load_library(), random.Random(seed))
    return time.perf_counter() - t0, workload


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.exit_nonzero = 0
        self.failed_labels: dict[str, int] = {}

    def add(self, label: str, verdict: str) -> None:
        self.attempted += 1
        if verdict != OK:
            self.failed += 1
            self.failed_labels[label] = self.failed_labels.get(label, 0) + 1
        if verdict == WRONG:
            self.wrong += 1


def run_pass(workload, tally: Tally, tracer: Tracer | None = None,
             flag: str = "on", probe: SpeedProbe | None = None) -> list[float]:
    """One pass over the operation list; returns per-op seconds.  With a
    tracer, its ``flag`` ("on" for spans, "counting" for element counts) is
    raised around each timed call.  A probe samples the calibration loop
    between operations."""
    workload.before_pass()
    gc.collect()
    latencies = []
    for op in workload.ops:
        if probe is not None:
            probe.maybe_sample()
        if tracer is not None:
            setattr(tracer, flag, True)
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(op.call) if tracer and flag == "on" \
                else op.call()
            raised = False
        except Exception:  # a raising operation is a failed operation
            result, raised = None, True
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            setattr(tracer, flag, False)
        if raised:
            verdict = FAILED
        else:
            try:
                verdict = op.check(result)
            except Exception:  # an unreadable result is a wrong result
                verdict = WRONG
            if isinstance(result, CliResult) and result.code != 0:
                tally.exit_nonzero += 1
        tally.add(op.label, verdict)
    workload.after_pass()
    return latencies


def percentile(sorted_values, p: float):
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(p * len(sorted_values))) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, extra, exit_nonzero: int, untraced_wall: float,
                  span_wall: float, count_wall: float) -> dict:
    m = {}
    self_s, calls = tracer.self_s, tracer.calls
    for name in SPAN_SELF:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    m["census.sdsf.useful_ratio"] = (
        extra["sdsf.distinct"] / calls["census.sdsf.assembled"]
        if calls["census.sdsf.assembled"] else 0.0, "ratio")
    m["census.self_dual.pass_ratio"] = (
        extra["sd.kept"] / extra["sd.scanned"] if extra["sd.scanned"] else 0.0,
        "ratio")
    m["census.cache_hits"] = (extra["census.cache_hits"], "count")
    ring_calls = calls["chainring.add"] + calls["chainring.mul"]
    m["chainring.slow_share"] = (
        calls["chainring.slow"] / ring_calls if ring_calls else 0.0, "ratio")
    m["cli.self_s"] = (self_s.get("cli.main", 0.0), "s")
    m["cli.exit_nonzero"] = (exit_nonzero, "count")
    m["trace.overhead_ratio"] = (span_wall / untraced_wall, "ratio")
    m["trace.count_overhead_ratio"] = (count_wall / untraced_wall, "ratio")
    return m


def layer_shares(tracer: Tracer) -> dict:
    """Each layer's share of the traced self time; "outside" is the
    benchmark's own time inside operations, outside every layer span."""
    total = sum(tracer.self_s.values()) or 1.0
    shares = {layer: sum(v for k, v in tracer.self_s.items()
                         if k.startswith(layer + ".")) / total
              for layer in LAYERS}
    shares["outside"] = tracer.self_s.get(ROOT_SPAN, 0.0) / total
    return shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload_cls = WORKLOADS[args.workload]

    try:
        setups = []
        for _ in range(SETUPS):
            dt, workload = set_up(workload_cls, args.seed)
            setups.append(dt)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    probe = SpeedProbe()
    passes = []
    steps = []      # seconds per loop step: a pass, its checks, any set-up
    t_start = last_setup = time.perf_counter()
    # a pass starts only if a typical step still ends within --seconds, so a
    # run lasts --seconds however long its passes are
    while not passes or (time.perf_counter() - t_start
                         + statistics.median(steps) <= args.seconds):
        t_step = time.perf_counter()
        passes.append(run_pass(workload, tally, probe=probe))
        # more set-ups, spread over the run so their median sees the same
        # machine as the passes; each builds a library and inputs of its own
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setups.append(set_up(workload_cls, args.seed)[0])
            last_setup = time.perf_counter()
        steps.append(time.perf_counter() - t_step)
    walls = [sum(p) for p in passes]
    wall = statistics.median(walls)
    # an operation's latency is its median over the passes, and the
    # percentiles are taken over the operations: a census pass has only seven
    # operations of very different cost, and a percentile of the pooled
    # samples would fall on one noisy sample of one of them
    op_latency = sorted(statistics.median(op) for op in zip(*passes))
    p50 = percentile(op_latency, 0.50)
    p90 = percentile(op_latency, 0.90)
    samples = [x for p in passes for x in p]

    record = {
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": args.seconds, "setups": len(setups),
        "passes": len(passes), "ops_per_pass": len(workload.ops),
        "op_samples": len(samples),
        "samples_beyond": {"op_p50_ms": sum(x > p50 for x in samples),
                           "op_p90_ms": sum(x > p90 for x in samples)},
        "pass_walls_s": walls,
        "raw": {"wall_s": wall, "op_p50_ms": p50 * 1e3, "op_p90_ms": p90 * 1e3,
                "setup_s": statistics.median(setups)},
        "calibration": {"nominal_s": CALIBRATION_S,
                        "median_s": statistics.median(probe.samples),
                        "samples": len(probe.samples), "scale": probe.scale()},
        "failed_frac": tally.failed / tally.attempted,
        "failed_ops": tally.failed_labels,
    }

    if args.trace:
        tracer = Tracer()
        tracer.install_spans(workload.lib)
        workload.extra.clear()
        exit_before = tally.exit_nonzero
        span_wall = sum(run_pass(workload, tally, tracer, "on"))
        extra = workload.extra.copy()
        exit_nonzero = tally.exit_nonzero - exit_before
        tracer.install_counters(workload.lib)
        count_wall = sum(run_pass(workload, tally, tracer, "counting"))
        os.makedirs(TRACE_DIR, exist_ok=True)
        span_file = os.path.join(TRACE_DIR,
                                 f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(span_file)
        record.update(span_pass_wall_s=span_wall, count_pass_wall_s=count_wall,
                      span_file=os.path.relpath(span_file, ROOT),
                      spans=len(tracer.rec_name),
                      layer_shares=layer_shares(tracer))
        metrics = layer_metrics(tracer, extra, exit_nonzero, wall,
                                span_wall, count_wall)
    else:
        scale = probe.scale()
        metrics = {
            "wall_s": (wall * scale, "s"),
            "op_p50_ms": (p50 * 1e3 * scale, "ms"),
            "op_p90_ms": (p90 * 1e3 * scale, "ms"),
            "setup_s": (statistics.median(setups) * scale, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_frac": (1 - tally.failed / tally.attempted, "ratio"),
        }

    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
