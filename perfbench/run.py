"""Run one braidforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tensor-m3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  All timing is CPU time of this single
process (``time.process_time``).

--trace 0  runs ops from the seeded stream for --seconds of wall time,
           checking each op, and sets the workload up afresh at even
           intervals through the run (set-up time is the median of these).
           Reports the end-to-end metrics in CPU time at the reference
           speed: it times reference_work() before and after each op and
           each set-up, and scales the CPU time measured between by
           REFERENCE_S over the reference's mean time.  A shared host
           changes speed by nearly 2x from one second to the next; the
           scaling takes that out, and the summary line also prints the
           unscaled figures.
--trace 1  runs the workload's fixed traced pass three times, each on a fresh
           import and set-up: once untraced, then twice with the layer
           wrappers of tracer.py installed.  Reports per-layer metrics from
           the first traced pass and the tracing overhead against the
           untraced pass, and fails the run if any count or ratio differs
           between the two traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Ops that fail their
check are described on standard error, one JSON object each, with the
inputs that reproduce them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracer import EXACT, PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
MODULES = ("rings", "matrix", "braids", "blockreps", "tensors", "invariants", "presets", "cli")
SETUP_SAMPLES = 20  # fresh set-ups in one timed run, spread through it
MAX_FAILURE_RECORDS = 20
# CPU seconds that reference_work() takes at the reference speed; about its
# median time on the 2-vCPU Xeon host the baseline was recorded on.
REFERENCE_S = 0.0025

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout does not provide the braidforge sources."""


def import_braidforge() -> SimpleNamespace:
    """A fresh import of every braidforge module from the checkout's src/."""
    for name in [n for n in sys.modules if n == "braidforge" or n.startswith("braidforge.")]:
        del sys.modules[name]
    try:
        modules = {m: importlib.import_module(f"braidforge.{m}") for m in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import braidforge from {SRC}: {exc}") from exc
    origin = Path(modules["rings"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"braidforge was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def setup_rng(workload, seed):
    return random.Random(f"{workload.name}/{seed}/setup")


def input_rng(workload, seed):
    return random.Random(f"{workload.name}/{seed}/inputs")


def fresh_setup(workload, seed):
    """Import and build the workload's pipelines; return (bf, state, cpu seconds)."""
    gc.collect()
    start = time.process_time()
    bf = import_braidforge()
    state = workload.setup(bf, setup_rng(workload, seed))
    return bf, state, time.process_time() - start


class Gate:
    """Runs ops, applies their checks and keeps reproducible failure records."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failed = 0
        self.records = []

    def run(self, index, op):
        """Run one op; return its CPU seconds."""
        self.attempted += 1
        error = None
        start = time.process_time()
        try:
            value = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            value, error = None, exc
        spent = time.process_time() - start
        passed, expected = (False, None) if error else op.check(value)
        if not passed:
            self.failed += 1
            if len(self.records) < MAX_FAILURE_RECORDS:
                self.records.append({
                    "workload": self.workload.name,
                    "seed": self.seed,
                    "op_index": index,
                    "kind": op.kind,
                    "inputs": op.inputs,
                    "expected": repr(expected),
                    "got": repr(value),
                    "error": None if error is None else repr(error),
                })
        return spent


def reference_work():
    """Fixed sparse-polynomial products with Fraction coefficients.

    The same kind of work as the rings layer's, done without braidforge, so
    host speed changes slow it as they slow the ops and nothing a program
    change does can make it faster or slower.
    """
    total = {}
    for r in range(4):
        p = {i: Fraction(i + r + 1, 2 * i + 3) for i in range(12)}
        q = {-i: Fraction(3 - i, i + r + 2) for i in range(12)}
        for a, x in p.items():
            for b, y in q.items():
                total[a + b] = total.get(a + b, 0) + x * y
    return total


def reference_s():
    """The CPU seconds reference_work() takes now."""
    start = time.process_time()
    reference_work()
    return time.process_time() - start


class Speed:
    """Scales CPU times to the reference speed.

    The reference is timed between every two measurements, and a measurement
    is scaled by REFERENCE_S over the mean of the reference times just before
    and just after it.
    """

    def __init__(self):
        self.last = reference_s()

    def scale(self):
        """The scale of the measurement that has just ended."""
        before, self.last = self.last, reference_s()
        return 2 * REFERENCE_S / (before + self.last)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def timed_run(workload, seed, seconds):
    speed = Speed()
    bf, state, first_setup_s = fresh_setup(workload, seed)
    setups = [(first_setup_s, speed.scale())]
    gate = Gate(workload, seed)
    times = []  # (op CPU s, speed scale)
    loop = []  # (CPU s of a loop step: drawing, running and checking an op, scale)
    # The loop runs for --seconds of wall time.  Set-ups are repeated at even
    # intervals through it, so that they sample the same stretches of host
    # speed as the ops; their CPU time and the reference's are left out of
    # the loop's.
    interval = seconds / SETUP_SAMPLES
    loop_start = time.perf_counter()
    next_setup = loop_start + interval
    step_start = time.process_time()
    for index, op in enumerate(workload.ops(bf, state, input_rng(workload, seed))):
        spent = gate.run(index, op)
        step = time.process_time() - step_start
        scale = speed.scale()
        times.append((spent, scale))
        loop.append((step, scale))
        now = time.perf_counter()
        if now - loop_start >= seconds:
            break
        if now >= next_setup:
            setups.append((fresh_setup(workload, seed)[2], speed.scale()))
            next_setup = time.perf_counter() + interval
        step_start = time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def figures(scaled):
        """The timing metrics, in CPU time scaled to the reference speed or not."""
        def cpu(pairs):
            return [t * s if scaled else t for t, s in pairs]
        op_s = cpu(times)
        return {
            "setup_s": statistics.median(cpu(setups)),
            "ops_per_s": len(op_s) / sum(cpu(loop)),
            "op_p50_ms": statistics.median(op_s) * 1e3,
            "op_tail_ms": percentile(op_s, workload.tail_pct) * 1e3,
        }

    metrics = {**figures(scaled=True), "peak_rss_mb": peak_rss_mb}
    share = gate.failed / gate.attempted
    print(
        f"{workload.name} seed={seed}: "
        + ", ".join(f"{k}={v:.6g} {END_TO_END_UNITS[k]}" for k, v in metrics.items())
        + f", failed_share={share:.6g} ({gate.failed}/{gate.attempted} ops)"
        + f"; op_tail_ms is p{workload.tail_pct} of {len(times)} ops"
        + "; unscaled: "
        + ", ".join(f"{k}={v:.6g}" for k, v in figures(scaled=False).items())
        + f"; median speed scale {statistics.median(s for _, s in times):.4g}"
    )
    return gate, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def fixed_pass(workload, seed, gate, traced):
    """Run the workload's first trace_ops ops on a fresh set-up.

    Returns (CPU seconds of the ops and their inputs, tracer or None).
    """
    bf, state, _ = fresh_setup(workload, seed)
    tracer = Tracer() if traced else None
    if tracer:
        missing = tracer.install()
        if missing:
            print(f"tracer: targets not found: {', '.join(missing)}", file=sys.stderr)
    start = time.process_time()
    try:
        stream = workload.ops(bf, state, input_rng(workload, seed))
        for index in range(workload.trace_ops):
            gate.run(index, next(stream))
    finally:
        spent = time.process_time() - start
        if tracer:
            tracer.uninstall()
    return spent, tracer


def trace_run(workload, seed):
    gate = Gate(workload, seed)
    untraced_s, _ = fixed_pass(workload, seed, gate, traced=False)
    traced_s, first = fixed_pass(workload, seed, gate, traced=True)
    _, second = fixed_pass(workload, seed, gate, traced=True)
    metrics = first.metrics()
    again = second.metrics()
    differing = [k for k in EXACT if metrics[k] != again[k]]
    if differing:
        print(f"traced passes differ in: {', '.join(differing)}", file=sys.stderr)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    print(
        f"{workload.name} seed={seed}: {workload.trace_ops} ops per pass, "
        f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; "
        f"counts repeat exactly: {'yes' if not differing else 'NO'}"
    )
    return gate, not differing, {
        k: {"value": metrics[k], "unit": unit} for k, unit in PER_LAYER
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The CLI reads this variable in place of --seed; inputs come from --seed only.
    os.environ.pop("BRAIDFORGE_SEED", None)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            gate, deterministic, metrics = trace_run(workload, args.seed)
        else:
            gate, metrics = timed_run(workload, args.seed, args.seconds)
            deterministic = True
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in gate.records:
        print(json.dumps(record), file=sys.stderr)
    result = {
        "correct": gate.failed == 0 and deterministic,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
