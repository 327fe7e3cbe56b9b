#!/usr/bin/env python3
"""The jumpseq benchmark: one command for every workload and metric.

Run from the root of a source checkout, with no install:

    python3 perfbench/run.py --workload chain-certify --seed 1 --seconds 30 --trace 0

The benchmark puts ``src`` first on ``sys.path`` (the same as
``PYTHONPATH=src``) and refuses to run when ``src/jumpseq`` is missing.
One process runs one workload with a single closed-loop client: each
operation starts when the previous one has finished.  Operations come in
cycles (see ``workloads.py``); the run repeats cycles while the next one
is expected to end within ``--seconds``, and runs at least one.

With ``--trace 0`` it prints the end-to-end metrics; ``ops_per_s`` is the
cycle's operation count over the median cycle time.  Times are scaled to
a nominal machine speed by :class:`SpeedGauge`; the record line holds the
unscaled values and the scale.  With ``--trace 1`` it
runs the first cycle untraced and traced in turn, by the same rule,
checks that every run gives the same output digest, and prints
per-layer metrics for one cycle (medians over the traced runs) and the
tracing overhead; the spans go to ``.bench_out/``.  A line with the
environment, the input size, the outcome counts and the output digest
comes first; the result is the last line of stdout.  The exit code is 0
when every check passed and 1 when a result was wrong.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("expand-oracle", "chain-certify", "cli-mix")
SETUP_PROBES = 9
TAIL_BEYOND = 10
#: The reference job's time on the machine the bounds were set on (a
#: 2-CPU x86-64 container, CPython 3.11) while it ran fast; times are
#: reported at this speed.
REF_NOMINAL_S = 0.02
REF_EVERY_S = 0.5
REF_WINDOW_S = 5
REF_POLY = {(a, b): Fraction(a + 1, b + 2) for a in range(12) for b in range(12 - a)}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    return args


def _prepare(args):
    """Import the library and generate and parse the workload's inputs."""
    import workloads

    return workloads.prepare(args.workload, args.seed, ROOT)


def _setup_seconds(args, gauge):
    """Median wall time of SETUP_PROBES set-ups, each in a fresh process,
    with a gauge tick before each."""
    samples = []
    for _ in range(SETUP_PROBES):
        gauge.tick(force=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


class SpeedGauge:
    """Tracks the speed of the machine while a run measures.

    The shared machine's speed drifts by up to a factor of two over
    minutes, which no run length averages out.  Between operations, at
    most every REF_EVERY_S seconds and right after any operation longer
    than that, the gauge times a fixed pure-Python job that uses no
    jumpseq code: a product of two sparse polynomials with Fraction
    coefficients, stored as dicts like ``BivarPoly`` terms.  :meth:`scaled`
    turns each operation's time into the time it would have taken at the
    speed where the job takes REF_NOMINAL_S, using the median of the
    samples taken within REF_WINDOW_S of the operation.
    """

    def __init__(self):
        self.at = []           # end time of each sample
        self.samples = []      # duration of each sample
        self.ops = []          # (start, end) of each operation

    def tick(self, force=False):
        if not force and self.at and time.perf_counter() - self.at[-1] < REF_EVERY_S:
            return
        t0 = time.perf_counter()
        out = {}
        for (a1, b1), c1 in REF_POLY.items():
            for (a2, b2), c2 in REF_POLY.items():
                e = (a1 + a2, b1 + b2)
                out[e] = out.get(e, 0) + c1 * c2
        self.at.append(time.perf_counter())
        self.samples.append(self.at[-1] - t0)

    def op(self, start, end):
        self.ops.append((start, end))
        if end - start >= REF_EVERY_S:
            self.tick(force=True)

    def scaled(self, times):
        """``times`` of the operations in the order they ran, at nominal speed."""
        out = []
        for t, (start, end) in zip(times, self.ops):
            lo = bisect.bisect_left(self.at, start - REF_WINDOW_S)
            hi = bisect.bisect_right(self.at, end + REF_WINDOW_S)
            out.append(t * REF_NOMINAL_S / statistics.median(self.samples[lo:hi]))
        return out

    def scale(self):
        return REF_NOMINAL_S / statistics.median(self.samples)


def _run_op(op):
    start = time.perf_counter_ns()
    try:
        out = op.run()
    except jumpseq.ResourceLimitError:
        out = workloads.Outcome(queries=op.queries, failure="resource-limit")
    except Exception as e:  # the loop keeps going; the failure is counted
        out = workloads.Outcome(queries=op.queries, failure="raised:%s" % type(e).__name__,
                                text="%s: %s" % (type(e).__name__, e))
    return out, (time.perf_counter_ns() - start) / 1e6


def _run_cycle(wl, index, tracer=None, gauge=None):
    outcomes, times = [], []
    for op_id, op in enumerate(wl.cycle(index)):
        if tracer is not None:
            tracer.op_id = op_id
        if gauge is not None:
            gauge.tick()
        start = time.perf_counter()
        out, ms = _run_op(op)
        if gauge is not None:
            gauge.op(start, time.perf_counter())
        outcomes.append(out)
        times.append(ms)
    return outcomes, times


def tail(times, p):
    """The p-th percentile (nearest rank) of the sorted ``times``, with p
    lowered until at least TAIL_BEYOND samples lie beyond it.

    Each workload fixes p as the highest percentile with TAIL_BEYOND
    samples beyond it at its usual sample count, so that runs and commits
    with different sample counts report the same percentile."""
    n = len(times)
    while p > 1 and n - math.ceil(p * n / 100) < TAIL_BEYOND:
        p -= 1
    return p, times[max(1, math.ceil(p * n / 100)) - 1]


def _tally(outcomes):
    tally = Counter()
    for o in outcomes:
        tally[o.failure or ("wrong" if o.wrong else "ok")] += 1
    return tally


def _drop_text(outcomes):
    """Forget outputs that are no longer needed, so that they do not count
    in the peak memory."""
    for o in outcomes:
        o.text = ""


def _untraced(args, wl, gauge):
    """Run cycles while the next is expected to end within ``--seconds``,
    at least one.  Returns the outcomes, the operation times, the first
    cycle's outcomes and each cycle's time, gauge ticks excluded."""
    outcomes, times, cycle_s = [], [], []
    start = time.perf_counter()
    while True:
        ticks = sum(gauge.samples)
        t0 = time.perf_counter()
        outs, ts = _run_cycle(wl, len(cycle_s), gauge=gauge)
        cycle_s.append(time.perf_counter() - t0 - (sum(gauge.samples) - ticks))
        if len(cycle_s) == 1:
            first = outs
        else:
            _drop_text(outs)
        outcomes += outs
        times += ts
        if time.perf_counter() - start + cycle_s[-1] > args.seconds:
            break
    return outcomes, times, first, cycle_s


def _traced(args, wl):
    """Alternate untraced and traced runs of the first cycle while the
    next pair is expected to end within ``--seconds``, at least once.
    Returns the outcomes, the output digests (all equal unless a run
    differed), the per-layer metrics and the number of traced cycles."""
    from spans import Tracer

    tracer = Tracer()
    outcomes, summaries, plain_s, traced_s, digests = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs, _ = _run_cycle(wl, 0)
        plain_s.append(time.perf_counter() - t0)
        digests.append(workloads.digest(outs))
        _drop_text(outs)
        outcomes += outs
        with tracer.installed():
            mark = tracer.mark()
            t0 = time.perf_counter()
            outs, _ = _run_cycle(wl, 0, tracer)
            traced_s.append(time.perf_counter() - t0)
        summary = tracer.summary(mark)
        summary["cli.bytes_out"] = sum(o.bytes_out for o in outs)
        summaries.append(summary)
        digests.append(workloads.digest(outs))
        _drop_text(outs)
        outcomes += outs
        if time.perf_counter() - start + plain_s[-1] + traced_s[-1] > args.seconds:
            break
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(spans_path)
    layers = {}
    for key, value in summaries[0].items():
        pick = statistics.median if isinstance(value, float) else statistics.median_low
        layers[key] = pick(s[key] for s in summaries)
    layers["trace.overhead_share"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    return outcomes, digests, layers, len(summaries), os.path.relpath(spans_path, ROOT)


UNITS = {"calls": "count", "count": "count", "self_s": "s", "terms_max": "count",
         "uncertified": "count", "bytes_out": "B", "overhead_share": "share"}


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "jumpseq", "__init__.py")):
        sys.stderr.write("perfbench: no src/jumpseq under %s; run from a source checkout\n" % ROOT)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        t0 = time.perf_counter()
        _prepare(args).close()
        print(time.perf_counter() - t0)
        return 0

    global jumpseq, workloads
    import jumpseq
    import workloads
    loaded = os.path.dirname(os.path.abspath(jumpseq.__file__))
    if loaded != os.path.join(SRC, "jumpseq"):
        sys.stderr.write("perfbench: jumpseq was imported from %s, not src/\n" % loaded)
        return 2
    setup_gauge, gauge = SpeedGauge(), SpeedGauge()
    if not args.trace:
        setup_s, setup_samples = _setup_seconds(args, setup_gauge)
    wl = _prepare(args)
    try:
        if args.trace:
            outcomes, digests, layers, cycles, spans_path = _traced(args, wl)
        else:
            outcomes, times, first, cycle_s = _untraced(args, wl, gauge)
            cycles = len(cycle_s)
            digests = [workloads.digest(first)]
    finally:
        wl.close()

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failure or o.wrong)
    wrong = [o.wrong for o in outcomes if o.wrong]
    if len(set(digests)) != 1:
        wrong.append("traced and untraced runs of one cycle differ: %s" % digests)
    queries = sum(o.queries for o in outcomes)
    certified = sum(o.certified for o in outcomes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": os.cpu_count(),
        "invocation": "python3 perfbench/run.py (src/ first on sys.path, as PYTHONPATH=src; no install)",
        "jumpseq": os.path.relpath(loaded, ROOT),
        "pairs": wl.pairs,
        "ops_per_cycle": len(wl.cycle(0)), "cycles": cycles, "attempted": attempted,
        "outcomes": dict(sorted(_tally(outcomes).items())),
        "failed_share": {"value": failed / attempted, "unit": "share"},
        "queries": queries, "certified": certified,
        "output_digest": digests[0],
        "wrong": wrong[:5],
    }
    if args.trace:
        record["spans"] = spans_path
        metrics = {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[-1]]}
                   for k, v in sorted(layers.items())}
    else:
        n = len(first)
        scaled = gauge.scaled(times)
        scaled_cycle_s = [sum(scaled[i:i + n]) / 1000 for i in range(0, len(scaled), n)]
        p, tail_ms = tail(sorted(scaled), wl.tail_percentile)
        raw = {"setup_s": setup_s, "ops_per_s": n / statistics.median(cycle_s),
               "op_p50_ms": statistics.median(times),
               "op_tail_ms": tail(sorted(times), wl.tail_percentile)[1]}
        record.update(op_samples=len(times), op_tail_percentile=p, cycle_s=cycle_s,
                      setup_samples_s=setup_samples, unscaled=raw,
                      speed_scale=gauge.scale(), setup_speed_scale=setup_gauge.scale(),
                      speed_samples=len(gauge.samples))
        metrics = {
            "setup_s": {"value": setup_s * setup_gauge.scale(), "unit": "s"},
            "ops_per_s": {"value": n / statistics.median(scaled_cycle_s), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(scaled), "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms"},
            "completed_share": {"value": 1 - failed / attempted, "unit": "share"},
            "certified_share": {"value": certified / queries, "unit": "share"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
