#!/usr/bin/env python3
"""ccspt benchmark runner.

Runs one workload in this process, single-threaded, as a closed loop with
one client: the next query starts when the previous one has finished.  Only
set-up starts other processes: a few fresh interpreters that time the import.
Inputs come from ``--seed`` and are generated during set-up; the library is
imported from ``src/`` next to this directory.

    python3 bench/run.py --workload ring --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, their times scaled to a
nominal host speed by the reference tasks in ``speed.py``; with ``--trace 1`` it
alternates untraced and traced passes over the workload and prints the
per-layer metrics, writing every span to ``bench/out/``.  ``--workload all``
runs every workload, traced and untraced, each in a fresh process, and prints
every metric.  The last line of output is one JSON object; the exit code is
0 only when every query matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from speed import SEGMENT_S, Speed
from tracing import LAYERS, NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("ring", "wide", "campaign", "compose")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
IMPORT_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
               "import ccspt, workloads; print(time.perf_counter() - t)")
P90_MIN_SAMPLES = 100     # at least ten samples beyond the 90th percentile
RELATIONS = ("strong", "brb", "brb-rooted", "gbrb", "gbrb-rooted", "cbrb",
             "tob", "tob-rooted", "tb", "tb-rooted")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import ccspt from this checkout's ``src/`` and the workload module."""
    sys.path.insert(0, SRC)
    try:
        import ccspt
        import workloads
    except ImportError as exc:
        fail(f"cannot import ccspt from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(ccspt.__file__)) != os.path.join(SRC, "ccspt"):
        fail(f"ccspt was imported from {ccspt.__file__}, not {SRC}")
    return workloads


def import_seconds():
    """Time to import ccspt and the workloads in a fresh interpreter.

    The first import after a change to the sources also compiles them, so
    one import is a poor sample; each repeat starts a new process."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC, HERE],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"importing ccspt in a fresh interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def set_up(workloads, name, seed, speed):
    """Generate the inputs several times; they must come out identical.

    Returns the inputs and the unscaled set-up time: the median import plus
    the median generation.  Each repeat is followed by a reference block."""
    imports, times, first = [], [], None
    import_seconds()           # the first imports in a run are slower
    for _ in range(IMPORT_REPEATS):
        imports.append(import_seconds())
        speed.after(imports[-1])
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rounds = workloads.inputs(name, seed)
        times.append(time.perf_counter() - t0)
        speed.after(times[-1])
        if first is None:
            first = rounds
        elif rounds != first:
            fail(f"{name} inputs differ between set-ups with seed {seed}")
    return first, statistics.median(imports) + statistics.median(times)


class Tally:
    """Attempted and failed queries, with the failures' exception classes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()

    def run(self, query, tracer, workdir, qid):
        self.attempted += 1
        tracer.begin_query(qid, query.kind)
        try:
            query(tracer, workdir)
            return True
        except Exception as exc:   # contain it: one crash must not hide the rest
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            if self.errors[type(exc).__name__] <= 3:
                print(f"query {qid} ({query.kind}) failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return False
        finally:
            tracer.end_query()


def run_pass(rounds, tracer, tally, workdir, tag):
    for r, queries in enumerate(rounds):
        for k, query in enumerate(queries):
            tally.run(query, tracer, workdir, f"{tag}.{r}.{k}")


def measure(rounds, seconds, tally, workdir, speed):
    """Untraced closed loop over the rounds, repeated until the next round
    would overrun ``seconds``.

    A reference block follows every ``SEGMENT_S`` of query time.  Returns
    every query's unscaled time and the number that completed without
    failing.
    """
    tracer = NullTracer()
    latencies, completed, segment_s = [], 0, 0.0
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        for k, query in enumerate(rounds[r % len(rounds)]):
            t0 = time.perf_counter()
            completed += tally.run(query, tracer, workdir, f"{r}.{k}")
            latencies.append(time.perf_counter() - t0)
            segment_s += latencies[-1]
            if segment_s >= SEGMENT_S:
                speed.after(segment_s)
                segment_s = 0.0
        r += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    speed.after(segment_s)
    return latencies, completed


def layer_metrics(tracer, passes):
    """Per-layer metrics of one pass, from the spans and counts of ``passes``."""
    total, calls = tracer.span_totals()
    counts = tracer.counts

    def seconds(*names):
        return sum(total[n] for n in names) / passes

    def per_pass(key):
        return counts[key] // passes

    seeded = per_pass("bisim.seeded_entries")
    m = {
        "parser.parse_s": (seconds("parser.parse_term", "parser.render"), "s"),
        "parser.calls": ((calls["parser.parse_term"] + calls["parser.render"]) // passes, "count"),
        "semantics.build_lts_s": (seconds("semantics.build_lts"), "s"),
        "semantics.from_aut_s": (seconds("semantics.from_aut"), "s"),
        "semantics.states": (per_pass("semantics.states"), "count"),
        "semantics.transitions": (per_pass("semantics.transitions"), "count"),
        "encode.encode_s": (seconds("encode.encode"), "s"),
        "encode.states": (per_pass("encode.states"), "count"),
        "bisim.arena_s": (seconds("bisim.arena"), "s"),
        "bisim.theta_arena_s": (seconds("bisim.theta_arena"), "s"),
        "bisim.theta_states": (per_pass("bisim.theta_states"), "count"),
    }
    for rel in RELATIONS:
        m[f"bisim.check_s.{rel}"] = (seconds(f"bisim.check.{rel}"), "s")
    m.update({
        "bisim.iterations": (per_pass("bisim.iterations"), "count"),
        "bisim.entries_checked": (per_pass("bisim.entries_checked"), "count"),
        "bisim.seeded_entries": (seeded, "count"),
        "bisim.checks_per_seeded": (
            per_pass("bisim.fixpoint_checks") / seeded if seeded else 0.0, "ratio"),
        "bisim.witness_size": (per_pass("bisim.witness_size"), "count"),
        "bisim.revalidate_s": (seconds("bisim.revalidate"), "s"),
        "modal.distinguish_s": (seconds("modal.distinguish"), "s"),
        "modal.formula_nodes": (per_pass("modal.formula_nodes"), "count"),
        "modal.sat_s": (seconds("modal.sat"), "s"),
        "axioms.soundness_s": (seconds("axioms.soundness_suite"), "s"),
        "axioms.instances": (per_pass("axioms.instances"), "count"),
        "cli.main_s": (seconds("cli.main"), "s"),
    })
    return m


def traced(name, seed, rounds, seconds, tally, workdir):
    """Alternate untraced and traced passes; report per-layer metrics per pass.

    Counts must repeat exactly from one traced pass to the next.  Tracing
    overhead is the traced pass time, less the separate arena probes, minus
    the untraced pass time.
    """
    tracer = Tracer()
    plain_times, traced_times, per_pass_counts = [], [], []
    origin = time.perf_counter()
    p = 0
    while True:
        t0 = time.perf_counter()
        run_pass(rounds, NullTracer(), tally, workdir, f"u{p}")
        t1 = time.perf_counter()
        before, probes = Counter(tracer.counts), tracer.probe_seconds()
        run_pass(rounds, tracer, tally, workdir, f"t{p}")
        t2 = time.perf_counter()
        plain_times.append(t1 - t0)
        traced_times.append(t2 - t1 - (tracer.probe_seconds() - probes))
        per_pass_counts.append(tracer.counts - before)
        p += 1
        if t2 - origin + (t2 - t0) > seconds:
            break
    for k, counts in enumerate(per_pass_counts[1:], start=1):
        if counts != per_pass_counts[0]:
            tally.attempted += 1
            tally.failed += 1
            tally.errors["NondeterministicCounts"] += 1
            print(f"traced pass {k} counts differ from pass 0", file=sys.stderr)
    metrics = layer_metrics(tracer, p)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(plain_times), "s")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "passes": p,
                   "untraced_pass_s": plain_times, "traced_pass_s": traced_times,
                   "counts": dict(per_pass_counts[0]),
                   "self_s": {k: v / p for k, v in tracer.self_times().items()},
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "spans": tracer.dump(origin)}, handle)
    print(f"{name}: {p} traced pass(es), spans written to {os.path.relpath(path)}")
    return metrics


def run_one(args):
    workloads = import_library()
    speed = Speed()
    rounds, setup_s = set_up(workloads, args.workload, args.seed, speed)
    tally = Tally()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            metrics = traced(args.workload, args.seed, rounds, args.seconds,
                             tally, workdir)
        else:
            raw, completed = measure(rounds, args.seconds, tally, workdir, speed)
            factor = speed.factor()
            latencies = [t * factor for t in raw]
            metrics = {
                "queries_per_s": (completed / sum(latencies), "1/s"),
                "verdict_p50_s": (statistics.median(latencies), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (setup_s * factor, "s"),
            }
            n = len(latencies)
            p90 = (f"{statistics.quantiles(latencies, n=10)[-1]:.4f} s"
                   if n >= P90_MIN_SAMPLES else f"n/a, needs {P90_MIN_SAMPLES} samples")
            print(f"{args.workload}: {n} queries in {sum(raw):.2f} s measured, "
                  f"verdict_p90_s {p90} ({n} samples), "
                  f"failed_ratio {tally.failed / tally.attempted:.4f}; "
                  f"scale {factor:.4f}; unscaled: "
                  f"queries_per_s {completed / sum(raw):.4f}, "
                  f"verdict_p50_s {statistics.median(raw):.4f}")
    if tally.errors:
        print(f"failures by class: {dict(tally.errors)}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            status = status or proc.returncode
            if not lines:
                print(f"{name} trace={trace}: no output (exit {proc.returncode})")
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for key, m in result["metrics"].items():
                print(f"  {key:28s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": status == 0}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
