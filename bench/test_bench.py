"""Self-checks of the benchmark: deterministic counts, oracles, containment.

    python3 -m pytest -q bench

Runs one traced pass of every workload twice (about a minute on 2 CPUs).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run          # noqa: E402
import speed        # noqa: E402
import workloads    # noqa: E402
from tracing import NullTracer, Tracer   # noqa: E402

SEED = 7

# Per-layer count metrics each workload must report as non-zero: every layer
# the workload calls shows up in its traced run.
CALLED = {
    "ring": ("semantics.states", "encode.states", "bisim.theta_states",
             "bisim.seeded_entries", "bisim.witness_size", "modal.formula_nodes"),
    "wide": ("semantics.states", "bisim.theta_states", "bisim.seeded_entries",
             "bisim.witness_size", "modal.formula_nodes"),
    "campaign": ("parser.calls", "semantics.states", "encode.states",
                 "bisim.theta_states", "bisim.seeded_entries",
                 "bisim.witness_size", "modal.formula_nodes", "axioms.instances"),
    "compose": ("parser.calls", "semantics.states", "semantics.transitions",
                "bisim.iterations", "bisim.witness_size"),
}


def traced_pass(name, tmp_path):
    tracer, tally = Tracer(), run.Tally()
    run.run_pass(workloads.inputs(name, SEED), tracer, tally, str(tmp_path), "t")
    assert tally.failed == 0, dict(tally.errors)
    return tracer


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly(name, tmp_path):
    first = traced_pass(name, tmp_path)
    second = traced_pass(name, tmp_path)
    assert first.counts == second.counts
    assert first.span_totals()[1] == second.span_totals()[1]
    metrics = run.layer_metrics(first, 1)
    missing = [k for k in CALLED[name] if not metrics[k][0]]
    assert not missing, missing


def test_oracle_catches_a_wrong_answer(tmp_path):
    ring = workloads.ring_aut(8, {1}, False)
    variant = workloads.ring_aut(8, {1}, True)
    wrong = workloads.Query("equivalent", workloads.run_aut_pair,
                            (ring, variant, (), {"brb": True, "cbrb": True}))
    right = workloads.Query("equivalent", workloads.run_aut_pair,
                            (ring, variant, (), {"brb": True, "cbrb": False}))
    tally = run.Tally()
    run.run_pass([[wrong, right]], NullTracer(), tally, str(tmp_path), "q")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.errors == {"Mismatch": 1}


def test_a_crashing_query_is_contained(tmp_path):
    def crash(tracer, workdir):
        raise ZeroDivisionError("boom")
    ok = workloads.Query("equivalent", workloads.run_aut_pair,
                         (workloads.ring_aut(8, {1}, False),
                          workloads.ring_aut(8, {1}, False), (), {"brb": True}))
    tally, tracer = run.Tally(), Tracer()
    run.run_pass([[workloads.Query("crash", crash, ())], [ok]], tracer, tally,
                 str(tmp_path), "q")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.errors == {"ZeroDivisionError": 1}
    assert tracer.stack == []


def test_reference_blocks_follow_the_measured_queries(tmp_path):
    pair = workloads.Query("equivalent", workloads.run_aut_pair,
                           (workloads.ring_aut(8, {1}, False),
                            workloads.ring_aut(8, {1}, True), (), {"brb": True}))
    clock, tally = speed.Speed(), run.Tally()
    latencies, completed = run.measure([[pair]], 0.3, tally, str(tmp_path), clock)
    assert completed == len(latencies) == tally.attempted > 0
    assert all(len(times) >= speed.MIN_REF_RUNS for times in clock.times)
    assert clock.factor() > 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
