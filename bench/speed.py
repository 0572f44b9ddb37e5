"""Host-speed calibration for the benchmark's end-to-end times.

On a shared virtual machine the same pure-Python work runs up to 1.7 times
slower for seconds to minutes at a time, when other guests load the host.
Raw wall times then move by more than any useful regression bound.  The
benchmark therefore runs two fixed reference tasks, stdlib-only and never
touching ``ccspt``, in blocks spread through the run, and scales every
measured time by ``NOMINAL_S`` over the tasks' median times in the run,
taking the geometric mean of the two ratios.  A reported time is the time
the work would take on a host where the tasks take ``NOMINAL_S``; a change to
``ccspt`` moves it, host drift that slows both alike does not.

The correction is close, not exact, and no single task tracked every
workload: a compute-bound task (tuple-set loops) and an allocation-heavy one
(building and dropping a store of small containers) each over- or
under-corrected some workload in turn over minutes of drift, and their
geometric mean was the steadiest of the three.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = (0.010, 0.006)  # the tasks' medians on the baseline host
REF_SHARE = 0.25            # reference time per unit of measured time
SEGMENT_S = 1.0             # measured time between two reference blocks
MIN_REF_RUNS = 5


def compute_task():
    """Tuple-keyed set lookups in nested loops, as in a fixpoint round."""
    succ = {i: ((i * 7 + 3) % 240, (i * 13 + 5) % 240, (i * 29 + 1) % 240)
            for i in range(240)}
    alive = {(i, j) for i in range(0, 240, 4) for j in range(0, 240, 5)}
    matched = 0
    for rnd in range(3):
        for p, q in sorted(alive):
            for p2 in succ[p]:
                for q2 in succ[q]:
                    if (p2 - p2 % 4, q2 - q2 % 5 + rnd) in alive:
                        matched += 1
                        break
    return matched


def alloc_task():
    """Builds a tuple-keyed store of small containers, walks it and drops
    it, as the checkers seed their stores."""
    store = {}
    for i in range(8000):
        key = (i % 97, i // 97)
        store[key] = [key, (i, i + 1), {i}]
    total = 0
    for value in store.values():
        total += len(value[2]) + value[1][0] % 3
    return total


TASKS = ((compute_task, 8640), (alloc_task, 15999))   # with their results


class Speed:
    """Reference blocks spread through a run, and the scale they give."""

    def __init__(self):
        self.times = tuple([] for _ in TASKS)

    def after(self, measured_s):
        """Follow ``measured_s`` of measured work with its share of reference
        runs, at least ``MIN_REF_RUNS`` of each task."""
        start = time.perf_counter()
        runs = 0
        while runs < MIN_REF_RUNS or time.perf_counter() - start < REF_SHARE * measured_s:
            for (task, result), times in zip(TASKS, self.times):
                t0 = time.perf_counter()
                if task() != result:
                    raise RuntimeError(f"{task.__name__} gave a wrong result")
                times.append(time.perf_counter() - t0)
            runs += 1

    def factor(self):
        """Scale from this run's times to the nominal host speed."""
        ratios = [nominal / statistics.median(times)
                  for nominal, times in zip(NOMINAL_S, self.times)]
        return statistics.geometric_mean(ratios)
