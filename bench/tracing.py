"""In-memory spans around the benchmark's calls into ccspt.

A span records its name, start, end, parent span and query id.  Span names
are ``<layer>.<call>``, where the layer is the ccspt module called
(``parser``, ``semantics``, ``encode``, ``bisim``, ``modal``, ``axioms``,
``cli``); the benchmark's own per-query work is the ``query`` layer.  Spans
are taken only from the benchmark's side of each call: nothing inside the
library is instrumented.  The benchmark's own measurements in a traced
run, such as reachable-set sizes, are ``probe`` spans (``probe.<what>``,
or a ccspt call made only to time it); tracing overhead leaves them out.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

LAYERS = ("parser", "semantics", "encode", "bisim", "modal", "axioms", "cli")


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key, n):
        pass

    def begin_query(self, qid, kind):
        pass

    def end_query(self):
        pass


class Tracer(NullTracer):
    """Tracing on: every call through ``call`` or ``probe`` becomes a span.

    ``probe`` spans time a call made only for measurement (the separate arena
    constructions); they are excluded when the tracing overhead is computed.
    """

    enabled = True

    def __init__(self):
        self.spans = []          # [name, start, end, parent, query, probe]
        self.stack = []
        self.query = None
        self.counts = Counter()
        self.errors = Counter()

    def _open(self, name, probe):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.query, probe])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _span(self, name, probe, fn, args, kwargs):
        idx = self._open(name, probe)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            self._close(idx)

    def call(self, name, fn, *args, **kwargs):
        return self._span(name, False, fn, args, kwargs)

    def probe(self, name, fn, *args, **kwargs):
        return self._span(name, True, fn, args, kwargs)

    def add(self, key, n):
        self.counts[key] += n

    def begin_query(self, qid, kind):
        self.query = qid
        self._open(f"query.{kind}", False)

    def end_query(self):
        self._close(self.stack[-1])
        self.query = None

    # -- aggregation ----------------------------------------------------
    def span_totals(self):
        """Total duration and call count per span name."""
        total = defaultdict(float)
        calls = Counter()
        for name, start, end, _, _, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        return total, calls

    def probe_seconds(self):
        return sum(end - start for _, start, end, _, _, probe in self.spans if probe)

    def self_times(self):
        """Per layer: span time minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child[k]
        return dict(out)

    def dump(self, origin):
        """Spans as JSON-ready records, times relative to ``origin``."""
        return [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent, "query": query, "probe": probe}
                for name, start, end, parent, query, probe in self.spans]
