"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces the program's public functions at their module
boundaries with wrappers that record a span per call: name, start, end,
parent span, iteration id, and counts derived from the call's arguments and
result.  Nothing under ``src/`` is edited; the wrappers are installed by
rebinding module attributes for the length of one iteration and removed
afterwards.

Spans are only recorded while a benchmark stage is open (``Tracer.stage``),
so the benchmark's own output checks never appear in the trace.
"""

import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

STAGE_PREFIX = "bench."


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: object  # parent span id, or None for a stage span
    iteration: int
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Hook:
    """One wrapped function.

    ``layer`` is the span name; several hooks may share one layer.  ``home``
    is the module that defines ``attr``; ``sites`` are the modules whose
    global binding of that function is replaced, which decides which call
    sites are traced.  ``count(args, kwargs, result)`` returns counts for the
    span, keyed by metric name; ``peak_memory`` adds the call's tracemalloc
    peak as ``<layer>.traced_peak_mb``.
    """

    layer: str
    home: str
    attr: str
    sites: tuple
    count: object = None
    peak_memory: bool = False


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its child spans cover."""
    children = _children(spans)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def _children(spans):
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def _descendant_count(span, children, key) -> float:
    total = 0.0
    for child in children[span.id]:
        total += child.counts.get(key, 0) + _descendant_count(child, children, key)
    return total


class Tracer:
    """Records spans for the hooks it installs; inactive outside stages."""

    def __init__(self, hooks):
        self.hooks = tuple(hooks)
        self.spans = []
        self.iteration = 0
        self.missing = []
        self._active = False
        self._stack = []
        self._next_id = 0
        self._restore = []

    def install(self) -> None:
        """Rebind every hook's call sites to a recording wrapper."""
        self.missing = []
        for hook in self.hooks:
            try:
                original = getattr(importlib.import_module(hook.home), hook.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{hook.home}.{hook.attr}")
                continue
            for site in hook.sites:
                module = sys.modules.get(site)
                current = getattr(module, hook.attr, None)
                if current is None or inspect.unwrap(current) is not inspect.unwrap(original):
                    continue
                self._restore.append((module, hook.attr, current))
                setattr(module, hook.attr, self._wrap(hook, current))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def missing_layers(self) -> set:
        """Layers none of whose functions exist in the program."""
        present = {
            hook.layer for hook in self.hooks if f"{hook.home}.{hook.attr}" not in self.missing
        }
        return {hook.layer for hook in self.hooks} - present

    @contextmanager
    def stage(self, name):
        """Open a top-level span for one benchmark stage and record inside it."""
        span_id = self._open()
        self._active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._active = False
            self._close(span_id, STAGE_PREFIX + name, start, end, {})

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id, name, start, end, counts) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, name, start, end, parent, self.iteration, counts))

    def _wrap(self, hook, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span_id = self._open()
            if hook.peak_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_id, hook.layer, start, time.perf_counter(), {})
                if hook.peak_memory:
                    tracemalloc.stop()
                raise
            end = time.perf_counter()
            counts = {}
            if hook.peak_memory:
                counts[f"{hook.layer}.traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            if hook.count is not None:
                counts.update(hook.count(args, kwargs, result))
            self._close(span_id, hook.layer, start, end, counts)
            return result

        return traced


def iteration_summary(spans) -> dict:
    """Per-layer metrics of one iteration's spans.

    ``<name>.self_s`` and ``<name>.calls`` for every span name; each count
    summed over the iteration (peaks take the maximum); the median over
    decision_values calls of query points per solved column; and
    ``trace.unattributed_s``, the stage time spent outside any wrapped call.
    """
    selfs = self_times(spans)
    children = _children(spans)
    out = defaultdict(float)
    for span in spans:
        out[f"{span.name}.self_s"] += selfs[span.id]
        out[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            out[key] = max(out[key], value) if key.endswith("_peak_mb") else out[key] + value
    ratios = []
    for span in spans:
        if span.name == "estimator.decision_values":
            columns = _descendant_count(span, children, "estimator.solve_triangular.columns")
            if columns > 0:
                ratios.append(span.counts["estimator.decision_values.points"] / columns)
    if ratios:
        out["estimator.query_useful_ratio"] = statistics.median(ratios)
    out["trace.unattributed_s"] = sum(
        selfs[span.id] for span in spans if span.name.startswith(STAGE_PREFIX)
    )
    return dict(out)


def per_layer_metrics(tracer, wanted, owners, traced_run_s, untraced_run_s) -> dict:
    """Median over traced iterations of each wanted per-layer metric.

    ``owners`` maps a metric name to the layer that produces it, where the
    name does not start with the layer's own name.  A metric whose layer no
    longer exists in the program is reported as None (missing), never as
    zero; a layer that exists but was not called in this workload reads zero.
    """
    by_iteration = defaultdict(list)
    for span in tracer.spans:
        by_iteration[span.iteration].append(span)
    summaries = [iteration_summary(spans) for spans in by_iteration.values()]
    missing = tracer.missing_layers()
    out = {}
    for name in wanted:
        if name == "trace.overhead_s":
            out[name] = statistics.median(traced_run_s) - statistics.median(untraced_run_s)
            continue
        layer = owners.get(name) or name.rsplit(".", 1)[0]
        values = [summary.get(name) for summary in summaries]
        if layer in missing or not values:
            out[name] = None
        elif name == "estimator.query_useful_ratio" and None in values:
            out[name] = None
        else:
            out[name] = statistics.median(0.0 if v is None else v for v in values)
    return out
