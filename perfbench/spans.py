"""Span recording for the traced benchmark run, plus the statistics it reports.

The recorder is dependency-free: ``time.perf_counter`` intervals whose parent
is tracked per thread with a ``contextvars.ContextVar``.  The program itself
carries no tracing, so :class:`Instrumentation` wraps public callables of the
``repro`` package from the outside (class attributes and module bindings) for
the duration of a traced phase and restores them afterwards.  Untraced phases
run the original callables, so tracing costs nothing when it is off.

Records are appended to plain lists, which is atomic under the interpreter
lock, so no lock is taken on the hot path.  That matters because the
benchmarked program forks process pools from threaded code: a forked child
that inherited a held lock would deadlock on its first span.  Spans recorded
inside such forked workers stay in the child and are not collected; the
parent's spans around the pool calls cover that time.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    """One recorded interval at a layer boundary."""

    span_id: int
    parent_id: int | None
    root_id: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans and counters in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: list[tuple[str, float]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str):
        parent = self._current.get()
        span_id = next(self._ids)
        record = Span(
            span_id=span_id,
            parent_id=None if parent is None else parent.span_id,
            root_id=span_id if parent is None else parent.root_id,
            name=name,
            start=time.perf_counter(),
            end=math.nan,
        )
        token = self._current.set(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts.append((name, amount))

    def totals(self) -> dict[str, float]:
        """Counter totals by name."""
        totals: dict[str, float] = {}
        for name, amount in self.counts:
            totals[name] = totals.get(name, 0) + amount
        return totals


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cursor = -math.inf
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so a span's self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is not None:
            children.setdefault(parent.span_id, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.span_id: span.duration
        - _covered([iv for iv in children.get(span.span_id, []) if iv[1] > iv[0]])
        for span in spans
    }


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += own[span.span_id]
    return totals


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ``n`` samples that is the sorted
    sample at index ``n - 11``, the percentile ``100 * (n - 10) / n``.  With
    ten samples or fewer no percentile qualifies, and the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Wrapping the program's public callables
# ---------------------------------------------------------------------------


def _resolve(path: str):
    """``"pkg.module:Owner"`` -> the owner object (a module or a class)."""
    module_name, _, owner = path.partition(":")
    target = importlib.import_module(module_name)
    for part in filter(None, owner.split(".")):
        target = getattr(target, part)
    return target


def _span_wrapper(recorder: SpanRecorder, original, name: str, after=None):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(recorder, args)
        return result

    return wrapper


def _count_wrapper(recorder: SpanRecorder, original, name: str):
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return original(*args, **kwargs)

    return wrapper


def _event_loop_wrapper(recorder: SpanRecorder, original, name: str):
    def wrapper(sim, *args, **kwargs):
        before = sim.events_processed
        with recorder.span(name):
            result = original(sim, *args, **kwargs)
        recorder.count("desim.events", sim.events_processed - before)
        return result

    return wrapper


# Hooks read the positional arguments the program passes at these call sites.
def _after_execute(recorder, args):
    recorder.count("stabilizer.lanes", args[1])  # execute_fused(program, batch_size, ...)


def _after_trial(recorder, args):
    recorder.count("arq.shots", args[2])  # run_trial_batch(self, rng, batch_size)


def _after_schedule(recorder, args):
    recorder.count("network.demands", len(args[1]))  # schedule(self, demands)


#: (owner, attribute, span or counter name, wrapper kind, hook).  Module
#: bindings are patched where the caller looks them up, so a function
#: imported by name into another module is wrapped at that binding.
WRAPPED = (
    ("repro.api", "run", "api.run", "span", None),
    ("repro.service.worker", "run", "api.run", "span", None),
    ("repro.api.registry:BackendRegistry", "resolve", "api.resolve", "span", None),
    ("repro.arq.simulator", "compile_circuit", "circuits.compile", "span", None),
    ("repro.arq.simulator", "execute_fused", "stabilizer.execute", "span", _after_execute),
    ("repro.arq.simulator:BatchedNoisyCircuitExecutor", "run", "arq.executor", "span", None),
    ("repro.arq.experiments:Level1EccExperiment", "run_trial_batch", "arq.trial", "span",
     _after_trial),
    ("repro.api.registry:ShardedBackend", "estimate", "parallel.sharded", "span", None),
    ("repro.desim", "build_workload_circuit", "desim.workload_build", "span", None),
    ("repro.desim", "compile_workload_circuit", "desim.workload_build", "span", None),
    ("repro.network.scheduler:GreedyEprScheduler", "schedule", "network.schedule", "span",
     _after_schedule),
    ("repro.network.router:ShortestPathRouter", "congestion_weighted", "network.route_calls",
     "count", None),
    ("repro.desim.engine:DiscreteEventSimulator", "run", "desim.event_loop", "event_loop", None),
    ("repro.desim.links:LinkModel", "realize", "desim.link_realize", "span", None),
    ("repro.explore.cache:ResultCache", "get", "explore.cache_get", "span", None),
    ("repro.explore.cache:ResultCache", "put", "explore.cache_put", "span", None),
    ("repro.service.worker", "run_sweep", "explore.sweep", "span", None),
)


class Instrumentation:
    """Installs the :data:`WRAPPED` wrappers for one traced phase."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        for path, attribute, name, kind, hook in WRAPPED:
            owner = _resolve(path)
            original = getattr(owner, attribute)
            if kind == "span":
                wrapper = _span_wrapper(self.recorder, original, name, hook)
            elif kind == "count":
                wrapper = _count_wrapper(self.recorder, original, name)
            else:
                wrapper = _event_loop_wrapper(self.recorder, original, name)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def active(self, enabled: bool = True):
        if not enabled:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()
