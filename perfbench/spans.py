"""In-memory span recorder wrapped around the program's public entry points.

Tracing is installed from the benchmark's own files: :func:`instrument`
replaces selected public methods of ``repro`` classes with thin wrappers
that record one span per call (name, label, start, end, parent, thread).
The program's sources are never edited. Spans stay in memory until the
run ends; a layer's *self time* is its span minus the time its child
spans (same thread, nested) cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "label", "start", "end", "parent", "thread",
                 "children", "first_child_start", "phase", "steps")

    def __init__(self, name, label, start, parent, thread, phase):
        self.name = name
        self.label = label
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.children = 0.0
        self.first_child_start = None
        self.phase = phase
        self.steps = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """Collects spans and counters; ``phase`` tags spans with the workload
    phase that was current when they started."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.phase = None
        self.step_times = defaultdict(list)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name, label=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, label, time.perf_counter(), parent,
                    threading.current_thread().name, self.phase)
        if parent is not None and parent.first_child_start is None:
            parent.first_child_start = span.start
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.children += span.duration
        self.spans.append(span)

    def wrap(self, name, function, label=None, on_result=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer.start(name, label(args, kwargs) if label else None)
            try:
                result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            finally:
                tracer.finish(span)

        return traced

    # -- queries ------------------------------------------------------- #
    def named(self, name, label=None, phase=None):
        return [span for span in self.spans if span.name == name
                and (label is None or span.label == label)
                and (phase is None or span.phase == phase)]


def _pipeline_label(args, kwargs):
    return getattr(args[0], "name", None)


def _batch_label(args, kwargs):
    exact = kwargs.get("exact", args[2] if len(args) > 2 else True)
    return f"{args[0].name}.{'exact' if exact else 'fused'}"


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer (for the rest
    of the process: a traced run never measures untraced work)."""
    from repro.api.gateway import AdmissionController, Gateway
    from repro.api.jobs import RequestCoalescer
    from repro.api.rest import SintelAPI
    from repro.api.streams import StreamManager
    from repro.core.fleet import FleetStreamRunner
    from repro.core.pipeline import Pipeline
    from repro.core.plan import PlanCompiler
    from repro.core.primitive import get_primitive_class, list_primitives
    from repro.core.sintel import Sintel
    from repro.core.stream import StreamRunner
    from repro.db.explorer import SintelExplorer
    from repro.nn.network import Sequential
    from repro.streaming.drift import DriftMonitor

    def count_drifts(span, found):
        tracer.counters["drift.detections"] += len(found)

    targets = [
        (Gateway, "handle", "gateway", None, None),
        (AdmissionController, "acquire", "admission", None, None),
        (SintelAPI, "handle", "rest", None, None),
        (RequestCoalescer, "submit", "coalescer", None, None),
        (Sintel, "fit", "sintel", None, None),
        (Sintel, "detect", "sintel", None, None),
        (Sintel, "detect_many", "sintel", None, None),
        (Pipeline, "fit", "pipeline.fit", _pipeline_label, None),
        (Pipeline, "detect", "pipeline.detect", _pipeline_label, None),
        (Pipeline, "detect_batch", "pipeline.detect_batch", _batch_label,
         None),
        (Pipeline, "partial_detect", "pipeline.partial_detect",
         _pipeline_label, None),
        (PlanCompiler, "compile", "plan.compile", None, None),
        (Sequential, "predict", "nn.forward", None, None),
        (Sequential, "predict_fused", "nn.fused_forward", None, None),
        (Sequential, "fit", "nn.fit", None, None),
        (FleetStreamRunner, "run_round", "fleet.round", None, None),
        (StreamRunner, "send", "stream.send", None, None),
        (StreamRunner, "apply_detections", "stream.apply", None, None),
        (DriftMonitor, "consume", "drift.consume", None, count_drifts),
        (StreamManager, "push", "streams.push", None, None),
        (SintelExplorer, "get_events", "db.read", None, None),
        (SintelExplorer, "add_event", "db.write", None, None),
        (SintelExplorer, "add_annotation", "db.write", None, None),
    ]
    for name in list_primitives():
        cls = get_primitive_class(name)
        for method in ("produce", "produce_batch", "produce_batch_fused"):
            targets.append((cls, method, f"primitive.{cls.__name__}", None,
                            None))

    for owner, attribute, span_name, label, on_result in targets:
        setattr(owner, attribute, tracer.wrap(
            span_name, getattr(owner, attribute), label, on_result))


def install_timing_sink(tracer: Tracer) -> None:
    """Chain a step-timing sink (``set_timing_sink``, a public hook) that
    files every executor step time under its step name and adds the
    run's summed step time to the innermost open span of the thread."""
    from repro.core.executor import set_timing_sink

    previous = []

    def sink(timings):
        stack = tracer._stack()
        if stack:
            stack[-1].steps += sum(timing["elapsed"]
                                   for timing in timings.values())
        for step, timing in timings.items():
            tracer.step_times[step].append(timing["elapsed"])
        if previous[0] is not None:
            previous[0](timings)

    previous.append(set_timing_sink(sink))
