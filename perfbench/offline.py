"""Offline scoring measured in rounds: fit, per-signal loop, batch planes.

api_mixed and stream_fleet report the offline end-to-end metrics
(``fit_s``, ``detect_ms``, ``batch_signals_per_s``, ``fused_signals_per_s``,
``event_f1``) from one instance on their own model and data, with a round
before the first serving phase, between phases and at the end, so the
samples spread over the whole run.

The shared machine the benchmark was defined on switches between a fast
and a slow state (about 1.5x) that last from seconds to over a minute, so
a whole run can fall in either. Every timed call is therefore bracketed
by a fixed calibration kernel (:func:`calibrate`), and the figures are
*scaled*: each sample is multiplied by the kernel's reference time over
its time around the sample, so figures read as times on the reference
box in its fast state. The unscaled figures are reported beside them.
Every figure is a median over the rounds' samples: a signal's detect
time is its median round, a plane's throughput its median pass, a fit
its median repeat. Batch planes repeat passes for ``plane_seconds`` per
round, so a round's batch samples cover a fixed stretch of time however
fast the program is.
"""

from __future__ import annotations

import time

import numpy as np

from common import event_f1, median

PLANES = ("exact", "fused")
#: Fast-state time of one :func:`calibrate` kernel run on the reference
#: box (the 2-vCPU VM of README.md); it was 0.9-1.2 ms in the slow state.
CALIBRATION_REFERENCE_S = 0.00072
_KERNEL_MATRIX = np.random.default_rng(0).normal(size=(1000, 40))
_KERNEL_WEIGHTS = np.random.default_rng(1).normal(size=(40, 20))
_KERNEL_VECTOR = np.random.default_rng(2).normal(size=4096)


def calibrate() -> float:
    """Seconds of a fixed kernel (best of two runs) that mixes a Python
    loop with small NumPy operations, as the pipelines' primitives do.
    It does not touch the program, so only the machine changes it."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        total = 0.0
        for step in range(3000):
            total += (step % 7) * 0.5
        for _ in range(4):
            np.sort(_KERNEL_VECTOR)
            np.fft.rfft(_KERNEL_VECTOR)
            np.tanh(_KERNEL_MATRIX @ _KERNEL_WEIGHTS).sum()
            np.cumsum(_KERNEL_VECTOR)
        best = min(best, time.perf_counter() - started)
    return best


def timed(call):
    """``call()``'s result, its wall seconds and its scale: the kernel's
    reference time over its mean time just before and after the call."""
    before = calibrate()
    started = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - started
    return result, elapsed, 2.0 * CALIBRATION_REFERENCE_S / (
        before + calibrate())


class OfflineRounds:
    """Fitted models, reference answers and timing samples.

    Args:
        pipeline, options: what to build (``Sintel(pipeline, **options)``).
        trains: training row arrays; one model is fitted on each.
        signals: ``(rows, labels)`` pairs scored by every round with the
            first model (detection cost does not depend on the training set).
        plane_seconds: seconds each batch plane repeats passes for, per
            round (at least one pass).
        fit_repeats: fits of each training set per round.
        tracer, label: ``tracer.phase`` is set to ``"<label>:<part>"``
            (``fit``, ``per_signal``, ``exact``, ``fused``) while
            a round runs, and restored afterwards.
    """

    def __init__(self, pipeline, options, trains, signals, plane_seconds,
                 fit_repeats=1, tracer=None, label="offline"):
        from repro import Sintel

        self.pipeline = pipeline
        self.build = lambda: Sintel(pipeline, **options)
        self.trains = [np.asarray(train) for train in trains]
        self.rows = [np.asarray(rows) for rows, _ in signals]
        self.labels = [labels for _, labels in signals]
        self.plane_seconds = plane_seconds
        self.fit_repeats = fit_repeats
        self.tracer = tracer
        self.label = label
        self.fits = [[] for _ in self.trains]
        self.models = []
        for train in self.trains:
            model = self.build()
            model.fit(train)
            self.models.append(model)
        #: Exact-plane answers per training set (bitwise the per-signal loop).
        self.answers = [model.detect_many(self.rows, exact=True)
                        for model in self.models]
        self.models[0].detect_many(self.rows, exact=False)
        self.models[0].detect(self.rows[0])
        self.detects = [[] for _ in self.rows]
        #: ``(wall seconds, scale)`` samples; see :func:`timed`.
        self.passes = {plane: [] for plane in PLANES}
        self.attempted = self.failed = 0

    def _phase(self, part):
        if self.tracer is not None:
            self.tracer.phase = f"{self.label}:{part}"

    def round(self) -> None:
        from repro.benchmark.batch import anomalies_within_tolerance

        previous = self.tracer.phase if self.tracer is not None else None
        self._phase("fit")
        for _ in range(self.fit_repeats):
            for index, train in enumerate(self.trains):
                model = self.build()
                _, elapsed, scale = timed(lambda: model.fit(train))
                self.fits[index].append((elapsed, scale))
        model, reference = self.models[0], self.answers[0]
        self._phase("per_signal")
        for index, rows in enumerate(self.rows):
            found, elapsed, scale = timed(lambda: model.detect(rows))
            self.detects[index].append((elapsed, scale))
            self.failed += found != reference[index]
            self.attempted += 1
        for plane in PLANES:
            self._phase(plane)
            until = time.perf_counter() + self.plane_seconds
            while True:
                results, elapsed, scale = timed(lambda: model.detect_many(
                    self.rows, exact=plane == "exact"))
                self.passes[plane].append((elapsed, scale))
                if plane == "exact":
                    self.failed += sum(got != want
                                       for got, want in zip(results, reference))
                else:
                    self.failed += sum(
                        not anomalies_within_tolerance([got], [want])
                        for got, want in zip(results, reference))
                self.attempted += len(self.rows)
                if time.perf_counter() >= until:
                    break
        if self.tracer is not None:
            self.tracer.phase = previous

    def figures(self, scaled=True) -> dict:
        """The offline figures, scaled (see the module notes) or not."""
        def seconds(sample):
            elapsed, scale = sample
            return elapsed * scale if scaled else elapsed

        def typical(samples):
            return median(seconds(sample) for sample in samples)

        rows = len(self.rows)
        return {
            "fit_s": sum(typical(samples) for samples in self.fits),
            "detect_ms": 1000.0 * median(typical(samples)
                                         for samples in self.detects),
            "loop_signals_per_s": rows / sum(typical(samples)
                                             for samples in self.detects),
            "batch_signals_per_s": rows / typical(self.passes["exact"]),
            "fused_signals_per_s": rows / typical(self.passes["fused"]),
            "event_f1": median(event_f1(self.labels, answers)
                               for answers in self.answers),
            "repeats": {"per_signal": len(self.detects[0]),
                        **{plane: len(self.passes[plane])
                           for plane in PLANES}},
        }

    def layers(self, tracer) -> dict:
        """Per-layer figures of the rounds' pipeline, from a traced run.

        Unscaled. Fit and per-signal detect are medians over the rounds'
        samples, batch calls medians over the planes' passes; the
        executor's overhead is a per-signal detect's wall time minus its
        steps.
        """
        name, label = self.pipeline, self.label
        detects = tracer.named("pipeline.detect", label=name,
                               phase=f"{label}:per_signal")
        out = {
            f"pipeline.fit_ms.{name}": 1000.0 * median(
                elapsed for samples in self.fits for elapsed, _ in samples),
            f"pipeline.detect_ms.{name}": 1000.0 * median(
                span.duration for span in detects),
            f"executor.overhead_ms.{name}": 1000.0 * median(
                span.duration - span.steps for span in detects),
        }
        for plane in PLANES:
            batches = tracer.named("pipeline.detect_batch",
                                   label=f"{name}.{plane}",
                                   phase=f"{label}:{plane}")
            out[f"pipeline.detect_batch_ms.{name}.{plane}"] = (
                1000.0 * median(span.duration for span in batches))
        plan = self.models[0].pipeline.compiled_plan("batch", exact=False)
        out[f"plan.fusion_groups.{name}"] = len(plan.fusion_groups)
        arena = plan.arena.stats()
        out["arena.reuse_ratio"] = arena["reuses"] / max(
            arena["reuses"] + arena["allocations"], 1)
        return out
