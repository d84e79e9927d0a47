"""One workload in one fresh interpreter (started by ``run.py``).

``--mode setup`` stops once the workload is ready for its first timed
operation and reports the set-up time; ``--mode main`` then measures.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import api_mixed
import stream_fleet
from common import ROOT, peak_rss_mb
from generator import WorkloadGenerator
from spans import Tracer, install_timing_sink, instrument

WORKLOADS = {"api_mixed": api_mixed, "stream_fleet": stream_fleet}

#: The pipelines of the workloads' offline rounds (api_mixed, stream_fleet).
PIPELINES = ("azure", "dense_autoencoder")
STEPS = ("time_segments_aggregate", "SimpleImputer", "MinMaxScaler",
         "rolling_window_sequences", "SpectralResidual", "fixed_threshold",
         "DenseAutoencoder", "reconstruction_errors", "find_anomalies")
PRIMITIVES = ("TimeSegmentsAggregate", "SimpleImputer", "MinMaxScaler",
              "RollingWindowSequences", "SpectralResidual", "FixedThreshold",
              "DenseAutoencoder", "ReconstructionErrors", "FindAnomalies")


def layer_names():
    """Every per-layer metric, in report order."""
    names = ["gateway.self_ms_p50", "gateway.admission_wait_ms_p95",
             "gateway.rejected", "gateway.attempted", "rest.self_ms_p50",
             "coalescer.wait_ms_p50", "coalescer.requests_per_execution"]
    for pipeline in PIPELINES:
        names += [f"pipeline.fit_ms.{pipeline}",
                  f"pipeline.detect_ms.{pipeline}",
                  f"pipeline.detect_batch_ms.{pipeline}.exact",
                  f"pipeline.detect_batch_ms.{pipeline}.fused"]
    names += ["plan.compilations_per_op"]
    names += [f"plan.fusion_groups.{pipeline}" for pipeline in PIPELINES]
    names += [f"executor.step_ms.{step}" for step in STEPS]
    names += [f"executor.overhead_ms.{pipeline}" for pipeline in PIPELINES]
    names += ["arena.reuse_ratio"]
    names += [f"primitive.{name}.self_ms" for name in PRIMITIVES]
    names += ["nn.forward_ms", "nn.fused_forward_ms", "nn.fit_ms",
              "fleet.round_ms_p50", "fleet.round_ms_p95",
              "fleet.occupancy_mean", "fleet.ingest_lag_ms_p95",
              "scheduler.refits.hot", "scheduler.refits.warm",
              "scheduler.refits.cold", "scheduler.refit_ms_p50",
              "standby.hit_ratio", "stream.send_ms_p50",
              "stream.apply_ms_p50", "drift.consume_ms", "drift.detections",
              "streams.push_ms_p50", "streams.lag_batches_max",
              "db.read_ms_p50", "db.write_ms_p50",
              "generator.lateness_ms_p99", "trace.self_time_coverage",
              "trace.overhead_ms"]
    return names


def common_layers(tracer, result):
    """Layers measured the same way on every workload.

    Per-op totals cover the phases in ``result["ops_phases"]`` (every
    measured phase when ``None``) and divide by ``result["ops"]``.
    """
    out = {}
    ops = max(result["ops"], 1)
    phases = result.get("ops_phases")
    measured = [span for span in tracer.spans if span.phase is not None
                and (phases is None or span.phase in phases)]
    for step in STEPS:
        times = tracer.step_times.get(step)
        if times:
            out[f"executor.step_ms.{step}"] = 1000.0 * sum(times) / len(times)
    for name in PRIMITIVES:
        total = sum(span.self_time for span in measured
                    if span.name == f"primitive.{name}")
        out[f"primitive.{name}.self_ms"] = 1000.0 * total / ops
    for metric, name in (("nn.forward_ms", "nn.forward"),
                         ("nn.fused_forward_ms", "nn.fused_forward")):
        out[metric] = 1000.0 * sum(span.duration for span in measured
                                   if span.name == name) / ops
    out["nn.fit_ms"] = 1000.0 * sum(span.duration for span in tracer.spans
                                    if span.name == "nn.fit")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "main"), default="main")
    args = parser.parse_args(argv)

    module = WORKLOADS[args.workload]
    inputs = module.make_inputs(WorkloadGenerator(args.seed), args.seconds)
    # The inputs (request bodies are plain lists) live for the whole run;
    # keep them out of the cyclic collector so that they do not lengthen
    # the program's collections.
    gc.freeze()
    if args.mode == "setup":
        inputs["reference"] = False
    tracer = Tracer()

    started = time.perf_counter()
    import repro

    source = os.path.join(ROOT, "src")
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise RuntimeError(f"repro imported from {repro.__file__}, "
                           f"not from {source}")
    if args.trace:
        instrument(tracer)
    state, excluded = module.setup(inputs, tracer)
    setup_s = time.perf_counter() - started - excluded
    if args.trace:
        install_timing_sink(tracer)
    out = {"setup_s": setup_s}
    try:
        if args.mode == "main":
            result = module.measure(state, inputs, args.seconds, tracer)
            metrics = dict(result["metrics"])
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = peak_rss_mb()
            out.update({"metrics": metrics, "attempted": result["attempted"],
                        "failed": result["failed"],
                        "details": result["details"]})
            if args.trace:
                layers = dict.fromkeys(layer_names(), 0.0)
                layers.update(common_layers(tracer, result))
                layers.update(module.layers(state, tracer, result))
                out["layers"] = layers
    finally:
        gateway = state.get("gateway")
        if gateway is not None:
            gateway.api.streams.shutdown(wait=True)
            gateway.close(wait=True)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
