"""The repository's benchmark: one command, two workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload api_mixed --seed 1 --seconds 30 \
        --trace 0

Each workload runs in fresh interpreters (``child.py``) with the BLAS
thread pools pinned, against the ``repro`` package under ``src/``.

``--trace 0`` measures the end-to-end metrics: two set-up probes plus
the measured run, each a fresh interpreter; ``setup_s`` is the median of
the three. ``--trace 1`` runs the workload untraced and then traced, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced end-to-end figure).

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the machine fingerprint and the
per-workload details. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

STARTED = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("api_mixed", "stream_fleet")
SETUP_PROBES = 2
#: Every child must end within this many seconds of the command's start.
DEADLINE_S = 170.0

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "fit_s": "s", "detect_ms": "ms",
    "batch_signals_per_s": "signals/s", "fused_signals_per_s": "signals/s",
    "event_f1": "ratio", "latency_p50_ms": "ms", "max_rate_rps": "req/s",
    "cpu_ms_per_op": "ms",
}
#: The end-to-end figure whose traced-minus-untraced difference is the
#: tracing overhead, per workload.
OVERHEAD_METRIC = {"api_mixed": "latency_p50_ms",
                   "stream_fleet": "latency_p50_ms"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # numpy's OpenBLAS would otherwise start one thread per core and
    # compete with the workload's own load threads.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_child(args, mode: str, trace: int) -> dict:
    """Run one fresh interpreter to completion; its last line, parsed."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--mode", mode]
    remaining = DEADLINE_S - (time.monotonic() - STARTED)
    completed = subprocess.run(command, cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE, text=True,
                               timeout=max(remaining, 1.0))
    if completed.returncode != 0:
        raise RuntimeError(f"{args.workload} {mode} child exited with "
                           f"{completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no repro package under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from common import fingerprint

    machine = fingerprint()
    # The workload runs in the children: record their thread settings.
    env = child_env()
    machine["thread_env"] = {key: env[key] for key in machine["thread_env"]}
    if args.trace:
        untraced = run_child(args, "main", 0)
        main_run = run_child(args, "main", 1)
        metric = OVERHEAD_METRIC[args.workload]
        layers = dict(main_run["layers"])
        layers["trace.overhead_ms"] = (main_run["metrics"][metric]
                                       - untraced["metrics"][metric])
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in layers.items()}
        runs = [untraced, main_run]
    else:
        runs = [run_child(args, "setup", 0) for _ in range(SETUP_PROBES)]
        main_run = run_child(args, "main", 0)
        runs.append(main_run)
        values = dict(main_run["metrics"])
        values["setup_s"] = median([run["setup_s"] for run in runs])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in UNITS.items()}
    correct = all(run["failed"] == 0 for run in runs if "failed" in run)
    print(json.dumps({"fingerprint": machine,
                      "setup_s_samples": [run["setup_s"] for run in runs],
                      "details": main_run["details"]}, default=str))
    print(json.dumps({"correct": correct,
                      "attempted": int(main_run["attempted"]),
                      "failed": int(main_run["failed"]),
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith(("ratio", "coverage", "per_op", "per_execution",
                      "occupancy_mean")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
