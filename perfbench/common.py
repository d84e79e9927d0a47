"""Statistics, clocks and the machine fingerprint shared by the workloads."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def cpu_seconds() -> float:
    """User + system CPU time of this process, every thread included."""
    return time.process_time()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss``, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sleep_until(deadline: float) -> None:
    """Sleep until ``time.perf_counter()`` reaches ``deadline``."""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(min(remaining, 0.05))


def capacity(steps) -> dict:
    """The highest completion rate an ascending ladder sustained.

    ``steps`` are ``{"rate", "ok", "backlog_ok", "throughput"}`` records in
    ladder order; a step is ``ok`` when it met the latency limit, failed
    no operation and kept its backlog flat, and ``throughput`` is the rate
    it completed operations at. The result is the highest throughput
    among the passing steps and the first step that failed because its
    backlog grew (the program was saturated there). ``bracketed`` is True
    when a step failed and one passed.
    """
    passing = [step for step in steps if step["ok"]]
    saturated = [step for step in steps
                 if not step["ok"] and not step["backlog_ok"]]
    # With no passing step the ladder started above the knee; the first
    # step's completion rate is then the best figure there is.
    candidates = passing + saturated[:1] or steps[:1]
    value = max(step["throughput"] for step in candidates)
    return {"value": value,
            "bracketed": bool(passing) and len(passing) < len(steps)}


def _overlaps(start, end, intervals):
    return any(s <= end and e >= start for s, e in intervals)


def event_f1(labels_per_signal, found_per_signal) -> float:
    """Overlapping-segment F1, pooled over a fleet."""
    found_hits = found_total = label_hits = label_total = 0
    for labels, found in zip(labels_per_signal, found_per_signal):
        detected = [(event[0], event[1]) for event in found]
        found_total += len(detected)
        found_hits += sum(_overlaps(s, e, labels) for s, e in detected)
        label_total += len(labels)
        label_hits += sum(_overlaps(s, e, detected) for s, e in labels)
    precision = found_hits / found_total if found_total else 0.0
    recall = label_hits / label_total if label_total else 0.0
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _git_commit() -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = result.stdout.strip()
    return commit if result.returncode == 0 and commit else "unknown"


def fingerprint() -> dict:
    """Where and how a result was measured."""
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "repro_env": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith("REPRO_")},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


class Clock:
    """Process CPU time sampled together with wall time for one phase."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = cpu_seconds()

    def elapsed(self):
        return time.perf_counter() - self.wall, cpu_seconds() - self.cpu


def run_threads(targets) -> None:
    """Start one thread per callable, join them all, re-raise a failure."""
    errors = []

    def guard(target):
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=guard, args=(target,), daemon=True)
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

