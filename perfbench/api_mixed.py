"""``api_mixed``: open-loop multi-tenant traffic through the ``Gateway``.

Auth is on; two tenants alternate, both with rate limits above the ladder
top. The mix is about 80 % ``POST /v1/detect`` (``azure`` on a 500-row
signal, training rows drawn from four fixed sets so compatible requests
can coalesce), 15 % ``GET /v1/events?limit=50`` and 5 % human-in-the-loop
writes (``POST /v1/events``, ``POST /v1/events/<id>/annotations``) against
a knowledge base seeded in setup. Two sender threads issue the requests
of a fixed schedule; each is timed from its due time.

Phases: a reference phase at a fixed rate well below the knee (latency,
CPU per op; in four parts), then an ascending rate ladder (capacity),
which stops after two consecutive steps that miss the limit. Offline
rounds (``offline.py``) run before, between and after the phases.
"""

from __future__ import annotations

import threading
import time

from common import (Clock, capacity, median, percentile, run_threads,
                    sleep_until)
from offline import OfflineRounds

PIPELINE = "azure"
SIGNAL_ROWS = 500
TRAIN_SETS = 4
POOL = 16
KB_SIGNALS = 8
KB_EVENTS_PER_SIGNAL = 25
MIX = (("detect", 0.80), ("kb_read", 0.15), ("kb_write", 0.05))
SENDERS = 2
REFERENCE_RATE = 12.0
LADDER = (19.0, 22.0, 25.0, 28.0, 31.0, 34.0, 38.0, 42.0, 47.0, 53.0, 60.0)
P95_LIMIT_MS = 250.0
TENANT_RATE = 1000.0
#: Share of ``--seconds`` spent at the reference rate, in
#: ``REFERENCE_PARTS`` parts with an offline round before each; the
#: ladder steps split the rest.
REFERENCE_SHARE = 0.65
REFERENCE_PARTS = 4
STEP_SECONDS_MIN = 1.5
#: The ladder stops after this many consecutive failing steps, so that a
#: step slowed by a passing disturbance does not end it.
LADDER_PATIENCE = 2
#: A step is abandoned (failed) once the senders run this late.
ABANDON_LATENESS_S = 1.0
#: Seconds each offline batch plane repeats passes for, per round. A round
#: runs before every part of the reference phase, before every second
#: ladder step and at the end, so that the offline samples spread over
#: the whole run.
PLANE_SECONDS = 0.2
#: Fits of each training set per offline round (an ``azure`` fit takes
#: about ten milliseconds, so a single fit is a noisy sample).
FIT_REPEATS = 3


def make_inputs(generator, seconds):
    trains = [generator.training_signal((index,), SIGNAL_ROWS).tolist()
              for index in range(TRAIN_SETS)]
    pool = [generator.signal(("pool", index), SIGNAL_ROWS, 1)
            for index in range(POOL)]
    kb_events = []
    rng = generator.rng(2)
    for signal in range(KB_SIGNALS):
        for _ in range(KB_EVENTS_PER_SIGNAL):
            start = float(rng.integers(0, 10_000)) * 60.0
            kb_events.append((f"kb-signal-{signal}", start,
                              start + float(rng.integers(5, 60)) * 60.0,
                              float(rng.uniform(0.1, 1.0))))
    step_seconds = max(STEP_SECONDS_MIN,
                       seconds * (1.0 - REFERENCE_SHARE) / 5.0)
    phases = [("reference", REFERENCE_RATE,
               seconds * REFERENCE_SHARE / REFERENCE_PARTS)] * REFERENCE_PARTS
    phases += [(f"ladder-{rate:g}", rate, step_seconds) for rate in LADDER]
    schedules = [_schedule(generator.rng(3, number), rate, duration)
                 for number, (_, rate, duration) in enumerate(phases)]
    return {"trains": trains,
            "pool": [(rows.tolist(), labels) for rows, labels in pool],
            "kb_events": kb_events, "phases": phases,
            "schedules": schedules}


def _schedule(rng, rate, duration):
    """Evenly spaced due offsets with a seeded request mix."""
    count = max(1, int(round(rate * duration)))
    kinds = rng.choice([kind for kind, _ in MIX], size=count,
                       p=[share for _, share in MIX])
    return [{"due": index / rate, "kind": str(kind),
             "tenant": index % 2,
             "train": int(rng.integers(0, TRAIN_SETS)),
             "signal": int(rng.integers(0, POOL)),
             "target": int(rng.integers(0, 1 << 30))}
            for index, kind in enumerate(kinds)]


def setup(inputs, tracer):
    """Gateway + tenants + seeded KB + one warm-up request of each kind.

    The offline reference answers (``detect_many`` over every
    train-set/signal pair) are computed here too, excluded from
    ``setup_s``.
    """
    from repro.api.gateway import Gateway
    from repro.api.tenants import TenantRegistry

    gateway = Gateway(tenants=TenantRegistry(default_rate=TENANT_RATE,
                                             default_burst=TENANT_RATE))
    keys = [gateway.tenants.create(f"tenant-{index}")[1]
            for index in range(2)]
    explorer = gateway.api.explorer
    event_ids = [explorer.add_event("seed", signal, start, stop, severity,
                                    source="machine")
                 for signal, start, stop, severity in inputs["kb_events"]]
    state = {"gateway": gateway, "keys": keys, "event_ids": event_ids}
    started = time.perf_counter()
    if inputs.get("reference", True):
        offline = OfflineRounds(PIPELINE, {}, inputs["trains"],
                                inputs["pool"], PLANE_SECONDS,
                                fit_repeats=FIT_REPEATS, tracer=tracer)
        state["offline"] = offline
        state["answers"] = {
            (train, signal): [list(anomaly) for anomaly in anomalies]
            for train, answers in enumerate(offline.answers)
            for signal, anomalies in enumerate(answers)}
    excluded = time.perf_counter() - started
    for kind in ("detect", "kb_read", "kb_write"):
        request = {"kind": kind, "tenant": 0, "train": 0, "signal": 0,
                   "target": 0}
        response = _send(state, inputs, request)
        if response.status >= 300:
            raise RuntimeError(f"warm-up {kind} failed: {response.body}")
    return state, excluded


def _send(state, inputs, request):
    gateway = state["gateway"]
    headers = {"X-API-Key": state["keys"][request["tenant"]]}
    kind = request["kind"]
    if kind == "detect":
        body = {"pipeline": PIPELINE,
                "data": inputs["pool"][request["signal"]][0],
                "train": inputs["trains"][request["train"]]}
        return gateway.post("/v1/detect", body, headers=headers)
    if kind == "kb_read":
        return gateway.get("/v1/events", {"limit": "50"}, headers=headers)
    event_ids = state["event_ids"]
    target = event_ids[request["target"] % len(event_ids)]
    if request["target"] % 2:
        return gateway.post(f"/v1/events/{target}/annotations",
                            {"user": f"expert-{request['tenant']}",
                             "tag": "investigate", "comment": "checked"},
                            headers=headers)
    return gateway.post("/v1/events",
                        {"signal_id": "kb-signal-0", "source": "human",
                         "start_time": 60.0 * (request["target"] % 5000),
                         "stop_time": 60.0 * (request["target"] % 5000 + 9),
                         "severity": 0.5}, headers=headers)


def _check(state, request, response) -> bool:
    if request["kind"] == "detect":
        if response.status != 200:
            return False
        answers = state.get("answers")
        if answers is None:
            return True
        want = answers[(request["train"], request["signal"])]
        return response.body.get("anomalies") == want
    if request["kind"] == "kb_read":
        return response.status == 200 and len(response.body["items"]) == 50
    return response.status == 201


def run_phase(state, inputs, schedule):
    """Replay one schedule open-loop with ``SENDERS`` threads."""
    records = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05
    abandoned = threading.Event()

    def sender():
        while not abandoned.is_set():
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            request = schedule[index]
            due = origin + request["due"]
            sleep_until(due)
            sent = time.perf_counter()
            if sent - due > ABANDON_LATENESS_S:
                abandoned.set()
                return
            try:
                response = _send(state, inputs, request)
                ok = _check(state, request, response)
                status = response.status
            except Exception:  # noqa: BLE001 - counted as a failed op
                ok, status = False, 0
            records[index] = {"kind": request["kind"], "due": due,
                              "sent": sent, "done": time.perf_counter(),
                              "ok": ok, "status": status,
                              "thread": threading.current_thread().name}

    clock = Clock()
    run_threads([sender] * SENDERS)
    wall, cpu = clock.elapsed()
    done = [record for record in records if record is not None]
    return {"records": done, "planned": len(schedule), "wall": wall,
            "cpu": cpu, "abandoned": abandoned.is_set()}


def _latencies(records, kinds):
    return [1000.0 * (r["done"] - r["due"]) for r in records
            if r["kind"] in kinds and r["ok"]]


def _step_summary(rate, phase):
    records = phase["records"]
    errors = sum(not r["ok"] for r in records)
    detect = _latencies(records, ("detect",))
    lateness = [r["sent"] - r["due"] for r in records]
    quarter = max(1, len(lateness) // 4)
    backlog_ok = (not phase["abandoned"] and len(records) == phase["planned"]
                  and median(lateness[-quarter:])
                  <= median(lateness[:quarter]) + 0.05)
    p95 = percentile(detect, 95) if detect else float("inf")
    span = (max((r["done"] for r in records), default=0.0)
            - min((r["due"] for r in records), default=0.0))
    return {"rate": rate, "p95_ms": p95, "errors": errors,
            "backlog_ok": backlog_ok,
            "ok": backlog_ok and errors == 0 and p95 <= P95_LIMIT_MS,
            "completed": len(records),
            "throughput": len(records) / span if span > 0 else 0.0}


def measure(state, inputs, seconds, tracer):
    phases = inputs["phases"]
    schedules = inputs["schedules"]
    gateway = state["gateway"]
    coalescer_before = gateway.api.coalescer.stats()
    offline = state["offline"]

    parts = []
    for schedule in schedules[:REFERENCE_PARTS]:
        offline.round()
        tracer.phase = "reference"
        parts.append(run_phase(state, inputs, schedule))
        tracer.phase = None
    coalescer_after = gateway.api.coalescer.stats()
    records = [record for part in parts for record in part["records"]]
    attempted = sum(part["planned"] for part in parts)
    failed = attempted - sum(r["ok"] for r in records)
    reference_cpu = sum(part["cpu"] for part in parts)

    steps = []
    for number, ((name, rate, _), schedule) in enumerate(
            zip(phases[REFERENCE_PARTS:], schedules[REFERENCE_PARTS:])):
        if number % 2 == 0:
            offline.round()
        tracer.phase = name
        phase = run_phase(state, inputs, schedule)
        tracer.phase = None
        steps.append(_step_summary(rate, phase))
        attempted += len(phase["records"])
        failed += sum(not r["ok"] for r in phase["records"])
        if len(steps) >= LADDER_PATIENCE and not any(
                step["ok"] for step in steps[-LADDER_PATIENCE:]):
            break
    offline.round()
    cap = capacity(steps)
    attempted += offline.attempted
    failed += offline.failed
    figures = offline.figures()
    lateness = [1000.0 * (r["sent"] - r["due"]) for r in records]
    metrics = {
        "fit_s": figures["fit_s"],
        "detect_ms": figures["detect_ms"],
        "batch_signals_per_s": figures["batch_signals_per_s"],
        "fused_signals_per_s": figures["fused_signals_per_s"],
        "event_f1": figures["event_f1"],
        "latency_p50_ms": percentile(_latencies(records, ("detect",)), 50),
        "max_rate_rps": cap["value"],
        "cpu_ms_per_op": 1000.0 * reference_cpu / max(len(records), 1),
    }
    executions = coalescer_after["executions"] - coalescer_before["executions"]
    requests = coalescer_after["requests"] - coalescer_before["requests"]
    details = {
        "ladder": steps, "ladder_top": LADDER[-1],
        "capacity_bracketed": cap["bracketed"],
        "reference_rate": REFERENCE_RATE,
        "samples": {"detect": len(_latencies(records, ("detect",))),
                    "kb": len(_latencies(records, ("kb_read", "kb_write")))},
        "generator_lateness_ms_p99": percentile(lateness, 99),
        "latency_p95_ms": percentile(_latencies(records, ("detect",)), 95),
        "kb_latency_p95_ms": percentile(
            _latencies(records, ("kb_read", "kb_write")), 95),
        "offline": figures,
        "offline_unscaled": offline.figures(scaled=False),
        "parts": [{"latency_p50_ms": percentile(
                       _latencies(part["records"], ("detect",)), 50),
                   "cpu_ms_per_op": 1000.0 * part["cpu"]
                   / max(len(part["records"]), 1)} for part in parts],
        "coalescer_requests_per_execution": requests / max(executions, 1),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "details": details, "ops": len(records), "records": records,
            "ops_phases": ("reference",)}


def layers(state, tracer, result):
    """Per-layer figures of the reference phase (see README.md)."""
    phase = "reference"
    gateways = [s for s in tracer.named("gateway", phase=phase)
                if s.parent is None]
    spans_by_root = {}
    for span in tracer.spans:
        if span.phase != phase:
            continue
        root = span
        while root.parent is not None:
            root = root.parent
        spans_by_root.setdefault(id(root), []).append(span)
    # The self times of a request's spans add up to its gateway span; set
    # against the request's latency as defined for latency_p50_ms (due
    # time to response), the gap is the time no traced layer covers: the
    # sender running late and anything outside Gateway.handle. Records
    # are matched to gateway spans by thread and time.
    requests = {}
    for record in result["records"]:
        if record["kind"] == "detect":
            requests.setdefault(record["thread"], []).append(record)
    coverage = []
    for root in gateways:
        tree = spans_by_root.get(id(root), [])
        if not any(span.name == "coalescer" for span in tree):
            continue
        for record in requests.get(root.thread, ()):
            if record["sent"] <= root.start and root.end <= record["done"]:
                coverage.append(sum(span.self_time for span in tree)
                                / (record["done"] - record["due"]))
                break

    def waits(span):
        first = span.first_child_start
        return (first if first is not None else span.end) - span.start

    records = result["records"]
    rejected = sum(r["status"] >= 400 or r["status"] == 0 for r in records)
    ops = max(result["ops"], 1)
    out = state["offline"].layers(tracer)
    return out | {
        "gateway.self_ms_p50": 1000.0 * median(s.self_time for s in gateways),
        "gateway.admission_wait_ms_p95": 1000.0 * percentile(
            [s.duration for s in tracer.named("admission", phase=phase)], 95),
        "gateway.rejected": float(rejected),
        "gateway.attempted": float(len(records)),
        "rest.self_ms_p50": 1000.0 * median(
            s.self_time for s in tracer.named("rest", phase=phase)),
        "coalescer.wait_ms_p50": 1000.0 * median(
            waits(s) for s in tracer.named("coalescer", phase=phase)),
        "coalescer.requests_per_execution":
            result["details"]["coalescer_requests_per_execution"],
        "plan.compilations_per_op": len(
            tracer.named("plan.compile", phase=phase)) / ops,
        "db.read_ms_p50": 1000.0 * median(
            s.duration for s in tracer.named("db.read", phase=phase)),
        "db.write_ms_p50": 1000.0 * median(
            s.duration for s in tracer.named("db.write", phase=phase)),
        "generator.lateness_ms_p99":
            result["details"]["generator_lateness_ms_p99"],
        "trace.self_time_coverage": median(coverage) if coverage else 0.0,
    }
