"""``stream_fleet``: live monitoring through ``/v1/streams``.

Sixteen fleet sessions in one ``fleet_group``, one fleet session with a
pipeline of its own (the *solo* lane) and two classic sessions, all
``dense_autoencoder`` (``window_size=40, epochs=8``), stream window 200
rows, warmup 100, drift detection on. The solo lane and classic session 0
carry a regime shift at a fixed sample, so a tiered fleet refit and a
classic retrain run while the fleet serves; fleet lane 1 of the shared
group shifts in a closing refit phase, so the scheduler's second fleet
refit takes a warm standby from the cache (the solo lane's displaced
pipeline) while the other fifteen lanes of its group keep serving. One
generator thread pushes one 50-row micro-batch per session each tick,
open loop (``202``); a second thread observes through the sessions'
public ``lag``/``wait_idle`` when every session has processed the tick.
A tick's latency runs from its due time to that moment.

Phases: a reference phase at a fixed tick rate well below the knee (in
four parts), a closed-loop saturation phase whose tick completion rate
is the capacity, and the refit phase at the reference rate. Before,
between and after the first three, rounds of an offline backfill
(``offline.py``) score labeled history with the fleet's model (fit,
per-signal, exact and fused planes).

Failed operations: refused pushes, ticks not processed in time, sessions
or lanes reporting an error or a retrain error, scheduler refit errors,
and refits handed a standby pipeline that still serves a lane (it is
then fitted in place under the lanes it serves; see README.md, "Known
defects"). The shared group refits last because of that defect: a
refit after it would be handed the group's still-serving base.
"""

from __future__ import annotations

import queue
import threading
import time

from common import Clock, median, percentile, run_threads, sleep_until
from generator import SHIFT_LEVEL
from offline import OfflineRounds

PIPELINE = "dense_autoencoder"
PIPELINE_OPTIONS = {"window_size": 40, "epochs": 8}
STREAM_OPTIONS = {"window_size": 200, "warmup": 100}
FLEET_SESSIONS = 16
CLASSIC_SESSIONS = 2
#: Sessions whose stream shifts regime at ``SHIFT_TICK``, and the lane of
#: the shared group that shifts in the refit phase.
SHIFTED = {("solo", 0), ("classic", 0)}
LATE_SHIFTED = ("fleet", 1)
#: Page-Hinkley settings under which the level shift fires once and the
#: injected anomalies (at most ~35 samples) never do.
DRIFT = {"detector": "page_hinkley", "threshold": 200.0, "delta": 0.05}
BATCH_ROWS = 50
TRAIN_ROWS = 1000
WARMUP_TICKS = 3
#: Tick (counted from the first measured tick) at which the shift starts.
SHIFT_TICK = 12
REFERENCE_RATE = 3.0
#: Share of ``--seconds`` spent at the reference rate, in
#: ``REFERENCE_PARTS`` parts with an offline round before each; the
#: saturation phase runs for the rest.
REFERENCE_SHARE = 0.85
REFERENCE_PARTS = 4
#: Ticks unfinished at once in the closed-loop saturation phase. With one,
#: a tick is pushed as soon as every session has processed the previous
#: one; deeper windows measured lower rates on the reference box (pushes
#: then compete with the rounds for the GIL).
SATURATION_WINDOW = 1
#: Bound on the saturation phase's tick rate, for sizing the inputs
#: (about twice the fastest rate seen on the reference box).
SATURATION_MAX_RATE = 40.0
TENANT_RATE = 10000.0
ABANDON_LATENESS_S = 1.0
TICK_TIMEOUT_S = 5.0
#: Ticks of the closing refit phase (at ``REFERENCE_RATE``): drift is
#: detected within two ticks of the shift, the refit takes about a second.
REFIT_PHASE_TICKS = 12
BACKFILL_SIGNALS = 8
BACKFILL_ROWS = 1000
#: Seconds each backfill batch plane repeats passes for, per round, and
#: fits of each training set per round.
PLANE_SECONDS = 0.2
FIT_REPEATS = 2
#: Training signals of the offline rounds' fits (sessions use the first).
TRAIN_SETS = 2


def _sessions():
    return ([("fleet", index) for index in range(FLEET_SESSIONS)]
            + [("solo", 0)]
            + [("classic", index) for index in range(CLASSIC_SESSIONS)])


def make_inputs(generator, seconds):
    part = seconds * REFERENCE_SHARE / REFERENCE_PARTS
    phases = [("reference", REFERENCE_RATE, part)] * REFERENCE_PARTS
    phases.append(("saturation", SATURATION_MAX_RATE,
                   seconds * (1.0 - REFERENCE_SHARE)))
    ticks = WARMUP_TICKS + REFIT_PHASE_TICKS + sum(
        max(1, int(round(rate * duration))) for _, rate, duration in phases)
    rows_total = ticks * BATCH_ROWS
    shift_row = (WARMUP_TICKS + SHIFT_TICK) * BATCH_ROWS

    def split(rows):
        return [{"data": rows[tick * BATCH_ROWS:
                              (tick + 1) * BATCH_ROWS].tolist()}
                for tick in range(ticks)]

    bodies = []
    for session in _sessions():
        rows, _ = generator.signal(("stream", *session), rows_total,
                                   n_anomalies=rows_total // 2000,
                                   shift_at=shift_row if session in SHIFTED
                                   else None)
        bodies.append(split(rows))
        if session == LATE_SHIFTED:
            # The refit phase starts at a tick the saturation phase
            # decides, so a shifted copy of the whole stream is built.
            rows[:, 1] += SHIFT_LEVEL
            late_bodies = split(rows)
    trains = [generator.training_signal((index,), TRAIN_ROWS)
              for index in range(TRAIN_SETS)]
    backfill = [generator.signal(("backfill", index), BACKFILL_ROWS, 2)
                for index in range(BACKFILL_SIGNALS)]
    return {"trains": trains, "train": trains[0].tolist(), "bodies": bodies,
            "late_bodies": late_bodies, "phases": phases,
            "backfill": backfill}


def setup(inputs, tracer):
    """Gateway, 19 sessions (four fits), warm-up ticks until serving."""
    from repro.api.gateway import Gateway
    from repro.api.tenants import TenantRegistry

    gateway = Gateway(tenants=TenantRegistry(default_rate=TENANT_RATE,
                                             default_burst=TENANT_RATE))
    key = gateway.tenants.create("monitoring")[1]
    headers = {"X-API-Key": key}
    ids = []
    for kind, index in _sessions():
        body = {"pipeline": PIPELINE, "data": inputs["train"],
                "pipeline_options": PIPELINE_OPTIONS,
                "stream_options": STREAM_OPTIONS, "drift": DRIFT,
                "signal_id": f"{kind}-{index}"}
        if kind == "fleet":
            body["fleet_group"] = "fleet-0"
        elif kind == "solo":
            body["fleet"] = True
        response = gateway.post("/v1/streams", body, headers=headers)
        if response.status != 201:
            raise RuntimeError(f"opening a stream failed: {response.body}")
        ids.append(response.body["id"])
    streams = gateway.api.streams
    state = {"gateway": gateway, "headers": headers, "ids": ids,
             "sessions": [streams.get(stream_id) for stream_id in ids],
             "next_tick": 0, "lag_max": 0, "late_shift": False,
             "standby_acquired": 0, "serving_acquired": 0}
    _watch_standby(state, streams.scheduler)
    for _ in range(WARMUP_TICKS):
        _push_tick(state, inputs)
    if not _drain(state):
        raise RuntimeError("warm-up ticks did not drain")
    return state, 0.0


def _watch_standby(state, scheduler) -> None:
    """Count standby acquisitions, and those handing out a pipeline that
    still serves a lane (the refit would fit it in place under that lane)."""
    standby = scheduler.standby
    acquire = standby.acquire

    def checked(pipeline):
        acquired = acquire(pipeline)
        state["standby_acquired"] += 1
        state["serving_acquired"] += any(
            lane.group.base is acquired for lane in scheduler.fleet.lanes())
        return acquired

    standby.acquire = checked


def _push_tick(state, inputs) -> int:
    """Push the next tick to every session; returns rejected pushes."""
    tick = state["next_tick"]
    state["next_tick"] += 1
    gateway = state["gateway"]
    rejected = 0
    late = _sessions().index(LATE_SHIFTED) if state["late_shift"] else None
    for number, stream_id in enumerate(state["ids"]):
        bodies = inputs["bodies"][number]
        if number == late:
            bodies = inputs["late_bodies"]
        response = gateway.post(f"/v1/streams/{stream_id}/data",
                                bodies[tick], headers=state["headers"])
        rejected += response.status != 202
    return rejected


def _drain(state, timeout=20.0) -> bool:
    """Wait until every healthy session has processed all it was sent."""
    deadline = time.perf_counter() + timeout
    for session in state["sessions"]:
        while not (_error(session) or session.wait_idle(0.01)):
            if time.perf_counter() > deadline:
                return False
    return True


def _error(session):
    """The session's, its runner's retrain or its lane's error, if any."""
    lane = getattr(session, "lane", None)
    return (session.error or session.runner.retrain_error
            or (lane.error if lane is not None else None))


def _processed(session, tick) -> bool:
    """Whether ``session`` finished the batch of absolute ``tick``."""
    if _error(session):
        return True
    taken = session.batches_pushed - session.lag["batches"]
    if taken >= tick + 2:
        return True  # a later batch started, so this one is done
    return taken >= tick + 1 and session.wait_idle(0.002)


def run_phase(state, inputs, rate, duration, window=0):
    """Push one tick per ``1 / rate`` seconds for ``duration`` seconds.

    With ``window``, the loop is closed instead: the next tick is pushed
    as soon as fewer than ``window`` ticks are unfinished, until
    ``duration`` has passed (``rate * duration`` then bounds the count).
    """
    count = max(1, int(round(rate * duration)))
    ticks = queue.Queue()
    records = []
    origin = time.perf_counter() + 0.05
    in_flight = threading.Semaphore(window) if window else None
    pushed = []

    def generator():
        try:
            for number in range(count):
                if in_flight is None:
                    due = origin + number / rate
                    sleep_until(due)
                else:
                    in_flight.acquire()
                    due = time.perf_counter()
                    if due > origin + duration:
                        return
                sent = time.perf_counter()
                if sent - due > ABANDON_LATENESS_S:
                    return
                tick = state["next_tick"]
                rejected = _push_tick(state, inputs)
                pushed.append(tick)
                ticks.put((tick, due, sent, rejected))
        finally:
            ticks.put(None)

    def observer():
        while True:
            item = ticks.get()
            if item is None:
                return
            tick, due, sent, rejected = item
            deadline = time.perf_counter() + TICK_TIMEOUT_S
            timed_out = False
            for session in state["sessions"]:
                while not _processed(session, tick):
                    if time.perf_counter() > deadline:
                        timed_out = True
                        break
                    time.sleep(0.001)
            done = time.perf_counter()
            lag = sum(session.lag["batches"] for session in state["sessions"])
            state["lag_max"] = max(state["lag_max"], lag)
            errors = sum(bool(_error(s)) for s in state["sessions"])
            records.append({"due": due, "sent": sent, "done": done,
                            "ok": not (rejected or timed_out or errors)})
            if in_flight is not None:
                in_flight.release()

    clock = Clock()
    run_threads([generator, observer])
    _, cpu = clock.elapsed()
    _drain(state)
    # A tick the generator gave up on counts as failed (open loop only).
    return {"records": records, "cpu": cpu,
            "planned": len(pushed) if window else count}


def _latencies(records):
    return [1000.0 * (r["done"] - r["due"]) for r in records if r["ok"]]


def _completion_rate(phase) -> float:
    """Ticks completed per second from the first push to the last tick."""
    records = phase["records"]
    if not records:
        return 0.0
    return len(records) / (records[-1]["done"] - records[0]["sent"])


def measure(state, inputs, seconds, tracer):
    offline = OfflineRounds(PIPELINE, PIPELINE_OPTIONS, inputs["trains"],
                            inputs["backfill"], PLANE_SECONDS,
                            fit_repeats=FIT_REPEATS, tracer=tracer,
                            label="backfill")
    state["offline"] = offline
    runs = {}
    parts = []
    attempted = failed = 0
    for name, rate, duration in inputs["phases"]:
        offline.round()
        tracer.phase = name
        window = SATURATION_WINDOW if name == "saturation" else 0
        phase = run_phase(state, inputs, rate, duration, window)
        tracer.phase = None
        attempted += phase["planned"]
        failed += phase["planned"] - sum(r["ok"] for r in phase["records"])
        if name == "reference":
            parts.append(phase)
        if name in runs:  # a later part of the reference phase
            runs[name]["records"] += phase["records"]
            runs[name]["cpu"] += phase["cpu"]
        else:
            runs[name] = dict(phase, records=list(phase["records"]))
    reference, saturation = runs["reference"], runs["saturation"]
    records = reference["records"]
    ticks_per_s = _completion_rate(saturation)
    sessions = len(state["sessions"])

    offline.round()
    attempted += offline.attempted
    failed += offline.failed
    figures = offline.figures()

    tracer.phase = "refit"
    state["late_shift"] = True
    late = run_phase(state, inputs, REFERENCE_RATE, REFIT_PHASE_TICKS
                     / REFERENCE_RATE)
    tracer.phase = None
    attempted += late["planned"]
    failed += late["planned"] - sum(r["ok"] for r in late["records"])

    scheduler = state["gateway"].api.streams.scheduler
    fleet_stats = scheduler.stats()
    # Every refit is an operation; a refit that failed or was handed a
    # pipeline still serving other lanes is a failed one.
    attempted += state["standby_acquired"]
    failed += fleet_stats["refit_errors"] + state["serving_acquired"]
    lateness = [1000.0 * (r["sent"] - r["due"]) for r in records]
    metrics = {
        "fit_s": figures["fit_s"],
        "detect_ms": figures["detect_ms"],
        "batch_signals_per_s": figures["batch_signals_per_s"],
        "fused_signals_per_s": figures["fused_signals_per_s"],
        "event_f1": figures["event_f1"],
        "latency_p50_ms": percentile(_latencies(records), 50),
        "max_rate_rps": figures["loop_signals_per_s"],
        "cpu_ms_per_op": 1000.0 * reference["cpu"] / max(len(records), 1),
    }
    details = {
        # Not an end-to-end metric: unsteady between runs (README.md).
        "saturation": {"ticks_per_s": ticks_per_s,
                       "max_rows_s": ticks_per_s * sessions * BATCH_ROWS,
                       "ticks": len(saturation["records"])},
        "capacity_bracketed": 0.0 < ticks_per_s < SATURATION_MAX_RATE,
        "reference_ticks_per_s": REFERENCE_RATE,
        "samples": {"ticks": len(records)},
        "generator_lateness_ms_p99": percentile(lateness, 99),
        "latency_p95_ms": percentile(_latencies(records), 95),
        "offline": figures,
        "offline_unscaled": offline.figures(scaled=False),
        "parts": [{"latency_p50_ms": percentile(
                       _latencies(part["records"]), 50),
                   "cpu_ms_per_op": 1000.0 * part["cpu"]
                   / max(len(part["records"]), 1)} for part in parts],
        "refits_by_tier": fleet_stats["refits_by_tier"],
        "refit_errors": fleet_stats["refit_errors"],
        "standby_acquired": state["standby_acquired"],
        "standby_serving_acquired": state["serving_acquired"],
        "session_errors": {stream_id: _error(session) for stream_id,
                           session in zip(state["ids"], state["sessions"])
                           if _error(session)},
        "fleet": {key: fleet_stats[key] for key in (
            "rounds", "plan_runs", "coalesce_ratio", "groups", "errors")},
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "details": details, "ops": len(records), "records": records,
            "ops_phases": ("reference",)}


def layers(state, tracer, result):
    """Per-layer figures of the reference phase (see README.md)."""
    phase = "reference"
    scheduler = state["gateway"].api.streams.scheduler
    stats = scheduler.stats()
    rounds = [s.duration for s in tracer.named("fleet.round", phase=phase)]
    refits = [s.duration for s in tracer.spans if s.name == "pipeline.fit"
              and s.thread.startswith("sintel-fleet-refit")]
    standby = stats["standby"]
    ops = max(result["ops"], 1)
    out = {
        "fleet.round_ms_p50": 1000.0 * median(rounds),
        "fleet.round_ms_p95": 1000.0 * percentile(rounds, 95),
        "fleet.occupancy_mean": stats["coalesce_ratio"],
        "fleet.ingest_lag_ms_p95": 1000.0 * stats["ingest_lag_p95"],
        "scheduler.refit_ms_p50": 1000.0 * median(refits) if refits else 0.0,
        "standby.hit_ratio": standby["hits"]
        / max(standby["hits"] + standby["misses"], 1),
        "stream.send_ms_p50": 1000.0 * median(
            s.duration for s in tracer.named("stream.send", phase=phase)),
        "stream.apply_ms_p50": 1000.0 * median(
            s.duration for s in tracer.named("stream.apply", phase=phase)),
        "drift.consume_ms": 1000.0 * sum(
            s.duration for s in tracer.named("drift.consume", phase=phase))
        / ops,
        "drift.detections": tracer.counters["drift.detections"],
        "streams.push_ms_p50": 1000.0 * median(
            s.duration for s in tracer.named("streams.push", phase=phase)),
        "streams.lag_batches_max": float(state["lag_max"]),
        "generator.lateness_ms_p99":
            result["details"]["generator_lateness_ms_p99"],
    }
    for tier, count in stats["refits_by_tier"].items():
        out[f"scheduler.refits.{tier}"] = float(count)
    out.update(state["offline"].layers(tracer))
    return out
