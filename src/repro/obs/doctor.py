"""``repro doctor`` — triage an incident bundle into a human report.

A bundle (:data:`repro.obs.flight.FLIGHT_SCHEMA`) is raw forensics:
the parent's event ring, every worker's last spooled checkpoint, a
metrics snapshot, and the incident context. :func:`triage` distills it
into the questions an operator actually asks — *what is the timeline,
where did each process last get to, which counters look wrong, and
what probably happened* — and :func:`render_report` prints the answer.

The probable-cause heuristics are keyed on the known failure classes
the stack itself reports (worker crash reaps, exhausted task retries,
remote task errors, saturated-server shedding, unhandled CLI
exceptions); unknown reasons still get the timeline and counter
analysis, just no diagnosis.
"""

from __future__ import annotations

import json

from repro.obs.events import (
    CHAOS,
    CRASH,
    ERROR,
    REQUEUE,
    SHED,
    validate_flight_event,
)
from repro.obs.flight import CHECKPOINT_SCHEMA, FLIGHT_SCHEMA

#: Counters whose mere presence in a bundle is an anomaly worth
#: surfacing (value > 0 means something on a failure path fired).
ANOMALY_COUNTERS = (
    "pool.crashes",
    "pool.requeues",
    "pool.tasks_failed",
    "pool.deadline_kills",
    "pool.quarantined",
    "serve.rejected",
    "serve.timed_out",
    "serve.pool_fallbacks",
    "registry.disk_rejects",
    "chaos.injected",
)

#: Signal exit codes worth naming (negative exitcode = -signal).
_SIGNALS = {-9: "SIGKILL (OOM killer or external kill)",
            -11: "SIGSEGV (native crash)",
            -15: "SIGTERM",
            -6: "SIGABRT"}


def load_bundle(path: str) -> dict:
    """Load and schema-check one incident bundle; raises ``ValueError``
    on a non-bundle document, ``OSError`` on unreadable files."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict) \
            or document.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"{path} is not an incident bundle "
            f"(expected schema {FLIGHT_SCHEMA!r}, "
            f"got {document.get('schema') if isinstance(document, dict) else type(document).__name__!r})")
    return document


def validate_bundle(bundle: dict) -> list[str]:
    """Structural problems in a bundle (empty = valid). Used by tests
    and the CI crash drill to pin the bundle format."""
    problems = []
    for field in ("schema", "created_unix", "reason", "context", "process",
                  "environment", "events", "workers", "metrics"):
        if field not in bundle:
            problems.append(f"missing required field {field!r}")
    for index, event in enumerate(bundle.get("events", [])):
        for problem in validate_flight_event(event):
            problems.append(f"events[{index}]: {problem}")
    for windex, checkpoint in enumerate(bundle.get("workers", [])):
        if not isinstance(checkpoint, dict) \
                or checkpoint.get("schema") != CHECKPOINT_SCHEMA:
            problems.append(f"workers[{windex}]: not a checkpoint document")
            continue
        for index, event in enumerate(checkpoint.get("events", [])):
            for problem in validate_flight_event(event):
                problems.append(f"workers[{windex}].events[{index}]: {problem}")
    return problems


# ---------------------------------------------------------------------------
# Triage.


def _merged_timeline(bundle: dict) -> list[dict]:
    """Parent + worker events as one timeline, oldest first. Each event
    gains a ``source`` label ("parent" or "worker <id>")."""
    timeline = []
    for event in bundle.get("events", []):
        if isinstance(event, dict):
            timeline.append(dict(event, source="parent"))
    for checkpoint in bundle.get("workers", []):
        if not isinstance(checkpoint, dict):
            continue
        label = f"worker {checkpoint.get('worker_id', '?')}"
        for event in checkpoint.get("events", []):
            if isinstance(event, dict):
                timeline.append(dict(event, source=label))
    timeline.sort(key=lambda event: event.get("ts", 0))
    return timeline


def _last_event_per_source(timeline: list[dict]) -> dict:
    last: dict = {}
    for event in timeline:
        last[event["source"]] = event
    return last


def _counter_anomalies(bundle: dict) -> list[tuple[str, int]]:
    counters = {}
    metrics = bundle.get("metrics")
    if isinstance(metrics, dict):
        counters = metrics.get("counters", {}) or {}
    anomalies = []
    for name in ANOMALY_COUNTERS:
        value = counters.get(name, 0)
        if value:
            anomalies.append((name, int(value)))
    return anomalies


def _crashed_worker_checkpoint(bundle: dict) -> dict | None:
    """The checkpoint of the worker the incident context names."""
    context = bundle.get("context", {})
    wid = context.get("worker")
    if wid is None:
        return None
    for checkpoint in bundle.get("workers", []):
        if isinstance(checkpoint, dict) and checkpoint.get("worker_id") == wid:
            return checkpoint
    return None


def _chaos_attributions(timeline: list[dict]) -> list[str]:
    """Injected faults visible anywhere in the merged timeline.

    A chaos event in the ring means the failure being triaged was (or
    may have been) *manufactured* — naming the schedule entry first
    stops an operator chasing a drill as a production fault.
    """
    causes = []
    for event in timeline:
        if event.get("kind") != CHAOS:
            continue
        data = event.get("data") or {}
        causes.append(
            f"injected fault: {data.get('directive', '?')!r} fired at "
            f"chaos point {data.get('point', '?')!r} "
            f"(invocation {data.get('hit', '?')}, {event.get('source')}) — "
            "this failure was manufactured by the fault-injection schedule")
    return causes


def _probable_causes(bundle: dict, timeline: list[dict]) -> list[str]:
    reason = bundle.get("reason", "")
    context = bundle.get("context", {})
    causes: list[str] = _chaos_attributions(timeline)
    if reason in ("worker-crash", "task-retries-exhausted",
                  "poison-task-quarantined"):
        wid = context.get("worker")
        exitcode = context.get("exitcode")
        if context.get("watchdog_deadline_s") is not None:
            causes.append(
                f"worker {wid} was SIGKILLed by the pool's own hung-worker "
                f"watchdog: task {context.get('task')} exceeded its "
                f"{context.get('watchdog_deadline_s')}s deadline "
                f"(overdue {context.get('overdue_s', '?')}s) — a hang, "
                "not an OOM or external kill")
        elif exitcode in _SIGNALS:
            causes.append(f"worker {wid} exited with {exitcode}: "
                          f"killed by {_SIGNALS[exitcode]}")
        elif isinstance(exitcode, int) and exitcode != 0:
            causes.append(f"worker {wid} exited with code {exitcode} "
                          "(uncaught exit in the worker process)")
        checkpoint = _crashed_worker_checkpoint(bundle)
        if checkpoint:
            events = [e for e in checkpoint.get("events", [])
                      if isinstance(e, dict)]
            if events and events[-1].get("name") == "worker.task_start":
                task = (events[-1].get("data") or {}).get("task")
                causes.append(
                    f"worker {wid}'s last checkpointed event is the start "
                    f"of task {task} — it died mid-task, not idle")
        else:
            causes.append(
                f"no spool checkpoint for worker {wid}: it died before "
                "its first task start (startup crash / import failure?)")
        if reason == "poison-task-quarantined":
            causes.append(
                f"task {context.get('task')} was quarantined after killing "
                f"{len(context.get('fatal_pids', []) or [])} distinct worker "
                "processes — a poison payload, failed fast instead of "
                "burning more workers")
        elif reason == "task-retries-exhausted":
            causes.append(
                f"task {context.get('task')} killed its worker "
                f"{context.get('retries', '?')} times — the task itself is "
                "the likely culprit (poison payload), not the host")
        elif any(event.get("kind") == REQUEUE for event in timeline):
            causes.append("the in-flight task was requeued on another "
                          "worker — one-off crash, service continued")
    elif reason == "remote-task-error":
        causes.append(
            f"task {context.get('task')} raised "
            f"{context.get('error', 'an exception')} inside worker "
            f"{context.get('worker')}; the worker survived — this is an "
            "application error, not an infrastructure crash")
    elif reason == "server-saturated":
        causes.append(
            f"submit queue hit max_pending={context.get('max_pending', '?')}"
            " — offered load exceeds render throughput; shed load is by "
            "design, raise max_pending or add workers only if sustained")
        sheds = sum(1 for event in timeline if event.get("kind") == SHED)
        if sheds > 1:
            causes.append(f"{sheds} shed events in the ring: a sustained "
                          "overload burst, not a single spike")
    elif reason == "pool-circuit-open":
        causes.append(
            f"the server's pool-health circuit breaker opened after "
            f"{context.get('threshold', '?')} consecutive pooled-render "
            f"failures ({context.get('error', 'WorkerCrashError')}); "
            f"requests are degrading to the serial in-process path "
            f"(bit-identical pixels) for {context.get('cooldown_s', '?')}s "
            "— investigate the pool, the images are safe")
    elif reason == "cli-unhandled-exception":
        causes.append(
            f"command {context.get('command')!r} died with "
            f"{context.get('error', 'an exception')} — the traceback on "
            "stderr is primary; this bundle preserves what led up to it")
    if not causes:
        causes.append(f"no heuristic for reason {reason!r}; read the "
                      "timeline below")
    return causes


def triage(bundle: dict) -> dict:
    """Distill a bundle into timeline/last-events/anomalies/causes."""
    timeline = _merged_timeline(bundle)
    return {
        "reason": bundle.get("reason"),
        "context": bundle.get("context", {}),
        "timeline": timeline,
        "last_events": _last_event_per_source(timeline),
        "anomalies": _counter_anomalies(bundle),
        "probable_causes": _probable_causes(bundle, timeline),
        "crashes": sum(1 for e in timeline if e.get("kind") == CRASH),
        "errors": sum(1 for e in timeline if e.get("kind") == ERROR),
    }


# ---------------------------------------------------------------------------
# Rendering.


def _fmt_event(event: dict, t0_ns: int) -> str:
    offset_ms = (event.get("ts", t0_ns) - t0_ns) / 1e6
    data = event.get("data")
    suffix = ""
    if data:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(data.items()))
        suffix = f"  {{{pairs}}}"
    return (f"  {offset_ms:+12.3f} ms  [{event.get('source', '?'):>9s}] "
            f"{event.get('kind', '?'):<9s} {event.get('name', '?')}{suffix}")


def render_report(bundle: dict, tail: int = 40) -> str:
    """The human triage report ``repro doctor`` prints."""
    analysis = triage(bundle)
    process = bundle.get("process", {})
    lines = []
    lines.append("incident bundle")
    lines.append("=" * 63)
    lines.append(f"reason:    {analysis['reason']}")
    lines.append(f"process:   pid {process.get('pid')} "
                 f"({' '.join(process.get('argv', [])) or 'unknown argv'})")
    context = analysis["context"]
    if context:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
        lines.append(f"context:   {pairs}")
    lines.append("")
    lines.append("probable cause")
    lines.append("-" * 63)
    for cause in analysis["probable_causes"]:
        lines.append(f"* {cause}")
    if analysis["anomalies"]:
        lines.append("")
        lines.append("counter anomalies")
        lines.append("-" * 63)
        for name, value in analysis["anomalies"]:
            lines.append(f"  {name:<28s} {value}")
    lines.append("")
    lines.append("last event per process")
    lines.append("-" * 63)
    timeline = analysis["timeline"]
    t0_ns = timeline[0].get("ts", 0) if timeline else 0
    for source in sorted(analysis["last_events"]):
        event = analysis["last_events"][source]
        lines.append(f"  {source:>9s}: {event.get('kind')} "
                     f"{event.get('name')} "
                     f"(+{(event.get('ts', t0_ns) - t0_ns) / 1e6:.3f} ms)")
    lines.append("")
    shown = timeline[-tail:]
    dropped = len(timeline) - len(shown)
    header = f"timeline (last {len(shown)} of {len(timeline)} events"
    header += f", {dropped} older omitted)" if dropped else ")"
    lines.append(header)
    lines.append("-" * 63)
    for event in shown:
        lines.append(_fmt_event(event, t0_ns))
    if not timeline:
        lines.append("  (no events recorded)")
    return "\n".join(lines)
