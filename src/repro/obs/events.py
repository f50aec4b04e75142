"""Structured-event vocabulary shared by the span tracer and the
flight recorder.

One small, closed set of event *kinds* covers everything the stack
wants to remember about its own behavior: timed spans, lifecycle state
transitions, task dispatch/completion, crash/requeue recovery, load
shedding, engine fallbacks, and cache evictions. The flight recorder
(:mod:`repro.obs.flight`) stores events as compact tuples; incident
bundles and the ``repro doctor`` triage tool exchange them as dicts in
the shape documented by :data:`FLIGHT_EVENT_SCHEMA`.

Keeping the vocabulary here — below both ``tracing`` and ``flight`` in
the import graph — is what lets the span tracer mirror spans into the
flight ring without a cycle.
"""

from __future__ import annotations

#: A timed region (mirrors a tracer span; ``data`` carries ``dur_us``).
SPAN = "span"
#: A lifecycle transition (worker start/stop, pool spawn, server open).
STATE = "state"
#: The parent shipped a task to a worker.
DISPATCH = "dispatch"
#: The parent collected a task's successful result.
COMPLETE = "complete"
#: A worker process died while owning a task slot.
CRASH = "crash"
#: A crashed worker's in-flight task was requeued elsewhere.
REQUEUE = "requeue"
#: Admission control rejected work (load shedding).
SHED = "shed"
#: A render degraded to a slower path (the pool's serial fallback),
#: with the reason.
FALLBACK = "fallback"
#: A bounded cache evicted an entry.
EVICTION = "eviction"
#: An incident bundle was dumped (self-referential breadcrumb).
INCIDENT = "incident"
#: A task or subsystem raised; ``data`` carries the error repr.
ERROR = "error"
#: A scheduled fault fired at a registered :mod:`repro.chaos` injection
#: point (``data`` carries point/directive/hit) — the breadcrumb that
#: lets ``repro doctor`` attribute a manufactured failure to its drill.
CHAOS = "chaos"

#: Every kind the flight recorder accepts.
KINDS = frozenset({
    SPAN, STATE, DISPATCH, COMPLETE, CRASH, REQUEUE, SHED, FALLBACK,
    EVICTION, INCIDENT, ERROR, CHAOS,
})

#: JSON-Schema-shaped description of one flight event in dict form
#: (the shape inside incident bundles and worker checkpoints).
#: Validation is hand-rolled in :func:`validate_flight_event` — no
#: jsonschema dependency — this doc is the source of truth.
FLIGHT_EVENT_SCHEMA = {
    "type": "object",
    "required": ["ts", "pid", "tid", "kind", "name"],
    "properties": {
        "ts": {"type": "integer", "minimum": 0,
               "description": "wall-clock nanoseconds (time_ns)"},
        "pid": {"type": "integer"},
        "tid": {"type": "integer"},
        "kind": {"enum": sorted(KINDS)},
        "name": {"type": "string", "minLength": 1,
                 "description": "dotted subsystem.event name"},
        "data": {"type": "object",
                 "description": "JSON-serializable payload (optional)"},
    },
}


def as_tuple(ts_ns: int, pid: int, tid: int, kind: str, name: str,
             data: dict | None) -> tuple:
    """The compact in-ring representation of one event."""
    return (ts_ns, pid, tid, kind, name, data)


def as_dict(event: tuple) -> dict:
    """Convert one in-ring tuple to the bundle/checkpoint dict shape."""
    ts_ns, pid, tid, kind, name, data = event
    out = {"ts": ts_ns, "pid": pid, "tid": tid, "kind": kind, "name": name}
    if data:
        out["data"] = data
    return out


def validate_flight_event(event) -> list[str]:
    """Validate one dict-form event against
    :data:`FLIGHT_EVENT_SCHEMA`; returns problems (empty = valid)."""
    problems = []
    if not isinstance(event, dict):
        return ["event is not an object"]
    for field in FLIGHT_EVENT_SCHEMA["required"]:
        if field not in event:
            problems.append(f"missing required field {field!r}")
    ts = event.get("ts")
    if "ts" in event and (not isinstance(ts, int) or isinstance(ts, bool)
                          or ts < 0):
        problems.append("ts must be a non-negative integer")
    for field in ("pid", "tid"):
        value = event.get(field)
        if field in event and (not isinstance(value, int)
                               or isinstance(value, bool)):
            problems.append(f"{field} must be an integer")
    kind = event.get("kind")
    if "kind" in event and kind not in KINDS:
        problems.append(f"unknown event kind {kind!r}")
    name = event.get("name")
    if "name" in event and (not isinstance(name, str) or not name):
        problems.append("name must be a non-empty string")
    if "data" in event and not isinstance(event["data"], dict):
        problems.append("data must be an object")
    return problems
