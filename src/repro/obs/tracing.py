"""Span-based tracing with Chrome ``about:tracing`` output.

A *span* is one named, timed region (``with span("serve.render",
scene=h):``). When tracing is active, finished spans are emitted as
JSON-lines complete events (``ph: "X"`` with ``ts``/``dur`` in
microseconds, ``pid``/``tid``) — the format ``chrome://tracing`` /
Perfetto load directly, so a whole served or tiled run opens as a
flame graph with server, scheduler, worker, and engine rows.

The tracer is a process-global sink to keep the off path free: when no
sink is installed, ``span.__enter__`` is a couple of attribute loads and
``__exit__`` is one None check. Timestamps are wall-clock
(``time.time_ns``), not monotonic, deliberately: worker processes emit
into their own buffers and the parent re-emits those events verbatim, so
all processes must share a clock for the rows to line up in the viewer.

Worker side: :class:`BufferTraceSink` accumulates events in memory; the
pool drains it after each task and ships the events with the result
(see ``repro.pool.worker``). The parent re-emits them through its own
sink via :func:`absorb_events` — or drops them when tracing is off.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.obs import flight

_sink = None  # the process-global sink; None = tracing off
_sink_lock = threading.Lock()


class FileTraceSink:
    """Writes trace events as JSON lines to a file (thread-safe)."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        line = json.dumps(event, separators=(",", ":"))
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None


class BufferTraceSink:
    """Accumulates trace events in memory (worker side of the pool wire)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[dict] = []

    def emit(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    def drain(self) -> list[dict]:
        """Return buffered events and clear the buffer."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def close(self) -> None:
        self.drain()


def install_sink(sink) -> None:
    """Install a trace sink (anything with ``emit(event)``)."""
    global _sink
    with _sink_lock:
        _sink = sink


def start_tracing(path: str) -> FileTraceSink:
    """Start tracing to a JSON-lines file; returns the sink."""
    sink = FileTraceSink(path)
    install_sink(sink)
    return sink


def stop_tracing() -> None:
    """Stop tracing and close the current sink, if any."""
    global _sink
    with _sink_lock:
        sink, _sink = _sink, None
    if sink is not None:
        sink.close()


def tracing_active() -> bool:
    return _sink is not None


def current_sink():
    return _sink


def emit_span(name: str, start_ns: int, end_ns: int, **args) -> None:
    """Emit one complete-span event from explicit timestamps.

    Finished spans also mirror into the flight recorder's ring (when
    enabled), so an incident bundle reconstructs the request timeline
    even when no trace sink was ever installed.
    """
    flight.record_span(name, start_ns, end_ns, args or None)
    sink = _sink
    if sink is None:
        return
    event = {
        "name": name,
        "ph": "X",
        "ts": start_ns // 1000,
        "dur": max(0, end_ns - start_ns) // 1000,
        "pid": os.getpid(),
        "tid": threading.get_ident() & 0x7FFFFFFF,
        "cat": "repro",
    }
    if args:
        event["args"] = args
    sink.emit(event)


def absorb_events(events) -> None:
    """Re-emit events recorded in another process (worker ride-back).

    Events carry their own ``pid``/``tid``/timestamps, so the worker
    shows up as its own process row in the flame viewer. No-op when
    tracing is off.
    """
    sink = _sink
    if sink is None or not events:
        return
    for event in events:
        sink.emit(event)


class span:
    """Context manager timing one named region.

    ``with span("tiles.tile", index=3):`` emits a complete event on
    exit. When both tracing and the flight recorder are off the
    overhead is one global load on enter and one None check on exit;
    with only the (default-on) flight recorder, exit adds one bounded
    ring append — cheap enough to leave instrumentation in hot-ish
    paths permanently (per-tile, per-request; not per-ray).
    """

    __slots__ = ("name", "args", "_start_ns", "_active")

    def __init__(self, name: str, **args) -> None:
        self.name = name
        self.args = args
        self._start_ns = 0
        self._active = False

    def __enter__(self) -> "span":
        if _sink is not None or flight.enabled():
            self._active = True
            self._start_ns = time.time_ns()  # repro: lint-ok[parity-nondeterminism] Chrome-trace spans need wall-clock stamps that align across processes; never feeds the image
        return self

    def __exit__(self, *_exc) -> None:
        if self._active:
            self._active = False
            emit_span(self.name, self._start_ns, time.time_ns(), **self.args)  # repro: lint-ok[parity-nondeterminism] same wall-clock span contract as __enter__


# ---------------------------------------------------------------------------
# Trace-file validation (the CI obs-smoke gate).

#: JSON-Schema-shaped description of one trace event line. Validation is
#: hand-rolled below (no jsonschema dependency); this doc is the source
#: of truth for what a line must contain.
TRACE_EVENT_SCHEMA = {
    "type": "object",
    "required": ["name", "ph", "ts", "pid", "tid"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "ph": {"enum": ["X", "i", "M"]},
        "ts": {"type": "integer", "minimum": 0},
        "dur": {"type": "integer", "minimum": 0},
        "pid": {"type": "integer"},
        "tid": {"type": "integer"},
        "cat": {"type": "string"},
        "args": {"type": "object"},
    },
}


def validate_trace_event(event) -> list[str]:
    """Validate one parsed event against :data:`TRACE_EVENT_SCHEMA`;
    returns a list of problems (empty = valid)."""
    problems = []
    if not isinstance(event, dict):
        return ["event is not an object"]
    for field in TRACE_EVENT_SCHEMA["required"]:
        if field not in event:
            problems.append(f"missing required field {field!r}")
    name = event.get("name")
    if "name" in event and (not isinstance(name, str) or not name):
        problems.append("name must be a non-empty string")
    ph = event.get("ph")
    if "ph" in event and ph not in ("X", "i", "M"):
        problems.append(f"unsupported phase {ph!r}")
    for field in ("ts", "dur"):
        value = event.get(field)
        if field in event and (not isinstance(value, int) or isinstance(value, bool)
                               or value < 0):
            problems.append(f"{field} must be a non-negative integer")
    for field in ("pid", "tid"):
        value = event.get(field)
        if field in event and (not isinstance(value, int) or isinstance(value, bool)):
            problems.append(f"{field} must be an integer")
    if ph == "X" and "dur" not in event:
        problems.append("complete events (ph=X) require dur")
    if "args" in event and not isinstance(event["args"], dict):
        problems.append("args must be an object")
    return problems


def validate_trace_file(path: str) -> dict:
    """Validate a JSON-lines trace file.

    Returns ``{"events": n, "names": {...}, "errors": [...]}`` — errors
    is empty for a valid file. Each error names its line number.
    """
    n_events = 0
    names: set[str] = set()
    errors: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc.msg})")
                continue
            for problem in validate_trace_event(event):
                errors.append(f"line {lineno}: {problem}")
            n_events += 1
            if isinstance(event, dict) and isinstance(event.get("name"), str):
                names.add(event["name"])
    if n_events == 0:
        errors.append("trace file contains no events")
    return {"events": n_events, "names": names, "errors": errors}
