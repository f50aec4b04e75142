"""repro.obs — the observability spine: metrics, tracing, profiling.

One subsystem gives the whole stack its measurement substrate:

* :class:`MetricsRegistry` — named counters and histograms with a
  lock-free write path, p50/p95/p99 latency histograms, and one
  ``snapshot()``/``merge()`` rule that also works across processes
  (worker deltas ride back with task results).
* :class:`span` / :func:`start_tracing` — Chrome
  ``about:tracing``-compatible JSON-lines traces of the request path
  end-to-end (server admission → queue wait → scene build → tile
  dispatch → worker trace → reassembly).
* :class:`PhaseAccumulator` — per-phase engine and replay timing
  feeding the histograms.
* :mod:`repro.obs.flight` / :mod:`repro.obs.doctor` — the always-on
  flight recorder (bounded ring of :mod:`repro.obs.events` structured
  events, worker spool checkpoints, incident bundles) and the
  ``repro doctor`` triage report over a bundle.

Metric naming: dotted ``subsystem.metric`` (``serve.latency``,
``pool.tasks_completed``, ``rt.phase.traversal``). Span naming mirrors
it (``serve.request``, ``tiles.tile``, ``worker.tile``,
``rt.wavefront.trace``). Gauges inside a server's metrics snapshot are
namespaced ``gauge.<name>`` so they can never shadow a counter.
"""

from repro.obs import doctor, events, flight
from repro.obs.flight import CHECKPOINT_SCHEMA, FLIGHT_SCHEMA
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.profile import PhaseAccumulator
from repro.obs.snapshot import (
    DEFAULT_SNAPSHOT_PATH,
    SNAPSHOT_SCHEMA,
    format_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.obs.tracing import (
    TRACE_EVENT_SCHEMA,
    BufferTraceSink,
    FileTraceSink,
    absorb_events,
    current_sink,
    emit_span,
    install_sink,
    span,
    start_tracing,
    stop_tracing,
    tracing_active,
    validate_trace_event,
    validate_trace_file,
)


def absorb_worker_delta(delta) -> None:
    """Fold one worker-side observability delta into this process.

    The delta is what ``repro.pool.worker`` ships with each task
    result: a ``MetricsRegistry.collect()`` dict, optionally carrying a
    ``"trace_events"`` list of span events recorded in the worker.
    Metrics merge into the global registry; trace events re-emit through
    the active sink (dropped when tracing is off).
    """
    if not delta:
        return
    get_registry().merge(delta)
    events = delta.get("trace_events")
    if events:
        absorb_events(events)


__all__ = [
    "CHECKPOINT_SCHEMA",
    "DEFAULT_BUCKETS",
    "DEFAULT_SNAPSHOT_PATH",
    "FLIGHT_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "TRACE_EVENT_SCHEMA",
    "BufferTraceSink",
    "FileTraceSink",
    "Histogram",
    "MetricsRegistry",
    "PhaseAccumulator",
    "absorb_events",
    "absorb_worker_delta",
    "current_sink",
    "doctor",
    "emit_span",
    "events",
    "flight",
    "format_snapshot",
    "get_registry",
    "install_sink",
    "load_snapshot",
    "span",
    "start_tracing",
    "stop_tracing",
    "tracing_active",
    "validate_trace_event",
    "validate_trace_file",
    "write_snapshot",
]
