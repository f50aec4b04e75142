"""Worker-process side of the persistent pool.

Each worker is a long-lived process running :func:`worker_main`: it pulls
task tuples off its private task queue, executes them, and pushes result
tuples onto the shared result queue until it receives the ``None``
shutdown sentinel.

Two task kinds exist:

* ``"tile"`` — trace a verbatim slice of a frame's ray bundle against a
  scene. Scenes are addressed by a **content key**; the first tile of a
  scene ships the full ``(cloud, structure, config, objects)`` payload
  and every later tile of that scene ships only the key, served from
  the worker-resident cache (an LRU the parent mirrors exactly, so the
  parent always knows what each worker holds). The structure the
  scheduler ships is the *flattened* SoA layout
  (:class:`~repro.bvh.flatten.FlatStructure`): a worker builds the one
  tracing engine straight from that layout. When the task asks for
  fetch traces, the engine's trace recorder records them and the
  per-ray ``RayTrace`` streams ship back inside the tile's
  ``BundleResult``.
* ``"call"`` — run an arbitrary picklable ``fn(*args, **kwargs)``. This
  is what the eval campaign fans out; workers keep their module state
  (e.g. the eval harness render caches) across calls, which is the whole
  point of a persistent pool.

Results carry the worker-measured execution seconds (the parent's
per-tile ``tiles.tile_seconds`` observations), plus an observability
delta: whatever the task recorded into the worker's
:mod:`repro.obs` registry (per-phase engine timings, per-tile seconds)
and any trace spans, collected-and-reset per task so each result ships
exactly the measurements of its own task. The parent folds the delta
into its registry — worker-side metrics were previously lost entirely
(a counter bumped inside a worker never reached the parent).
"""

from __future__ import annotations

import hashlib
import pickle
import time
import traceback
from collections import OrderedDict

import repro.chaos as chaos
from repro.obs import (
    BufferTraceSink,
    emit_span,
    events as obs_events,
    flight,
    get_registry,
    install_sink,
)

#: Default number of scenes a worker keeps resident.
DEFAULT_SCENE_CACHE = 4

#: Wire tags (module-level so parent and worker agree by construction).
TASK_TILE = "tile"
TASK_CALL = "call"
SCENE_HIT = "hit"
SCENE_SHIP = "ship"
RESULT_OK = "ok"
RESULT_ERROR = "error"


def stable_fingerprint(obj) -> str:
    """Content hash of a picklable object, memoized on the object.

    Pickling the same construction path over the same array contents is
    deterministic, so two structures built from identical scenes share a
    fingerprint while any content change produces a new one. The digest
    is stashed on the object (``object.__setattr__`` reaches into frozen
    dataclasses) so a long-lived scene pays for hashing once; callers
    must treat fingerprinted objects as immutable — the serving layer
    already does.
    """
    cached = getattr(obj, "_pool_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()
    try:
        object.__setattr__(obj, "_pool_fingerprint", digest)
    except (AttributeError, TypeError):
        pass
    return digest


def scene_key(cloud, structure, config, objects) -> tuple:
    """Content-based identity of everything a tile tracer depends on."""
    return (
        stable_fingerprint(cloud),
        stable_fingerprint(structure),
        config,
        stable_fingerprint(objects) if objects is not None else None,
    )


class SceneCacheMirror:
    """The LRU update rule shared by worker caches and parent mirrors.

    The parent dispatches every task a worker sees, in order, and both
    sides apply this exact rule on each tile task — so the parent's
    mirror of "which scene keys does worker w hold" never drifts, and
    cold/warm shipping decisions are made without any round trip.
    """

    def __init__(self, capacity: int = DEFAULT_SCENE_CACHE) -> None:
        if capacity < 1:
            raise ValueError("scene cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def touch(self, key, value=True):
        """Insert/refresh a key; returns the evicted key (or None)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return None
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            return evicted
        return None

    def get(self, key):
        self._entries.move_to_end(key)
        return self._entries[key]

    def clear(self) -> None:
        self._entries.clear()


def _resolve_tracer(scene_field, cache: SceneCacheMirror):
    """Build or fetch the (tracer, objects) pair for one tile task."""
    from repro.render.renderer import GaussianRayTracer

    tag = scene_field[0]
    if tag == SCENE_HIT:
        return cache.get(scene_field[1])
    if tag != SCENE_SHIP:
        raise ValueError(f"unknown scene field tag {tag!r}")
    _, key, (cloud, structure, config, objects) = scene_field
    tracer = GaussianRayTracer(cloud, structure, config)
    entry = (tracer, objects)
    evicted = cache.touch(key, entry)
    if evicted is not None:
        flight.record(obs_events.EVICTION, "worker.scene_evict",
                      cache_size=len(cache))
    return entry


def execute_task(task, cache: SceneCacheMirror):
    """Run one task tuple; returns ``(value, cost_seconds)``.

    For tile tasks the cost covers only the tracing itself — one-time
    scene unpickling / tracer construction on a cold ship is excluded,
    so per-tile costs are steady-state tracing time, not setup noise
    attributed to whichever tile shipped the scene.
    """
    kind = task[0]
    if kind == TASK_TILE:
        _, task_id, scene_field, origins, directions, pixel_ids, keep = task
        tracer, objects = _resolve_tracer(scene_field, cache)
        started_ns = time.time_ns()
        started = time.perf_counter()
        value = tracer.trace_rays(origins, directions, pixel_ids,
                                  objects=objects, keep_traces=keep)
        cost = time.perf_counter() - started
        emit_span("worker.tile", started_ns, time.time_ns(),
                  task=task_id, rays=int(len(pixel_ids)))
        get_registry().observe("worker.tile_seconds", cost)
        return value, cost
    if kind == TASK_CALL:
        _, task_id, fn, args, kwargs = task
        started_ns = time.time_ns()
        started = time.perf_counter()
        value = fn(*args, **(kwargs or {}))
        cost = time.perf_counter() - started
        emit_span("worker.call", started_ns, time.time_ns(), task=task_id)
        get_registry().observe("worker.call_seconds", cost)
        return value, cost
    raise ValueError(f"unknown task kind {kind!r}")


class _UnpicklableResult:
    """Chaos stand-in for a task result whose pickling fails.

    Exercises the worker's result-send hardening: ``Connection.send``
    pickles before writing, so this raises cleanly with nothing partial
    on the wire.
    """

    def __init__(self, value) -> None:
        self.value = value

    def __reduce__(self):
        raise pickle.PicklingError("chaos: injected unpicklable result")


def _collect_obs_delta(trace_sink: BufferTraceSink) -> dict | None:
    """This task's observability delta: metrics + spans since last task.

    ``collect(reset=True)`` is exact here because the worker is
    single-threaded — nothing writes between the task finishing and the
    collect. Returns None when the task recorded nothing (the common
    wire stays one small tuple element).
    """
    delta = get_registry().collect(reset=True)
    events = trace_sink.drain()
    if events:
        delta["trace_events"] = events
    if not delta["counters"] and not delta["histograms"] and not events:
        return None
    return delta


def worker_main(worker_id: int, task_queue, result_conn,
                scene_cache_size: int = DEFAULT_SCENE_CACHE,
                flight_dir: str | None = None) -> None:
    """Process entry point: serve tasks until the shutdown sentinel.

    ``result_conn`` is this worker's *private* result pipe — one writer,
    no cross-process lock, so this worker dying mid-send can never wedge
    its siblings' results (see the executor module docstring).
    ``flight_dir`` is the parent's flight directory, passed explicitly
    so spawn-started workers (fresh module state) spool checkpoints
    where the parent will look for them; None means the recorder is off
    in the parent and stays off here.
    """
    cache = SceneCacheMirror(scene_cache_size)
    # Workers always buffer spans (a handful of dict appends per task);
    # the parent decides at fold-in time whether tracing is active and
    # drops the events otherwise. This sidesteps ever having to signal
    # tracing on/off across the process boundary.
    trace_sink = BufferTraceSink()
    install_sink(trace_sink)
    # Anything recorded at import/startup time belongs to no task; drop
    # it so the first result's delta covers only its own task. The
    # flight ring gets the same treatment: a forked child inherits the
    # parent's ring verbatim and must not re-report the parent's events.
    get_registry().collect(reset=True)
    if flight_dir is None:
        flight.configure(enabled=False)
    else:
        flight.configure(directory=flight_dir, enabled=True)
        flight.clear()
        flight.record(obs_events.STATE, "worker.start", worker=worker_id)
    while True:
        task = task_queue.get()
        if task is None:
            flight.record(obs_events.STATE, "worker.stop", worker=worker_id)
            # Clean shutdown leaves nothing to autopsy.
            flight.clear_worker_checkpoint(worker_id)
            return
        task_id = task[1]
        flight.record(obs_events.STATE, "worker.task_start",
                      worker=worker_id, task=task_id, task_kind=task[0])
        # Spool ring + metrics *before* executing: if this task SIGKILLs
        # the process, the checkpoint's last event is its task_start —
        # exactly what the doctor needs to name the killer.
        flight.checkpoint_worker(worker_id)
        directive = chaos.point("pool.worker.task")
        if directive is not None:
            # Re-spool so the chaos firing itself is in the autopsy: a
            # kill/hang directive never returns, and the doctor must be
            # able to tell a drilled death from an organic one.
            flight.checkpoint_worker(worker_id)
            chaos.execute("pool.worker.task", directive)
        try:
            value, cost = execute_task(task, cache)
        except BaseException as exc:  # ship, don't die: workers are shared
            flight.record(obs_events.ERROR, "worker.task_error",
                          worker=worker_id, task=task_id, error=repr(exc))
            try:
                result_conn.send((RESULT_ERROR, worker_id, task_id,
                                  repr(exc), traceback.format_exc(),
                                  _collect_obs_delta(trace_sink)))
            except OSError:
                return  # parent is gone; nothing left to report to
            continue
        flight.record(obs_events.COMPLETE, "worker.task_done",
                      worker=worker_id, task=task_id)
        if chaos.point("pool.worker.result") == "unpicklable":
            value = _UnpicklableResult(value)
        delta = _collect_obs_delta(trace_sink)
        try:
            result_conn.send((RESULT_OK, worker_id, task_id, value, cost,
                              delta))
        except OSError:
            return
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            # An unpicklable result must not kill a shared worker:
            # Connection.send pickles the whole tuple before writing a
            # byte, so the pipe is still clean — report the failure as
            # a task error instead of dying with the result.
            flight.record(obs_events.ERROR, "worker.result_unpicklable",
                          worker=worker_id, task=task_id, error=repr(exc))
            get_registry().add("worker.result_pickle_errors")
            try:
                result_conn.send((RESULT_ERROR, worker_id, task_id,
                                  f"result not picklable: {exc!r}",
                                  traceback.format_exc(),
                                  _collect_obs_delta(trace_sink)))
            except OSError:
                return
