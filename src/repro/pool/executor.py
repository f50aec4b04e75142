"""The persistent worker pool and its future-based executor API.

:class:`WorkerPool` owns a fleet of long-lived worker processes (see
:mod:`repro.pool.worker`), a work-stealing placement scheduler
(:mod:`repro.pool.stealing`), and a collector thread that matches results
to :class:`concurrent.futures.Future` objects. Unlike a per-render
``multiprocessing.Pool``, the fleet survives across frames, scenes, and
callers: workers keep content-addressed scene caches, so repeated frames
of one scene ship only a hash, and the eval campaign's module-level
render caches stay warm between tasks.

Dispatch keeps exactly one task in flight per worker. That makes crash
accounting exact — when a worker dies, the parent knows precisely which
task it took down — and it is what lets the parent mirror each worker's
scene cache without acknowledgements. Queued (not yet dispatched) work
lives in per-worker deques; idle workers steal half the richest backlog.

Crash handling: a dead worker's in-flight task is requeued elsewhere (up
to ``max_task_retries`` times, then its future fails with
:class:`WorkerCrashError`), its queued tasks are re-placed, and a fresh
worker is spawned into the vacant slot with an empty cache mirror.

Results come back over one pipe *per worker*, not a shared queue. A
shared ``multiprocessing.Queue`` serializes writers through one
cross-process lock — and a worker SIGKILLed inside that critical
section (its feeder thread gets preempted between ``send_bytes`` and
the lock release, a wide window on loaded single-core hosts) leaves the
lock held forever, wedging every surviving worker's results. With one
single-writer pipe per worker there is no shared lock to poison; the
parent reassembles length-prefixed frames itself, so even a frame torn
by a mid-write kill only stalls that dead worker's (discarded) pipe,
never the collector.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import select
import struct
import threading
import time
from concurrent.futures import Future
from concurrent.futures import as_completed as as_completed  # re-export
from typing import Callable, Hashable, Iterable

import repro.chaos as chaos
from repro.obs import absorb_worker_delta, get_registry
from repro.obs import events as obs_events
from repro.obs import flight
from repro.pool import worker as _w
from repro.pool.stealing import StealingScheduler
from repro.pool.worker import SceneCacheMirror, scene_key


def available_workers() -> int:
    """Worker count for auto-sized pools.

    Honors the ``REPRO_WORKERS`` environment override (any positive
    integer; invalid values are ignored), then falls back to the CPUs
    this process may actually run on. ``sched_getaffinity`` can raise
    ``OSError``/``ValueError`` on exotic kernels and containers — every
    failure degrades to ``cpu_count``.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError, ValueError):
        return os.cpu_count() or 1


class WorkerCrashError(RuntimeError):
    """A task's worker died (repeatedly) while running it."""


class RemoteTaskError(RuntimeError):
    """A task raised in the worker; carries the remote traceback."""

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


class _Task:
    __slots__ = ("task_id", "kind", "future", "affinity", "retries",
                 "payload", "scene", "worker", "started", "fatal_pids")

    def __init__(self, task_id, kind, future, affinity, payload, scene=None):
        self.task_id = task_id
        self.kind = kind
        self.future = future
        self.affinity = affinity
        self.payload = payload
        self.scene = scene
        self.retries = 0
        self.worker = None
        self.started = False
        # PIDs of workers that died while running this task — distinct
        # victims, the poison-quarantine signal (a flaky host kills the
        # same task on different processes; a poison task does too, but
        # nothing else plausibly does).
        self.fatal_pids = None


def _env_positive_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _env_positive_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 1 else None


def _json_safe(value):
    """A scalar as-is, anything else by repr (bundle-safe)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _task_summary(task: _Task | None) -> dict | None:
    """A plain-data summary of a task for incident bundles — enough to
    identify the work without shipping megabytes of rays or scenes."""
    if task is None:
        return None
    summary = {
        "task_id": task.task_id,
        "kind": task.kind,
        "retries": task.retries,
        "affinity": _json_safe(task.affinity),
    }
    try:
        if task.kind == _w.TASK_TILE:
            _origins, _directions, pixel_ids, keep = task.payload
            summary["rays"] = int(len(pixel_ids))
            summary["keep_traces"] = bool(keep)
            if task.scene is not None:
                summary["scene_key"] = repr(task.scene[0])[:200]
        else:
            fn, args, kwargs = task.payload
            summary["fn"] = getattr(fn, "__qualname__", None) or repr(fn)
            summary["n_args"] = len(args)
            summary["n_kwargs"] = len(kwargs or {})
    except (TypeError, ValueError, IndexError):
        summary["payload"] = "<unsummarizable>"
    return summary


class WorkerPool:
    """A persistent, work-stealing process pool.

    Parameters
    ----------
    workers:
        Process count; ``None``/``0`` auto-sizes via
        :func:`available_workers` (which honors ``REPRO_WORKERS``).
    scene_cache_size:
        Scenes each worker keeps resident (LRU).
    start_method:
        Forwarded to :func:`multiprocessing.get_context`; default picks
        ``fork`` while the parent is single-threaded, ``spawn`` otherwise
        (forking a multi-threaded parent can deadlock children).
    stealing:
        Disable to measure the cost of *not* stealing (benchmarks).
    max_task_retries:
        Crash-requeue attempts before a task's future fails.
    task_deadline_s:
        Per-task wall-clock deadline. A worker holding one task longer
        than this is presumed hung (SIGSTOP, runaway loop, dead kernel
        thread) and is SIGKILLed by the collector's watchdog; the
        ordinary crash accounting then requeues its task. ``None``
        (default) disables the watchdog; the ``REPRO_TASK_DEADLINE``
        env var supplies a default when the argument is omitted.
    retry_backoff_s:
        Base of the exponential backoff between crash-requeues of the
        same task (``retry_backoff_s * 2**(retries-1)``); ``0`` restores
        immediate requeue.
    poison_threshold:
        When set, a task that has killed this many *distinct* worker
        processes is quarantined — failed fast with a
        ``poison-task-quarantined`` incident bundle instead of burning
        through its remaining retries (and more workers). ``None``
        (default) leaves only the retry bound; ``REPRO_POISON_THRESHOLD``
        supplies a default when the argument is omitted.

    Workers spawn lazily on first submit, so constructing a pool is free.
    """

    def __init__(
        self,
        workers: int | None = None,
        scene_cache_size: int = _w.DEFAULT_SCENE_CACHE,
        start_method: str | None = None,
        stealing: bool = True,
        max_task_retries: int = 2,
        task_deadline_s: float | None = None,
        retry_backoff_s: float = 0.05,
        poison_threshold: int | None = None,
    ) -> None:
        if workers is None or workers == 0:
            workers = available_workers()
        if workers < 1:
            raise ValueError("workers must be >= 1 (or 0/None for auto)")
        self.n_workers = workers
        self.scene_cache_size = scene_cache_size
        self.start_method = start_method
        self.max_task_retries = max_task_retries
        if task_deadline_s is None:
            task_deadline_s = _env_positive_float("REPRO_TASK_DEADLINE")
        if task_deadline_s is not None and task_deadline_s <= 0:
            raise ValueError("task_deadline_s must be > 0 (or None)")
        self.task_deadline_s = task_deadline_s
        self.retry_backoff_s = max(0.0, retry_backoff_s)
        if poison_threshold is None:
            poison_threshold = _env_positive_int("REPRO_POISON_THRESHOLD")
        if poison_threshold is not None and poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1 (or None)")
        self.poison_threshold = poison_threshold
        self._sched = StealingScheduler(workers, stealing=stealing)
        self._lock = threading.RLock()
        self._tasks: dict[int, _Task] = {}
        self._inflight: list[int | None] = [None] * workers
        self._procs: list = [None] * workers
        self._task_queues: list = [None] * workers
        self._mirrors = [SceneCacheMirror(scene_cache_size)
                         for _ in range(workers)]
        self._next_id = 0
        self._ctx = None
        # Per-worker result pipes (single writer each — see module
        # docstring) plus this process's frame-reassembly buffers,
        # keyed by the receiving Connection so a respawn's fresh pipe
        # can never inherit a dead worker's torn bytes.
        self._result_rx: list = [None] * workers
        self._rx_bufs: dict = {}
        self._retired_rx: list = []
        self._collector: threading.Thread | None = None
        self._started = False
        self._closed = False
        self._shutdown = threading.Event()
        self._drained = threading.Condition(self._lock)
        # Teardown is serialized on its own lock so concurrent close()
        # calls (TileScheduler.__exit__ racing its finalizer) are
        # join-safe: the loser blocks until the winner has actually
        # reaped every worker, instead of returning with SIGKILL-pending
        # processes still live.
        self._close_lock = threading.Lock()
        self._close_done = False
        # Watchdog state: when each worker's current task was shipped,
        # and which workers the watchdog SIGKILLed (so the crash reaper
        # can attribute the death to the deadline, not to the task).
        self._dispatched_at: list[float | None] = [None] * workers
        self._watchdog_killed: dict[int, float] = {}
        # Crash-requeued tasks parked until their backoff expires:
        # (ready_at_monotonic, task_id), released by the collector.
        self._parked: list[tuple[float, int]] = []
        # Counters (read through stats()).
        self._completed = 0
        self._failed = 0
        self._crashes = 0
        self._requeues = 0
        self._deadline_kills = 0
        self._quarantined = 0
        self._scene_ships = 0
        self._scene_hits = 0
        # Incident bundles queued under the lock, dumped in _ship()
        # (file I/O never runs while holding the pool lock).
        self._pending_incidents: list[tuple] = []

    # -- lifecycle ------------------------------------------------------

    def _resolve_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        if "fork" in mp.get_all_start_methods() and threading.active_count() == 1:
            return "fork"
        return "spawn"

    def _ensure_started(self) -> None:
        with self._lock:
            if self._started:
                return
            self._ctx = mp.get_context(self._resolve_start_method())
            for wid in range(self.n_workers):
                self._spawn(wid)
            self._collector = threading.Thread(
                target=self._collect, name="repro-pool-collector", daemon=True)
            self._started = True
            self._collector.start()

    def _spawn(self, wid: int) -> None:
        self._task_queues[wid] = self._ctx.SimpleQueue()
        self._mirrors[wid].clear()
        # A fresh result pipe per (re)spawn: the old one may hold a
        # frame torn by the crash. Retired pipes stay open (a sibling
        # forked later can hold an inherited copy of the write end, so
        # EOF is not guaranteed) but are never selected on again; they
        # are closed with the pool.
        with self._lock:
            old_rx = self._result_rx[wid]
            if old_rx is not None:
                self._retired_rx.append(old_rx)
                self._rx_bufs.pop(old_rx, None)
            rx, tx = self._ctx.Pipe(duplex=False)
            self._result_rx[wid] = rx
        # The flight dir travels as an explicit argument: spawn-started
        # workers have fresh module state, so env/override knobs set in
        # this process would not reach them otherwise.
        worker_flight_dir = flight.flight_dir() if flight.enabled() else None
        proc = self._ctx.Process(
            target=_w.worker_main,
            args=(wid, self._task_queues[wid], tx,
                  self.scene_cache_size, worker_flight_dir),
            name=f"repro-pool-{wid}",
            daemon=True,
        )
        proc.start()
        tx.close()  # the worker holds it now; keep EOF meaningful here
        self._procs[wid] = proc
        flight.record(obs_events.STATE, "pool.spawn", worker=wid,
                      worker_pid=proc.pid)

    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def processes(self) -> list:
        """Live worker process handles (crash tests poke at these)."""
        return list(self._procs)

    def close(self, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the pool. ``wait=True`` lets in-flight/queued work drain
        first; ``wait=False`` fails outstanding futures immediately.

        Idempotent and join-safe: concurrent callers (a scheduler's
        ``__exit__`` racing its pool finalizer) serialize on
        one teardown — whichever call runs it, every caller returns only
        after workers are reaped. Workers that ignore SIGTERM — a
        SIGSTOPped (chaos-hung) process does, by definition — are
        escalated to SIGKILL rather than leaked.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
        if first and wait and self._started:
            deadline = None if timeout is None else time.monotonic() + timeout
            with self._drained:
                while self._tasks:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                    self._drained.wait(timeout=remaining if remaining else 0.5)
        with self._close_lock:
            if self._close_done:
                return
            self._close_done = True
            with self._lock:
                for task in list(self._tasks.values()):
                    if not task.future.done():
                        task.future.set_exception(RuntimeError("pool closed"))
                self._tasks.clear()
                self._parked.clear()
                # A concurrent close(wait=True) may still sit in its
                # drain loop; everything it waited on just failed.
                self._drained.notify_all()
            self._shutdown.set()
            if self._started:
                for wid, proc in enumerate(self._procs):
                    if proc is not None and proc.is_alive():
                        try:
                            self._task_queues[wid].put(None)
                        except OSError:
                            pass
                for proc in self._procs:
                    if proc is not None:
                        proc.join(timeout=2.0)
                        if proc.is_alive():
                            proc.terminate()
                            proc.join(timeout=1.0)
                        if proc.is_alive():
                            # SIGTERM is delivered but never *runs* in a
                            # stopped process; SIGKILL reaps it anyway.
                            proc.kill()
                            proc.join(timeout=1.0)
                if self._collector is not None:
                    self._collector.join(timeout=2.0)
                with self._lock:
                    for rx in self._result_rx + self._retired_rx:
                        if rx is not None:
                            try:
                                rx.close()
                            except OSError:
                                pass
                    self._result_rx = [None] * self.n_workers
                    self._retired_rx = []
                    self._rx_bufs.clear()
            # Incidents queued by a crash the collector reaped but never
            # got to flush (it may have been mid-loop when _shutdown was
            # set) must not be lost with the pool.
            self._flush_incidents()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------

    def submit(self, fn: Callable, /, *args,
               affinity: Hashable | None = None, **kwargs) -> Future:
        """Run ``fn(*args, **kwargs)`` on a worker; returns a Future.

        ``affinity`` is a locality hint: tasks sharing a key are placed
        on the same home worker (stealing may still move them), so work
        that shares warm per-process state benefits from it.
        """
        return self._submit_task(_w.TASK_CALL, (fn, args, kwargs),
                                 affinity=affinity)

    def submit_tile(self, cloud, structure, config, objects,
                    origins, directions, pixel_ids, keep_traces: bool,
                    key: tuple | None = None,
                    affinity: Hashable | None = None) -> Future:
        """Trace one ray slice on a worker; resolves to
        ``(BundleResult, worker_seconds)``.

        ``key`` is the scene content key (computed when omitted); the
        dispatcher ships the full scene only to workers that don't hold
        it yet.
        """
        if key is None:
            key = scene_key(cloud, structure, config, objects)
        scene = (key, (cloud, structure, config, objects))
        return self._submit_task(
            _w.TASK_TILE, (origins, directions, pixel_ids, keep_traces),
            affinity=affinity, scene=scene)

    def map(self, fn: Callable, iterable: Iterable,
            affinity: Hashable | None = None) -> list:
        """Like ``Executor.map`` but eager and list-returning."""
        futures = [self.submit(fn, item, affinity=affinity)
                   for item in iterable]
        return [future.result() for future in futures]

    def _submit_task(self, kind, payload, affinity=None, scene=None) -> Future:
        if self._closed:
            raise RuntimeError("pool is closed")
        self._ensure_started()
        future: Future = Future()
        with self._lock:
            task_id = self._next_id
            self._next_id += 1
            task = _Task(task_id, kind, future, affinity, payload, scene)
            self._tasks[task_id] = task
            self._sched.place(task_id, affinity)
            plans = self._plan_dispatches()
        self._ship(plans)
        return future

    # -- dispatch & collection -----------------------------------------
    #
    # Dispatch is split in two so the (potentially large) pickling of a
    # scene ship happens *outside* the pool lock: under the lock, idle
    # workers are matched to tasks and the wire tuples are built
    # (`_plan_dispatches`); the pipe writes then run unlocked (`_ship`),
    # so result collection and new submissions never stall behind a
    # multi-megabyte scene transfer. Scene-cache mirrors are updated
    # only after a ship *succeeds* — a failed write must not convince
    # the parent that a worker holds a scene it never received.

    def _plan_dispatches(self) -> list[tuple]:
        """Match idle workers to tasks (lock held); returns ship plans
        ``(wid, task_id, wire, scene_note)`` for :meth:`_ship`."""
        plans = []
        for wid in range(self.n_workers):
            if self._inflight[wid] is not None:
                continue
            while True:
                task_id = self._sched.next_for(wid)
                if task_id is None:
                    break
                plan = self._plan_one(wid, task_id)
                if plan is not None:
                    plans.append(plan)
                    break
        return plans

    def _plan_one(self, wid: int, task_id: int):
        """Plan one dispatch of ``task_id`` to idle worker ``wid``
        (lock held — only ``_plan_dispatches`` calls this)."""
        task = self._tasks.get(task_id)
        if task is None:
            return None
        if not task.started:
            # Crash-requeued tasks skip this: their future is RUNNING.
            if not task.future.set_running_or_notify_cancel():
                self._tasks.pop(task_id, None)
                return None
            task.started = True
        if task.kind == _w.TASK_TILE:
            key, full = task.scene
            if key in self._mirrors[wid]:
                scene_field = (_w.SCENE_HIT, key)
            else:
                scene_field = (_w.SCENE_SHIP, key, full)
            wire = (_w.TASK_TILE, task_id, scene_field, *task.payload)
            scene_note = (key, scene_field[0])
        else:
            fn, args, kwargs = task.payload
            wire = (_w.TASK_CALL, task_id, fn, args, kwargs)
            scene_note = None
        task.worker = wid
        self._inflight[wid] = task_id
        self._dispatched_at[wid] = time.monotonic()
        return (wid, task_id, wire, scene_note)

    def _ship(self, plans: list[tuple]) -> None:
        """Write planned wires to worker pipes (no lock held)."""
        # Dump-first: a crash incident must capture the dead worker's
        # spool checkpoint *before* the requeued task reaches the
        # respawned worker in the same slot — its first task_start
        # checkpoint would overwrite the evidence.
        self._flush_incidents()
        pending = list(plans)
        while pending:
            wid, task_id, wire, scene_note = pending.pop(0)
            try:
                directive = chaos.point("pool.dispatch")
                if directive is not None:
                    chaos.execute("pool.dispatch", directive)
                self._task_queues[wid].put(wire)
            except Exception as exc:
                with self._lock:
                    pending.extend(self._ship_failed(wid, task_id, exc))
                continue
            flight.record(obs_events.DISPATCH, "pool.dispatch",
                          worker=wid, task=task_id, task_kind=wire[0])
            if scene_note is not None:
                with self._lock:
                    # Commit the mirror only while the dispatch is still
                    # current: a crash that raced this write already
                    # cleared the slot (and the respawn's cache).
                    if self._inflight[wid] == task_id:
                        key, tag = scene_note
                        self._mirrors[wid].touch(key)
                        if tag == _w.SCENE_SHIP:
                            self._scene_ships += 1
                            get_registry().add("pool.scene_ships")
                        else:
                            self._scene_hits += 1
                            get_registry().add("pool.scene_cache_hits")
        self._flush_incidents()

    def _flush_incidents(self) -> None:
        """Dump incident bundles queued by crash/error paths (no lock
        held during the file writes)."""
        with self._lock:
            if not self._pending_incidents:
                return
            pending, self._pending_incidents = self._pending_incidents, []
        for reason, context in pending:
            flight.dump_incident(reason, **context)

    def _ship_failed(self, wid: int, task_id: int, exc) -> list[tuple]:
        """Recover from a failed pipe write (lock held); returns
        replacement ship plans."""
        if self._inflight[wid] != task_id:
            return self._plan_dispatches()  # a crash reap beat us to it
        if not self._procs[wid].is_alive():
            # The worker's pipe is gone — it crashed between dispatches.
            # The task is still marked in flight, so _on_crash requeues
            # it and plans work for the respawned slot.
            return self._on_crash(wid)
        self._inflight[wid] = None
        self._dispatched_at[wid] = None
        task = self._tasks.get(task_id)
        if isinstance(exc, OSError) and task is not None:
            # The worker is alive and the payload pickles — the write
            # itself failed (EINTR, momentary EAGAIN pressure, an
            # injected dispatch fault). Transient by construction:
            # retry with backoff, bounded by the same retry budget as
            # crashes, instead of failing work the fleet could do.
            task.retries += 1
            if task.retries <= self.max_task_retries:
                self._requeues += 1
                get_registry().add("pool.requeues")
                flight.record(obs_events.REQUEUE, "pool.dispatch_retry",
                              worker=wid, task=task_id,
                              retries=task.retries, error=repr(exc))
                self._park(task_id, task.retries)
                return self._plan_dispatches()
        # Persistent dispatch failure, or the payload wouldn't
        # serialize (unpicklable fn/args). Fail the task, free the slot.
        self._tasks.pop(task_id, None)
        self._failed += 1
        if task is not None and not task.future.done():
            task.future.set_exception(RemoteTaskError(
                f"task could not be shipped to worker {wid}: {exc!r}"))
        if not self._tasks:
            self._drained.notify_all()
        return self._plan_dispatches()

    def _collect(self) -> None:
        while True:
            with self._lock:
                pairs = [(wid, rx)
                         for wid, rx in enumerate(self._result_rx)
                         if rx is not None]
            try:
                ready, _, _ = select.select(
                    [rx for _, rx in pairs], [], [], 0.1)
            except (OSError, ValueError):
                # A pipe was retired/closed under us; resnapshot.
                if self._shutdown.is_set():
                    return
                continue
            if self._shutdown.is_set():
                return
            for wid, rx in pairs:
                if rx in ready:
                    for message in self._drain_rx(rx):
                        self._handle(message)
            self._reap_overdue()
            self._reap_crashes()
            self._release_parked()

    def _drain_rx(self, rx) -> list:
        """Read whatever is available on one result pipe (never blocks)
        and peel off complete length-prefixed frames.

        A partial frame — a worker killed mid-write — simply stays
        buffered: its pipe is retired by the respawn, so torn bytes can
        stall nothing but themselves.
        """
        with self._lock:
            buf = self._rx_bufs.setdefault(rx, bytearray())
        try:
            # select() said readable, so one read returns immediately:
            # data if there is any, b"" on EOF (worker gone — the crash
            # reaper owns that diagnosis).
            chunk = os.read(rx.fileno(), 1 << 20)
        except (OSError, ValueError):
            return []
        if not chunk:
            return []
        buf += chunk
        messages = []
        while True:
            if len(buf) < 4:
                break
            (size,) = struct.unpack_from("!i", buf, 0)
            offset = 4
            if size == -1:  # Connection's large-payload framing
                if len(buf) < 12:
                    break
                (size,) = struct.unpack_from("!Q", buf, 4)
                offset = 12
            if len(buf) < offset + size:
                break
            payload = bytes(buf[offset:offset + size])
            del buf[:offset + size]
            try:
                messages.append(pickle.loads(payload))
            except Exception:  # repro: lint-ok[broad-except] a corrupt frame from a dying worker must not kill the collector; the crash reaper requeues its task
                continue
        return messages

    def _handle(self, message) -> None:
        tag, wid, task_id = message[0], message[1], message[2]
        # Fold the worker's observability delta into this process before
        # taking the pool lock: the merge takes the registry lock, and
        # the delta is independent of pool state (the previously-lost
        # worker-side phase and per-tile timings land here).
        delta = message[5] if len(message) > 5 else None
        absorb_worker_delta(delta)
        registry = get_registry()
        with self._lock:
            if self._inflight[wid] == task_id:
                self._inflight[wid] = None
                self._dispatched_at[wid] = None
            task = self._tasks.pop(task_id, None)
            if task is not None:
                if tag == _w.RESULT_OK:
                    _, _, _, value, cost = message[:5]
                    self._completed += 1
                    registry.add("pool.tasks_completed")
                    flight.record(obs_events.COMPLETE, "pool.complete",
                                  worker=wid, task=task_id)
                    result = (value, cost) if task.kind == _w.TASK_TILE else value
                    if not task.future.done():
                        task.future.set_result(result)
                else:
                    _, _, _, error_repr, tb = message[:5]
                    self._failed += 1
                    registry.add("pool.tasks_failed")
                    flight.record(obs_events.ERROR, "pool.task_error",
                                  worker=wid, task=task_id, error=error_repr)
                    self._pending_incidents.append((
                        "remote-task-error",
                        {"worker": wid, "task": task_id,
                         "error": error_repr,
                         "task_summary": _task_summary(task)}))
                    if not task.future.done():
                        task.future.set_exception(RemoteTaskError(
                            f"task raised in worker {wid}: {error_repr}", tb))
            if not self._tasks:
                self._drained.notify_all()
            plans = self._plan_dispatches()
        self._ship(plans)

    def _reap_overdue(self) -> None:
        """The hung-worker watchdog: SIGKILL any worker that has held
        one task past ``task_deadline_s``; the ordinary crash reaper
        then owns the requeue/respawn. SIGKILL (not SIGTERM) because
        the canonical hang — a stopped or wedged process — never runs
        a milder handler. No-op when no deadline is configured."""
        if self.task_deadline_s is None:
            return
        victims = []
        now = time.monotonic()
        with self._lock:
            if not self._started or self._closed:
                return
            for wid, shipped in enumerate(self._dispatched_at):
                if shipped is None or self._inflight[wid] is None:
                    continue
                overdue = now - shipped
                if overdue <= self.task_deadline_s:
                    continue
                proc = self._procs[wid]
                if proc is None or not proc.is_alive():
                    continue  # already dead; the crash reaper owns it
                self._deadline_kills += 1
                self._watchdog_killed[wid] = overdue
                self._dispatched_at[wid] = None  # one kill per dispatch
                get_registry().add("pool.deadline_kills")
                flight.record(obs_events.ERROR, "pool.deadline_kill",
                              worker=wid, task=self._inflight[wid],
                              overdue_s=round(overdue, 3),
                              deadline_s=self.task_deadline_s)
                victims.append(proc)
        for proc in victims:
            proc.kill()

    def _park(self, task_id: int, retries: int) -> None:
        """Hold a requeued task until its exponential backoff expires
        (lock held; the collector releases ripe tasks). A zero backoff
        re-places immediately — the pre-backoff behavior."""
        if self.retry_backoff_s <= 0:
            task = self._tasks.get(task_id)
            if task is not None:
                self._sched.place(task_id, task.affinity)
            return
        delay = self.retry_backoff_s * (2 ** max(0, retries - 1))
        self._parked.append((time.monotonic() + delay, task_id))

    def _release_parked(self) -> None:
        """Re-place parked tasks whose backoff has expired."""
        plans = []
        with self._lock:
            if not self._parked:
                return
            now = time.monotonic()
            ripe = [entry for entry in self._parked if entry[0] <= now]
            if not ripe:
                return
            self._parked = [e for e in self._parked if e[0] > now]
            for _, task_id in ripe:
                task = self._tasks.get(task_id)
                if task is not None:
                    self._sched.place(task_id, task.affinity)
            plans = self._plan_dispatches()
        self._ship(plans)

    def _reap_crashes(self) -> None:
        plans = []
        with self._lock:
            if not self._started or self._closed:
                return
            for wid, proc in enumerate(self._procs):
                if proc is not None and not proc.is_alive():
                    plans.extend(self._on_crash(wid))
        self._ship(plans)

    def _on_crash(self, wid: int) -> list[tuple]:
        """Recover from a dead worker (lock held): requeue its work and
        respawn a fresh process into the slot. Returns ship plans.

        Forensics ride along: the crash (and any requeue) is recorded
        into the flight ring, and an incident-bundle descriptor is
        queued for :meth:`_flush_incidents` — the dump itself happens
        unlocked in ``_ship``, after recovery has already completed.
        """
        self._crashes += 1
        # Mirrored into the obs registry so `repro stats` snapshots and
        # the doctor see crash/requeue counts, not only callers holding
        # a pool reference (they used to live in executor-local fields
        # alone).
        get_registry().add("pool.crashes")
        proc = self._procs[wid]
        exitcode = proc.exitcode if proc is not None else None
        displaced = self._sched.drain_worker(wid)
        task_id = self._inflight[wid]
        self._inflight[wid] = None
        self._dispatched_at[wid] = None
        flight.record(obs_events.CRASH, "pool.worker_crash", worker=wid,
                      exitcode=exitcode, task=task_id)
        incident = {
            "worker": wid,
            "exitcode": exitcode,
            "task": task_id,
            "pool": {"workers": self.n_workers,
                     "pending": self._sched.total_pending(),
                     "crashes": self._crashes,
                     "requeues": self._requeues},
        }
        overdue = self._watchdog_killed.pop(wid, None)
        if overdue is not None:
            # This death was manufactured by our own watchdog; say so,
            # or the doctor would read the SIGKILL as an OOM kill.
            incident["watchdog_deadline_s"] = self.task_deadline_s
            incident["overdue_s"] = round(overdue, 3)
        if task_id is not None:
            task = self._tasks.get(task_id)
            incident["task_summary"] = _task_summary(task)
            if task is not None:
                task.retries += 1
                incident["retries"] = task.retries
                if task.fatal_pids is None:
                    task.fatal_pids = set()
                if proc is not None and proc.pid is not None:
                    task.fatal_pids.add(proc.pid)
                incident["fatal_pids"] = sorted(task.fatal_pids)
                if (self.poison_threshold is not None
                        and len(task.fatal_pids) >= self.poison_threshold):
                    # Poison quarantine: this one task has now killed
                    # N *distinct* processes. Requeueing it again just
                    # feeds it more workers — fail it fast instead.
                    self._tasks.pop(task_id, None)
                    self._failed += 1
                    self._quarantined += 1
                    get_registry().add("pool.quarantined")
                    self._pending_incidents.append((
                        "poison-task-quarantined", dict(incident)))
                    if not task.future.done():
                        task.future.set_exception(WorkerCrashError(
                            f"task {task_id} quarantined: killed "
                            f"{len(task.fatal_pids)} distinct workers "
                            f"(threshold {self.poison_threshold})"))
                    if not self._tasks:
                        self._drained.notify_all()
                elif task.retries > self.max_task_retries:
                    self._tasks.pop(task_id, None)
                    self._failed += 1
                    self._pending_incidents.append((
                        "task-retries-exhausted", dict(incident)))
                    if not task.future.done():
                        task.future.set_exception(WorkerCrashError(
                            f"worker died {task.retries} times while "
                            f"running task {task_id}"))
                    if not self._tasks:
                        self._drained.notify_all()
                else:
                    self._requeues += 1
                    get_registry().add("pool.requeues")
                    flight.record(obs_events.REQUEUE, "pool.requeue",
                                  worker=wid, task=task_id,
                                  retries=task.retries)
                    self._park(task_id, task.retries)
        self._pending_incidents.append(("worker-crash", incident))
        self._spawn(wid)
        for tid in displaced:
            task = self._tasks.get(tid)
            if task is not None:
                self._sched.place(tid, task.affinity)
        return self._plan_dispatches()

    # -- introspection --------------------------------------------------

    def utilization(self) -> float:
        """Fraction of workers currently running a task."""
        with self._lock:
            if not self._started:
                return 0.0
            busy = sum(1 for t in self._inflight if t is not None)
            return busy / self.n_workers

    def stats(self) -> dict:
        """One dict with every pool counter (the chaos drill and
        ``bench_pool.py`` report this)."""
        with self._lock:
            busy = sum(1 for t in self._inflight if t is not None)
            return {
                "workers": self.n_workers,
                "started": self._started,
                "busy_workers": busy,
                "pending": self._sched.total_pending(),
                "tasks_completed": self._completed,
                "tasks_failed": self._failed,
                "steals": self._sched.steals,
                "stolen_tasks": self._sched.stolen_tasks,
                "crashes": self._crashes,
                "requeues": self._requeues,
                "deadline_kills": self._deadline_kills,
                "quarantined": self._quarantined,
                "parked": len(self._parked),
                "scene_ships": self._scene_ships,
                "scene_cache_hits": self._scene_hits,
            }

