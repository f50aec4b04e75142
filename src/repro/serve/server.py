"""The request-serving front end.

:class:`RenderServer` sits above the registry and the tile scheduler and
adds the two behaviors a service needs under repeated traffic:

* a **frame cache** — finished frames keyed by (scene content hash,
  camera, trace config), so an identical request is answered without
  tracing a single ray;
* **in-flight coalescing** — concurrent identical requests share one
  render: the first becomes the leader, the rest block on its completion
  and are answered from the fresh cache entry (the classic
  cache-stampede guard).

``render()`` is synchronous; ``submit()`` enqueues the same path onto a
**bounded** queue drained by a fixed set of dispatcher threads (no
thread-per-job: saturation rejects with :class:`ServerSaturated` instead
of growing without bound) and returns a
:class:`~repro.serve.request.RenderJob`; ``render_batch()`` dedupes a
whole batch, then renders its distinct frames concurrently through the
same dispatchers. The actual tracing fans out tile-by-tile on the
scheduler's persistent :class:`~repro.pool.WorkerPool`.
"""

from __future__ import annotations

import copy
import queue as queue_mod
import threading
import time
from typing import Callable

import repro.chaos as chaos
from repro.bvh import BuildParams
from repro.obs import MetricsRegistry, get_registry, span
from repro.obs import events as obs_events
from repro.obs import flight
from repro.pool import WorkerCrashError
from repro.render.renderer import RenderResult
from repro.serve.cache import LRUCache
from repro.serve.registry import SceneRegistry, params_key
from repro.serve.request import RenderJob, RenderRequest, RenderResponse
from repro.serve.tiles import TileScheduler


class ServerSaturated(RuntimeError):
    """``submit()`` was refused because the pending queue is full."""


class ServerMetrics:
    """Request counters and latency histograms for one server.

    A thin facade over a **private** :class:`~repro.obs.MetricsRegistry`
    (each server owns its own, so sequential servers in one process
    report exact per-server counts; the server merges it into the
    process-global registry on close). Counter fields of the old
    dataclass (``requests``, ``rendered``, ...) remain readable as
    attributes and in :meth:`snapshot` under their unprefixed names;
    inside the registry they live as ``serve.<name>``.

    ``gauges`` is an optional provider of instantaneous values (queue
    depth, worker utilization). In :meth:`snapshot` the provider's keys
    are namespaced ``gauge.<name>`` so a gauge can never shadow a
    counter (a provider returning ``rejected`` used to silently
    overwrite the rejection count), and the provider is deliberately
    called with **no lock held**: providers read other subsystems'
    state (the pool lock, the queue), and calling them under a metrics
    lock would order those locks.
    """

    _COUNTER_FIELDS = ("requests", "frame_hits", "coalesced", "rendered",
                       "rejected", "timed_out", "pool_fallbacks")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.gauges: Callable[[], dict] | None = None

    def count(self, field_name: str, amount: float = 1) -> None:
        self.registry.add(f"serve.{field_name}", amount)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the ``serve.<name>`` histogram."""
        self.registry.observe(f"serve.{name}", value)

    def __getattr__(self, name: str):
        if name in ServerMetrics._COUNTER_FIELDS:
            return int(self.registry.counter_value(f"serve.{name}"))
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def render_seconds(self) -> float:
        """Total seconds spent actually rendering (histogram sum, plus
        anything legacy callers added through ``count``)."""
        hist = self.registry.histogram("serve.render_seconds")
        total = hist.sum if hist is not None else 0.0
        return total + self.registry.counter_value("serve.render_seconds")

    @property
    def frame_hit_rate(self) -> float:
        requests = self.requests
        return self.frame_hits / requests if requests else 0.0

    def snapshot(self) -> dict[str, float]:
        data: dict[str, float] = {
            name: getattr(self, name) for name in self._COUNTER_FIELDS
        }
        data["render_seconds"] = round(self.render_seconds, 6)
        data["frame_hit_rate"] = round(self.frame_hit_rate, 4)
        for metric in ("latency", "queue_wait", "render_seconds"):
            hist = self.registry.histogram(f"serve.{metric}")
            if hist is not None:
                for q, value in hist.percentiles().items():
                    data[f"{metric}_{q}"] = round(value, 6)
        if self.gauges is not None:
            # Outside any lock, on purpose — see the class docstring.
            for name, value in self.gauges().items():
                data[f"gauge.{name}"] = value
        return data


class _CircuitBreaker:
    """Pool-health circuit breaker (consecutive-failure, cooldown).

    ``threshold`` consecutive pooled-render failures open the circuit
    for ``cooldown_s``; while open, renders run serially in-process
    (bit-identical by the tiling contract). After the cooldown the next
    render tries the pool again — a success closes the circuit, another
    failure re-opens it (classic half-open probe).
    """

    def __init__(self, threshold: int = 2, cooldown_s: float = 5.0) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown_s = float(cooldown_s)
        self._lock = threading.Lock()
        self._failures = 0
        self._open_until = 0.0

    def allow_pool(self) -> bool:
        with self._lock:
            return time.monotonic() >= self._open_until

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._open_until = 0.0

    def record_failure(self) -> bool:
        """Count one pooled failure; True when this one *opened* the
        circuit (the caller dumps a single incident per opening)."""
        with self._lock:
            self._failures += 1
            if self._failures < self.threshold:
                return False
            now = time.monotonic()
            was_closed = now >= self._open_until
            self._open_until = now + self.cooldown_s
            return was_closed

    def is_open(self) -> bool:
        with self._lock:
            return time.monotonic() < self._open_until


class _InFlight:
    """One leader-owned render that followers wait on."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: RenderResponse | None = None
        self.error: BaseException | None = None


class RenderServer:
    """Serves render requests with scene, structure, and frame caching.

    Parameters
    ----------
    registry:
        Scene/structure registry to use (a private one is created when
        omitted; pass ``cache_dir`` through it for disk persistence).
    frame_cache_size:
        Entries in the finished-frame LRU.
    tile_size / workers:
        Tiling configuration forwarded to :class:`TileScheduler`; with
        ``workers > 1`` tiles render on the scheduler's persistent
        worker pool, reused across frames.
    submit_workers:
        Dispatcher-thread count draining the ``submit()`` queue.
    max_pending:
        Bound on queued (not yet dispatched) jobs; ``submit()`` raises
        :class:`ServerSaturated` beyond it.
    pool:
        An existing :class:`~repro.pool.WorkerPool` to render on, shared
        with other servers/callers (one fleet per host); the server
        creates its own when omitted and ``workers > 1``.
    task_deadline_s:
        Per-tile deadline forwarded to the scheduler's pool (the
        hung-worker watchdog; see :class:`~repro.pool.WorkerPool`).
    circuit_threshold / circuit_cooldown_s:
        Pool-health circuit breaker: after ``circuit_threshold``
        consecutive pooled-render failures (:class:`WorkerCrashError` —
        quarantined poison tasks, retries exhausted), renders degrade to
        the serial in-process path for ``circuit_cooldown_s`` seconds.
        Serial output is bit-identical to pooled output by the tiling
        contract, so the degradation is invisible in pixels — it is
        counted (``pool_fallbacks``), gauged (``circuit_open``), and
        bundled (``pool-circuit-open``) instead.
    """

    def __init__(
        self,
        registry: SceneRegistry | None = None,
        frame_cache_size: int = 64,
        tile_size: tuple[int, int] = (16, 16),
        workers: int = 1,
        build_params: BuildParams | None = None,
        submit_workers: int = 2,
        max_pending: int = 64,
        pool=None,
        task_deadline_s: float | None = None,
        circuit_threshold: int = 2,
        circuit_cooldown_s: float = 5.0,
    ) -> None:
        self.registry = registry or SceneRegistry()
        self.scheduler = TileScheduler(tile_size=tile_size, workers=workers,
                                       pool=pool,
                                       task_deadline_s=task_deadline_s)
        self._breaker = _CircuitBreaker(threshold=circuit_threshold,
                                        cooldown_s=circuit_cooldown_s)
        self.build_params = build_params or BuildParams()
        self._frames = LRUCache(frame_cache_size, name="serve.frames")
        # Constructed tracers (shading setup is O(scene)) reused across
        # frames of the same (scene hash, proxy, params, engine, config)
        # in serial mode.
        self._tracers = LRUCache(16, name="serve.tracers")
        self._inflight: dict[tuple, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        self.metrics = ServerMetrics()
        self.metrics.gauges = self._gauges
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if submit_workers < 1:
            raise ValueError("submit_workers must be >= 1")
        self.max_pending = max_pending
        self.submit_workers = submit_workers
        self._queue: queue_mod.Queue = queue_mod.Queue(maxsize=max_pending)
        self._dispatchers: list[threading.Thread] = []
        self._dispatchers_busy = 0
        self._dispatch_lock = threading.Lock()
        self._closed = False
        self._obs_merged = False

    # -- sync API -------------------------------------------------------

    def render(self, request: RenderRequest) -> RenderResponse:
        """Serve one request: frame cache, then coalesce, then render."""
        if self._closed:
            raise RuntimeError("server is closed")
        return self._serve(request)

    def _serve(self, request: RenderRequest) -> RenderResponse:
        # The internal path skips the closed check so jobs already
        # accepted by submit() drain during close() instead of failing.
        with span("serve.request", scene=request.scene_ref.name,
                  width=request.width, height=request.height):
            return self._serve_inner(request)

    def _serve_inner(self, request: RenderRequest) -> RenderResponse:
        started = time.perf_counter()
        self.metrics.count("requests")
        directive = chaos.point("serve.request")
        if directive is not None:
            chaos.execute("serve.request", directive)

        cloud, scene_hash = self.registry.scene(request.scene_ref)
        key = request.frame_key(scene_hash)

        cached = self._frames.get(key)
        if cached is not None:
            self.metrics.count("frame_hits")
            return self._respond(request, cached, scene_hash, started,
                                 frame_cache_hit=True)

        entry, leader = self._join_or_lead(key)
        if not leader:
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            self.metrics.count("coalesced")
            result = entry.response
            return self._respond(request, result, scene_hash, started,
                                 coalesced=True)

        # Re-check under leadership: a previous leader may have finished
        # (and vacated the in-flight table) between our miss above and
        # now — the classic stampede window.
        cached = self._frames.get(key)
        if cached is not None:
            entry.response = cached
            entry.event.set()
            with self._inflight_lock:
                self._inflight.pop(key, None)
            self.metrics.count("frame_hits")
            return self._respond(request, cached, scene_hash, started,
                                 frame_cache_hit=True)

        try:
            result = self._render_now(request, cloud, scene_hash)
            self._frames.put(key, result)
            entry.response = result
        except BaseException as exc:
            entry.error = exc
            raise
        finally:
            entry.event.set()
            with self._inflight_lock:
                self._inflight.pop(key, None)
        return self._respond(request, result, scene_hash, started)

    def render_batch(self, requests: list[RenderRequest]) -> list[RenderResponse]:
        """Serve a batch, computing each distinct frame at most once.

        Distinct frames are dispatched concurrently through the submit
        dispatchers (backpressured, never rejected: a synchronous batch
        caller is its own flow control). Within-batch duplicates are
        answered from the response their first occurrence produced
        (counted as frame hits) — guaranteed even when the batch holds
        more distinct frames than the frame cache does.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        leaders: dict[tuple, RenderJob] = {}
        keys: list[tuple] = []
        for request in requests:
            _, scene_hash = self.registry.scene(request.scene_ref)
            key = request.frame_key(scene_hash)
            keys.append((key, scene_hash))
            if key not in leaders:
                leaders[key] = self._enqueue(request, block=True)
        responses = []
        seen: set[tuple] = set()
        for request, (key, scene_hash) in zip(requests, keys):
            started = time.perf_counter()
            lead = leaders[key].result()
            if key in seen:
                self.metrics.count("requests")
                self.metrics.count("frame_hits")
                responses.append(self._respond(request, lead, scene_hash,
                                               started, frame_cache_hit=True))
            else:
                seen.add(key)
                responses.append(lead)
        return responses

    # -- async API ------------------------------------------------------

    def submit(self, request: RenderRequest) -> RenderJob:
        """Queue a request; returns a job whose ``result()`` blocks.

        The pending queue is bounded by ``max_pending``; beyond it,
        submission fails fast with :class:`ServerSaturated` (classic
        load shedding) instead of buffering without limit.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        return self._enqueue(request, block=False)

    def _enqueue(self, request: RenderRequest, block: bool) -> RenderJob:
        self._ensure_dispatchers()
        job = RenderJob(request=request)
        job.enqueued_ns = time.time_ns()
        job.on_timeout = self._job_timed_out
        try:
            if block:
                self._queue.put(job)
            else:
                self._queue.put_nowait(job)
        except queue_mod.Full:
            self.metrics.count("rejected")
            flight.record(obs_events.SHED, "serve.shed",
                          scene=request.scene_ref.name,
                          max_pending=self.max_pending)
            # Shedding is by design, but *that* it happened is incident-
            # worthy: dump a (rate-limited) bundle so a saturation storm
            # leaves evidence of what the server was doing when it hit
            # the wall. Dumping is I/O, but we hold no server lock here
            # and the submitter was getting an exception anyway.
            flight.dump_incident("server-saturated",
                                 scene=request.scene_ref.name,
                                 max_pending=self.max_pending)
            raise ServerSaturated(
                f"submit queue is full ({self.max_pending} pending); "
                "retry later or raise max_pending") from None
        return job

    def _ensure_dispatchers(self) -> None:
        with self._dispatch_lock:
            if self._dispatchers:
                return
            for index in range(self.submit_workers):
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"repro-serve-{index}", daemon=True)
                thread.start()
                self._dispatchers.append(thread)

    def _dispatch_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if job.enqueued_ns:
                from repro.obs import emit_span

                dequeued_ns = time.time_ns()
                self.metrics.observe(
                    "queue_wait", (dequeued_ns - job.enqueued_ns) / 1e9)
                emit_span("serve.queue_wait", job.enqueued_ns, dequeued_ns,
                          scene=job.request.scene_ref.name)
            if not job.future.set_running_or_notify_cancel():
                # The waiter timed out and abandoned the job while it
                # sat queued — nobody wants this frame; skip the render.
                continue
            with self._dispatch_lock:
                self._dispatchers_busy += 1
            try:
                job.future.set_result(self._serve(job.request))
            except BaseException as exc:
                job.future.set_exception(exc)
            finally:
                with self._dispatch_lock:
                    self._dispatchers_busy -= 1

    def _job_timed_out(self, job: RenderJob, cancelled: bool) -> None:
        """Installed as every queued job's ``on_timeout`` hook."""
        self.metrics.count("timed_out")
        flight.record(obs_events.SHED, "serve.request_timeout",
                      scene=job.request.scene_ref.name,
                      cancelled=cancelled)

    def close(self) -> None:
        """Stop accepting work, drain queued jobs, release the pool."""
        self._closed = True
        with self._dispatch_lock:
            dispatchers = list(self._dispatchers)
        for _ in dispatchers:
            self._queue.put(None)  # FIFO: sentinels queue behind real jobs
        for thread in dispatchers:
            thread.join()
        # A submit() racing close() can slip a job in behind the
        # sentinels; fail anything left so no caller blocks forever.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue_mod.Empty:
                break
            if job is not None and not job.future.done():
                job.future.set_exception(RuntimeError("server is closed"))
        self.scheduler.close()
        # Fold this server's private metrics into the process-global
        # registry exactly once, so `repro stats` and obs snapshots see
        # servers that have come and gone. close() is idempotent.
        if not self._obs_merged:
            self._obs_merged = True
            get_registry().merge(self.metrics.registry.collect())

    def __enter__(self) -> "RenderServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- internals ------------------------------------------------------

    def _join_or_lead(self, key: tuple) -> tuple[_InFlight, bool]:
        with self._inflight_lock:
            entry = self._inflight.get(key)
            if entry is not None:
                return entry, False
            entry = self._inflight[key] = _InFlight()
            return entry, True

    def _render_now(self, request: RenderRequest, cloud, scene_hash: str) -> RenderResult:
        from repro.rt.wavefront import resolve_engine

        structure = self.registry.structure(
            request.scene_ref, request.proxy, self.build_params)
        camera = self._camera_for(request, cloud)
        config = request.trace_config()
        # Resolve the engine exactly once per rendered request (counting
        # a degraded explicit batched engine exactly once, whatever the
        # tracer cache holds), then hand the concrete engine to the
        # renderer and scheduler so nothing downstream re-resolves.
        engine = resolve_engine(request.engine, structure, config)
        renderer = None
        tracer_key = None
        if self.scheduler.workers <= 1:
            # Check the tracer *out* of the cache (pop, not get): Tracer
            # keeps per-ray scratch state, so two threads must never
            # trace through one instance concurrently. A concurrent
            # request simply builds its own.
            #
            # The key is content-based: scene hash + proxy + build
            # params + engine + the *full* TraceConfig. Keying by
            # id(cloud)/id(structure) let a recycled id of a dead scene
            # collide with a new one and serve a tracer built over the
            # wrong geometry, and omitting TraceConfig fields let a
            # cached renderer serve requests with a mismatched config
            # (the serial TileScheduler path traces with the passed
            # renderer's own config).
            tracer_key = (scene_hash, request.proxy,
                          params_key(self.build_params),
                          request.engine_active, config)
            renderer = self._tracers.pop(tracer_key)
            if renderer is None:
                from repro.render.renderer import GaussianRayTracer

                renderer = GaussianRayTracer(cloud, structure, config,
                                             engine=engine)
        pooled = self.scheduler.workers > 1
        force_serial = pooled and not self._breaker.allow_pool()
        t0 = time.perf_counter()
        try:
            with span("serve.render", scene=request.scene_ref.name,
                      engine=engine, width=request.width,
                      height=request.height):
                try:
                    result = self.scheduler.render(
                        cloud, structure, config, camera, renderer=renderer,
                        engine=engine, force_serial=force_serial)
                    if pooled and not force_serial:
                        self._breaker.record_success()
                except WorkerCrashError as exc:
                    if not pooled or force_serial:
                        raise
                    # The pool ate this frame (quarantined poison task,
                    # retries exhausted). The request is still
                    # servable: the serial path produces bit-identical
                    # pixels, so degrade — counted, gauged, and bundled,
                    # never silent.
                    opened = self._breaker.record_failure()
                    self.metrics.count("pool_fallbacks")
                    flight.record(obs_events.FALLBACK, "serve.pool_fallback",
                                  scene=request.scene_ref.name,
                                  error=repr(exc),
                                  circuit_open=self._breaker.is_open())
                    if opened:
                        flight.dump_incident(
                            "pool-circuit-open", error=repr(exc),
                            scene=request.scene_ref.name,
                            threshold=self._breaker.threshold,
                            cooldown_s=self._breaker.cooldown_s)
                    result = self.scheduler.render(
                        cloud, structure, config, camera, renderer=renderer,
                        engine=engine, force_serial=True)
        finally:
            if renderer is not None:
                self._tracers.put(tracer_key, renderer)
        self.metrics.count("rendered")
        self.metrics.observe("render_seconds", time.perf_counter() - t0)
        return result

    def _camera_for(self, request: RenderRequest, cloud):
        from repro.render import default_camera_for

        if request.camera != "pinhole":
            raise ValueError(
                f"unsupported camera {request.camera!r}; the service renders "
                "pinhole views (extend _camera_for to add more)")
        return default_camera_for(cloud, request.width, request.height)

    def _respond(
        self,
        request: RenderRequest,
        result: RenderResult | RenderResponse,
        scene_hash: str,
        started: float,
        frame_cache_hit: bool = False,
        coalesced: bool = False,
    ) -> RenderResponse:
        # Cached frames are shared between responses; hand out copies so
        # one caller mutating its image or stats cannot poison the cache.
        latency = time.perf_counter() - started
        self.metrics.observe("latency", latency)
        return RenderResponse(
            request=request,
            image=result.image.copy(),
            scene_hash=scene_hash,
            stats=copy.copy(result.stats),
            frame_cache_hit=frame_cache_hit,
            coalesced=coalesced,
            latency_s=latency,
        )

    # -- reporting ------------------------------------------------------

    def _gauges(self) -> dict[str, float]:
        """Instantaneous load gauges merged into metric snapshots.

        ``packet_fallbacks`` counts explicit batched-engine requests
        that degraded to the scalar tracer. It reads the registry
        counter ``rt.packet_fallbacks``: worker processes fold their
        fallback counts into that registry with every task result, so
        pooled renders whose fallback fired *inside a worker* are
        counted too.
        """
        pool = self.scheduler.pool
        with self._dispatch_lock:
            busy = self._dispatchers_busy
        return {
            "queue_depth": self._queue.qsize(),
            "max_pending": self.max_pending,
            "dispatchers_busy": busy,
            "worker_utilization": round(
                pool.utilization() if pool is not None else 0.0, 4),
            "packet_fallbacks": int(
                get_registry().counter_value("rt.packet_fallbacks")),
            "circuit_open": int(self._breaker.is_open()),
        }

    @property
    def frame_cache_stats(self):
        return self._frames.stats

    def stats_report(self) -> dict[str, object]:
        """One dict with every serving counter (metrics + caches + pool)."""
        return {
            "server": self.metrics.snapshot(),
            "frame_cache": self._frames.stats,
            "registry": self.registry.counters(),
            "pool": self.scheduler.pool_stats(),
            "obs": get_registry().snapshot(),
        }
