"""Tile decomposition and the multi-core tile scheduler.

A frame is embarrassingly parallel across pixels: the tracer carries no
cross-ray state, so any partition of the primary-ray bundle renders the
same image. The scheduler splits the frame into rectangular tiles,
renders them on a persistent :class:`~repro.pool.WorkerPool` (workers
hold content-hash-keyed scene caches, so repeated frames of one scene
ship only a hash), and scatters the tiles back into one
:class:`~repro.render.image.ImageBuffer`.

Pixel-exactness is the contract: the parent generates the *full* camera
bundle once and hands each worker verbatim slices of it, so a tiled
render — serial or parallel, any tile partition — is bit-identical to
the untiled render. (Re-deriving rays per tile could differ in the last
ulp; slicing cannot.) Tiles are a uniform grid; the pool's work
stealing balances uneven tile costs across workers. No scene key or
tile payload names an engine: there is one.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass

import numpy as np

from repro.bvh.flatten import flatten
from repro.bvh.monolithic import MonolithicBVH
from repro.bvh.two_level import TwoLevelBVH
from repro.gaussians import GaussianCloud
from repro.obs import get_registry, span
from repro.pool import WorkerPool, available_workers, scene_key
from repro.render.effects import SceneObjects
from repro.render.image import ImageBuffer
from repro.render.renderer import GaussianRayTracer, RenderResult, RenderStats
from repro.rt import TraceConfig


def available_cores() -> int:
    """Worker count for auto-sized schedulers/pools (affinity-aware).

    Honors the ``REPRO_WORKERS`` environment override and survives
    ``sched_getaffinity`` failures — see
    :func:`repro.pool.available_workers`, the single implementation.
    """
    return available_workers()


@dataclass(frozen=True)
class Tile:
    """One rectangular region of a frame (pixel coordinates)."""

    x0: int
    y0: int
    width: int
    height: int

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def pixel_ids(self, frame_width: int) -> np.ndarray:
        """Row-major global pixel ids covered by this tile."""
        rows = np.arange(self.y0, self.y0 + self.height, dtype=np.int64)
        cols = np.arange(self.x0, self.x0 + self.width, dtype=np.int64)
        return (rows[:, None] * frame_width + cols[None, :]).reshape(-1)


def split_frame(width: int, height: int, tile_width: int, tile_height: int) -> list[Tile]:
    """Cover a frame with tiles; edge tiles shrink to fit.

    Works for any frame/tile size combination, including frames smaller
    than one tile and non-divisible sizes (a 33x17 frame under 8x8 tiles
    gets 1-wide and 1-tall remainder tiles).
    """
    if width < 1 or height < 1:
        raise ValueError("frame dimensions must be positive")
    if tile_width < 1 or tile_height < 1:
        raise ValueError("tile dimensions must be positive")
    tiles = []
    for y0 in range(0, height, tile_height):
        for x0 in range(0, width, tile_width):
            tiles.append(Tile(
                x0=x0,
                y0=y0,
                width=min(tile_width, width - x0),
                height=min(tile_height, height - y0),
            ))
    return tiles


def _close_pool_quietly(pool: WorkerPool) -> None:
    try:
        pool.close(wait=False, timeout=2.0)
    except Exception:  # repro: lint-ok[broad-except] best-effort close at finalizer time; the process is going away and there is nobody to tell
        pass


class TileScheduler:
    """Fans a frame out over tiles and (optionally) a worker pool.

    Parameters
    ----------
    tile_size:
        ``(width, height)`` of a tile in pixels; every frame is cut into
        the uniform :func:`split_frame` grid of this size.
    workers:
        Process count. ``1`` renders tiles serially in-process (no pool,
        no pickling); ``>1`` uses a persistent
        :class:`~repro.pool.WorkerPool` created on first parallel render
        and **reused across frames** — workers keep scenes resident, so
        only the first frame of a scene pays the shipping cost. ``0`` or
        ``None`` means one worker per available core (``REPRO_WORKERS``
        honored).
    start_method:
        Forwarded to the pool. By default the method is chosen at pool
        start: ``fork`` (cheap scene shipping) when the process is still
        single-threaded, ``spawn`` otherwise — forking a multi-threaded
        process (e.g. from RenderServer dispatcher threads) can deadlock
        children on locks the fork snapshotted.
    pool:
        An existing :class:`~repro.pool.WorkerPool` to render on (shared
        with other schedulers/callers). The scheduler never closes a
        pool it was given; it only closes one it created.
    task_deadline_s:
        Per-tile wall-clock deadline forwarded to a pool this scheduler
        creates (the hung-worker watchdog; see
        :class:`~repro.pool.WorkerPool`). Ignored for a shared ``pool``
        the caller constructed — deadline policy belongs to the owner.
    """

    def __init__(
        self,
        tile_size: tuple[int, int] = (16, 16),
        workers: int | None = 1,
        start_method: str | None = None,
        pool: WorkerPool | None = None,
        task_deadline_s: float | None = None,
    ) -> None:
        self.tile_width, self.tile_height = int(tile_size[0]), int(tile_size[1])
        if self.tile_width < 1 or self.tile_height < 1:
            raise ValueError("tile dimensions must be positive")
        if workers is None or workers == 0:
            workers = available_cores()
        if workers < 1:
            raise ValueError("workers must be >= 1 (or 0/None for auto)")
        self.workers = workers
        self.start_method = start_method
        self.task_deadline_s = task_deadline_s
        #: The tile partition and measured cost (seconds) of the last
        #: multi-tile render: ``[(Tile, cost), ...]``.
        self.last_tile_costs: list[tuple[Tile, float]] = []
        self._pool = pool
        self._owns_pool = False
        self._pool_finalizer = None

    # -- pool lifecycle -------------------------------------------------

    @property
    def pool(self) -> WorkerPool | None:
        """The pool this scheduler renders on (None until first use)."""
        return self._pool

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(workers=self.workers,
                                    start_method=self.start_method,
                                    task_deadline_s=self.task_deadline_s)
            self._owns_pool = True
            # Schedulers are often created ad hoc (tests, benchmarks);
            # tie the owned pool's shutdown to the scheduler's lifetime
            # so dropped schedulers don't strand worker processes.
            self._pool_finalizer = weakref.finalize(
                self, _close_pool_quietly, self._pool)
        return self._pool

    def pool_stats(self) -> dict:
        """Counters of the underlying pool ({} before first pooled render)."""
        return self._pool.stats() if self._pool is not None else {}

    def close(self) -> None:
        """Release the scheduler's own pool (shared pools are untouched)."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        self._pool = None
        self._owns_pool = False

    def __enter__(self) -> "TileScheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- rendering ------------------------------------------------------

    def render(
        self,
        cloud: GaussianCloud,
        structure: MonolithicBVH | TwoLevelBVH,
        config: TraceConfig,
        camera,
        objects: SceneObjects | None = None,
        keep_traces: bool = False,
        force_serial: bool = False,
    ) -> RenderResult:
        """Render one frame tile-by-tile; returns a normal RenderResult.

        ``force_serial`` routes this one frame down the in-process
        serial path even when a pool is configured — the degradation
        path the server's pool-health circuit breaker uses. Serial and
        pooled renders are bit-identical by the standing contract
        (verbatim bundle slices), so the fallback is image-safe.

        Any camera type works: tiles are cut out of the camera's own
        full-frame bundle. Traces default to off (they are the expensive
        part to ship between processes); enable ``keep_traces`` when the
        caller needs a timing replay — the engine records them through
        its trace recorder, and pooled tile workers ship the per-ray
        traces back with their tile results, so a pooled trace-producing
        render still fans out across cores. The serial path builds one
        tracer for the frame; pool workers take theirs from their scene
        caches. A tile traced alone is bit-identical to the same rays
        traced inside the whole frame.  Pooled tiles ship the
        *flattened* structure (:func:`repro.bvh.flatten.flatten`):
        workers build the engine straight from the one SoA layout.
        """
        bundle = camera.generate_rays()

        registry = get_registry()
        tiles = split_frame(camera.width, camera.height,
                            self.tile_width, self.tile_height)
        if force_serial or self.workers <= 1 or len(tiles) <= 1:
            # Single-tile frames (frame <= tile size) render in-process:
            # there is nothing to parallelize, and booting/shipping to a
            # pool would only add latency.
            renderer = GaussianRayTracer(cloud, structure, config)
            with span("tiles.render", tiles=len(tiles), mode="serial"):
                parts, costs = [], []
                for tile in tiles:
                    ids = tile.pixel_ids(camera.width)
                    started = time.perf_counter()
                    parts.append(renderer.trace_rays(
                        bundle.origins[ids], bundle.directions[ids],
                        bundle.pixel_ids[ids], objects=objects,
                        keep_traces=keep_traces))
                    cost = time.perf_counter() - started
                    costs.append(cost)
                    registry.observe("tiles.tile_seconds", cost)
                if len(tiles) > 1:
                    self.last_tile_costs = list(zip(tiles, costs))
                return self._assemble(parts, camera, config, structure)

        key = scene_key(cloud, structure, config, objects)
        pool = self._ensure_pool()
        with span("tiles.render", tiles=len(tiles), mode="pooled"):
            # Workers receive the flattened SoA layout, not the original
            # structure objects; the key stays content-based on the
            # source structure (flatten is memoized, so warm frames pay
            # a lookup).
            flat = flatten(structure)
            with span("tiles.dispatch", tiles=len(tiles)):
                futures = []
                for tile in tiles:
                    ids = tile.pixel_ids(camera.width)
                    futures.append(pool.submit_tile(
                        cloud, flat, config, objects,
                        bundle.origins[ids], bundle.directions[ids],
                        bundle.pixel_ids[ids], keep_traces, key=key))
            parts, costs = [], []
            for future in futures:
                part, cost = future.result()
                parts.append(part)
                costs.append(cost)
                registry.observe("tiles.tile_seconds", cost)
            self.last_tile_costs = list(zip(tiles, costs))
            with span("tiles.reassemble", tiles=len(tiles)):
                return self._assemble(parts, camera, config, structure)

    @staticmethod
    def _assemble(parts, camera, config, structure) -> RenderResult:
        """Scatter tile results (in tile order) into one frame."""
        framebuffer = ImageBuffer(camera.width, camera.height)
        stats = RenderStats()
        traces = []
        for part in parts:
            framebuffer.scatter(part.pixel_ids, part.colors)
            stats.merge(part.stats)
            traces.extend(part.traces)

        return RenderResult(
            image=framebuffer.array,
            stats=stats,
            traces=traces,
            config=config,
            structure_bytes=structure.total_bytes,
        )
