"""Load generator and throughput report for the render service.

Three measurements, matching the serve subsystem's claims:

1. **Tile-parallel speedup** — one cold frame rendered through the
   :class:`TileScheduler` with 1 worker and with N workers; wall-clock
   ratio. (This is a hardware measurement: on a single-core host the
   ratio is ~1x and the report says how many cores were available.)
2. **Cached throughput** — a deterministic repeated-request workload
   against a :class:`RenderServer`: requests/second, p50/p95 latency and
   the frame-cache hit rate.
3. **Build dedup** — distinct (scene, proxy) pairs vs. structures
   actually built; redundant builds must be zero.

Used by ``python -m repro serve-bench`` and by
``benchmarks/bench_serve_throughput.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.eval.report import format_table
from repro.obs import Histogram, get_registry
from repro.rt import TraceConfig
from repro.serve.registry import SceneRegistry
from repro.serve.request import RenderRequest
from repro.serve.server import RenderServer
from repro.serve.tiles import TileScheduler, available_cores


@dataclass
class BenchReport:
    """Human-readable report plus the raw numbers behind it."""

    report: str
    metrics: dict

    def __str__(self) -> str:
        return self.report


def _percentiles_ms(samples: list[float]) -> dict[str, float]:
    """p50/p95/p99 of a sample list in milliseconds.

    Goes through :class:`repro.obs.Histogram` — the same bucketed
    estimator the live metrics use — so the numbers here match what a
    registry snapshot of the identical samples would report.
    """
    hist = Histogram()
    for sample in samples:
        hist.observe(float(sample))
    return {q: value * 1e3 for q, value in hist.percentiles().items()}


def bench_tile_speedup(
    scene: str,
    size: int,
    scale: float,
    tile: int,
    workers: int,
    proxy: str | None = None,
    engine: str = "scalar",
) -> dict:
    """Wall-clock for one cold frame, 1 worker vs ``workers`` workers.

    The parallel scheduler renders a *second* frame on its persistent
    pool too: the warm frame ships only a scene hash to workers that
    already hold the scene, so ``t_warm_s`` vs ``t_parallel_s`` is the
    pool-reuse win (and the returned pool counters prove the cache hits
    and steals happened).

    The measured structure is the paper's headline ``tlas+sphere`` and
    the config the service's GRTX defaults (checkpointing on), for every
    engine.
    """
    if proxy is None:
        proxy = "tlas+sphere"
    registry = SceneRegistry()
    cloud, _ = registry.scene(RenderRequest(scene=scene, scale=scale).scene_ref)
    structure = registry.structure(RenderRequest(scene=scene, scale=scale).scene_ref, proxy)
    config = TraceConfig(k=8, checkpointing=True)
    from repro.render import default_camera_for

    camera = default_camera_for(cloud, size, size)

    timings = {}
    t_warm = None
    pool_stats: dict = {}
    tile_costs: list[float] = []
    worker_tile_costs: list[float] = []
    for n in dict.fromkeys((1, workers)):  # workers == 1: render once
        with TileScheduler(tile_size=(tile, tile), workers=n) as scheduler:
            t0 = time.perf_counter()
            result = scheduler.render(cloud, structure, config, camera,
                                      engine=engine)
            timings[n] = time.perf_counter() - t0
            assert result.stats.n_rays >= size * size
            if n == 1:
                tile_costs = [cost for _, cost in scheduler.last_tile_costs]
            if n > 1:
                t0 = time.perf_counter()
                warm = scheduler.render(cloud, structure, config, camera,
                                        engine=engine)
                t_warm = time.perf_counter() - t0
                assert warm.stats.n_rays >= size * size
                pool_stats = scheduler.pool_stats()
                # Worker-measured per-tile render costs: they rode back
                # with the task results, so this is the pool's view of
                # the same frame, not the parent's.
                worker_tile_costs = [cost for _, cost
                                     in scheduler.last_tile_costs]
    return {
        "frame": f"{size}x{size}",
        "tile": tile,
        "workers": workers,
        "engine": engine,
        "proxy": proxy,
        "cores_available": available_cores(),
        "t_serial_s": timings[1],
        "t_parallel_s": timings[workers],
        "t_warm_s": t_warm if t_warm is not None else timings[workers],
        "speedup": timings[1] / timings[workers] if timings[workers] > 0 else 0.0,
        "warm_speedup": (timings[1] / t_warm
                         if t_warm else
                         timings[1] / timings[workers] if timings[workers] else 0.0),
        "pool": pool_stats,
        "tile_latency_ms": _percentiles_ms(tile_costs),
        "worker_tile_latency_ms": _percentiles_ms(
            worker_tile_costs or tile_costs),
    }


def _workload_requests(
    scene: str, size: int, scale: float, proxies: tuple[str, ...],
    unique: int, total: int, engine: str = "scalar",
) -> list[RenderRequest]:
    """A deterministic repeated-request trace over ``unique`` configs.

    Raises :class:`ValueError` for degenerate workloads (no unique
    configs, or fewer total requests than unique configs).

    Distinct configs alternate proxies and step the k-buffer capacity —
    both are frame-key fields, and (proxy, k) pairs never repeat for any
    ``unique``, so each config really is a distinct cache entry. The
    repetition order is a fixed shuffle (rng seed 0): every unique config
    appears, and repeats arrive interleaved the way real traffic would.
    """
    if unique < 1:
        raise ValueError("--unique must be >= 1")
    if total < unique:
        raise ValueError(f"--requests ({total}) must be >= --unique ({unique})")
    uniques = [
        RenderRequest(
            scene=scene, scale=scale, width=size, height=size,
            proxy=proxies[i % len(proxies)], k=4 + i // len(proxies),
            engine=engine,
        )
        for i in range(unique)
    ]
    rng = np.random.default_rng(0)
    picks = list(range(unique)) + list(rng.integers(0, unique, size=total - unique))
    order = rng.permutation(len(picks))
    # Keep one guaranteed first-appearance of each unique config, then a
    # random mix; the permutation interleaves them.
    return [uniques[picks[i]] for i in order]


def bench_throughput(
    scene: str,
    size: int,
    scale: float,
    proxies: tuple[str, ...],
    unique: int,
    total: int,
    tile: int,
    engine: str = "scalar",
    workers: int = 1,
) -> dict:
    """Run the repeated-request workload through a server; measure.

    Requests go through the bounded ``submit()`` queue (sized to hold
    the whole burst) so the run exercises the dispatcher path and the
    mid-burst queue-depth / utilization gauges mean something. With
    ``workers > 1`` the cold renders fan out on the scheduler's pool —
    the full production path, and (when tracing) the path that puts
    server, scheduler, worker, and engine spans inside one request.
    """
    registry = SceneRegistry()
    requests = _workload_requests(scene, size, scale, proxies, unique, total,
                                  engine)
    with RenderServer(registry=registry, frame_cache_size=max(64, unique),
                      tile_size=(tile, tile), workers=workers,
                      max_pending=max(total, 1)) as server:
        # Client-observed latency = submit -> completion (including
        # queue wait, stamped by a done-callback; response.latency_s
        # only covers service time once a dispatcher picks the job up).
        done_at: dict[int, float] = {}
        t0 = time.perf_counter()
        jobs = []
        for index, request in enumerate(requests):
            job = server.submit(request)
            submitted = time.perf_counter()
            job.future.add_done_callback(
                lambda _fut, i=index, t=submitted:
                    done_at.__setitem__(i, time.perf_counter() - t))
            jobs.append(job)
        burst = server.metrics.snapshot()  # queue still loaded
        for job in jobs:
            job.result()
        wall = time.perf_counter() - t0
        latencies = [done_at[i] for i in range(len(jobs))]
        snapshot = server.stats_report()

    distinct_pairs = {(req.scene_ref.key, req.proxy) for req in requests}
    builds = registry.builds
    served = snapshot["server"]
    cached = served["frame_hits"] + served["coalesced"]
    client = _percentiles_ms(latencies)
    return {
        "requests": total,
        "unique_configs": unique,
        "wall_s": wall,
        "throughput_rps": total / wall if wall > 0 else 0.0,
        "p50_ms": client["p50"],
        "p95_ms": client["p95"],
        "p99_ms": client["p99"],
        # Server-side view of the same traffic (service time once a
        # dispatcher picks the job up), from the server's own registry.
        "server_latency_ms": {
            q: served.get(f"latency_{q}", 0.0) * 1e3
            for q in ("p50", "p95", "p99")},
        "queue_wait_ms": {
            q: served.get(f"queue_wait_{q}", 0.0) * 1e3
            for q in ("p50", "p95", "p99")},
        "frame_hit_rate": served["frame_hit_rate"],
        "frame_hits": served["frame_hits"],
        "coalesced": served["coalesced"],
        "cache_served_rate": cached / total if total else 0.0,
        "rendered": served["rendered"],
        "rejected": served["rejected"],
        "queue_depth_burst": burst["gauge.queue_depth"],
        "max_pending": served["gauge.max_pending"],
        "worker_utilization": served["gauge.worker_utilization"],
        "distinct_scene_proxy_pairs": len(distinct_pairs),
        "bvh_builds": builds,
        "redundant_builds": builds - len(distinct_pairs),
        "obs": snapshot["obs"],
    }


def run_benchmark(
    scene: str = "train",
    size: int = 64,
    request_size: int = 24,
    scale: float = 1.0 / 2000.0,
    tile: int = 16,
    workers: int = 4,
    requests: int = 60,
    unique: int = 5,
    proxies: tuple[str, ...] | None = None,
    engine: str = "scalar",
) -> BenchReport:
    """Run all three measurements and format the report.

    Every engine measures the service's GRTX defaults (checkpointing
    on) over its two-level-plus-monolithic proxy mix.
    """
    if proxies is None:
        proxies = ("tlas+sphere", "20-tri")
    speedup = bench_tile_speedup(scene, size, scale, tile, workers,
                                 engine=engine)
    traffic = bench_throughput(scene, request_size, scale, proxies,
                               unique, requests, tile, engine,
                               workers=workers)

    pool_stats = speedup.get("pool") or {}
    tile_lat = speedup["tile_latency_ms"]
    worker_lat = speedup["worker_tile_latency_ms"]
    server_lat = traffic["server_latency_ms"]
    build_hist = (traffic["obs"].get("histograms") or {}).get(
        "serve.build_seconds") or {}
    build_lat = {q: build_hist.get(q, 0.0) * 1e3 for q in ("p50", "p95", "p99")}

    def _pcols(lat: dict) -> list[str]:
        return [f"{lat['p50']:.2f}", f"{lat['p95']:.2f}", f"{lat['p99']:.2f}"]

    sections = [
        format_table(
            f"serve-bench 1/4: tile-parallel speedup (cold {speedup['frame']} "
            f"{speedup['proxy']} frame, {engine} engine, "
            f"{speedup['cores_available']} core(s) available)",
            ["tile", "workers", "serial (s)", "parallel (s)", "warm (s)",
             "speedup", "warm speedup",
             "tile p50 (ms)", "tile p95 (ms)", "tile p99 (ms)"],
            [[f"{tile}x{tile}", speedup["workers"],
              f"{speedup['t_serial_s']:.2f}", f"{speedup['t_parallel_s']:.2f}",
              f"{speedup['t_warm_s']:.2f}",
              f"{speedup['speedup']:.2f}x", f"{speedup['warm_speedup']:.2f}x"]
             + _pcols(tile_lat)],
        ),
        format_table(
            "serve-bench 2/4: worker pool (persistent, work-stealing; tile "
            "latencies are worker-measured, shipped back with results)",
            ["workers", "tasks", "steals", "scene ships", "scene cache hits",
             "crashes", "tile p50 (ms)", "tile p95 (ms)", "tile p99 (ms)"],
            [[pool_stats.get("workers", workers),
              pool_stats.get("tasks_completed", 0),
              pool_stats.get("steals", 0),
              pool_stats.get("scene_ships", 0),
              pool_stats.get("scene_cache_hits", 0),
              pool_stats.get("crashes", 0)] + _pcols(worker_lat)],
        ),
        format_table(
            f"serve-bench 3/4: cached throughput ({requests} requests, "
            f"{unique} unique configs, {request_size}x{request_size}, "
            f"{engine} engine, bounded submit queue; p50/p95/p99 are "
            "client-observed submit-to-completion)",
            ["throughput (req/s)", "p50 (ms)", "p95 (ms)", "p99 (ms)",
             "service p50/p95/p99 (ms)", "served from cache",
             "burst queue depth", "rejected"],
            [[f"{traffic['throughput_rps']:.1f}", f"{traffic['p50_ms']:.3f}",
              f"{traffic['p95_ms']:.1f}", f"{traffic['p99_ms']:.1f}",
              "/".join(_pcols(server_lat)),
              f"{traffic['cache_served_rate']:.1%}",
              f"{traffic['queue_depth_burst']}/{traffic['max_pending']}",
              traffic["rejected"]]],
        ),
        format_table(
            "serve-bench 4/4: BVH build dedup (build latencies are "
            "process-wide serve.build_seconds)",
            ["distinct (scene, proxy)", "structures built", "redundant builds",
             "build p50 (ms)", "build p95 (ms)", "build p99 (ms)"],
            [[traffic["distinct_scene_proxy_pairs"], traffic["bvh_builds"],
              traffic["redundant_builds"]] + _pcols(build_lat)],
        ),
    ]
    summary = (
        f"summary: speedup {speedup['speedup']:.2f}x cold / "
        f"{speedup['warm_speedup']:.2f}x warm with {workers} workers "
        f"on {speedup['cores_available']} core(s) | "
        f"served from cache {traffic['cache_served_rate']:.1%} | "
        f"redundant BVH builds {traffic['redundant_builds']}"
    )
    return BenchReport(
        report="\n\n".join(sections) + "\n\n" + summary,
        metrics={"speedup": speedup, "traffic": traffic},
    )
