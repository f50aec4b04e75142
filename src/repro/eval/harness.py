"""Shared experiment infrastructure.

Every figure in the paper is regenerated from a handful of (scene,
structure, tracing-mode) render configurations; this module builds and
caches them so the benchmark suite runs each expensive render exactly
once per session. Scales are reduced relative to the paper (see
EXPERIMENTS.md): scenes are generated at ``BENCH_SCALE`` of their trained
Gaussian counts and rendered at ``BENCH_RESOLUTION`` — both overridable
through the ``GRTX_BENCH_SCALE`` / ``GRTX_BENCH_RES`` environment
variables for higher-fidelity (slower) runs. A config names no engine:
every run records on the one batched engine.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bvh import BuildParams, build_monolithic, build_two_level, structure_stats
from repro.bvh.stats import BVHStats
from repro.gaussians import GaussianCloud, make_workload
from repro.gaussians.synthetic import WORKLOAD_ORDER
from repro.hwsim import GpuConfig, TimingReport, replay
from repro.obs import get_registry, span
from repro.render import GaussianRayTracer, PinholeCamera, SceneObjects, default_camera_for
from repro.render.renderer import RenderStats
from repro.rt import TraceConfig

#: Canonical scene ordering used by every figure.
SCENES = list(WORKLOAD_ORDER)

#: Default down-scale of the paper's Gaussian counts for benchmarks.
BENCH_SCALE = float(os.environ.get("GRTX_BENCH_SCALE", 1.0 / 400.0))

#: Default render resolution for benchmarks (paper: 128x128).
_res = int(os.environ.get("GRTX_BENCH_RES", 20))
BENCH_RESOLUTION = (_res, _res)

#: Structure labels used throughout the evaluation.
PROXIES = ("20-tri", "80-tri", "custom", "tlas+20-tri", "tlas+80-tri", "tlas+sphere")

_cloud_cache: dict = {}
_structure_cache: dict = {}
_run_cache: dict = {}

#: Guards every mutation of the three memo dicts above. Builds happen
#: outside the lock (a duplicate build is benign; holding the lock
#: through a render would serialize the world), writes inside it.
_caches_lock = threading.Lock()


def clear_caches() -> None:
    """Drop all cached clouds, structures and runs (tests use this)."""
    with _caches_lock:
        _cloud_cache.clear()
        _structure_cache.clear()
        _run_cache.clear()


def get_cloud(scene: str, scale: float | None = None) -> GaussianCloud:
    """The (cached) synthetic Gaussian cloud for one workload.

    ``scale`` defaults to the *current* ``BENCH_SCALE`` (read at call
    time, so tests and campaigns that shrink the module attribute are
    honored).
    """
    if scale is None:
        scale = BENCH_SCALE
    key = (scene, scale)
    if key not in _cloud_cache:
        cloud = make_workload(scene, scale=scale)
        with _caches_lock:
            _cloud_cache.setdefault(key, cloud)
    return _cloud_cache[key]


def build_structure_for(cloud: GaussianCloud, proxy: str,
                        params: BuildParams | None = None):
    """Build the acceleration structure named by a proxy label.

    The labels are the ones used throughout the evaluation (PROXIES):
    monolithic ``20-tri`` / ``80-tri`` / ``custom`` and two-level
    ``tlas+20-tri`` / ``tlas+80-tri`` / ``tlas+sphere``.
    """
    params = params or BuildParams()
    if proxy in ("20-tri", "80-tri", "custom"):
        return build_monolithic(cloud, proxy, params)
    if proxy == "tlas+20-tri":
        return build_two_level(cloud, "icosphere", 0, params)
    if proxy == "tlas+80-tri":
        return build_two_level(cloud, "icosphere", 1, params)
    if proxy == "tlas+sphere":
        return build_two_level(cloud, "sphere", params=params)
    raise ValueError(f"unknown proxy {proxy!r}")


def get_structure(scene: str, proxy: str, scale: float | None = None, width: int = 6):
    """The (cached) acceleration structure for one workload."""
    if scale is None:
        scale = BENCH_SCALE
    key = (scene, proxy, scale, width)
    if key not in _structure_cache:
        cloud = get_cloud(scene, scale)
        structure = build_structure_for(cloud, proxy, BuildParams(width=width))
        with _caches_lock:
            _structure_cache.setdefault(key, structure)
    return _structure_cache[key]


@dataclass
class CachedRun:
    """One fully evaluated render: image + functional stats + timing."""

    scene: str
    proxy: str
    image: np.ndarray
    stats: RenderStats
    timing: TimingReport
    bvh: BVHStats
    config: TraceConfig
    structure_bytes: int = 0
    raster_cycles: float = 0.0

    @property
    def cycles(self) -> float:
        return self.timing.cycles

    @property
    def time_ms(self) -> float:
        return self.timing.time_ms


def normalize_config(
    scene: str,
    proxy: str = "20-tri",
    k: int = 8,
    mode: str = "multiround",
    checkpointing: bool = False,
    scale: float | None = None,
    resolution: tuple[int, int] | None = None,
    fov_mode: str = "original",
    objects: bool = False,
    kbuffer_layout: str = "soa",
    gpu: str = "rtx",
    prefetch: bool = True,
    width: int = 6,
) -> dict:
    """Resolve a run_config kwarg set to fully explicit values.

    ``scale``/``resolution`` defaults are read from the *current*
    ``BENCH_SCALE``/``BENCH_RESOLUTION``, so a normalized config means
    the same render everywhere — in this process, or shipped to a pool
    worker whose module defaults may differ.
    """
    return dict(
        scene=scene, proxy=proxy, k=k, mode=mode, checkpointing=checkpointing,
        scale=BENCH_SCALE if scale is None else scale,
        resolution=tuple(resolution or BENCH_RESOLUTION),
        fov_mode=fov_mode, objects=objects, kbuffer_layout=kbuffer_layout,
        gpu=gpu, prefetch=prefetch, width=width,
    )


def _config_key(cfg: dict) -> tuple:
    """Run-cache key of a normalized config (field order is stable)."""
    return (cfg["scene"], cfg["proxy"], cfg["k"], cfg["mode"],
            cfg["checkpointing"], cfg["scale"], cfg["resolution"],
            cfg["fov_mode"], cfg["objects"], cfg["kbuffer_layout"],
            cfg["gpu"], cfg["prefetch"], cfg["width"])


def run_config(scene: str, **kwargs) -> CachedRun:
    """Render one configuration (cached) and replay it for timing.

    Accepts the keyword set of :func:`normalize_config`. ``fov_mode``:
    ``"original"`` keeps the default 60-degree FoV at any resolution
    (Figure 19a's low-coherence setting); ``"cropped"`` scales the FoV
    down with the resolution (Figure 19b).
    """
    cfg = normalize_config(scene, **kwargs)
    key = _config_key(cfg)
    if key in _run_cache:
        get_registry().add("campaign.run_cache_hits")
        return _run_cache[key]
    with span("campaign.run", scene=cfg["scene"], proxy=cfg["proxy"],
              mode=cfg["mode"], checkpointing=cfg["checkpointing"]):
        run = _run_config_uncached(cfg)
    with _caches_lock:
        _run_cache[key] = run
    return run


def _run_config_uncached(cfg: dict) -> CachedRun:
    registry = get_registry()
    registry.add("campaign.runs")
    scene = cfg["scene"]
    scale, resolution = cfg["scale"], cfg["resolution"]
    proxy, kbuffer_layout = cfg["proxy"], cfg["kbuffer_layout"]
    cloud = get_cloud(scene, scale)
    structure = get_structure(scene, proxy, scale, cfg["width"])
    config = TraceConfig(k=cfg["k"], mode=cfg["mode"],
                         checkpointing=cfg["checkpointing"],
                         kbuffer_layout=kbuffer_layout)
    camera = default_camera_for(cloud, 64, 64)
    if cfg["fov_mode"] == "cropped":
        camera = camera.cropped(*resolution)
    else:
        camera = camera.with_resolution(*resolution)

    scene_objects = SceneObjects.default_for(cloud) if cfg["objects"] else None
    renderer = GaussianRayTracer(cloud, structure, config)
    t0 = time.perf_counter()
    result = renderer.render(camera, objects=scene_objects)
    registry.observe("campaign.render_seconds", time.perf_counter() - t0)

    if cfg["gpu"] == "rtx":
        gpu_config = GpuConfig.rtx_like()
    elif cfg["gpu"] == "amd":
        gpu_config = GpuConfig.amd_like(scene_scale=scale)
    else:
        raise ValueError(f"unknown gpu {cfg['gpu']!r}")
    if not cfg["prefetch"]:
        from dataclasses import replace
        gpu_config = replace(gpu_config, prefetch_enabled=False)

    t0 = time.perf_counter()
    timing = replay(result.traces, gpu_config, kbuffer_layout=kbuffer_layout)
    registry.observe("campaign.replay_seconds", time.perf_counter() - t0)
    result.drop_traces()

    return CachedRun(
        scene=scene,
        proxy=proxy,
        image=result.image,
        stats=result.stats,
        timing=timing,
        bvh=structure_stats(structure),
        config=config,
        structure_bytes=structure.total_bytes,
    )


def parallel_run_configs(configs: list[dict], pool=None,
                         workers: int | None = None) -> list[CachedRun]:
    """Evaluate many :func:`run_config` calls across a worker pool.

    Configs are normalized (fully explicit, so workers reproduce them
    bit-exactly whatever their own module defaults are), deduplicated,
    fanned out with per-scene affinity — tasks for one scene land on the
    worker already holding its cloud/structure caches — and the results
    are installed into this process's ``_run_cache``, so subsequent
    ``run_config`` calls (e.g. the experiment functions assembling
    tables) are cache hits. Returns the runs aligned with ``configs``.

    ``pool`` shares an existing :class:`repro.pool.WorkerPool`; without
    one, a private pool of ``workers`` processes is created for the call.
    """
    normalized = [normalize_config(**cfg) for cfg in configs]
    keys = [_config_key(cfg) for cfg in normalized]
    owns_pool = pool is None
    if owns_pool:
        from repro.pool import WorkerPool

        pool = WorkerPool(workers=workers)
    try:
        futures: dict[tuple, object] = {}
        for cfg, key in zip(normalized, keys):
            if key in _run_cache or key in futures:
                continue
            futures[key] = pool.submit(run_config, affinity=cfg["scene"], **cfg)
        for key, future in futures.items():
            run = future.result()
            with _caches_lock:
                _run_cache[key] = run
    finally:
        if owns_pool:
            pool.close()
    return [_run_cache[key] for key in keys]


# The four end-to-end configurations of Figure 13.
FIG13_CONFIGS = {
    "Baseline": dict(proxy="20-tri", checkpointing=False),
    "GRTX-SW": dict(proxy="tlas+20-tri", checkpointing=False),
    "GRTX-HW": dict(proxy="20-tri", checkpointing=True),
    "GRTX": dict(proxy="tlas+20-tri", checkpointing=True),
}
