"""Worker-pool benchmark (standalone script).

Two measurements, matching the ``repro.pool`` subsystem's claims:

1. **Pool reuse** — ``--frames`` repeated frames of one scene rendered
   (a) the old way: a fresh pool constructed and torn down per render,
   re-shipping the scene every frame, vs (b) on one persistent
   :class:`~repro.pool.WorkerPool`, where warm frames ship only a scene
   hash. Every pooled frame is checked bit-identical to the serial
   reference (parity failures exit non-zero regardless of ``--check``).
2. **Work stealing** — a deliberately skewed task load (every task
   placed on one worker's deque by affinity) timed with stealing on vs
   off. Uses synthetic sleep tasks so the skew is exact and the expected
   ratio is known (~``workers``x). Frames are cut into a uniform tile
   grid, so stealing is the pool's only load balancer.

Unlike the figure benchmarks in this directory (which run under
``pytest --benchmark-only``), this is a plain script::

    python benchmarks/bench_pool.py [--check] [--min-speedup 1.2]

``--check`` gates on speed: non-zero exit when pool reuse is below
``--min-speedup`` or stealing is below ``--min-steal-ratio``. Results
are printed as a table and written machine-readable to
``benchmarks/results/BENCH_pool.json`` (``--out`` overrides).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# Allow running straight from a checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from bench_schema import write_bench_json

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="persistent-pool reuse and work stealing")
    parser.add_argument("--scene", default="train")
    parser.add_argument("--size", type=int, default=48,
                        help="frame width=height (default 48)")
    parser.add_argument("--scale", type=float, default=1 / 2000.0)
    parser.add_argument("--proxy", default="tlas+sphere")
    parser.add_argument("--tile", type=int, default=16, help="tile edge")
    parser.add_argument("--frames", type=int, default=3,
                        help="repeated frames per pool variant")
    parser.add_argument("--start-method", default="spawn",
                        choices=["spawn", "fork", "forkserver"],
                        help="pool start method for the reuse measurement. "
                             "Default spawn: that is what the serving path "
                             "uses (its dispatcher threads make fork "
                             "unsafe), and it is where per-render pools "
                             "hurt most — every frame re-boots workers "
                             "and re-ships the scene.")
    parser.add_argument("--workers", type=int, default=2,
                        help="pool width (0 = auto, honors REPRO_WORKERS)")
    parser.add_argument("--steal-tasks", type=int, default=12,
                        help="synthetic tasks in the stealing measurement")
    parser.add_argument("--steal-sleep", type=float, default=0.05,
                        help="seconds each synthetic task sleeps")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="persistent-vs-fresh-pool speedup required "
                             "by --check")
    parser.add_argument("--min-steal-ratio", type=float, default=1.2,
                        help="no-steal/steal wall-clock ratio required "
                             "by --check (skipped on 1 worker)")
    parser.add_argument("--out", default=str(RESULTS_DIR / "BENCH_pool.json"),
                        help="machine-readable output path")
    parser.add_argument("--check", action="store_true",
                        help="gate on the speed bars (parity is always "
                             "checked and always fatal)")
    return parser.parse_args(argv)


def _sleep_task(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def bench_pool_reuse(args) -> dict:
    """Repeated frames: fresh pool per render vs one persistent pool."""
    from repro.eval.harness import build_structure_for
    from repro.gaussians import make_workload
    from repro.render import GaussianRayTracer, default_camera_for
    from repro.rt import TraceConfig
    from repro.serve.tiles import TileScheduler

    cloud = make_workload(args.scene, scale=args.scale)
    structure = build_structure_for(cloud, args.proxy)
    config = TraceConfig(k=8, checkpointing=True)
    camera = default_camera_for(cloud, args.size, args.size)
    reference = GaussianRayTracer(cloud, structure, config).render(camera)

    def check_parity(result, label: str) -> None:
        if not np.array_equal(result.image, reference.image):
            raise SystemExit(f"PARITY FAILURE: {label} frame differs from "
                             "the serial reference")

    fresh_times = []
    for frame in range(args.frames):
        t0 = time.perf_counter()
        with TileScheduler(tile_size=(args.tile, args.tile),
                           workers=args.workers,
                           start_method=args.start_method) as scheduler:
            result = scheduler.render(cloud, structure, config, camera)
        fresh_times.append(time.perf_counter() - t0)
        check_parity(result, f"fresh-pool #{frame}")

    warm_times = []
    with TileScheduler(tile_size=(args.tile, args.tile),
                       workers=args.workers,
                       start_method=args.start_method) as scheduler:
        for frame in range(args.frames):
            t0 = time.perf_counter()
            result = scheduler.render(cloud, structure, config, camera)
            warm_times.append(time.perf_counter() - t0)
            check_parity(result, f"persistent-pool #{frame}")
        pool_stats = scheduler.pool_stats()

    fresh = sum(fresh_times) / len(fresh_times)
    warm = sum(warm_times) / len(warm_times)
    return {
        "frames": args.frames,
        "frame": f"{args.size}x{args.size}",
        "proxy": args.proxy,
        "start_method": args.start_method,
        "workers": pool_stats.get("workers", args.workers or 1),
        "fresh_pool_s_per_frame": fresh,
        "persistent_pool_s_per_frame": warm,
        "persistent_warmest_s": min(warm_times),
        "speedup": fresh / warm if warm > 0 else 0.0,
        "parity": "bit-identical",
        "pool": pool_stats,
    }


def bench_stealing(args) -> dict:
    """Skewed synthetic load, stealing on vs off."""
    from repro.pool import WorkerPool

    walls = {}
    stats = {}
    for stealing in (True, False):
        with WorkerPool(workers=args.workers, stealing=stealing) as pool:
            t0 = time.perf_counter()
            futures = [pool.submit(_sleep_task, args.steal_sleep,
                                   affinity="skewed")
                       for _ in range(args.steal_tasks)]
            for future in futures:
                future.result()
            walls[stealing] = time.perf_counter() - t0
            stats[stealing] = pool.stats()
    return {
        "tasks": args.steal_tasks,
        "task_seconds": args.steal_sleep,
        "workers": stats[True]["workers"],
        "wall_no_steal_s": walls[False],
        "wall_steal_s": walls[True],
        "steal_ratio": walls[False] / walls[True] if walls[True] > 0 else 0.0,
        "steals": stats[True]["steals"],
        "stolen_tasks": stats[True]["stolen_tasks"],
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    from repro.eval.report import format_table
    from repro.pool import available_workers

    # The stealing section needs a real fleet; gate it (and its --check
    # bar) on the *resolved* width so --workers 0 on a one-core host
    # degrades instead of failing.
    resolved_workers = args.workers or available_workers()
    multi = resolved_workers > 1

    reuse = bench_pool_reuse(args)
    stealing = bench_stealing(args) if multi else None

    sections = [
        format_table(
            f"pool 1/2: persistent pool vs per-render pool "
            f"({reuse['frames']} x {reuse['frame']} {reuse['proxy']} frames, "
            f"{reuse['workers']} workers, parity {reuse['parity']})",
            ["fresh pool (s/frame)", "persistent (s/frame)", "speedup",
             "scene ships", "scene cache hits"],
            [[f"{reuse['fresh_pool_s_per_frame']:.3f}",
              f"{reuse['persistent_pool_s_per_frame']:.3f}",
              f"{reuse['speedup']:.2f}x",
              reuse["pool"].get("scene_ships", 0),
              reuse["pool"].get("scene_cache_hits", 0)]],
        ),
    ]
    if stealing is not None:
        sections.append(format_table(
            f"pool 2/2: work stealing ({stealing['tasks']} x "
            f"{stealing['task_seconds']*1e3:.0f} ms tasks, all placed on "
            f"one of {stealing['workers']} workers)",
            ["no stealing (s)", "stealing (s)", "ratio", "steals",
             "stolen tasks"],
            [[f"{stealing['wall_no_steal_s']:.3f}",
              f"{stealing['wall_steal_s']:.3f}",
              f"{stealing['steal_ratio']:.2f}x",
              stealing["steals"], stealing["stolen_tasks"]]],
        ))
    if not multi:
        sections.append("(work-stealing section skipped: pool resolves "
                        "to 1 worker)")
    report = "\n\n".join(sections)
    print(report)

    out = write_bench_json(
        args.out, "pool",
        config={"scene": args.scene, "size": args.size,
                "scale": args.scale, "proxy": args.proxy,
                "tile": args.tile, "frames": args.frames,
                "start_method": args.start_method,
                "workers": resolved_workers,
                "steal_tasks": args.steal_tasks,
                "steal_sleep": args.steal_sleep},
        sections={"pool_reuse": reuse, "work_stealing": stealing})
    print(f"\nwrote {out}")

    if args.check:
        failures = []
        if not multi:
            # Parity was still checked (and is fatal) above; the speed
            # bars need a real fleet.
            print("check ok: parity only (pool resolves to 1 worker; "
                  "speed bars skipped)")
            return 0
        if reuse["speedup"] < args.min_speedup:
            failures.append(
                f"pool reuse speedup {reuse['speedup']:.2f}x < "
                f"{args.min_speedup:.2f}x")
        if stealing is not None and stealing["steal_ratio"] < args.min_steal_ratio:
            failures.append(
                f"steal ratio {stealing['steal_ratio']:.2f}x < "
                f"{args.min_steal_ratio:.2f}x")
        if failures:
            print("CHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print(f"check ok: reuse {reuse['speedup']:.2f}x >= "
              f"{args.min_speedup:.2f}x" +
              ("" if stealing is None else
               f", stealing {stealing['steal_ratio']:.2f}x >= "
               f"{args.min_steal_ratio:.2f}x"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
