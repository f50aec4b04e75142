"""Batched-vs-scalar engine benchmark (standalone script).

Renders the same frame with the scalar per-ray tracer and the batched
(wavefront) engine, reports rays/s for both, and checks the batched
engine's standing contract on every run:

* images match the scalar golden within ``--tolerance`` (default 1e-9)
  per channel, and the parity-matched functional counters (``n_rays``,
  ``blended_total``, ``rays_terminated_early``) agree exactly;
* the per-phase ``rt.phase.{bin,traversal,intersect,blend}`` histograms
  all received samples (the phase breakdown is part of the engine's
  observability surface, so a refactor that silently drops one fails
  the benchmark).

Violations of either exit non-zero whether or not ``--check`` is given.
``--check`` additionally gates on speed, failing when the batched
engine's speedup over scalar is below ``--min-speedup`` (default 3x, the
bar on the default 64x64 scene; CI runs a tiny scene with
``--min-speedup 2``).  The batched engine renders ``--reps`` times and
its best time counts.  Unlike the figure benchmarks in this directory
(which run under ``pytest --benchmark-only``), this is a plain script::

    python benchmarks/bench_packet_vs_scalar.py [--size 64] [--check]

``--structure`` selects the acceleration structure: the monolithic
proxies or the two-level ``tlas+*`` structures.  Results go to
``benchmarks/results/wavefront_vs_scalar_{tlas,mono}.txt`` plus a
machine-readable ``BENCH_wavefront_tlas.json`` (two-level runs) /
``BENCH_wavefront_mono.json`` (monolithic runs).
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

#: Functional counters the batched engine must reproduce exactly.
PARITY_COUNTERS = ("n_rays", "blended_total", "rays_terminated_early")

#: Per-phase histograms the batched engine must populate while tracing.
PHASE_METRICS = ("rt.phase.bin", "rt.phase.traversal",
                 "rt.phase.intersect", "rt.phase.blend")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="rays/s and image parity: wavefront vs scalar engine")
    parser.add_argument("--scene", default="train")
    parser.add_argument("--size", type=int, default=64,
                        help="image width=height (default 64)")
    parser.add_argument("--scale", type=float, default=1 / 2000.0)
    parser.add_argument("--structure", "--proxy", dest="structure",
                        default="20-tri",
                        choices=["20-tri", "80-tri", "custom",
                                 "tlas+sphere", "tlas+20-tri", "tlas+80-tri"],
                        help="acceleration structure: monolithic proxies or "
                             "the two-level tlas+* structures (--proxy is a "
                             "backward-compatible alias)")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--modes", default="multiround,singleround",
                        help="comma-separated trace modes to compare")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="max per-channel image difference allowed")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="wavefront speedup over scalar required by "
                             "--check")
    parser.add_argument("--reps", type=int, default=3,
                        help="wavefront repetitions; the best time counts "
                             "(default 3 — single measurements are hostage "
                             "to scheduler noise)")
    parser.add_argument("--check", action="store_true",
                        help="also gate on speed: exit non-zero when the "
                             "speedup is below --min-speedup (parity and "
                             "phase failures exit non-zero regardless)")
    return parser.parse_args(argv)


def run_mode(cloud, structure, camera, mode: str, k: int,
             reps: int = 3) -> dict:
    """Render one mode with both engines and measure them.

    The scalar golden renders once (it is the slow reference); the
    wavefront engine renders ``reps`` times and its minimum counts.
    """
    from repro.render import GaussianRayTracer
    from repro.rt import TraceConfig

    config = TraceConfig(k=k, mode=mode)
    n_rays = camera.width * camera.height
    renderers = {
        engine: GaussianRayTracer(cloud, structure, config, engine=engine)
        for engine in ("scalar", "wavefront")
    }
    for engine, renderer in renderers.items():
        assert renderer.engine_active == engine
    t0 = time.perf_counter()
    scalar = renderers["scalar"].render(camera, keep_traces=False)
    scalar_s = time.perf_counter() - t0
    wavefront_s = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        wavefront = renderers["wavefront"].render(camera, keep_traces=False)
        wavefront_s = min(wavefront_s, time.perf_counter() - t0)
    counters_ok = all(
        getattr(scalar.stats, name) == getattr(wavefront.stats, name)
        for name in PARITY_COUNTERS
    )
    return {
        "mode": mode,
        "scalar_s": scalar_s,
        "wavefront_s": wavefront_s,
        "scalar_rps": n_rays / scalar_s,
        "wavefront_rps": n_rays / wavefront_s,
        "speedup": scalar_s / wavefront_s,
        "max_diff": float(np.abs(scalar.image - wavefront.image).max()),
        "counters_ok": counters_ok,
    }


def missing_phase_metrics() -> list[str]:
    """Phase histograms that received no samples during the run."""
    from repro.obs import get_registry

    registry = get_registry()
    missing = []
    for name in PHASE_METRICS:
        histogram = registry.histogram(name)
        if histogram is None or histogram.count == 0:
            missing.append(name)
    return missing


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    from repro.eval.harness import build_structure_for
    from repro.eval.report import format_table
    from repro.gaussians import make_workload
    from repro.render import default_camera_for

    cloud = make_workload(args.scene, scale=args.scale)
    structure = build_structure_for(cloud, args.structure)
    camera = default_camera_for(cloud, args.size, args.size)

    rows = []
    measurements = []
    for mode in args.modes.split(","):
        m = run_mode(cloud, structure, camera, mode.strip(), args.k,
                     reps=args.reps)
        measurements.append(m)
        rows.append([
            m["mode"],
            f"{m['scalar_rps']:.0f}",
            f"{m['wavefront_rps']:.0f}",
            f"{m['speedup']:.2f}x",
            f"{m['max_diff']:.2e}",
            "exact" if m["counters_ok"] else "MISMATCH",
        ])

    report = format_table(
        f"wavefront vs scalar: {args.scene} {args.size}x{args.size} "
        f"{args.structure} k={args.k} ({len(cloud)} gaussians)",
        ["mode", "scalar rays/s", "wavefront rays/s", "speedup",
         "max |diff|", "counters"],
        rows,
    )
    print(report)
    missing = missing_phase_metrics()
    RESULTS_DIR.mkdir(exist_ok=True)
    family = "tlas" if args.structure.startswith("tlas+") else "mono"
    # Per-family filenames so CI's back-to-back monolithic and tlas runs
    # don't clobber each other's reports.
    (RESULTS_DIR / f"wavefront_vs_scalar_{family}.txt").write_text(
        report + "\n")
    write_bench_json(
        RESULTS_DIR / f"BENCH_wavefront_{family}.json", f"wavefront_{family}",
        config={"scene": args.scene, "size": args.size,
                "scale": args.scale, "structure": args.structure,
                "k": args.k, "reps": args.reps, "n_gaussians": len(cloud)},
        sections={
            "measurements": measurements,
            "phases_observed": {name: name not in missing
                                for name in PHASE_METRICS},
            # Mode-keyed mirror of the headline numbers: positional
            # paths like measurements.0.speedup silently point at the
            # wrong mode when --modes reorders the list, so headline
            # resolution goes through this section instead.
            "summary": {
                m["mode"]: {
                    "speedup": m["speedup"],
                    "max_diff": m["max_diff"],
                    "counters_ok": m["counters_ok"],
                }
                for m in measurements
            },
        })

    failures = []
    for m in measurements:
        if m["max_diff"] > args.tolerance:
            failures.append(
                f"{m['mode']}: image diff {m['max_diff']:.3e} exceeds "
                f"{args.tolerance:.0e}")
        if not m["counters_ok"]:
            failures.append(f"{m['mode']}: functional counters diverge")
        if args.check and m["speedup"] < args.min_speedup:
            failures.append(
                f"{m['mode']}: speedup {m['speedup']:.2f}x below "
                f"{args.min_speedup:.1f}x")
    for name in missing:
        failures.append(f"phase histogram {name} received no samples")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
