"""One experiment function per table and figure of the paper.

Each function renders (or reuses) the needed configurations through
:func:`repro.eval.harness.run_config`, assembles the same rows/series the
paper plots, and returns an :class:`ExperimentResult` whose ``table``
property is a printable text table. The benchmark suite under
``benchmarks/`` calls exactly these functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eval.harness import (
    BENCH_RESOLUTION,
    BENCH_SCALE,
    FIG13_CONFIGS,
    SCENES,
    get_cloud,
    get_structure,
    run_config,
)
from repro.eval.report import format_table, geomean
from repro.gaussians.synthetic import WORKLOAD_SPECS
from repro.hwsim import GpuConfig, raster_cycles
from repro.hwsim.rtunit import checkpoint_buffer_bytes, checkpoint_hardware_cost
from repro.render import GaussianRasterizer, default_camera_for

_MB = 1024.0 * 1024.0


@dataclass
class ExperimentResult:
    """Rows + metadata for one reproduced table/figure."""

    exp_id: str
    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: str | None = None

    @property
    def table(self) -> str:
        return format_table(f"{self.exp_id}: {self.title}", self.columns, self.rows, self.notes)

    def column(self, name: str) -> list[object]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def row(self, key: str) -> list[object]:
        for row in self.rows:
            if row and str(row[0]) == key:
                return row
        raise KeyError(f"no row {key!r} in {self.exp_id}")


# ---------------------------------------------------------------------------
# Motivation (Section III)
# ---------------------------------------------------------------------------

def fig04a(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 4(a): rasterization (3DGS) vs ray tracing (3DGRT) time."""
    scenes = scenes or SCENES
    gpu = GpuConfig.rtx_like()
    rows = []
    slowdowns = []
    for scene in scenes:
        cloud = get_cloud(scene)
        camera = default_camera_for(cloud, *BENCH_RESOLUTION)
        raster = GaussianRasterizer(cloud).render(camera)
        raster_ms = gpu.cycles_to_ms(raster_cycles(raster, gpu))
        rt = run_config(scene, proxy="20-tri", k=16)
        slowdown = rt.time_ms / raster_ms if raster_ms else 0.0
        slowdowns.append(slowdown)
        rows.append([scene, raster_ms, rt.time_ms, slowdown])
    rows.append(["geomean", "", "", geomean(slowdowns)])
    return ExperimentResult(
        "fig04a", "3DGS rasterization vs 3DGRT ray tracing (model ms)",
        ["scene", "3DGS (ms)", "3DGRT (ms)", "RT slowdown"],
        rows,
        notes="paper: ray tracing ~3.04x slower on average",
    )


def fig04b(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 4(b): single tracing round, isolating each operation."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        run = run_config(scene, proxy="20-tri", k=16)
        rounds = max(run.stats.rounds_total / max(run.stats.n_rays, 1), 1.0)
        gpu = GpuConfig.rtx_like()
        trav = gpu.cycles_to_ms(run.timing.traversal_cycles) / rounds
        sort = gpu.cycles_to_ms(run.timing.sorting_cycles) / rounds
        blend = gpu.cycles_to_ms(run.timing.blending_cycles) / rounds
        rows.append([scene, trav, trav + sort, trav + sort + blend])
    return ExperimentResult(
        "fig04b", "Per-round time: traversal / +sorting / +blending (model ms)",
        ["scene", "traversal", "+sorting", "+blending"],
        rows,
        notes="paper: BVH traversal dominates; sorting/blending marginal",
    )


def fig05(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 5: icosahedron mesh vs custom primitive (time and BVH size)."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        ico = run_config(scene, proxy="20-tri", k=16)
        custom = run_config(scene, proxy="custom", k=16)
        rows.append([
            scene,
            ico.time_ms,
            custom.time_ms,
            ico.structure_bytes / _MB,
            custom.structure_bytes / _MB,
        ])
    return ExperimentResult(
        "fig05", "Bounding primitives: 20-tri icosahedron vs custom ellipsoid",
        ["scene", "ico time (ms)", "custom time (ms)", "ico BVH (MB)", "custom BVH (MB)"],
        rows,
        notes="paper: custom primitives are slower (software tests) but far smaller BVHs",
    )


def fig06a(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 6(a): multi-round (k=16) vs single-round traversal."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        multi = run_config(scene, proxy="20-tri", k=16, mode="multiround")
        single = run_config(scene, proxy="20-tri", k=16, mode="singleround")
        rows.append([scene, multi.time_ms, single.time_ms, single.time_ms / multi.time_ms])
    return ExperimentResult(
        "fig06a", "Multi-round vs single-round traversal (k=16)",
        ["scene", "multi-round (ms)", "single-round (ms)", "single/multi"],
        rows,
        notes="paper: multi-round wins thanks to early ray termination",
    )


def fig06b(scenes: list[str] | None = None,
           k_values: tuple[int, ...] = (4, 8, 16, 32, 64)) -> ExperimentResult:
    """Figure 6(b): baseline rendering time across k values."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        row: list[object] = [scene]
        for k in k_values:
            row.append(run_config(scene, proxy="20-tri", k=k).time_ms)
        rows.append(row)
    return ExperimentResult(
        "fig06b", "Baseline rendering time vs k-buffer size (model ms)",
        ["scene"] + [f"k={k}" for k in k_values],
        rows,
    )


def fig07(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 7: unique vs total node visits across rounds (k=16)."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        run = run_config(scene, proxy="20-tri", k=16)
        stats = run.stats
        rows.append([
            scene,
            stats.unique_internal_visits, stats.unique_leaf_visits,
            stats.total_internal_visits, stats.total_leaf_visits,
            stats.redundancy,
        ])
    return ExperimentResult(
        "fig07", "Unique vs total visited nodes across rounds (k=16)",
        ["scene", "uniq internal", "uniq leaf", "total internal", "total leaf", "total/unique"],
        rows,
        notes="paper: a non-negligible gap => redundant re-traversal across rounds",
    )


# ---------------------------------------------------------------------------
# Configuration tables
# ---------------------------------------------------------------------------

def table1() -> ExperimentResult:
    """Table I: simulated GPU configuration."""
    gpu = GpuConfig.rtx_like()
    rows = [[k, v] for k, v in gpu.table1_rows()]
    return ExperimentResult("table1", "Simulation configuration", ["parameter", "value"], rows)


def table2(scenes: list[str] | None = None) -> ExperimentResult:
    """Table II: workload summary with BVH sizes and footprints."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        spec = WORKLOAD_SPECS[scene]
        cloud = get_cloud(scene)
        mono = run_config(scene, proxy="20-tri", k=8)
        tlas = run_config(scene, proxy="tlas+20-tri", k=8)
        rows.append([
            scene,
            f"{spec.native_resolution[0]}x{spec.native_resolution[1]}",
            len(cloud),
            mono.bvh.height,
            mono.structure_bytes / _MB,
            tlas.structure_bytes / _MB,
            mono.timing.footprint_bytes / _MB,
            tlas.timing.footprint_bytes / _MB,
        ])
    return ExperimentResult(
        "table2", "Workloads: BVH size and traversal memory footprint",
        ["scene", "native res", "#gauss", "height(20-tri)",
         "BVH 20-tri (MB)", "BVH TLAS+20 (MB)",
         "footprint 20-tri (MB)", "footprint TLAS+20 (MB)"],
        rows,
        notes=f"scenes generated at {BENCH_SCALE:.4f} of the paper's Gaussian counts",
    )


# ---------------------------------------------------------------------------
# Main results (Section V)
# ---------------------------------------------------------------------------

def fig12(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 12: GRTX-SW speedups for four Gaussian geometries."""
    scenes = scenes or SCENES
    proxies = ("20-tri", "80-tri", "tlas+20-tri", "tlas+80-tri")
    rows = []
    speedups: dict[str, list[float]] = {p: [] for p in proxies}
    for scene in scenes:
        base = run_config(scene, proxy="20-tri", k=8)
        row: list[object] = [scene]
        for proxy in proxies:
            run = run_config(scene, proxy=proxy, k=8)
            s = base.time_ms / run.time_ms
            speedups[proxy].append(s)
            row.append(s)
        rows.append(row)
    rows.append(["geomean"] + [geomean(speedups[p]) for p in proxies])
    return ExperimentResult(
        "fig12", "GRTX-SW speedup over 20-tri monolithic baseline",
        ["scene"] + list(proxies), rows,
        notes="paper: TLAS+20/80-tri beat both monolithic variants",
    )


def fig13(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 13: end-to-end speedups of GRTX-SW / GRTX-HW / GRTX."""
    scenes = scenes or SCENES
    rows = []
    speedups: dict[str, list[float]] = {name: [] for name in FIG13_CONFIGS}
    for scene in scenes:
        base = run_config(scene, k=8, **FIG13_CONFIGS["Baseline"])
        row: list[object] = [scene]
        for name, kwargs in FIG13_CONFIGS.items():
            run = run_config(scene, k=8, **kwargs)
            s = base.time_ms / run.time_ms
            speedups[name].append(s)
            row.append(s)
        rows.append(row)
    rows.append(["geomean"] + [geomean(speedups[name]) for name in FIG13_CONFIGS])
    return ExperimentResult(
        "fig13", "End-to-end speedup over the 20-tri baseline",
        ["scene"] + list(FIG13_CONFIGS), rows,
        notes="paper: GRTX 4.36x average (up to 6.09x); GRTX-HW alone 1.94x",
    )


def _normalized_metric(metric: str, title: str, exp_id: str, notes: str,
                       scenes: list[str] | None = None,
                       invert: bool = False) -> ExperimentResult:
    """Shared shape of Figures 14, 15, 17: metric normalized to baseline."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        base_value = None
        row: list[object] = [scene]
        for name, kwargs in FIG13_CONFIGS.items():
            run = run_config(scene, k=8, **kwargs)
            value = getattr(run.timing, metric)
            if base_value is None:
                base_value = value
            norm = value / base_value if base_value else 0.0
            row.append(norm)
        rows.append(row)
    return ExperimentResult(exp_id, title, ["scene"] + list(FIG13_CONFIGS), rows, notes)


def fig14(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 14: node fetches normalized to the baseline."""
    return _normalized_metric(
        "node_fetches", "Node fetches (normalized to baseline)", "fig14",
        "paper: GRTX reduces fetches 3.03x on average", scenes,
    )


def fig15(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 15: average node fetch latency normalized to the baseline."""
    return _normalized_metric(
        "avg_fetch_latency", "Average node fetch latency (normalized)", "fig15",
        "paper: GRTX reduces average fetch latency 1.77x", scenes,
    )


def fig16(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 16: L1 cache hit rate for node fetches."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        row: list[object] = [scene]
        for name, kwargs in FIG13_CONFIGS.items():
            run = run_config(scene, k=8, **kwargs)
            row.append(run.timing.l1_hit_rate)
        rows.append(row)
    return ExperimentResult(
        "fig16", "L1 hit rate for node fetches",
        ["scene"] + list(FIG13_CONFIGS), rows,
        notes="paper: GRTX-SW exceeds 70% on every scene",
    )


def fig17(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 17: L2 accesses normalized to the baseline."""
    return _normalized_metric(
        "l2_accesses", "L2 cache accesses (normalized)", "fig17",
        "paper: GRTX reduces L2 accesses 4.75x", scenes,
    )


# ---------------------------------------------------------------------------
# Sensitivity (Section V-D)
# ---------------------------------------------------------------------------

def fig18(scenes: list[str] | None = None,
          k_values: tuple[int, ...] = (4, 8, 16, 32, 64)) -> ExperimentResult:
    """Figure 18: GRTX performance across k-buffer sizes (normalized to k=4)."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        base = run_config(scene, proxy="tlas+20-tri", checkpointing=True, k=k_values[0])
        row: list[object] = [scene]
        for k in k_values:
            run = run_config(scene, proxy="tlas+20-tri", checkpointing=True, k=k)
            row.append(base.time_ms / run.time_ms)
        rows.append(row)
    return ExperimentResult(
        "fig18", "GRTX speedup vs k (normalized to k=4)",
        ["scene"] + [f"k={k}" for k in k_values], rows,
        notes="paper: k=8 is the sweet spot; k=4 loses to straggler overhead",
    )


def fig19(scenes: tuple[str, str] = ("train", "truck")) -> ExperimentResult:
    """Figure 19: resolution / FoV sensitivity (speedups + L1 hit rate)."""
    rows = []
    hi_res = (BENCH_RESOLUTION[0] * 2, BENCH_RESOLUTION[1] * 2)
    settings = [
        ("hi-res/orig-FoV", dict(resolution=hi_res, fov_mode="original")),
        ("low-res/cropped-FoV", dict(resolution=BENCH_RESOLUTION, fov_mode="cropped")),
    ]
    for setting_name, setting in settings:
        for scene in scenes:
            base = run_config(scene, k=8, **FIG13_CONFIGS["Baseline"], **setting)
            row: list[object] = [f"{scene} ({setting_name})"]
            for name, kwargs in FIG13_CONFIGS.items():
                run = run_config(scene, k=8, **kwargs, **setting)
                row.append(base.time_ms / run.time_ms)
            row.append(base.timing.l1_hit_rate)
            grtx_sw = run_config(scene, k=8, **FIG13_CONFIGS["GRTX-SW"], **setting)
            row.append(grtx_sw.timing.l1_hit_rate)
            rows.append(row)
    return ExperimentResult(
        "fig19", "Speedup and L1 hit rate across resolution / FoV settings",
        ["scene (setting)"] + list(FIG13_CONFIGS) + ["base L1", "GRTX-SW L1"], rows,
        notes="paper: GRTX-HW consistent; GRTX-SW gains shrink with coherent rays",
    )


def fig20(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 20: checkpoint + eviction buffer memory usage (8 SMs)."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        run = run_config(scene, proxy="tlas+20-tri", checkpointing=True, k=8)
        ckpt, evict = checkpoint_buffer_bytes(
            run.stats.ckpt_high_water, run.stats.evict_high_water
        )
        rows.append([scene, run.stats.ckpt_high_water, run.stats.evict_high_water,
                     ckpt / _MB, evict / _MB, (ckpt + evict) / _MB])
    return ExperimentResult(
        "fig20", "Checkpoint / eviction buffer memory (8 SM configuration)",
        ["scene", "max ckpt entries/ray", "max evict entries/ray",
         "ckpt (MB)", "evict (MB)", "total (MB)"],
        rows,
        notes="paper: worst case (Train) 97.68 MB combined",
    )


def table3() -> ExperimentResult:
    """Table III: GRTX-HW per-RT-core storage cost."""
    hw = checkpoint_hardware_cost()
    rows = [
        ["replay flag + src/dst offsets per thread", f"{hw.per_thread_bits} bits"],
        ["threads per warp", hw.threads_per_warp],
        ["warp buffer entries", hw.warps],
        ["src/dst base + max size registers", f"{hw.base_register_bytes} B"],
        ["total per RT core", f"{hw.total_kb:.2f} KB"],
    ]
    return ExperimentResult(
        "table3", "GRTX-HW hardware cost", ["component", "size"], rows,
        notes="paper: 1.05 KB per RT core",
    )


# ---------------------------------------------------------------------------
# Analysis & discussion (Section VI)
# ---------------------------------------------------------------------------

def fig21(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 21: OptiX-style payload k-buffer vs Vulkan-style SoA buffer."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        optix = run_config(scene, proxy="20-tri", k=16, kbuffer_layout="payload")
        vulkan = run_config(scene, proxy="20-tri", k=16, kbuffer_layout="soa")
        rows.append([scene, optix.time_ms, vulkan.time_ms, vulkan.time_ms / optix.time_ms])
    return ExperimentResult(
        "fig21", "OptiX (payload k-buffer, k=16) vs Vulkan (SoA k-buffer)",
        ["scene", "OptiX-style (ms)", "Vulkan-style (ms)", "Vulkan/OptiX"],
        rows,
        notes="paper: the Vulkan implementation performs similarly to OptiX",
    )


def fig22(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 22: GRTX-SW with the hardware sphere primitive."""
    scenes = scenes or SCENES
    rows = []
    speeds = []
    for scene in scenes:
        base = run_config(scene, proxy="20-tri", k=8)
        sphere = run_config(scene, proxy="tlas+sphere", k=8)
        s = base.time_ms / sphere.time_ms
        speeds.append(s)
        rows.append([scene, s])
    rows.append(["geomean", geomean(speeds)])
    return ExperimentResult(
        "fig22", "GRTX-SW sphere-primitive speedup over 20-tri baseline",
        ["scene", "speedup"], rows,
        notes="paper: notable speedup, but below TLAS+80-tri (sphere test throughput)",
    )


def fig23(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 23: GRTX-HW on primary vs secondary rays."""
    scenes = scenes or SCENES
    rows = []
    for scene in scenes:
        base = run_config(scene, proxy="20-tri", k=8, objects=True)
        hw = run_config(scene, proxy="20-tri", k=8, checkpointing=True, objects=True)
        primary = (base.timing.label_cycles["primary"]
                   / max(hw.timing.label_cycles["primary"], 1e-9))
        base_sec = base.timing.label_cycles["secondary"]
        hw_sec = hw.timing.label_cycles["secondary"]
        secondary = base_sec / hw_sec if hw_sec else 0.0
        rows.append([scene, primary, secondary])
    return ExperimentResult(
        "fig23", "GRTX-HW speedup on primary vs secondary rays",
        ["scene", "primary speedup", "secondary speedup"], rows,
        notes="paper: similar speedups for both ray types (per-ray redundancy removal)",
    )


def fig24(scenes: list[str] | None = None) -> ExperimentResult:
    """Figure 24: AMD-like GPU; monolithic BVHs exceed the 4 GB cap."""
    scenes = scenes or SCENES
    proxies = ("20-tri", "80-tri", "tlas+20-tri", "tlas+80-tri")
    gpu = GpuConfig.amd_like(scene_scale=BENCH_SCALE)
    rows = []
    for scene in scenes:
        ref = run_config(scene, proxy="tlas+80-tri", k=8, gpu="amd")
        row: list[object] = [scene]
        for proxy in proxies:
            structure = get_structure(scene, proxy)
            scaled = structure.total_bytes * gpu.bvh_size_scale
            if gpu.max_buffer_bytes is not None and scaled > gpu.max_buffer_bytes:
                row.append("x (OOM)")
                continue
            run = run_config(scene, proxy=proxy, k=8, gpu="amd")
            row.append(run.time_ms / ref.time_ms)
        rows.append(row)
    return ExperimentResult(
        "fig24", "AMD-like GPU: rendering time normalized to TLAS+80-tri",
        ["scene"] + list(proxies), rows,
        notes="paper: monolithic 20/80-tri exceed the 4 GB Vulkan allocation cap "
              "on most scenes (x); shared-BLAS configurations fit and win",
    )


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures
# ---------------------------------------------------------------------------

def ablation_prefetch(scenes: list[str] | None = None) -> ExperimentResult:
    """Sibling-node prefetcher on/off (the Section V-A fidelity knob)."""
    scenes = scenes or SCENES[:3]
    rows = []
    for scene in scenes:
        on = run_config(scene, proxy="20-tri", k=8, prefetch=True)
        off = run_config(scene, proxy="20-tri", k=8, prefetch=False)
        rows.append([scene, on.timing.l1_hit_rate, off.timing.l1_hit_rate,
                     off.time_ms / on.time_ms])
    return ExperimentResult(
        "ablation-prefetch", "Sibling prefetcher: L1 hit rate and speedup",
        ["scene", "L1 (prefetch on)", "L1 (prefetch off)", "speedup from prefetch"], rows,
    )


def ablation_bvh_width(scene: str = "bonsai",
                       widths: tuple[int, ...] = (2, 4, 6, 8)) -> ExperimentResult:
    """BVH branching factor sweep (the paper fixes BVH-6 via Embree)."""
    rows = []
    for width in widths:
        run = run_config(scene, proxy="tlas+20-tri", k=8, width=width)
        rows.append([width, run.bvh.height, run.structure_bytes / _MB, run.time_ms])
    return ExperimentResult(
        "ablation-width", f"BVH branching factor sweep ({scene})",
        ["width", "height", "BVH (MB)", "time (ms)"], rows,
    )


def quality_equivalence(scenes: list[str] | None = None) -> ExperimentResult:
    """Rendering-quality validation (the paper's Section III-C premise:
    "rendering quality remains the same regardless of bounding
    primitives"). PSNR of every structure's image against the exact
    unit-sphere reference, plus baseline-vs-GRTX-HW bit equality."""
    scenes = scenes or SCENES
    from repro.render import psnr
    rows = []
    for scene in scenes:
        ref = run_config(scene, proxy="tlas+sphere", k=8)
        custom = run_config(scene, proxy="custom", k=8)
        tri = run_config(scene, proxy="20-tri", k=8)
        tlas_tri = run_config(scene, proxy="tlas+20-tri", k=8)
        hw = run_config(scene, proxy="20-tri", k=8, checkpointing=True)
        rows.append([
            scene,
            psnr(custom.image, ref.image),
            psnr(tri.image, ref.image),
            psnr(tlas_tri.image, tri.image),
            "yes" if np.array_equal(hw.image, tri.image) else "NO",
        ])
    return ExperimentResult(
        "quality", "Rendering equivalence across structures",
        ["scene", "custom vs sphere (dB)", "20-tri vs sphere (dB)",
         "tlas+20 vs mono-20 (dB)", "HW == baseline"],
        rows,
        notes="exact primitives match bit-for-bit (inf dB); proxy families "
              "differ only in the 3DGRT sort key; checkpointing is lossless",
    )


def ablation_builder(scene: str = "bonsai") -> ExperimentResult:
    """BVH build strategy comparison: binned SAH vs median vs LBVH.

    The paper builds with Embree's binned SAH; GPU drivers typically use
    Morton-code LBVHs for build speed. This ablation quantifies the tree
    quality (SAH cost, sibling overlap) and traversal cost each strategy
    trades away on a Gaussian workload.
    """
    from repro.bvh import BuildParams, build_two_level, tree_quality
    from repro.render import GaussianRayTracer, default_camera_for

    cloud = get_cloud(scene)
    rows = []
    for strategy in ("sah", "median", "lbvh"):
        structure = build_two_level(
            cloud, "sphere", params=BuildParams(strategy=strategy))
        quality = tree_quality(structure.tlas)
        renderer = GaussianRayTracer(cloud, structure, _trace_config(k=8))
        result = renderer.render(
            default_camera_for(cloud, *BENCH_RESOLUTION))
        from repro.hwsim import replay as hw_replay
        timing = hw_replay(result.traces, GpuConfig.rtx_like())
        rows.append([
            strategy, quality.sah_cost, quality.mean_sibling_overlap,
            quality.height, timing.node_fetches, timing.time_ms,
        ])
    return ExperimentResult(
        "ablation-builder", f"BVH build strategy ({scene}, TLAS+sphere)",
        ["strategy", "SAH cost", "sibling overlap", "height",
         "node fetches", "time (ms)"],
        rows,
        notes="binned SAH is the paper's Embree configuration; LBVH is the "
              "GPU-driver fast path; all three render identical images",
    )


def ablation_treelet(scene: str = "drjohnson") -> ExperimentResult:
    """Treelet prefetching (MICRO'23) vs the sibling prefetcher vs both.

    The paper calls treelet prefetching orthogonal to GRTX; here we
    measure it on the Gaussian workload. Finding: it recovers most of the
    sibling prefetcher's benefit when that is absent, but adds nothing —
    and slightly pollutes the L1 — on top of it.
    """
    from dataclasses import replace as dc_replace

    from repro.hwsim import replay as hw_replay
    from repro.hwsim.treelet import build_treelet_map
    from repro.render import GaussianRayTracer, default_camera_for

    cloud = get_cloud(scene)
    structure = get_structure(scene, "20-tri")
    renderer = GaussianRayTracer(cloud, structure, _trace_config(k=8))
    result = renderer.render(default_camera_for(cloud, *BENCH_RESOLUTION))
    treelets = build_treelet_map(structure, 1024)

    configs = [
        ("none", dc_replace(GpuConfig.rtx_like(), prefetch_enabled=False), None),
        ("treelet", dc_replace(GpuConfig.rtx_like(), prefetch_enabled=False), treelets),
        ("sibling", GpuConfig.rtx_like(), None),
        ("sibling+treelet", GpuConfig.rtx_like(), treelets),
    ]
    rows = []
    for label, config, tmap in configs:
        timing = hw_replay(result.traces, config, treelet_map=tmap)
        rows.append([label, timing.avg_fetch_latency, timing.l1_hit_rate,
                     timing.prefetches, timing.time_ms])
    return ExperimentResult(
        "ablation-treelet", f"Prefetch policy comparison ({scene}, 20-tri)",
        ["policy", "fetch latency", "L1 hit rate", "prefetches", "time (ms)"],
        rows,
    )


def ablation_predictor(scenes: list[str] | None = None) -> ExperimentResult:
    """Why the ray predictor (MICRO'21) does not transfer (Section VII).

    The predictor's own metric (hit rate) is high — rays re-find their
    last first-hit — but volume rendering needs *all* intersections, so
    one verified prediction covers only 1/mean_blended of the required
    work. The savable-traversal column is the product, an upper bound on
    benefit.
    """
    from repro.render import GaussianRayTracer, PinholeCamera, default_camera_for
    from repro.rt import analyze_predictor

    scenes = scenes or SCENES[:3]
    rows = []
    for scene in scenes:
        cloud = get_cloud(scene)
        structure = get_structure(scene, "tlas+sphere")
        renderer = GaussianRayTracer(cloud, structure, _trace_config(k=8))
        cam1 = default_camera_for(cloud, 12, 12)
        step = 0.002 * float(np.abs(cloud.means - cloud.means.mean(0)).max())
        cam2 = PinholeCamera(cam1.position + step, cam1.look_at, cam1.up,
                             12, 12, cam1.fov_y)
        report = analyze_predictor(renderer, cam1, cam2)
        rows.append([scene, report.hit_rate, report.mean_blended,
                     report.mean_coverage, report.traversal_savable_fraction])
    return ExperimentResult(
        "ablation-predictor", "Ray predictor coverage on Gaussian RT",
        ["scene", "prediction hit rate", "mean blended/ray",
         "coverage", "savable traversal (bound)"],
        rows,
        notes="high hit rate but low coverage: one predicted hit cannot "
              "replace finding all k-nearest Gaussians (paper Section VII)",
    )


def ablation_energy(scenes: list[str] | None = None) -> ExperimentResult:
    """Energy breakdown of the four Figure 13 configurations.

    GRTX's fetch reductions are energy reductions: DRAM access costs
    ~100x an L1 access, so the shared BLAS (L1-resident) and
    checkpointing (fewer fetches) both cut memory energy.
    """
    from repro.hwsim import estimate_energy

    scenes = scenes or SCENES[:3]
    rows = []
    for scene in scenes:
        base_energy = None
        for label, overrides in FIG13_CONFIGS.items():
            run = run_config(scene, k=8, **overrides)
            energy = estimate_energy(run.timing, GpuConfig.rtx_like())
            if base_energy is None:
                base_energy = energy.dynamic_nj
            rows.append([
                scene, label, energy.l1_nj, energy.l2_nj, energy.dram_nj,
                energy.memory_fraction,
                base_energy / energy.dynamic_nj if energy.dynamic_nj else 0.0,
            ])
    return ExperimentResult(
        "ablation-energy", "Dynamic energy breakdown (Figure 13 configs)",
        ["scene", "config", "L1 (nJ)", "L2 (nJ)", "DRAM (nJ)",
         "memory fraction", "energy reduction"],
        rows,
    )


def ablation_dram(scene: str = "truck") -> ExperimentResult:
    """Banked-DRAM refinement: row-buffer hit rates per configuration.

    The compact shared BLAS concentrates DRAM traffic into few rows; the
    monolithic BVH scatters it. The flat-latency model (the default, as
    in the paper) cannot see this; the banked model quantifies it.
    """
    from dataclasses import replace as dc_replace

    from repro.hwsim import replay as hw_replay
    from repro.render import GaussianRayTracer, default_camera_for

    cloud = get_cloud(scene)
    banked = dc_replace(GpuConfig.rtx_like(), dram_model="banked")
    rows = []
    for label, overrides in FIG13_CONFIGS.items():
        structure = get_structure(scene, overrides["proxy"])
        config = _trace_config(k=8, checkpointing=overrides["checkpointing"])
        renderer = GaussianRayTracer(cloud, structure, config)
        result = renderer.render(default_camera_for(cloud, *BENCH_RESOLUTION))
        timing = hw_replay(result.traces, banked)
        rows.append([label, timing.dram_accesses, timing.dram_row_hit_rate,
                     timing.avg_fetch_latency, timing.time_ms])
    return ExperimentResult(
        "ablation-dram", f"Banked DRAM row-buffer behaviour ({scene})",
        ["config", "DRAM accesses", "row hit rate", "fetch latency", "time (ms)"],
        rows,
    )


def popping_frames(cloud, structure, config, cameras) -> tuple[list, list]:
    """The two frame sequences of the popping ablation.

    Each frame traces as one bundle with blend recording.  The per-ray
    frame holds the traced colours (every ray blends its hits in its own
    ``t`` order); the global frame re-blends each ray's same blend list
    in the global view-space depth order of the Gaussian centres.
    """
    from dataclasses import replace as dc_replace

    from repro.rt import SceneShading, WavefrontTracer

    config = dc_replace(config, record_blended=True)
    shading = SceneShading(cloud)
    tracer = WavefrontTracer(structure, shading, config)
    threshold = config.transmittance_min
    perray_frames, global_frames = [], []
    for camera in cameras:
        _r, _u, forward = camera.basis
        depth_key = (cloud.means - camera.position) @ forward

        bundle = camera.generate_rays()
        result = tracer.trace_packet(bundle.origins, bundle.directions)
        exact = np.zeros((camera.n_pixels, 3))
        glob = np.zeros((camera.n_pixels, 3))
        exact[bundle.pixel_ids] = result.colors
        for r, records in enumerate(result.blend_records):
            if not records:
                continue
            # Re-blend the same Gaussians in global depth order.
            order = sorted(records, key=lambda rec: depth_key[rec[0]])
            gids = np.fromiter((rec[0] for rec in order), dtype=np.int64,
                               count=len(order))
            colors = shading.colors(gids, bundle.directions[r])
            trans = 1.0
            color = np.zeros(3)
            for j, (_gid, alpha, _t) in enumerate(order):
                color += trans * alpha * colors[j]
                trans *= 1.0 - alpha
                if trans < threshold:
                    break
            glob[int(bundle.pixel_ids[r])] = color
        shape = (camera.height, camera.width, 3)
        perray_frames.append(exact.reshape(shape))
        global_frames.append(glob.reshape(shape))
    return perray_frames, global_frames


def ablation_popping(scene: str = "room", n_frames: int = 8) -> ExperimentResult:
    """View-consistency: per-ray sorting vs 3DGS's global depth sort.

    Section II-B: "ray tracing enables per-ray sorting that eliminates
    visual artifacts during camera movement". To isolate the *sorting*
    effect we blend the *same* per-ray hit lists twice per frame of a
    camera orbit: once in exact per-ray t order (ray tracing), once
    re-sorted by global view-space depth of each Gaussian's center (the
    3DGS order, shared by all pixels). Popping is the temporal roughness
    of each sequence; sort flips between frames raise it.
    """
    from repro.render import default_camera_for
    from repro.render.metrics import popping_score
    from repro.render.path import orbit_path

    cloud = get_cloud(scene)
    structure = get_structure(scene, "tlas+sphere")
    base = default_camera_for(cloud, *BENCH_RESOLUTION)
    center = cloud.means.mean(axis=0)
    cameras = orbit_path(base, center, n_frames, total_angle=0.03 * (n_frames - 1))
    perray_frames, global_frames = popping_frames(
        cloud, structure, _trace_config(k=8), cameras)

    rows = [
        ["per-ray sort (ray tracing)", popping_score(perray_frames)],
        ["global depth sort (3DGS)", popping_score(global_frames)],
    ]
    return ExperimentResult(
        "ablation-popping", f"Temporal popping on a camera orbit ({scene})",
        ["blend order", "popping score"],
        rows,
        notes="identical hit lists, two blend orders; the global-sort "
              "sequence flickers when the shared sort order flips between "
              "frames, the artifact per-ray sorting eliminates",
    )


def ablation_divergence(scene: str = "bonsai",
                        k_values: tuple[int, ...] = (4, 8, 16, 32)) -> ExperimentResult:
    """Intra-warp divergence across k-buffer sizes (Figure 18's driver).

    Small k multiplies tracing rounds, and each round is warp-synchronous:
    lanes that finish early idle for the warp's straggler. The idle-lane
    fraction and round spread quantify the overhead that makes k=4 lose
    to k=8 despite finer-grained early ray termination.
    """
    from repro.hwsim import analyze_divergence
    from repro.render import GaussianRayTracer, default_camera_for

    cloud = get_cloud(scene)
    structure = get_structure(scene, "tlas+sphere")
    camera = default_camera_for(cloud, *BENCH_RESOLUTION)
    rows = []
    for k in k_values:
        renderer = GaussianRayTracer(cloud, structure,
                                     _trace_config(k=k, checkpointing=True))
        result = renderer.render(camera)
        report = analyze_divergence(result.traces)
        rows.append([k, report.n_rounds_total, report.mean_round_spread,
                     report.idle_lane_fraction, report.straggler_ratio])
    return ExperimentResult(
        "ablation-divergence", f"Warp divergence vs k-buffer size ({scene})",
        ["k", "warp rounds", "round spread", "idle lane fraction",
         "straggler ratio"],
        rows,
        notes="smaller k => more warp-synchronous rounds and more idle "
              "lanes; the straggler overhead that bounds Figure 18's sweep",
    )


def ablation_cameras(scene: str = "train") -> ExperimentResult:
    """Distorted-camera support: the motivation ray tracing serves.

    A rasterizer needs one linear projection per frame; its best-fit
    pinhole approximation of a fisheye accumulates angular error that
    diverges toward 180 degrees. The ray tracer renders each model
    exactly at ~the pinhole's cost.
    """
    from repro.hwsim import replay as hw_replay
    from repro.render import GaussianRayTracer, default_camera_for
    from repro.render.cameras import (
        EquirectangularCamera,
        FisheyeCamera,
        rasterizer_fisheye_error,
    )

    cloud = get_cloud(scene)
    structure = get_structure(scene, "tlas+sphere")
    renderer = GaussianRayTracer(cloud, structure, _trace_config(k=8))
    res = BENCH_RESOLUTION
    pin = default_camera_for(cloud, *res)
    cameras = [
        ("pinhole 60deg", pin, 0.0),
        ("fisheye 180deg",
         FisheyeCamera(pin.position, pin.look_at, pin.up, *res, fov=np.pi),
         rasterizer_fisheye_error(np.pi - 1e-3)),
        ("fisheye 220deg",
         FisheyeCamera(pin.position, pin.look_at, pin.up, *res,
                       fov=np.deg2rad(220)),
         rasterizer_fisheye_error(np.deg2rad(220))),
        ("equirect 360deg",
         EquirectangularCamera(pin.position, pin.look_at, pin.up,
                               2 * res[0], res[1]), float("inf")),
    ]
    rows = []
    for label, camera, raster_err in cameras:
        result = renderer.render(camera)
        timing = hw_replay(result.traces, GpuConfig.rtx_like())
        rows.append([label, camera.n_pixels, timing.time_ms,
                     raster_err if raster_err != float("inf") else "impossible"])
    return ExperimentResult(
        "ablation-cameras", f"Camera-model generality ({scene})",
        ["camera", "rays", "RT time (ms)", "raster angular error (rad)"],
        rows,
        notes="rasterization cannot express panoramas at all and "
              "approximates wide fisheyes with growing error; the ray "
              "tracer's cost stays proportional to the ray count",
    )


def _trace_config(k: int = 8, checkpointing: bool = False):
    from repro.rt import TraceConfig

    return TraceConfig(k=k, checkpointing=checkpointing)


#: Every experiment, keyed by id (the ids ``repro experiment`` takes).
ALL_EXPERIMENTS: dict = {
    "fig04a": fig04a, "fig04b": fig04b, "fig05": fig05, "fig06a": fig06a,
    "fig06b": fig06b, "fig07": fig07, "table1": table1, "table2": table2,
    "fig12": fig12, "fig13": fig13, "fig14": fig14, "fig15": fig15,
    "fig16": fig16, "fig17": fig17, "fig18": fig18, "fig19": fig19,
    "fig20": fig20, "table3": table3, "fig21": fig21, "fig22": fig22,
    "fig23": fig23, "fig24": fig24,
    "quality": quality_equivalence,
    "ablation-prefetch": ablation_prefetch, "ablation-width": ablation_bvh_width,
    "ablation-builder": ablation_builder, "ablation-treelet": ablation_treelet,
    "ablation-predictor": ablation_predictor, "ablation-energy": ablation_energy,
    "ablation-dram": ablation_dram, "ablation-popping": ablation_popping,
    "ablation-cameras": ablation_cameras,
    "ablation-divergence": ablation_divergence,
}


# ---------------------------------------------------------------------------
# The parallel paper campaign.
#
# Most experiments spend all their time in run_config() renders and only
# assemble rows from the results. Each entry below is a *plan*: the exact
# config set an experiment will request, as normalized-kwarg dicts. The
# campaign evaluates the union of the requested plans on the worker pool
# (deduplicated, scene-affine — see harness.parallel_run_configs), which
# seeds the in-process run cache; the experiment functions then assemble
# their tables from warm hits. Experiments without a plan (the ablations
# that drive the renderer directly) simply run serially afterwards.
#
# Plans are callables so they read SCENES / BENCH_RESOLUTION at campaign
# time, not import time.

def _fig13_family() -> list[dict]:
    return [dict(scene=s, k=8, **kw)
            for s in SCENES for kw in FIG13_CONFIGS.values()]


def _fig19_plan() -> list[dict]:
    res = BENCH_RESOLUTION  # the binding fig19 itself reads
    hi_res = (res[0] * 2, res[1] * 2)
    settings = [dict(resolution=hi_res, fov_mode="original"),
                dict(resolution=res, fov_mode="cropped")]
    return [dict(scene=s, k=8, **kw, **setting)
            for setting in settings
            for s in ("train", "truck")
            for kw in FIG13_CONFIGS.values()]


CAMPAIGN_PLANS: dict = {
    "fig04a": lambda: [dict(scene=s, proxy="20-tri", k=16) for s in SCENES],
    "fig04b": lambda: [dict(scene=s, proxy="20-tri", k=16) for s in SCENES],
    "fig05": lambda: [dict(scene=s, proxy=p, k=16)
                      for s in SCENES for p in ("20-tri", "custom")],
    "fig06a": lambda: [dict(scene=s, proxy="20-tri", k=16, mode=m)
                       for s in SCENES for m in ("multiround", "singleround")],
    "fig06b": lambda: [dict(scene=s, proxy="20-tri", k=k)
                       for s in SCENES for k in (4, 8, 16, 32, 64)],
    "fig07": lambda: [dict(scene=s, proxy="20-tri", k=16) for s in SCENES],
    "table2": lambda: [dict(scene=s, proxy=p, k=8)
                       for s in SCENES for p in ("20-tri", "tlas+20-tri")],
    "fig12": lambda: [dict(scene=s, proxy=p, k=8) for s in SCENES
                      for p in ("20-tri", "80-tri", "tlas+20-tri", "tlas+80-tri")],
    "fig13": _fig13_family,
    "fig14": _fig13_family,
    "fig15": _fig13_family,
    "fig16": _fig13_family,
    "fig17": _fig13_family,
    "fig18": lambda: [dict(scene=s, proxy="tlas+20-tri", checkpointing=True, k=k)
                      for s in SCENES for k in (4, 8, 16, 32, 64)],
    "fig19": _fig19_plan,
    "fig20": lambda: [dict(scene=s, proxy="tlas+20-tri", checkpointing=True, k=8)
                      for s in SCENES],
    "fig21": lambda: [dict(scene=s, proxy="20-tri", k=16, kbuffer_layout=kb)
                      for s in SCENES for kb in ("payload", "soa")],
    "fig22": lambda: [dict(scene=s, proxy=p, k=8)
                      for s in SCENES for p in ("20-tri", "tlas+sphere")],
    "fig23": lambda: [dict(scene=s, proxy="20-tri", k=8, objects=True,
                           checkpointing=c)
                      for s in SCENES for c in (False, True)],
    "quality": lambda: [dict(scene=s, proxy=p, k=8, checkpointing=ckpt)
                        for s in SCENES
                        for p, ckpt in (("tlas+sphere", False),
                                        ("custom", False), ("20-tri", False),
                                        ("tlas+20-tri", False), ("20-tri", True))],
    "ablation-prefetch": lambda: [dict(scene=s, proxy="20-tri", k=8, prefetch=p)
                                  for s in SCENES[:3] for p in (True, False)],
    "ablation-energy": lambda: [dict(scene=s, k=8, **kw)
                                for s in SCENES[:3]
                                for kw in FIG13_CONFIGS.values()],
}


def campaign_configs(exp_ids: list[str]) -> list[dict]:
    """The union of render plans for a set of experiment ids."""
    configs: list[dict] = []
    for exp_id in exp_ids:
        plan = CAMPAIGN_PLANS.get(exp_id)
        if plan is not None:
            configs.extend(plan())
    return configs


def run_campaign(exp_ids: list[str] | None = None, workers: int | None = None,
                 pool=None) -> dict[str, ExperimentResult]:
    """Regenerate many paper tables/figures, rendering on every core.

    The render configs behind the requested experiments are fanned out
    across a :class:`repro.pool.WorkerPool` first (``pool`` shares an
    existing one; otherwise ``workers`` processes are used, auto-sized
    when ``None``/``0``); the experiment functions then assemble their
    tables from the warm cache. ``workers=1`` without a ``pool`` starts
    no pool: every experiment renders its own configs in-process.
    Results are exactly what the serial functions produce — the pool
    only changes where renders run.
    """
    from repro.eval.harness import parallel_run_configs

    exp_ids = list(exp_ids) if exp_ids else list(ALL_EXPERIMENTS)
    unknown = [e for e in exp_ids if e not in ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment ids: {unknown}")
    configs = campaign_configs(exp_ids)
    if configs and (pool is not None or workers != 1):
        parallel_run_configs(configs, pool=pool, workers=workers)
    return {exp_id: ALL_EXPERIMENTS[exp_id]() for exp_id in exp_ids}
