"""GPU configuration (Table I of the paper) and vendor variants.

The default configuration mirrors the paper's simulated GPU: 8 SMs at
1365 MHz, 128 SIMT lanes per SM, 128 KB L1 per SM (128 B lines), a 4 MB
shared L2, and one RT unit per SM with an 8-entry warp buffer. Fixed-
function cost constants model the relative throughputs the paper relies
on: hardware ray-box and ray-triangle tests are fast, hardware ray-sphere
tests have lower throughput (the Figure 22 discussion), and custom
software intersection shaders are an order of magnitude slower (the
Figure 5 comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GpuConfig:
    """All architectural parameters of the timing model."""

    name: str = "grtx-sim"
    # Table I.
    n_sms: int = 8
    clock_mhz: float = 1365.0
    simt_lanes: int = 128
    warp_size: int = 32
    l1_bytes: int = 128 * 1024
    l1_line_bytes: int = 128
    l1_ways: int = 256
    l1_latency: int = 20
    l2_bytes: int = 4 * 1024 * 1024
    l2_line_bytes: int = 128
    l2_ways: int = 16
    l2_latency: int = 165
    dram_latency: int = 480
    # "flat" charges `dram_latency` per DRAM access; "banked" routes
    # accesses through the open-page row-buffer model in
    # :mod:`repro.hwsim.dram` (latency then varies per access).
    dram_model: str = "flat"
    rt_units_per_sm: int = 1
    warp_buffer_size: int = 8

    # Fixed-function intersection throughput (cycles of RT-unit occupancy).
    box_test_cycles: float = 1.0  # one wide-node box test (parallel lanes)
    tri_tests_per_cycle: float = 2.0
    sphere_test_cycles: float = 2.0  # lower-throughput HW sphere unit
    transform_cycles: float = 2.0  # TLAS instance ray transform
    custom_test_cycles: float = 32.0  # software intersection shader

    # Shader-side costs (programmable cores).
    anyhit_base_cycles: float = 18.0
    kbuffer_op_cycles: float = 6.0  # insertion-sort step, register k-buffer
    kbuffer_soa_extra_cycles: float = 2.5  # global-memory SoA k-buffer traffic
    blend_cycles: float = 24.0  # SH eval + alpha accumulate per Gaussian
    shader_parallelism: float = 4.0  # concurrent shader warps per SM

    # Multi-round orchestration.
    round_overhead_cycles: float = 220.0  # traceRayEXT relaunch + raygen work
    issue_cycles: float = 1.0  # per node processed by the RT unit
    merged_issue_cycles: float = 0.25  # warp-coalesced duplicate request
    # In-flight request merging window (MSHR-like): duplicate node requests
    # from rays of the same warp merge only while the original request is
    # still in flight. Kept small: over-merging makes shared-BLAS fetches
    # free, which overstates GRTX-SW's fetch reduction.
    merge_window_size: int = 8

    # Whether node fetches are issued by the RT unit (NVIDIA/Intel style)
    # or by shader cores (AMD style): shader-issued fetches pay an extra
    # per-fetch instruction cost.
    shader_issued_fetch_cycles: float = 0.0
    # Scale factor on BVH sizes (AMD builds larger BVHs; Section VI).
    bvh_size_scale: float = 1.0
    # Maximum single buffer allocation (Vulkan limit, bytes). ``None``
    # disables the check. On AMD this is 4 GB and makes the monolithic
    # baselines fail to run (Figure 24).
    max_buffer_bytes: int | None = None

    # Sibling-node prefetcher (Section V-A) enabled?
    prefetch_enabled: bool = True

    # Rasterizer cost model (Figure 4a): per-unit costs, normalized by the
    # same clock so raster and RT land on one cycle axis.
    raster_preprocess_cycles: float = 40.0
    raster_pair_cycles: float = 1.2
    raster_sort_op_cycles: float = 0.6
    raster_parallelism: float = 128.0

    def __post_init__(self) -> None:
        if self.dram_model not in ("flat", "banked"):
            raise ValueError(f"unknown dram model {self.dram_model!r}")

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert model cycles to milliseconds at the configured clock."""
        return cycles / (self.clock_mhz * 1e3)

    @classmethod
    def rtx_like(cls) -> "GpuConfig":
        """The paper's default simulated GPU (Table I)."""
        return cls()

    @classmethod
    def amd_like(cls, scene_scale: float = 1.0) -> "GpuConfig":
        """An RDNA-style GPU for the Figure 24 cross-vendor experiment.

        Differences from the default: node fetches are issued by shader
        cores (only intersection math is fixed-function), the BVH builder
        produces ~1.8x larger structures, and Vulkan caps single buffer
        allocations at 4 GB. ``scene_scale`` shrinks the allocation cap in
        proportion to our down-scaled scenes so the same workloads exceed
        it exactly as the paper's full-size scenes do.
        """
        cap = int(4 * 1024 ** 3 * scene_scale)
        return replace(
            cls(),
            name="amd-like",
            shader_issued_fetch_cycles=2.0,
            bvh_size_scale=1.8,
            max_buffer_bytes=cap,
        )

    def table1_rows(self) -> list[tuple[str, str]]:
        """The simulation-configuration rows of Table I."""
        return [
            ("# Streaming Multiprocessors (SM)", f"{self.n_sms}, {self.clock_mhz:.0f} MHz, in-order"),
            ("SIMT Lanes per SM", f"{self.simt_lanes} (4 warp schedulers)"),
            ("L1D Cache", f"{self.l1_bytes // 1024} KB, {self.l1_line_bytes}B line, "
                          f"{self.l1_ways}-way LRU, {self.l1_latency} cycles"),
            ("L2 Cache (Unified)", f"{self.l2_bytes // (1024 * 1024)} MB, {self.l2_line_bytes}B line, "
                                   f"{self.l2_ways}-way LRU, {self.l2_latency} cycles"),
            ("# RT Units per SM", str(self.rt_units_per_sm)),
            ("Warp Buffer Size", str(self.warp_buffer_size)),
        ]
