"""RT-unit checkpoint hardware accounting (Table III, Figure 20).

GRTX-HW extends each RT unit's warp buffer with checkpoint bookkeeping:
per thread a replay flag and source/destination offsets into the (global
memory resident) checkpoint buffer, plus per-RT-unit source/destination
base addresses and a max-size register. Table III totals this at 1.05 KB
per RT core; the checkpoint and eviction buffers themselves live in
global memory, sized by the maximum number of concurrently resident rays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hwsim.config import GpuConfig

#: Serialized entry sizes from Section IV-B of the paper.
CHECKPOINT_ENTRY_BYTES = 20  # 8 B node addr + 8 B TLAS leaf addr + 4 B t
EVICTION_ENTRY_BYTES = 8  # 4 B primitive id + 4 B t


@dataclass(frozen=True)
class CheckpointHardware:
    """Per-RT-core storage added by GRTX-HW."""

    per_thread_bits: int
    threads_per_warp: int
    warps: int
    base_register_bytes: int

    @property
    def per_thread_bytes(self) -> float:
        return self.per_thread_bits / 8.0

    @property
    def total_bytes(self) -> float:
        return self.per_thread_bytes * self.threads_per_warp * self.warps + self.base_register_bytes

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024.0


def checkpoint_hardware_cost(config: GpuConfig | None = None) -> CheckpointHardware:
    """Table III: 1-bit replay flag + 2 B src offset + 2 B dst offset per
    thread, times 32 threads times 8 warp-buffer entries, plus 8 B src
    address, 8 B dst address and 2 B max size per RT core."""
    config = config or GpuConfig()
    return CheckpointHardware(
        per_thread_bits=1 + 16 + 16,
        threads_per_warp=config.warp_size,
        warps=config.warp_buffer_size,
        base_register_bytes=8 + 8 + 2,
    )


def checkpoint_buffer_bytes(
    ckpt_high_water: int,
    evict_high_water: int,
    config: GpuConfig | None = None,
    max_warps_per_sm: int = 32,
) -> tuple[int, int]:
    """Global-memory allocation for the checkpoint and eviction buffers.

    The buffers are sized by the worst-case per-ray entry count times the
    maximum number of concurrently resident rays (max warps/SM x warp
    size x SMs), doubled for the ping-pong source/destination pair in the
    checkpoint case. Returns ``(checkpoint_bytes, eviction_bytes)``.
    """
    config = config or GpuConfig()
    concurrent_rays = config.n_sms * max_warps_per_sm * config.warp_size
    ckpt = 2 * ckpt_high_water * CHECKPOINT_ENTRY_BYTES * concurrent_rays
    evict = 2 * evict_high_water * EVICTION_ENTRY_BYTES * concurrent_rays
    return ckpt, evict
