"""Trace-driven GPU timing model (the Vulkan-Sim substitute).

The functional tracer records byte-accurate node-fetch traces; this
package replays them through a modeled memory hierarchy (per-SM L1,
shared L2, DRAM) and an RT-unit cost model (Figure 9's architecture) to
produce cycles, node-fetch counts, fetch latencies and cache statistics —
the exact quantities the paper's evaluation plots.
"""

from repro.hwsim.config import GpuConfig
from repro.hwsim.dram import DramModel, DramStats, DramTimings
from repro.hwsim.energy import EnergyParams, EnergyReport, estimate_energy
from repro.hwsim.replay import TimingReport, raster_cycles, replay
from repro.hwsim.rtunit import CheckpointHardware, checkpoint_hardware_cost
from repro.hwsim.treelet import build_treelet_map
from repro.hwsim.warp import WarpDivergenceReport, analyze_divergence

__all__ = [
    "CheckpointHardware",
    "DramModel",
    "DramStats",
    "DramTimings",
    "EnergyParams",
    "EnergyReport",
    "GpuConfig",
    "TimingReport",
    "WarpDivergenceReport",
    "analyze_divergence",
    "build_treelet_map",
    "checkpoint_hardware_cost",
    "estimate_energy",
    "raster_cycles",
    "replay",
]
