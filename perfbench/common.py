"""Helpers the workloads share: the measurement record and render counts."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from catalog import PROXY_NAMES
from repro import structure_stats
from repro.bvh.flatten import flatten
from repro.obs import get_registry

PHASES = ("bin", "traversal", "intersect", "blend")


def phase_sums() -> dict[str, float]:
    """Current totals of the engines' ``rt.phase.*`` histograms (s)."""
    registry = get_registry()
    out = {}
    for phase in PHASES:
        hist = registry.histogram(f"rt.phase.{phase}")
        out[phase] = hist.sum if hist is not None else 0.0
    return out


def timed_generate(rec, layer: dict, generate):
    """Run ``generate()`` (scene generation) under a gaussians span."""
    t0 = time.perf_counter()
    with rec.span("make_workload", "gaussians"):
        cloud = generate()
    layer["gaussians.generate_s"] = time.perf_counter() - t0
    return cloud


def timed_build(rec, layer: dict, proxy: str, build):
    """Run ``build()`` and flatten its structure under bvh spans, and
    record the build and flatten times and the node and byte counts."""
    t0 = time.perf_counter()
    with rec.span("build", "bvh", proxy=proxy):
        structure = build()
    t1 = time.perf_counter()
    with rec.span("flatten", "bvh", proxy=proxy):
        flatten(structure)
    layer["bvh.flatten_s"] = (layer.get("bvh.flatten_s", 0.0)
                              + time.perf_counter() - t1)
    name = PROXY_NAMES[proxy]
    layer[f"bvh.build_s.{name}"] = t1 - t0
    bvh = structure_stats(structure)
    layer[f"bvh.nodes.{name}"] = bvh.n_internal_nodes + bvh.n_leaves
    layer[f"bvh.bytes.{name}"] = bvh.total_bytes
    return structure


@dataclass
class RenderTally:
    """Per-frame engine work summed over the frames of one measurement."""

    frames: int = 0
    wall_s: float = 0.0
    phases: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    node_visits: int = 0
    anyhit_calls: int = 0
    blended: int = 0
    #: Whether frames ran in this process, one at a time; only then is a
    #: frame's wall time minus its phase sums the time outside the phases.
    in_process: bool = True

    def add(self, stats, wall_s: float, before: dict, after: dict) -> None:
        """Count one frame: its RenderStats, wall time and the phase-sum
        readings taken around it."""
        self.frames += 1
        self.wall_s += wall_s
        for phase in PHASES:
            self.phases[phase] += after[phase] - before[phase]
        self.node_visits += stats.total_visits
        self.anyhit_calls += stats.anyhit_calls
        self.blended += stats.blended_total

    def metrics(self) -> dict[str, float]:
        """Per-frame means, under the per-layer metric names."""
        n = max(self.frames, 1)
        out = {f"rt.phase.{p}_s": self.phases[p] / n for p in PHASES}
        out["rt.node_visits"] = self.node_visits / n
        out["rt.anyhit_calls"] = self.anyhit_calls / n
        out["rt.blended"] = self.blended / n
        out["rt.blend_yield"] = (self.blended / self.anyhit_calls
                                 if self.anyhit_calls else 0.0)
        if self.in_process:
            out["render.other_s"] = (self.wall_s
                                     - sum(self.phases.values())) / n
        return out


@dataclass
class Measurement:
    """What one timed loop produced.

    ``units`` holds wall seconds per unit of work (campaign pass,
    request); ``on_time`` holds the indices of units that completed within
    the workload's limit and ``bad`` those an output check failed;
    ``attempted``/``failed`` feed the result line; ``layer`` holds
    per-layer metric values; ``notes`` are printed lines; ``outputs`` keeps
    what the workload's output check reads.
    """

    units: list = field(default_factory=list)
    seconds: float = 0.0
    on_time: set = field(default_factory=set)
    bad: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def good(self) -> int:
        """Units that completed in time and passed every output check."""
        return len(self.on_time - self.bad)

    def fail(self, message: str, count: int = 1, units=()) -> None:
        """Count ``count`` failures; ``units`` are the indices of the units
        of work whose output was wrong, which then are not good."""
        self.failed += count
        self.bad.update(units)
        self.notes.append(f"FAILED: {message}")
