"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This module is the single source of ``BENCHMARK.json``
(``python3 perfbench/run.py --manifest`` rewrites it from here). Each
per-layer metric names the end-to-end metric it should move and on which
workload; that mapping is printed by ``--list-metrics`` and kept here
rather than in the manifest, whose schema has no room for it.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    ("campaign",
     "the paper's Figure 13 experiment (train 1/400, 12x12): trace "
     "recording, scalar checkpointing and hwsim replay dominate; no pool or "
     "serve code runs"),
    ("serve",
     "the only load on the pool, submit queue, frame cache and registry: "
     "cold renders, cache hits and scene builds side by side in an open "
     "loop"),
]

#: (name, unit, better, bound). Every workload reports every one of them;
#: the unit of work is a campaign pass or a served request.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("p50_ms", "ms", "lower", 0.25),
    ("goodput_per_s", "1/s", "higher", 0.25),
]

#: Structure labels and Figure 13 configs, as used in metric names
#: (which allow no ``+``).
PROXY_NAMES = {"20-tri": "20-tri", "tlas+20-tri": "tlas-20-tri",
               "tlas+sphere": "tlas-sphere"}
CONFIG_NAMES = {"Baseline": "baseline", "GRTX-SW": "grtx-sw",
                "GRTX-HW": "grtx-hw", "GRTX": "grtx"}

_ALL = "setup_s on every workload"
_CAMPAIGN = "p50_ms on campaign"
_SERVE = "p50_ms on serve"
_RENDER = "p50_ms on serve and campaign"


def _per_layer() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, moves)."""
    rows = [
        ("gaussians.generate_s", "s", "lower", _ALL),
        ("bvh.flatten_s", "s", "lower", _ALL),
    ]
    for proxy in PROXY_NAMES.values():
        rows += [
            (f"bvh.build_s.{proxy}", "s", "lower", _ALL),
            (f"bvh.nodes.{proxy}", "count", "lower",
             "p50_ms and hwsim.sim_speedup on campaign"),
            (f"bvh.bytes.{proxy}", "bytes", "lower",
             "p50_ms and hwsim.sim_speedup on campaign"),
        ]
    for phase in ("bin", "traversal", "intersect", "blend"):
        rows.append((f"rt.phase.{phase}_s", "s", "lower", _RENDER))
    rows += [
        ("rt.node_visits", "count", "lower", _RENDER),
        ("rt.anyhit_calls", "count", "lower", _RENDER),
        ("rt.blended", "count", "higher", _RENDER),
        ("rt.blend_yield", "ratio", "higher", _RENDER),
        ("render.other_s", "s", "lower", _CAMPAIGN),
        ("hwsim.sim_speedup", "ratio", "higher",
         "the paper's Figure 13 result on campaign"),
    ]
    for config in CONFIG_NAMES.values():
        rows += [
            (f"rt.record_s.{config}", "s", "lower", _CAMPAIGN),
            (f"eval.config_s.{config}", "s", "lower", _CAMPAIGN),
            (f"hwsim.replay_s.{config}", "s", "lower", _CAMPAIGN),
            (f"hwsim.events.{config}", "count", "lower", _CAMPAIGN),
            (f"hwsim.events_per_s.{config}", "1/s", "higher", _CAMPAIGN),
            (f"hwsim.cycles.{config}", "cycles", "lower",
             "hwsim.sim_speedup on campaign"),
            (f"hwsim.node_fetches.{config}", "count", "lower",
             "hwsim.sim_speedup on campaign"),
            (f"hwsim.l1_hit_rate.{config}", "ratio", "higher",
             "hwsim.sim_speedup on campaign"),
        ]
    rows += [
        ("pool.tile_s", "s", "lower", _SERVE),
        ("pool.tasks", "count", "lower", _SERVE),
        ("pool.steals", "count", "lower", _SERVE),
        ("pool.scene_ships", "count", "lower", _SERVE),
        ("pool.scene_cache_hits", "count", "higher", _SERVE),
        ("pool.requeues", "count", "lower", _SERVE),
        ("serve.queue_wait_ms.p50", "ms", "lower", _SERVE),
        ("serve.queue_wait_ms.tail", "ms", "lower", _SERVE),
        ("serve.service_ms.p50", "ms", "lower", _SERVE),
        ("serve.service_ms.tail", "ms", "lower", _SERVE),
        # Median cold-render service time per request class: the 20-tri
        # class against the two tlas+sphere ones separates a triangle
        # kernel change from everything else.
        ("serve.service_ms.wavefront", "ms", "lower", _SERVE),
        ("serve.service_ms.pooled-packet", "ms", "lower", _SERVE),
        ("serve.service_ms.pooled-scalar", "ms", "lower", _SERVE),
        ("serve.latency_ms.tail", "ms", "lower", _SERVE),
        ("serve.tail_quantile", "ratio", "higher",
         "nothing; states which percentile the tail metrics are"),
        ("serve.samples", "count", "higher",
         "nothing; the request count behind the serve percentiles"),
        ("serve.frame_hit_rate", "ratio", "higher", "goodput_per_s on serve"),
        ("serve.coalesced", "count", "higher", "goodput_per_s on serve"),
        ("serve.rendered", "count", "lower", "goodput_per_s on serve"),
        ("serve.rejected", "count", "lower", "goodput_per_s on serve"),
        ("serve.builds", "count", "lower", "goodput_per_s on serve"),
        ("serve.redundant_builds", "count", "lower", "goodput_per_s on serve"),
        ("serve.generator_lag_ms", "ms", "lower",
         "nothing; validates the open loop"),
        ("serve.backlog_growing", "count", "lower",
         "nothing; 1 flags a run whose queue still grew at the end"),
        ("serve.cpu_utilization", "ratio", "lower",
         "nothing; host CPU busy share during the schedule"),
        ("obs.tracing_overhead", "ratio", "lower",
         "nothing; traced over untraced time per unit of work"),
    ]
    for layer in SPAN_LAYERS:  # set-up spans in total, others per unit
        rows.append((f"self_s.{layer}", "s", "lower",
                     f"p50_ms on the workloads that call {layer}"))
    return rows


#: Layers the benchmark's own spans are attributed to.
SPAN_LAYERS = ("bench", "gaussians", "bvh", "render", "hwsim", "eval", "serve")

PER_LAYER = _per_layer()


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def write_manifest(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
    return path


def metric_table() -> str:
    """Every metric with its unit, direction and what it moves."""
    lines = ["end-to-end (bound = share of the parent median it may worsen):"]
    for n, u, b, bound in END_TO_END:
        lines.append(f"  {n:<32} {u:<7} {b:<7} bound {bound}")
    lines.append("per-layer (traced run; moves -> end-to-end metric):")
    for n, u, b, moves in PER_LAYER:
        lines.append(f"  {n:<32} {u:<7} {b:<7} -> {moves}")
    return "\n".join(lines)
