"""The paper campaign: Figure 13's four configurations, record then replay.

Inputs are the paper's experiment and do not vary: ``train`` at the
campaign default scale (1/400), k=8, multiround, at 12x12 pixels rather
than the default 20x20 so that a pass fits a benchmark run. The seed only
fixes the order the configurations run in, so every simulated statistic
can be compared exactly with the committed reference.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from catalog import CONFIG_NAMES
from common import (
    Measurement,
    RenderTally,
    phase_sums,
    timed_build,
    timed_generate,
)
from stats import median
from repro import (
    GaussianRayTracer,
    GpuConfig,
    TraceConfig,
    default_camera_for,
    make_workload,
    replay,
)
from repro.eval.harness import FIG13_CONFIGS, build_structure_for

SCENE = "train"
SCALE = 1.0 / 400.0
RESOLUTION = 12
K = 8
REFERENCE = Path(__file__).resolve().parent / "reference" / "campaign.json"
#: Set-ups per run: one, as the 20-tri build alone takes 5-9 s.
SETUPS = 1


def setup(seed: int, rec) -> tuple[dict, dict]:
    layer: dict[str, float] = {}
    cloud = timed_generate(rec, layer,
                           lambda: make_workload(SCENE, scale=SCALE))
    structures = {
        proxy: timed_build(rec, layer, proxy,
                           lambda p=proxy: build_structure_for(cloud, p))
        for proxy in dict.fromkeys(c["proxy"] for c in FIG13_CONFIGS.values())
    }
    camera = default_camera_for(cloud, 64, 64).with_resolution(RESOLUTION,
                                                               RESOLUTION)
    order = list(FIG13_CONFIGS)
    np.random.default_rng(seed).shuffle(order)
    ctx = {"cloud": cloud, "structures": structures, "camera": camera,
           "order": order}
    return ctx, layer


def _run_config(ctx, name: str, rec, tally: RenderTally) -> dict:
    """One config exactly as ``eval.harness.run_config`` runs it."""
    spec = FIG13_CONFIGS[name]
    config = TraceConfig(k=K, mode="multiround",
                         checkpointing=spec["checkpointing"])
    with rec.span("config", "eval", config=name):
        t0 = time.perf_counter()
        before = phase_sums()
        with rec.span("render", "render", config=name):
            renderer = GaussianRayTracer(ctx["cloud"],
                                         ctx["structures"][spec["proxy"]],
                                         config, engine="auto")
            result = renderer.render(ctx["camera"], keep_traces=True)
        t1 = time.perf_counter()
        tally.add(result.stats, t1 - t0, before, phase_sums())
        with rec.span("replay", "hwsim", config=name):
            timing = replay(result.traces, GpuConfig.rtx_like())
        t2 = time.perf_counter()
    events = sum(trace.total_fetches for trace in result.traces)
    result.drop_traces()
    return {"record_s": t1 - t0, "replay_s": t2 - t1, "events": events,
            "timing": asdict(timing), "stats": asdict(result.stats)}


def measure(ctx, seconds: float, rec) -> Measurement:
    """Whole passes over the four configs: at least one, and another only
    while it is expected to end within ``seconds``."""
    m = Measurement()
    tally = RenderTally()
    per_config: dict[str, list] = {name: [] for name in FIG13_CONFIGS}
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for name in ctx["order"]:
            per_config[name].append(_run_config(ctx, name, rec, tally))
        m.units.append(time.perf_counter() - t0)
        if time.perf_counter() - started + median(m.units) > seconds:
            break
    m.seconds = time.perf_counter() - started
    m.on_time = set(range(len(m.units)))
    m.attempted = len(m.units) * len(FIG13_CONFIGS)
    m.layer.update(tally.metrics())
    for name, runs in per_config.items():
        tag = CONFIG_NAMES[name]
        last = runs[-1]
        record = median([r["record_s"] for r in runs])
        replay_s = median([r["replay_s"] for r in runs])
        m.layer[f"rt.record_s.{tag}"] = record
        m.layer[f"hwsim.replay_s.{tag}"] = replay_s
        m.layer[f"eval.config_s.{tag}"] = record + replay_s
        m.layer[f"hwsim.events.{tag}"] = last["events"]
        m.layer[f"hwsim.events_per_s.{tag}"] = last["events"] / replay_s
        m.layer[f"hwsim.cycles.{tag}"] = last["timing"]["cycles"]
        m.layer[f"hwsim.node_fetches.{tag}"] = last["timing"]["node_fetches"]
        l1 = last["timing"]
        m.layer[f"hwsim.l1_hit_rate.{tag}"] = (
            l1["l1_hits"] / l1["l1_accesses"] if l1["l1_accesses"] else 0.0)
    cycles = {name: runs[-1]["timing"]["cycles"]
              for name, runs in per_config.items()}
    m.layer["hwsim.sim_speedup"] = cycles["Baseline"] / cycles["GRTX"]
    m.outputs = per_config
    m.notes.append("simulated cycles: " + ", ".join(
        f"{name} {cycles[name]:.3f}" for name in FIG13_CONFIGS)
        + f"; Baseline/GRTX {m.layer['hwsim.sim_speedup']:.4f}x")
    return m


def observed(per_config: dict, run: int) -> dict:
    return {name: {"timing": runs[run]["timing"], "stats": runs[run]["stats"]}
            for name, runs in per_config.items()}


def check(ctx, m: Measurement) -> None:
    """Every simulated statistic of every pass equals the reference."""
    if not REFERENCE.exists():
        m.fail(f"missing reference file {REFERENCE.name}", m.attempted,
               units=range(len(m.units)))
        return
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    for run in range(len(m.units)):
        got = json.loads(json.dumps(observed(m.outputs, run)))
        for name in FIG13_CONFIGS:
            diff = [f"{part}.{key}"
                    for part in ("timing", "stats")
                    for key, want in reference[name][part].items()
                    if got[name][part].get(key) != want]
            if diff:
                m.fail(f"pass {run} {name} differs from the reference in "
                       + ", ".join(diff[:6]), units=[run])


def write_reference(m: Measurement) -> Path:
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(observed(m.outputs, 0), indent=1,
                                    sort_keys=True) + "\n", encoding="utf-8")
    return REFERENCE


def close(ctx) -> None:
    ctx.clear()
