"""The render service under an open loop.

One generator thread sends a seeded schedule into
``RenderServer(workers=2)`` at a fixed offered rate, whatever the server
does. Each request is timed from its scheduled send time to completion.
The mix: 64x64 ``tlas+sphere`` baseline (wavefront, in-process), 32x32
``20-tri`` baseline (packet tiles on the pool) and 32x32 ``tlas+sphere``
grtx (scalar checkpointing tiles on the pool). A third of requests repeat
an earlier frame; distinct frames differ by ``k``; a few requests name a
new scene seed, which makes the registry build a scene and a structure.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import wait

import numpy as np

from common import (
    Measurement,
    RenderTally,
    phase_sums,
    timed_build,
    timed_generate,
)
from repro import RenderRequest, RenderServer, SceneRef, SceneRegistry
from repro.obs import get_registry
from repro.serve.server import ServerSaturated
from stats import available_cores, median, percentile, tail_quantile

SCENE = "train"
SCALE = 1.0 / 2000.0
WORKERS = 2
TILE = 16
#: Offered load, requests per second (about two thirds of what the host
#: can render at this mix).
RATE = 0.8
#: A repeat asks for a frame at least this many requests older.
REPEAT_GAP = 3
#: A request slower than this, from its scheduled send, misses.
LIMIT_S = 10.0
#: Longest wait for the last responses after the schedule ends.
DRAIN_S = 60.0
CLASSES = {
    "wavefront": dict(proxy="tlas+sphere", mode="baseline", width=64,
                      height=64),
    "pooled-packet": dict(proxy="20-tri", mode="baseline", width=32,
                          height=32),
    "pooled-scalar": dict(proxy="tlas+sphere", mode="grtx", width=32,
                          height=32),
}
BASE = SceneRef(SCENE, scale=SCALE)

#: Set-ups per run; setup_s is their median.
SETUPS = 3

def _request(scene: SceneRef, klass: str, k: int) -> RenderRequest:
    return RenderRequest(scene, k=k, engine="auto", **CLASSES[klass])


def _klass(request: RenderRequest) -> str:
    return next(name for name, spec in CLASSES.items()
                if all(getattr(request, f) == v for f, v in spec.items()))


def schedule(seed: int, seconds: float) -> list[tuple[float, RenderRequest]]:
    """(send offset in seconds, request) pairs, one every ``1 / RATE`` s.

    Requests come in blocks of three: two new frames, then a repeat of a
    frame sent at least ``REPEAT_GAP`` requests earlier (so it is most
    likely finished and served from the cache). New frames take the
    classes in turn and, in every fourth block, the first names a new
    scene seed. The pattern is fixed so that every run offers the same mix
    at every point; the seed draws the order of each class's ``k`` values
    (4, 5, ...), the new scene seeds and which earlier frame each repeat
    asks for.
    """
    rng = np.random.default_rng(seed)
    n = max(6, round(RATE * seconds))
    ks = {klass: (4 + rng.permutation(n // 3 + 1)).tolist()
          for klass in CLASSES}
    order = list(CLASSES)
    requests: list[RenderRequest] = []
    new = 0
    for index in range(n):
        block, slot = divmod(index, 3)
        if slot == 2:
            earlier = requests[:max(1, index - REPEAT_GAP + 1)]
            requests.append(earlier[int(rng.integers(len(earlier)))])
            continue
        klass = order[new % len(order)]
        new += 1
        if block % 4 == 3 and slot == 0:
            scene = SceneRef(SCENE, scale=SCALE,
                             seed=int(rng.integers(10_000, 2**31)))
            requests.append(_request(scene, klass, 8))
        else:
            requests.append(_request(BASE, klass, ks[klass].pop()))
    return [(i / RATE, request) for i, request in enumerate(requests)]


def setup(seed: int, rec) -> tuple[dict, dict]:
    cores = available_cores()
    if WORKERS > cores:
        raise SystemExit(f"serve needs {WORKERS} pool workers but only "
                         f"{cores} core(s) are available; refusing to run")
    layer: dict[str, float] = {}
    registry = SceneRegistry(scene_capacity=32, structure_capacity=64)
    timed_generate(rec, layer, lambda: registry.scene(BASE))
    for proxy in dict.fromkeys(c["proxy"] for c in CLASSES.values()):
        timed_build(rec, layer, proxy,
                    lambda p=proxy: registry.structure(BASE, p))
    server = RenderServer(registry=registry, workers=WORKERS,
                          tile_size=(TILE, TILE), max_pending=1024,
                          frame_cache_size=256)
    # Start the pool and ship the base scene: k=2 is never scheduled.
    with rec.span("warm", "serve"):
        server.render(_request(BASE, "pooled-packet", 2))
    return {"server": server, "registry": registry, "seed": seed}, layer


def _counters(server) -> dict:
    report = server.stats_report()
    out = {f"server.{k}": v for k, v in report["server"].items()
           if isinstance(v, (int, float))}
    out.update({f"pool.{k}": v for k, v in report["pool"].items()
                if isinstance(v, (int, float))})
    out["registry.builds"] = server.registry.builds
    hist = get_registry().histogram("tiles.tile_seconds")
    out["tiles.sum"] = hist.sum if hist is not None else 0.0
    out["tiles.count"] = hist.count if hist is not None else 0
    out.update({f"phase.{k}": v for k, v in phase_sums().items()})
    return out


def measure(ctx, seconds: float, rec) -> Measurement:
    m = Measurement()
    server = ctx["server"]
    plan = schedule(ctx["seed"], seconds)
    done_at: dict[int, float] = {}
    lock = threading.Lock()
    jobs, sent, outstanding = [], [], []
    before = _counters(server)
    cpu0 = os.times()
    start = time.perf_counter()
    root = rec.begin("schedule", "bench")
    for index, (offset, request) in enumerate(plan):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent.append(time.perf_counter())
        with lock:
            outstanding.append(index - len(done_at))
        try:
            job = server.submit(request)
        except ServerSaturated:
            jobs.append(None)
            continue

        def _done(_future, i=index) -> None:
            with lock:
                done_at[i] = time.perf_counter()

        job.future.add_done_callback(_done)
        jobs.append(job)
    end_of_schedule = time.perf_counter()
    _, pending = wait([job.future for job in jobs if job is not None],
                      timeout=DRAIN_S)
    rec.end(root)
    ns_offset = time.time_ns() - time.perf_counter() * 1e9
    latencies, services, queue_waits = [], [], []
    tally = RenderTally(in_process=False)
    images: dict[tuple, np.ndarray] = {}
    responses = {}
    cold: dict[str, list] = {klass: [] for klass in CLASSES}
    for index, job in enumerate(jobs):
        m.attempted += 1
        if job is None:
            m.fail(f"request {index} was rejected")
            continue
        if job.future in pending:
            m.fail(f"request {index} did not finish within {DRAIN_S}s")
            job.future.cancel()
            continue
        if job.future.exception() is not None:
            m.fail(f"request {index} raised {job.future.exception()!r}")
            continue
        response = job.future.result()
        due = start + plan[index][0]
        latency = done_at[index] - due
        latencies.append(latency)
        services.append(response.latency_s)
        queue_waits.append(max(0.0, done_at[index] - sent[index]
                               - response.latency_s))
        if latency <= LIMIT_S:
            m.on_time.add(index)
        rec.detached("request", "serve", int(sent[index] * 1e9 + ns_offset),
                     int(done_at[index] * 1e9 + ns_offset), request=index,
                     parent=root.span_id if root else None)
        key = response.request.frame_key(response.scene_hash)
        if key in images and not np.array_equal(images[key], response.image):
            m.fail(f"request {index} differs from an earlier response for "
                   "the same frame", units=[index])
        images.setdefault(key, response.image)
        if not (response.frame_cache_hit or response.coalesced):
            no_phase = dict.fromkeys(tally.phases, 0.0)
            tally.add(response.stats, response.latency_s, no_phase, no_phase)
            responses.setdefault(response.request, (index, response))
            cold[_klass(response.request)].append(response.latency_s)
    m.units = latencies
    for klass, samples in cold.items():
        m.layer[f"serve.service_ms.{klass}"] = median(samples) * 1e3
    # Goodput counts over the time the work took: first send to last
    # completion.
    m.seconds = max(done_at.values(), default=end_of_schedule) - start
    m.outputs = responses
    # Read the counters before close(): it drops the pool and its stats.
    after = _counters(server)
    server.close()
    # After close(), so the reaped workers' CPU time is counted.
    cpu1 = os.times()
    _serve_layer(m, plan, before, after, tally, services, queue_waits, sent,
                 start, outstanding)
    busy = (cpu1.user - cpu0.user + cpu1.system - cpu0.system
            + cpu1.children_user - cpu0.children_user
            + cpu1.children_system - cpu0.children_system)
    wall = max(end_of_schedule, max(done_at.values(), default=0.0)) - start
    m.layer["serve.cpu_utilization"] = busy / (wall * available_cores())
    m.notes.append(f"host CPU busy {m.layer['serve.cpu_utilization']:.0%} "
                   f"of {available_cores()} cores while serving")
    return m


def _serve_layer(m, plan, before, after, tally, services, queue_waits, sent,
                 start, outstanding) -> None:
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    n = len(m.units)
    q = tail_quantile(n)
    # Pool workers report engine phases with their task results, so the
    # phase totals are read from the registry around the whole run.
    tally.phases = {p: delta[f"phase.{p}"] for p in tally.phases}
    m.layer.update(tally.metrics())
    m.layer["pool.tile_s"] = (delta["tiles.sum"] / delta["tiles.count"]
                              if delta["tiles.count"] else 0.0)
    for name in ("tasks_completed", "steals", "scene_ships",
                 "scene_cache_hits", "requeues"):
        short = "tasks" if name == "tasks_completed" else name
        m.layer[f"pool.{short}"] = delta.get(f"pool.{name}", 0)
    if m.layer["pool.tasks"] <= 0:
        m.fail("no task ran on the pool; its counters were not read")
    for label, samples in (("queue_wait_ms", queue_waits),
                           ("service_ms", services)):
        if samples:
            m.layer[f"serve.{label}.p50"] = percentile(samples, 0.5) * 1e3
            m.layer[f"serve.{label}.tail"] = percentile(samples, q) * 1e3
    if m.units:
        m.layer["serve.latency_ms.tail"] = percentile(m.units, q) * 1e3
    m.layer["serve.tail_quantile"] = q
    m.layer["serve.samples"] = n
    requests = delta.get("server.requests", 0)
    m.layer["serve.frame_hit_rate"] = (delta.get("server.frame_hits", 0)
                                       / requests if requests else 0.0)
    for name in ("coalesced", "rendered", "rejected"):
        m.layer[f"serve.{name}"] = delta.get(f"server.{name}", 0)
    builds = delta.get("registry.builds", 0)
    new_pairs = {(r.scene_ref.key, r.proxy) for _, r in plan
                 if r.scene_ref != BASE}
    m.layer["serve.builds"] = builds
    m.layer["serve.redundant_builds"] = builds - len(new_pairs)
    lags = [(s - start - offset) * 1e3 for s, (offset, _) in zip(sent, plan)]
    m.layer["serve.generator_lag_ms"] = max(lags, default=0.0)
    half = len(outstanding) // 2
    early = median(outstanding[:half]) if half else 0
    late = outstanding[-1] if outstanding else 0
    growing = late > 2 * early + 2
    m.layer["serve.backlog_growing"] = int(growing)
    m.notes.append(
        f"{n} requests, tail is p{round(q * 100)}; backlog at last send "
        f"{late} (median over the first half {early}); max generator lag "
        f"{m.layer['serve.generator_lag_ms']:.1f} ms")
    if growing:
        m.notes.append("WARNING: backlog still growing when the schedule "
                       "ended; latencies are not steady-state")
    if m.layer["serve.redundant_builds"]:
        m.fail(f"{m.layer['serve.redundant_builds']} redundant builds")


def check(ctx, m: Measurement) -> None:
    """One cold response per class is bit-identical to an in-process
    serial render of the same request."""
    rng = np.random.default_rng(ctx["seed"])
    by_class: dict[str, list] = {}
    for request, sample in m.outputs.items():
        by_class.setdefault(_klass(request), []).append(sample)
    with RenderServer(registry=ctx["registry"], workers=1,
                      tile_size=(TILE, TILE)) as serial:
        for klass in sorted(by_class):
            options = by_class[klass]
            index, response = options[int(rng.integers(len(options)))]
            want = serial.render(response.request)
            if not np.array_equal(want.image, response.image):
                m.fail(f"{klass} response for k={response.request.k} is not "
                       "bit-identical to a serial render", units=[index])


def close(ctx) -> None:
    ctx["server"].close()
    ctx.clear()
