"""The seeded chaos drill: every hardening path, one reproducible run.

:func:`run_drill` is the end-to-end exercise behind ``repro
chaos-drill`` and the CI ``chaos-smoke`` gate. It renders a set of
frames fault-free and serially (the bit-identical reference), then
replays the identical requests on a pooled server under a seeded
:mod:`repro.chaos` schedule that manufactures the ISSUE's required
fault menagerie — a worker SIGKILL, a worker SIGSTOP hang, a corrupt
registry disk-cache entry, a transient spool-write failure, a slow
request — plus a poison task that SIGKILLs every worker it touches.

The drill then asserts the hardening actually engaged:

* every request completed with pixels **bit-identical** to the
  fault-free serial run (the standing parity contract survives kills,
  hangs, requeues, and cache rebuilds);
* the hung worker was reaped by the watchdog (``deadline_kills``);
* the poison task was quarantined after killing distinct workers
  (``quarantined``, with a ``poison-task-quarantined`` bundle);
* the corrupt cache entry was evicted and rebuilt (``disk_rejects``);
* ``repro doctor`` attributes the injected kill and hang to the chaos
  schedule (the CHAOS breadcrumbs survive into worker checkpoints and
  incident bundles).

Everything runs against a throwaway flight/cache/token directory and
restores process state on exit, so the drill composes with test runs.
"""

from __future__ import annotations

import glob
import os
import shutil
import tempfile
import time

import numpy as np

import repro.chaos as chaos
from repro.obs import doctor, flight
from repro.pool import WorkerCrashError, WorkerPool
from repro.serve import RenderRequest, RenderServer, SceneRegistry, SceneRef

#: The seeded schedule the drill arms (worker-side invocation counts:
#: each worker process counts its own task starts, so the ``:once``
#: tokens are what make the kill and hang fire exactly once fleet-wide).
DRILL_SCHEDULE = (
    "pool.worker.task=kill@2:once;"
    "pool.worker.task=hang@4:once;"
    "registry.disk_load=corrupt@1:once;"
    # The spool fault must hit an invocation that carries no evidence:
    # a worker's 3rd spool write is the kill's own re-checkpoint (task 2
    # start + directive re-checkpoint), and eating that would erase the
    # CHAOS breadcrumb the doctor-attribution assertion looks for. The
    # 1st write is a plain task-start checkpoint, overwritten one task
    # later — losing it proves spool writes tolerate transient OSErrors
    # without costing the drill any forensics.
    "flight.spool=oserror@1:once;"
    "serve.request=slow(0.01)@1"
)

_ENV_KEYS = ("REPRO_CHAOS", "REPRO_CHAOS_SEED", "REPRO_CHAOS_TOKENS")


def _requests(scene: str, frames: int, size: int, scale: float):
    return [
        RenderRequest(
            scene=SceneRef(name=scene, scale=scale, seed=index),
            proxy="tlas+sphere", mode="grtx", k=8,
            width=size, height=size)
        for index in range(frames)
    ]


def run_drill(
    scene: str = "train",
    size: int = 32,
    frames: int = 5,
    workers: int = 2,
    deadline_s: float = 2.0,
    seed: int = 0,
    scale: float = 1.0 / 10000.0,
    keep_dir: str | None = None,
) -> dict:
    """Run the full chaos drill; returns a summary dict.

    ``summary["failures"]`` is the list of violated expectations —
    empty means the drill passed. ``keep_dir`` preserves the drill's
    flight/cache directory for post-mortem instead of deleting it.
    """
    started = time.perf_counter()
    root = keep_dir or tempfile.mkdtemp(prefix="repro-chaos-drill-")
    flight_dir = os.path.join(root, "flight")
    cache_dir = os.path.join(root, "bvh-cache")
    token_dir = os.path.join(root, "tokens")
    saved_env = {key: os.environ.get(key) for key in _ENV_KEYS}
    saved_flight_dir = flight.dir_override()
    failures: list[str] = []
    requests = _requests(scene, frames, size, scale)
    pool = None
    try:
        flight.configure(directory=flight_dir, min_interval=0.0)
        flight.reset()

        # Phase 1 — the fault-free serial reference. Also warms the
        # disk BVH cache the chaos run will find (and corrupt).
        with RenderServer(registry=SceneRegistry(cache_dir=cache_dir),
                          tile_size=(8, 8), workers=1) as reference_server:
            reference = [reference_server.render(r).image for r in requests]

        # Phase 2 — identical requests, pooled, under the schedule.
        # Env carries the schedule into (forked or spawned) workers;
        # configure() arms this process for the parent-side points.
        os.environ["REPRO_CHAOS"] = DRILL_SCHEDULE
        os.environ["REPRO_CHAOS_SEED"] = str(seed)
        os.environ["REPRO_CHAOS_TOKENS"] = token_dir
        chaos.configure(spec=DRILL_SCHEDULE, seed=seed, token_dir=token_dir)
        pool = WorkerPool(workers=workers, task_deadline_s=deadline_s,
                          poison_threshold=2)
        registry = SceneRegistry(cache_dir=cache_dir)
        with RenderServer(registry=registry, tile_size=(8, 8),
                          workers=workers, pool=pool) as server:
            for index, request in enumerate(requests):
                image = server.render(request).image
                if not np.array_equal(image, reference[index]):
                    failures.append(
                        f"frame {index} is not bit-identical to the "
                        "fault-free serial reference")

            # Phase 3 — the poison task: SIGKILLs every worker that
            # runs it; poison_threshold=2 must quarantine it fast.
            try:
                pool.submit(chaos.poison_task).result(timeout=60)
                failures.append("poison task returned instead of being "
                                "quarantined")
            except WorkerCrashError as exc:
                if "quarantined" not in str(exc):
                    failures.append(
                        f"poison task failed without quarantine: {exc}")
            except Exception as exc:
                failures.append(f"poison task raised unexpectedly: {exc!r}")

            pool_stats = pool.stats()
            registry_counters = registry.counters()

        # The server does not own the external pool; close it here so
        # every queued incident bundle is flushed before the glob below.
        pool.close(wait=False, timeout=10.0)

        # Phase 4 — the books must balance.
        if pool_stats.get("crashes", 0) < 3:
            failures.append("expected >= 3 worker crashes "
                            f"(kill + hang + poison), saw {pool_stats}")
        if pool_stats.get("deadline_kills", 0) < 1:
            failures.append("the hung (SIGSTOPped) worker was never "
                            "reaped by the watchdog")
        if pool_stats.get("quarantined", 0) < 1:
            failures.append("the poison task was never quarantined")
        if registry_counters.get("disk_rejects", 0) < 1:
            failures.append("the corrupted disk-cache entry was never "
                            "detected and evicted")

        # Phase 5 — the doctor must name the injected faults.
        incidents = []
        reasons: set[str] = set()
        attributed: set[str] = set()
        watchdog_named = False
        for path in sorted(glob.glob(
                os.path.join(flight_dir, "incident-*.json"))):
            bundle = doctor.load_bundle(path)
            analysis = doctor.triage(bundle)
            reasons.add(str(analysis["reason"]))
            causes = analysis["probable_causes"]
            watchdog_named = watchdog_named or any(
                "watchdog" in cause for cause in causes)
            for event in analysis["timeline"]:
                if event.get("kind") == "chaos":
                    data = event.get("data") or {}
                    attributed.add(
                        f"{data.get('point')}:{data.get('directive')}")
            incidents.append({
                "bundle": os.path.basename(path),
                "reason": analysis["reason"],
                "chaos_attributed": any("injected fault" in cause
                                        for cause in causes),
                "anomalies": analysis["anomalies"],
            })
        if "worker-crash" not in reasons:
            failures.append(f"no worker-crash bundle dumped ({reasons})")
        if "poison-task-quarantined" not in reasons:
            failures.append(f"no quarantine bundle dumped ({reasons})")
        if "pool.worker.task:kill" not in attributed:
            failures.append("the injected SIGKILL never surfaced in a "
                            f"bundle timeline (saw {sorted(attributed)})")
        if "pool.worker.task:hang" not in attributed:
            failures.append("the injected hang never surfaced in a "
                            f"bundle timeline (saw {sorted(attributed)})")
        if not watchdog_named:
            failures.append("no bundle's probable causes named the "
                            "hung-worker watchdog")

        return {
            "ok": not failures,
            "failures": failures,
            "schedule": DRILL_SCHEDULE,
            "seed": seed,
            "frames": frames,
            "bit_identical": not any("bit-identical" in f
                                     for f in failures),
            "pool": pool_stats,
            "registry": registry_counters,
            "chaos_fired_parent": chaos.fired(),
            "attributed_faults": sorted(attributed),
            "incident_reasons": sorted(reasons),
            "incidents": incidents,
            "elapsed_s": round(time.perf_counter() - started, 3),
        }
    finally:
        if pool is not None and not pool.closed:
            pool.close(wait=False, timeout=5.0)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        chaos.reset()
        flight.configure(directory=saved_flight_dir or "",
                         min_interval=flight.DEFAULT_MIN_INTERVAL)
        flight.reset()
        if keep_dir is None:
            shutil.rmtree(root, ignore_errors=True)


def format_summary(summary: dict) -> str:
    """The human report ``repro chaos-drill`` prints."""
    lines = []
    lines.append("chaos drill")
    lines.append("=" * 63)
    lines.append(f"schedule:  {summary['schedule']}")
    lines.append(f"seed:      {summary['seed']}")
    lines.append(f"frames:    {summary['frames']} "
                 f"(bit-identical: {summary['bit_identical']})")
    lines.append(f"elapsed:   {summary['elapsed_s']}s")
    pool = summary["pool"]
    lines.append(f"pool:      crashes={pool.get('crashes')} "
                 f"requeues={pool.get('requeues')} "
                 f"deadline_kills={pool.get('deadline_kills')} "
                 f"quarantined={pool.get('quarantined')}")
    registry = summary["registry"]
    lines.append(f"registry:  disk_rejects={registry.get('disk_rejects')} "
                 f"disk_hits={registry.get('disk_hits')} "
                 f"builds={registry.get('structure_builds')}")
    lines.append(f"doctor:    reasons={summary['incident_reasons']}")
    lines.append(f"           attributed={summary['attributed_faults']}")
    lines.append("")
    if summary["ok"]:
        lines.append("PASS: every fault fired, every hardening path "
                     "engaged, every frame bit-identical")
    else:
        lines.append(f"FAIL ({len(summary['failures'])} violations):")
        for failure in summary["failures"]:
            lines.append(f"  * {failure}")
    return "\n".join(lines)
