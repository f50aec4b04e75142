"""Persistent work-stealing worker pool.

``repro.pool`` is the process-level execution substrate shared by the
serving layer and the paper campaign:

* :mod:`repro.pool.executor` — :class:`WorkerPool`, a persistent fleet
  of worker processes with a future-based ``submit``/``map``/
  ``as_completed`` API and worker-crash detection with task requeue;
* :mod:`repro.pool.stealing` — per-worker deques with affinity placement
  and steal-half-on-idle balancing;
* :mod:`repro.pool.worker` — the long-lived worker process, holding a
  content-hash-keyed scene cache so repeated frames of one scene ship
  only a hash.

Quickstart::

    from repro.pool import WorkerPool, as_completed

    with WorkerPool(workers=4) as pool:
        futures = [pool.submit(fn, arg) for arg in work]
        for future in as_completed(futures):
            future.result()
"""

from repro.pool.executor import (
    RemoteTaskError,
    WorkerCrashError,
    WorkerPool,
    as_completed,
    available_workers,
)
from repro.pool.stealing import StealingScheduler
from repro.pool.worker import SceneCacheMirror, scene_key, stable_fingerprint

__all__ = [
    "RemoteTaskError",
    "SceneCacheMirror",
    "StealingScheduler",
    "WorkerCrashError",
    "WorkerPool",
    "as_completed",
    "available_workers",
    "scene_key",
    "stable_fingerprint",
]
