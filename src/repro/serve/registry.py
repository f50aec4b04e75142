"""Scene and acceleration-structure registry.

Building a BVH dominates cold-start latency (it costs far more than
tracing a small frame), and it is pure function of (scene content, proxy,
build params). The registry therefore memoizes builds at two levels:

* an in-memory LRU of built structures, shared by every request;
* an optional on-disk cache of :mod:`repro.bvh.serialize` archives, so a
  restarted server warm-starts from previous builds.

Disk entries that fail to load — truncated writes, stale format versions
(:class:`~repro.bvh.serialize.StructureFormatError`) — are treated as
misses and rebuilt, never trusted.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import astuple
from pathlib import Path

import repro.chaos as chaos
from repro.bvh import BuildParams, StructureFormatError, load_structure, save_structure
from repro.obs import events as obs_events
from repro.obs import flight, get_registry, span
from repro.gaussians import GaussianCloud
from repro.serve.cache import LRUCache
from repro.serve.request import SceneRef, cloud_fingerprint


def params_key(params: BuildParams) -> tuple:
    """Hashable identity of a build-parameter set."""
    return astuple(params)


class SceneRegistry:
    """Builds scenes and acceleration structures exactly once per key.

    ``structure_key = (scene content hash, proxy, build params)`` — the
    scene *recipe* (name/scale/seed) never appears in it, so distinct refs
    that generate identical clouds share one build.
    """

    def __init__(
        self,
        scene_capacity: int = 8,
        structure_capacity: int = 16,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        self._scenes = LRUCache(scene_capacity, name="registry.scenes")
        self._structures = LRUCache(structure_capacity, name="registry.structures")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # Keys with a build in progress; waiters block on the condition.
        # (A set + condition instead of per-key Locks keeps memory bounded
        # by *concurrent* builds, not by every key ever seen.)
        self._building: set[tuple] = set()
        self._build_done = threading.Condition(self._lock)
        self.builds = 0
        self.disk_hits = 0
        self.disk_rejects = 0
        self.disk_write_errors = 0
        self.scene_builds = 0

    # -- scenes ---------------------------------------------------------

    def scene(self, ref: SceneRef | GaussianCloud) -> tuple[GaussianCloud, str]:
        """Resolve a ref to ``(cloud, content hash)``, generating once.

        Accepts an already-materialized cloud too (hashed, not cached:
        the caller owns its lifetime).
        """
        if isinstance(ref, GaussianCloud):
            return ref, cloud_fingerprint(ref)
        entry = self._scenes.get(ref.key)
        if entry is not None:
            return entry
        self._claim_build(("scene", ref.key))
        try:
            entry = self._scenes.peek(ref.key)
            if entry is None:
                cloud = ref.materialize()
                entry = (cloud, cloud_fingerprint(cloud))
                self._scenes.put(ref.key, entry)
                self._count("scene_builds")
        finally:
            self._release_build(("scene", ref.key))
        return entry

    # -- structures -----------------------------------------------------

    def structure(
        self,
        ref: SceneRef | GaussianCloud,
        proxy: str,
        params: BuildParams | None = None,
    ):
        """The acceleration structure for (scene, proxy, params).

        Returns the memoized structure when one exists; otherwise loads it
        from the disk cache or builds it. Concurrent requests for the same
        key serialize on a build claim so the build runs once.
        """
        params = params or BuildParams()
        cloud, scene_hash = self.scene(ref)
        key = (scene_hash, proxy, params_key(params))
        structure = self._structures.get(key)
        if structure is not None:
            return structure
        self._claim_build(key)
        try:
            # Re-check: another thread may have built while we waited.
            structure = self._structures.peek(key)
            if structure is not None:
                return structure
            structure = self._load_from_disk(key)
            if structure is None:
                from repro.eval.harness import build_structure_for

                t0 = time.perf_counter()
                with span("serve.build", proxy=proxy,
                          scene=str(key[0])[:16]):
                    structure = build_structure_for(cloud, proxy, params)
                get_registry().observe("serve.build_seconds",
                                       time.perf_counter() - t0)
                self._count("builds")
                self._save_to_disk(key, structure)
            self._structures.put(key, structure)
            return structure
        finally:
            self._release_build(key)

    def _count(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)
        # Mirrored into the obs registry so stats snapshots, perfbench,
        # and the doctor's anomaly scan see registry health without
        # holding a SceneRegistry reference.
        get_registry().add(f"registry.{name}")

    def _claim_build(self, key: tuple) -> None:
        """Block until no other thread is building ``key``, then claim it."""
        with self._build_done:
            while key in self._building:
                self._build_done.wait()
            self._building.add(key)

    def _release_build(self, key: tuple) -> None:
        with self._build_done:
            self._building.discard(key)
            self._build_done.notify_all()

    # -- disk persistence -----------------------------------------------

    def _disk_path(self, key: tuple) -> Path | None:
        if self.cache_dir is None:
            return None
        scene_hash, proxy, pkey = key
        tag = "-".join(str(v) for v in pkey)
        return self.cache_dir / f"{scene_hash[:16]}.{proxy}.{tag}.npz"

    def _load_from_disk(self, key: tuple):
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        directive = chaos.point("registry.disk_load")
        if directive == "corrupt":
            # Damage the artifact the way a torn write or bit-rot would:
            # the load below must detect it, evict, and rebuild.
            try:
                path.write_bytes(b"\x00chaos-corrupted\x00")
            except OSError:
                pass
        elif directive is not None:
            chaos.execute("registry.disk_load", directive)
        try:
            structure = load_structure(path)
        except FileNotFoundError:
            # Lost the exists()/load race (another process evicted or
            # replaced the entry) — a plain miss, not corruption.
            return None
        except (StructureFormatError, OSError) as exc:
            # Truncated archives and stale versions raise
            # StructureFormatError; unreadable files (permissions, I/O
            # errors mid-read) raise OSError. Either way the entry is
            # untrustworthy: evict it and rebuild from source.
            self._count("disk_rejects")
            flight.record(obs_events.EVICTION, "registry.disk_reject",
                          path=path.name, error=repr(exc))
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        self._count("disk_hits")
        return structure

    def _save_to_disk(self, key: tuple, structure) -> None:
        """Best-effort persistence: an unwritable disk (full, read-only)
        must never fail the request — the in-memory build is still good.
        """
        path = self._disk_path(key)
        if path is None:
            return
        try:
            directive = chaos.point("registry.disk_save")
            if directive is not None:
                chaos.execute("registry.disk_save", directive)
            # Write-then-rename so a crashed write never leaves a
            # truncated archive under the final name. The suffix must
            # stay ".npz" or np.savez would append one and the rename
            # source would not exist.
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp.npz")
            os.close(fd)
            try:
                save_structure(structure, tmp)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            self._count("disk_write_errors")

    # -- accounting -----------------------------------------------------

    def counters(self) -> dict[str, int]:
        return {
            "structure_builds": self.builds,
            "scene_builds": self.scene_builds,
            "disk_hits": self.disk_hits,
            "disk_rejects": self.disk_rejects,
            "disk_write_errors": self.disk_write_errors,
            "memory_hits": self._structures.hits,
        }
