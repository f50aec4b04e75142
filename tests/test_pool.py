"""The persistent worker pool: scheduling, caching, crashes, identity.

Process-backed tests pin ``start_method="fork"`` (the suite runs on
Linux) so workers inherit the parent's modules instead of re-importing
them — the tests stay fast and deterministic. Scenes are tiny: what is
under test is scheduling and recovery logic, not tracer quality.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.pool import (
    RemoteTaskError,
    SceneCacheMirror,
    StealingScheduler,
    WorkerCrashError,
    WorkerPool,
    available_workers,
    stable_fingerprint,
)

SCALE = 1.0 / 10000.0


# -- module-level task functions (picklable under any start method) ------

def _square(x):
    return x * x


def _sleep_return(x, seconds=0.05):
    time.sleep(seconds)
    return x


def _raise_value_error():
    raise ValueError("intentional")


def _crash_once(flag_path, value):
    """Die hard on first execution, succeed on the retry."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as f:
            f.write("x")
        os._exit(17)
    return value


def _always_die():
    os._exit(1)


# -----------------------------------------------------------------------

class TestAvailableWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert available_workers() == 3

    def test_invalid_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert available_workers() >= 1
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert available_workers() >= 1

    def test_affinity_oserror_degrades(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

        def broken(_pid):
            raise OSError("no affinity syscall here")

        monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
        assert available_workers() >= 1

    def test_serve_available_cores_delegates(self, monkeypatch):
        from repro.serve.tiles import available_cores

        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert available_cores() == 5


class TestStealingScheduler:
    def test_affinity_keeps_a_home(self):
        sched = StealingScheduler(3)
        homes = {sched.place(i, affinity="scene-a") for i in range(5)}
        assert len(homes) == 1

    def test_no_affinity_spreads(self):
        sched = StealingScheduler(2)
        workers = [sched.place(i) for i in range(4)]
        assert set(workers) == {0, 1}

    def test_steal_half_from_richest(self):
        sched = StealingScheduler(2)
        for i in range(6):
            sched.place(i, affinity="hot")
        home = 0 if sched.depth(0) else 1
        thief = 1 - home
        first = sched.next_for(thief)
        assert first is not None
        assert sched.steals == 1 and sched.stolen_tasks == 3
        assert sched.depth(home) == 3
        # Thief kept the rest of the stolen batch locally.
        assert sched.depth(thief) == 2

    def test_own_work_before_stealing(self):
        sched = StealingScheduler(2)
        sched.place(1, affinity="a")
        home = 0 if sched.depth(0) else 1
        sched.place(2, affinity="b")  # lands on the other (least loaded)
        assert sched.next_for(home) == 1
        assert sched.steals == 0

    def test_stealing_disabled(self):
        sched = StealingScheduler(2, stealing=False)
        for i in range(4):
            sched.place(i, affinity="hot")
        idle = 0 if sched.depth(0) == 0 else 1
        assert sched.next_for(idle) is None

    def test_drain_rehomes_affinity(self):
        sched = StealingScheduler(2)
        home = sched.place(1, affinity="scene")
        assert sched.drain_worker(home) == [1]
        assert sched.depth(home) == 0
        # The next placement may pick a fresh (least-loaded) home.
        sched.place(2, affinity="scene")
        assert sched.total_pending() == 1


class TestSceneCacheMirror:
    def test_lru_eviction_order(self):
        mirror = SceneCacheMirror(2)
        assert mirror.touch("a") is None
        assert mirror.touch("b") is None
        mirror.touch("a")  # refresh
        assert mirror.touch("c") == "b"
        assert "a" in mirror and "c" in mirror and "b" not in mirror

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SceneCacheMirror(0)


class TestFingerprint:
    def test_same_content_same_key(self):
        from repro.gaussians import make_workload

        a = make_workload("train", scale=SCALE, seed=7)
        b = make_workload("train", scale=SCALE, seed=7)
        assert a is not b
        assert stable_fingerprint(a) == stable_fingerprint(b)

    def test_different_content_differs(self):
        from repro.gaussians import make_workload

        a = make_workload("train", scale=SCALE, seed=7)
        b = make_workload("train", scale=SCALE, seed=8)
        assert stable_fingerprint(a) != stable_fingerprint(b)


class TestWorkerPool:
    def test_submit_map_roundtrip(self):
        with WorkerPool(workers=2, start_method="fork") as pool:
            assert pool.submit(_square, 7).result(timeout=60) == 49
            assert pool.map(_square, range(6)) == [x * x for x in range(6)]
            stats = pool.stats()
        assert stats["tasks_completed"] == 7
        assert stats["tasks_failed"] == 0

    def test_remote_exception_propagates(self):
        with WorkerPool(workers=1, start_method="fork") as pool:
            future = pool.submit(_raise_value_error)
            with pytest.raises(RemoteTaskError, match="ValueError"):
                future.result(timeout=60)
            # The worker survived the exception.
            assert pool.submit(_square, 3).result(timeout=60) == 9

    def test_work_stealing_under_skewed_affinity(self):
        with WorkerPool(workers=2, start_method="fork") as pool:
            futures = [pool.submit(_sleep_return, i, affinity="hot")
                       for i in range(8)]
            assert sorted(f.result(timeout=60) for f in futures) == list(range(8))
            stats = pool.stats()
        assert stats["steals"] >= 1
        assert stats["stolen_tasks"] >= 1

    def test_killed_worker_task_requeued(self, tmp_path):
        with WorkerPool(workers=2, start_method="fork") as pool:
            flag = tmp_path / "crashed-once"
            future = pool.submit(_crash_once, str(flag), 42)
            assert future.result(timeout=120) == 42
            stats = pool.stats()
            assert stats["crashes"] >= 1
            assert stats["requeues"] >= 1
            # Pool is healthy afterwards.
            assert pool.map(_square, [2, 3]) == [4, 9]

    def test_poison_task_fails_after_retries(self):
        with WorkerPool(workers=2, start_method="fork",
                        max_task_retries=1) as pool:
            future = pool.submit(_always_die)
            with pytest.raises(WorkerCrashError):
                future.result(timeout=120)
            assert pool.submit(_square, 5).result(timeout=60) == 25

    def test_external_sigkill_mid_task(self):
        with WorkerPool(workers=2, start_method="fork") as pool:
            futures = [pool.submit(_sleep_return, i, seconds=0.2)
                       for i in range(4)]
            time.sleep(0.05)
            victim = next(p for p in pool.processes if p.is_alive())
            os.kill(victim.pid, signal.SIGKILL)
            assert sorted(f.result(timeout=120) for f in futures) == [0, 1, 2, 3]
            assert pool.stats()["crashes"] >= 1


@pytest.fixture
def flight_tmp(tmp_path, monkeypatch):
    """Route the flight recorder at a per-test directory, no rate limit."""
    from repro.obs import flight

    fdir = tmp_path / "flight"
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(fdir))
    flight.configure(min_interval=0.0, enabled=True)
    flight.reset()
    yield fdir
    flight.reset()
    flight.configure(min_interval=flight.DEFAULT_MIN_INTERVAL)


class TestCrashForensics:
    """The flight recorder's crash-path contract: a killed worker leaves
    an incident bundle holding its own checkpointed events, and
    ``repro doctor`` can name the culprit from it."""

    def test_sigkill_leaves_bundle_with_dead_workers_checkpoint(
            self, flight_tmp):
        from repro.obs import doctor

        with WorkerPool(workers=2, start_method="fork") as pool:
            futures = [pool.submit(_sleep_return, i, seconds=0.3)
                       for i in range(4)]
            time.sleep(0.1)  # let both workers checkpoint a task start
            victim = next(p for p in pool.processes if p.is_alive())
            victim_pid = victim.pid
            os.kill(victim_pid, signal.SIGKILL)
            assert sorted(f.result(timeout=120)
                          for f in futures) == [0, 1, 2, 3]

        bundles = sorted(flight_tmp.glob("incident-worker-crash-*.json"))
        assert bundles, "worker crash reap did not dump a bundle"
        bundle = doctor.load_bundle(str(bundles[-1]))
        assert doctor.validate_bundle(bundle) == []
        assert bundle["reason"] == "worker-crash"
        assert bundle["context"]["exitcode"] == -signal.SIGKILL
        wid = bundle["context"]["worker"]

        # The bundle holds the *dead* process's checkpoint — pid-matched
        # to the one we killed, not its replacement — and the last
        # checkpointed event is the start of the in-flight task.
        checkpoints = [c for c in bundle["workers"]
                       if c["worker_id"] == wid and c["pid"] == victim_pid]
        assert checkpoints, "dead worker's spooled checkpoint missing"
        last = checkpoints[0]["events"][-1]
        assert last["name"] == "worker.task_start"
        assert last["data"]["task"] == bundle["context"]["task"]

        # Doctor names the crashed worker, the signal, and the recovery.
        report = doctor.render_report(bundle)
        assert f"worker {wid}" in report
        assert "SIGKILL" in report
        assert "requeued" in report
        assert "pool.crashes" in report  # counter anomaly surfaced

    def test_crash_counters_mirrored_into_registry(self, flight_tmp,
                                                   tmp_path):
        from repro.obs import get_registry

        registry = get_registry()
        crashes_before = registry.counter_value("pool.crashes")
        requeues_before = registry.counter_value("pool.requeues")
        with WorkerPool(workers=2, start_method="fork") as pool:
            flag = tmp_path / "crashed-once"
            assert pool.submit(_crash_once, str(flag), 7).result(
                timeout=120) == 7
        assert registry.counter_value("pool.crashes") >= crashes_before + 1
        assert registry.counter_value("pool.requeues") >= requeues_before + 1

    def test_doctor_cli_parses_crash_bundle(self, flight_tmp, tmp_path,
                                            capsys):
        from repro.cli import main

        with WorkerPool(workers=2, start_method="fork") as pool:
            flag = tmp_path / "crashed-once"
            assert pool.submit(_crash_once, str(flag), 9).result(
                timeout=120) == 9
        bundles = sorted(flight_tmp.glob("incident-worker-crash-*.json"))
        assert bundles
        assert main(["doctor", str(bundles[-1])]) == 0
        out = capsys.readouterr().out
        assert "probable cause" in out
        assert "worker" in out

    def test_retries_exhausted_dumps_its_own_bundle(self, flight_tmp):
        with WorkerPool(workers=2, start_method="fork",
                        max_task_retries=1) as pool:
            with pytest.raises(WorkerCrashError):
                pool.submit(_always_die).result(timeout=120)
            # Keep the pool draining so the incident queue flushes.
            assert pool.submit(_square, 5).result(timeout=60) == 25
        assert sorted(
            flight_tmp.glob("incident-task-retries-exhausted-*.json"))

    def test_closed_pool_rejects_submissions(self):
        pool = WorkerPool(workers=1, start_method="fork")
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(_square, 1)

    def test_unpicklable_task_fails_without_wedging_the_slot(self):
        """A payload that cannot be shipped fails its own future; the
        worker slot stays usable (regression: it used to stay 'busy'
        forever and close() hung)."""
        with WorkerPool(workers=1, start_method="fork") as pool:
            future = pool.submit(_square, lambda x: x)  # lambdas don't pickle
            with pytest.raises(RemoteTaskError, match="shipped"):
                future.result(timeout=60)
            assert pool.submit(_square, 6).result(timeout=60) == 36
            assert pool.stats()["tasks_failed"] == 1

    def test_single_tile_frame_stays_serial(self):
        """A frame no bigger than one tile must not boot the pool."""
        from repro.eval.harness import build_structure_for
        from repro.gaussians import make_workload
        from repro.render import default_camera_for
        from repro.rt import TraceConfig
        from repro.serve.tiles import TileScheduler

        cloud = make_workload("train", scale=SCALE)
        structure = build_structure_for(cloud, "20-tri")
        with TileScheduler(tile_size=(16, 16), workers=2) as scheduler:
            scheduler.render(cloud, structure, TraceConfig(k=4),
                             default_camera_for(cloud, 6, 5))
            assert scheduler.pool is None


@pytest.fixture(scope="module")
def scene():
    from repro.eval.harness import build_structure_for
    from repro.gaussians import make_workload
    from repro.render import default_camera_for
    from repro.rt import TraceConfig

    cloud = make_workload("train", scale=SCALE)
    structure = build_structure_for(cloud, "tlas+sphere")
    config = TraceConfig(k=8, checkpointing=True)
    camera = default_camera_for(cloud, 15, 11)
    return cloud, structure, config, camera


@pytest.fixture(scope="module")
def reference(scene):
    from repro.render import GaussianRayTracer

    cloud, structure, config, camera = scene
    # The serial render on the pooled tiles' path (no traces): with
    # checkpointing, rounds_total is a work measure of the path taken.
    return GaussianRayTracer(cloud, structure, config).render(
        camera, keep_traces=False)


class TestPooledTileIdentity:
    def test_pooled_frames_bit_identical_on_uniform_tiles(self, scene,
                                                          reference):
        """Frame 1 (cold pool) and frame 2 (warm pool) both render on the
        uniform tile grid and reproduce the serial frame bit-for-bit."""
        from repro.serve.tiles import TileScheduler, split_frame

        cloud, structure, config, camera = scene
        with TileScheduler(tile_size=(4, 4), workers=2,
                           start_method="fork") as scheduler:
            first = scheduler.render(cloud, structure, config, camera)
            second = scheduler.render(cloud, structure, config, camera)
            stats = scheduler.pool_stats()
            plans = [tile for tile, _ in scheduler.last_tile_costs]
        for result in (first, second):
            assert np.array_equal(result.image, reference.image)
            assert result.stats.n_rays == reference.stats.n_rays
            assert result.stats.rounds_total == reference.stats.rounds_total
            assert result.stats.blended_total == reference.stats.blended_total
        # Scene shipped once per worker; the warm frame was hash-only.
        assert stats["scene_ships"] == 2
        assert stats["scene_cache_hits"] > 0
        # The warm frame of the same scene keeps the uniform grid.
        assert plans == split_frame(camera.width, camera.height, 4, 4)

    def test_frame_exact_after_worker_massacre(self, scene, reference):
        """SIGKILLing every pool worker between frames must not change a
        pixel: tasks are requeued and scenes re-shipped to respawns."""
        from repro.serve.tiles import TileScheduler

        cloud, structure, config, camera = scene
        with TileScheduler(tile_size=(4, 4), workers=2,
                           start_method="fork") as scheduler:
            scheduler.render(cloud, structure, config, camera)
            for proc in scheduler.pool.processes:
                os.kill(proc.pid, signal.SIGKILL)
            result = scheduler.render(cloud, structure, config, camera)
            stats = scheduler.pool_stats()
        assert np.array_equal(result.image, reference.image)
        assert stats["crashes"] >= 2

    def test_shared_pool_across_schedulers(self, scene, reference):
        from repro.serve.tiles import TileScheduler

        cloud, structure, config, camera = scene
        with WorkerPool(workers=2, start_method="fork") as pool:
            a = TileScheduler(tile_size=(8, 8), workers=2, pool=pool)
            b = TileScheduler(tile_size=(5, 3), workers=2, pool=pool)
            image_a = a.render(cloud, structure, config, camera).image
            image_b = b.render(cloud, structure, config, camera).image
            # Schedulers never close a shared pool.
            a.close()
            assert not pool.closed
        assert np.array_equal(image_a, reference.image)
        assert np.array_equal(image_b, reference.image)


class TestPooledCampaign:
    CONFIGS = [
        dict(scene="room", proxy="20-tri", k=4, scale=SCALE, resolution=(5, 5)),
        dict(scene="room", proxy="custom", k=4, scale=SCALE, resolution=(5, 5)),
        dict(scene="train", proxy="20-tri", k=4, scale=SCALE, resolution=(5, 5)),
    ]

    def test_parallel_run_configs_bit_identical(self):
        import repro.eval.harness as harness

        harness.clear_caches()
        serial = [harness.run_config(**cfg) for cfg in self.CONFIGS]
        images = [run.image.copy() for run in serial]
        cycles = [run.timing.cycles for run in serial]

        harness.clear_caches()
        pooled = harness.parallel_run_configs(self.CONFIGS, workers=2)
        try:
            for run, image, cycle in zip(pooled, images, cycles):
                assert np.array_equal(run.image, image)
                assert run.timing.cycles == cycle
            # Results were installed into the local run cache.
            for cfg in self.CONFIGS:
                assert harness.run_config(**cfg) in pooled
        finally:
            harness.clear_caches()

    def test_run_campaign_matches_serial_experiment(self, monkeypatch):
        import repro.eval.harness as harness
        from repro.eval import experiments as exp

        monkeypatch.setattr(harness, "BENCH_SCALE", SCALE)
        monkeypatch.setattr(harness, "BENCH_RESOLUTION", (5, 5))
        monkeypatch.setattr(exp, "SCENES", ["room"])
        harness.clear_caches()
        try:
            serial = exp.fig05()
            harness.clear_caches()
            campaign = exp.run_campaign(["fig05", "table1"], workers=2)
            assert set(campaign) == {"fig05", "table1"}
            assert campaign["fig05"].rows == serial.rows
        finally:
            harness.clear_caches()

    def test_run_campaign_rejects_unknown_ids(self):
        from repro.eval import experiments as exp

        with pytest.raises(ValueError, match="unknown experiment"):
            exp.run_campaign(["fig99"])


class TestBoundedServerSubmit:
    def test_submit_rejects_when_saturated(self):
        from repro.serve import RenderRequest, RenderServer, ServerSaturated

        gate = threading.Event()
        with RenderServer(workers=1, submit_workers=1, max_pending=1) as server:
            real_serve = server._serve

            def gated(request):
                gate.wait(timeout=60)
                return real_serve(request)

            server._serve = gated
            request = RenderRequest(scene="train", scale=SCALE, width=6, height=5)
            first = server.submit(request)
            deadline = time.monotonic() + 30
            while server._queue.qsize() and time.monotonic() < deadline:
                time.sleep(0.005)  # dispatcher picks the job up
            second = server.submit(RenderRequest(scene="train", scale=SCALE,
                                                 width=6, height=5, k=4))
            with pytest.raises(ServerSaturated):
                server.submit(RenderRequest(scene="train", scale=SCALE,
                                            width=6, height=5, k=5))
            assert server.metrics.snapshot()["rejected"] == 1
            gate.set()
            assert first.result(timeout=120).image.shape == (5, 6, 3)
            assert second.result(timeout=120).image.shape == (5, 6, 3)

    def test_snapshot_exposes_load_gauges(self):
        from repro.serve import RenderRequest, RenderServer

        with RenderServer(workers=1) as server:
            server.render(RenderRequest(scene="train", scale=SCALE,
                                        width=6, height=5))
            snapshot = server.metrics.snapshot()
            report = server.stats_report()
        # Gauges are namespaced "gauge.<name>" so a provider key can
        # never shadow a counter of the same name.
        for gauge in ("gauge.queue_depth", "gauge.max_pending",
                      "gauge.dispatchers_busy", "gauge.worker_utilization"):
            assert gauge in snapshot
        assert snapshot["gauge.queue_depth"] == 0
        assert "pool" in report

    def test_pooled_server_render_matches_serial(self):
        """The full serving path through the worker pool: bit-identical
        to a serial server, and the pool shows up in the stats report."""
        from repro.serve import RenderRequest, RenderServer

        request = RenderRequest(scene="train", scale=SCALE, width=9, height=7)
        with RenderServer(workers=1) as serial_server:
            expected = serial_server.render(request).image
        with RenderServer(workers=2, tile_size=(4, 4)) as pooled_server:
            sync = pooled_server.render(request)
            pooled_server._frames.clear()
            job = pooled_server.submit(request)
            async_response = job.result(timeout=300)
            report = pooled_server.stats_report()
        assert np.array_equal(sync.image, expected)
        assert np.array_equal(async_response.image, expected)
        assert report["pool"].get("tasks_completed", 0) > 0
