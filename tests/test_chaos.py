"""The fault-injection harness and the hardening it drills.

Schedule-grammar parsing and point semantics run in-process; the pool
scenarios pin ``start_method="fork"`` (as in ``test_pool.py``) so the
armed parent schedule reaches workers by inheritance, with ``:once``
token files serializing fleet-wide firings. The end-to-end drill —
serial reference, chaos replay, bit-identity, doctor attribution — is
:func:`repro.chaosdrill.run_drill`, exercised here exactly as the CI
``chaos-smoke`` job runs it.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro.chaos as chaos
from repro.chaos import ChaosInjectedError, ScheduleError, _parse_entry
from repro.obs import doctor, flight
from repro.obs import events as ev
from repro.pool import RemoteTaskError, WorkerCrashError, WorkerPool

SCALE = 1.0 / 10000.0


# -- module-level task functions (picklable under any start method) ------

def _square(x):
    return x * x


# -----------------------------------------------------------------------

@pytest.fixture
def flight_tmp(tmp_path, monkeypatch):
    """Private flight directory, no rate limiting."""
    fdir = tmp_path / "flight"
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(fdir))
    flight.configure(min_interval=0.0, enabled=True)
    flight.reset()
    yield fdir
    flight.reset()
    flight.configure(min_interval=flight.DEFAULT_MIN_INTERVAL)


@pytest.fixture
def arm(tmp_path, monkeypatch):
    """Arm a schedule for this process *and* (via env) future workers;
    disarm on exit no matter what fired."""
    token_dir = tmp_path / "chaos-tokens"

    def _arm(spec: str, seed: int = 0):
        monkeypatch.setenv("REPRO_CHAOS", spec)
        monkeypatch.setenv("REPRO_CHAOS_SEED", str(seed))
        monkeypatch.setenv("REPRO_CHAOS_TOKENS", str(token_dir))
        chaos.configure(spec=spec, seed=seed, token_dir=str(token_dir))

    yield _arm
    chaos.reset()


class TestScheduleGrammar:
    def test_hit_list_entry(self):
        entry = _parse_entry("pool.worker.task=kill@2,5:once")
        assert entry.point == "pool.worker.task"
        assert entry.directive == "kill"
        assert entry.hits == frozenset({2, 5})
        assert entry.once
        assert entry.matches(5, seed=0) and not entry.matches(3, seed=0)

    def test_star_matches_every_invocation(self):
        entry = _parse_entry("flight.spool=oserror@*")
        assert all(entry.matches(n, seed=0) for n in (1, 7, 1000))

    def test_probability_is_seed_deterministic(self):
        entry = _parse_entry("serve.request=slow(0.2)@p0.5")
        draws = [entry.matches(n, seed=42) for n in range(1, 200)]
        assert draws == [entry.matches(n, seed=42) for n in range(1, 200)]
        assert any(draws) and not all(draws)
        assert draws != [entry.matches(n, seed=43) for n in range(1, 200)]

    @pytest.mark.parametrize("bad", [
        "pool.worker.task=kill",            # no trigger
        "pool.worker.task@3",               # no directive
        "pool.worker.tsak=kill@3",          # unregistered point
        "pool.worker.task=kill@p1.5",       # probability out of range
        "pool.worker.task=kill@pmany",      # unparseable probability
        "pool.worker.task=kill@0",          # hits are 1-based
        "pool.worker.task=kill@soon",       # unparseable hits
    ])
    def test_malformed_schedules_raise_not_disarm(self, bad):
        with pytest.raises(ScheduleError):
            chaos.configure(spec=bad)
        assert not chaos.active()

    def test_empty_spec_disarms(self, arm):
        arm("registry.disk_load=corrupt@1")
        assert chaos.active()
        chaos.configure(spec="")
        assert not chaos.active()


class TestPointSemantics:
    def test_disarmed_point_is_inert_and_uncounted(self):
        chaos.reset()
        assert chaos.point("pool.worker.task") is None
        # The disarmed fast path must not even touch counters: that is
        # the zero-overhead contract bench_chaos gates.
        assert chaos.invocation_count("pool.worker.task") == 0

    def test_armed_point_fires_on_its_invocation(self, arm, flight_tmp):
        arm("registry.disk_save=oserror@2")
        assert chaos.point("registry.disk_save") is None
        assert chaos.point("registry.disk_save") == "oserror"
        assert chaos.point("registry.disk_save") is None
        (firing,) = chaos.fired()
        assert firing["point"] == "registry.disk_save"
        assert firing["hit"] == 2
        chaos_events = [e for e in flight.events() if e[3] == ev.CHAOS]
        assert len(chaos_events) == 1

    def test_armed_unregistered_name_raises(self, arm):
        arm("registry.disk_save=oserror@1")
        with pytest.raises(ValueError, match="not a registered"):
            chaos.point("registry.disk_svae")

    def test_once_token_claims_across_reconfigures(self, arm):
        spec = "registry.disk_save=oserror@1:once"
        arm(spec)
        assert chaos.point("registry.disk_save") == "oserror"
        # A second process would start its own counters at zero but
        # share the token dir: simulated by reset + re-arm.
        token_dir = os.environ["REPRO_CHAOS_TOKENS"]
        chaos.reset()
        chaos.configure(spec=spec, seed=0, token_dir=token_dir)
        assert chaos.point("registry.disk_save") is None
        assert chaos.fired() == []

    def test_unclaimable_token_dir_skips_instead_of_storming(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        chaos.configure(spec="registry.disk_save=oserror@1:once",
                        token_dir=str(blocker))
        try:
            assert chaos.point("registry.disk_save") is None
        finally:
            chaos.reset()

    def test_execute_error_directives(self):
        with pytest.raises(ChaosInjectedError):
            chaos.execute("serve.request", "error")
        with pytest.raises(OSError, match="injected"):
            chaos.execute("flight.spool", "oserror")

    def test_execute_slow_sleeps_its_argument(self):
        started = time.perf_counter()
        chaos.execute("serve.request", "slow(0.05)")
        assert time.perf_counter() - started >= 0.05

    def test_site_specific_directives_are_noops_in_execute(self):
        chaos.execute("registry.disk_load", "corrupt")
        chaos.execute("pool.worker.result", "unpicklable")


class TestPoolChaos:
    def test_injected_kill_is_requeued_and_attributed(self, arm, flight_tmp):
        arm("pool.worker.task=kill@1:once")
        with WorkerPool(workers=2, start_method="fork") as pool:
            results = [f.result(timeout=60)
                       for f in [pool.submit(_square, n) for n in range(6)]]
            stats = pool.stats()
        assert results == [n * n for n in range(6)]
        assert stats["crashes"] == 1
        assert stats["requeues"] == 1
        bundles = sorted(flight_tmp.glob("incident-*.json"))
        assert bundles
        causes = []
        for bundle in bundles:
            causes += doctor.triage(doctor.load_bundle(bundle))[
                "probable_causes"]
        assert any("injected fault" in cause for cause in causes)

    def test_watchdog_reaps_injected_hang(self, arm, flight_tmp):
        arm("pool.worker.task=hang@1:once")
        with WorkerPool(workers=2, start_method="fork",
                        task_deadline_s=1.0) as pool:
            results = [f.result(timeout=60)
                       for f in [pool.submit(_square, n) for n in range(4)]]
            stats = pool.stats()
        assert results == [n * n for n in range(4)]
        assert stats["deadline_kills"] == 1
        assert stats["crashes"] >= 1

    def test_unpicklable_result_fails_task_not_worker(self, arm, flight_tmp):
        arm("pool.worker.result=unpicklable@1:once")
        with WorkerPool(workers=1, start_method="fork") as pool:
            poisoned = pool.submit(_square, 3)
            with pytest.raises(RemoteTaskError, match="unpicklable"):
                poisoned.result(timeout=60)
            # The worker survived the failed send and serves the next task.
            assert pool.submit(_square, 4).result(timeout=60) == 16
            assert pool.stats()["crashes"] == 0

    def test_dispatch_oserror_retries_on_another_attempt(self, arm,
                                                         flight_tmp):
        arm("pool.dispatch=oserror@1:once")
        with WorkerPool(workers=2, start_method="fork",
                        retry_backoff_s=0.0) as pool:
            assert pool.submit(_square, 5).result(timeout=60) == 25
            stats = pool.stats()
        assert stats["crashes"] == 0
        assert stats["requeues"] == 1

    def test_poison_task_quarantined_with_bundle(self, arm, flight_tmp):
        with WorkerPool(workers=2, start_method="fork",
                        poison_threshold=2, retry_backoff_s=0.0) as pool:
            with pytest.raises(WorkerCrashError, match="quarantined"):
                pool.submit(chaos.poison_task).result(timeout=60)
            stats = pool.stats()
        assert stats["quarantined"] == 1
        assert stats["crashes"] == 2
        reasons = {doctor.load_bundle(b)["reason"]
                   for b in flight_tmp.glob("incident-*.json")}
        assert "poison-task-quarantined" in reasons


class TestServeChaos:
    def _request(self, **overrides):
        from repro.serve import RenderRequest

        defaults = dict(scene="train", scale=SCALE, width=8, height=6)
        defaults.update(overrides)
        return RenderRequest(**defaults)

    def test_injected_request_error_surfaces(self, arm, flight_tmp):
        from repro.serve import RenderServer

        arm("serve.request=error@1")
        with RenderServer(workers=1) as server:
            with pytest.raises(ChaosInjectedError):
                server.render(self._request())
            chaos.configure(spec="")
            assert server.render(self._request()).image.shape == (6, 8, 3)

    def test_registry_corruption_via_chaos_rebuilds(self, arm, tmp_path,
                                                    flight_tmp):
        from repro.serve import SceneRef, SceneRegistry

        cache_dir = tmp_path / "bvh-cache"
        ref = SceneRef("train", SCALE)
        warm = SceneRegistry(cache_dir=cache_dir)
        built = warm.structure(ref, "tlas+sphere")

        arm("registry.disk_load=corrupt@1:once")
        recovering = SceneRegistry(cache_dir=cache_dir)
        structure = recovering.structure(ref, "tlas+sphere")
        assert structure.total_bytes == built.total_bytes
        assert recovering.disk_rejects == 1
        assert recovering.builds == 1

    def test_job_result_timeout_cancels_and_counts(self, flight_tmp):
        from repro.serve import RenderServer

        # One dispatcher, occupied by the first job: the second job is
        # still queued when its wait times out, so the cancel lands and
        # the dispatcher must skip it instead of rendering ghost work.
        with RenderServer(workers=1, submit_workers=1) as server:
            first = server.submit(self._request(width=24, height=24))
            second = server.submit(self._request(k=4))
            with pytest.raises(TimeoutError):
                second.result(timeout=0.001)
            assert second.status == "cancelled"
            assert not second.cancel() or second.future.cancelled()
            first.result(timeout=120)
            server.close()
        assert server.metrics.snapshot()["timed_out"] == 1
        assert server.metrics.snapshot()["rendered"] == 1

    def test_circuit_breaker_unit_semantics(self):
        from repro.serve.server import _CircuitBreaker

        breaker = _CircuitBreaker(threshold=2, cooldown_s=0.05)
        assert breaker.allow_pool()
        assert not breaker.record_failure()      # 1 of 2: still closed
        assert breaker.record_failure()          # opens exactly once
        assert not breaker.record_failure()      # already open
        assert breaker.is_open() and not breaker.allow_pool()
        time.sleep(0.06)
        assert breaker.allow_pool()              # half-open probe
        breaker.record_success()
        assert not breaker.is_open()

    def test_pool_crash_falls_back_to_serial_bit_identical(
            self, monkeypatch, flight_tmp):
        from repro.serve import RenderServer
        from repro.serve.tiles import TileScheduler

        request = self._request(width=16, height=12)
        with RenderServer(workers=1) as reference_server:
            expected = reference_server.render(request).image

        real_render = TileScheduler.render
        pooled_calls = {"n": 0}

        def sabotaged(self, *args, **kwargs):
            if not kwargs.get("force_serial") and self.workers > 1:
                pooled_calls["n"] += 1
                raise WorkerCrashError("worker massacre (simulated)")
            return real_render(self, *args, **kwargs)

        monkeypatch.setattr(TileScheduler, "render", sabotaged)
        with RenderServer(workers=2, circuit_threshold=1,
                          circuit_cooldown_s=30.0) as server:
            degraded = server.render(request).image
            assert pooled_calls["n"] == 1
            # The breaker is open: the next render goes straight to the
            # serial path without burning another pooled attempt.
            again = server.render(self._request(width=16, height=12, k=4))
            metrics = server.metrics
            gauges = server.stats_report()["server"]
        assert np.array_equal(degraded, expected)
        assert again.image.shape == (12, 16, 3)
        assert pooled_calls["n"] == 1
        assert metrics.snapshot()["pool_fallbacks"] == 1
        assert gauges["gauge.circuit_open"] == 1
        reasons = {doctor.load_bundle(b)["reason"]
                   for b in flight_tmp.glob("incident-*.json")}
        assert "pool-circuit-open" in reasons


class TestChaosDrill:
    def test_drill_end_to_end(self, flight_tmp):
        from repro.chaosdrill import run_drill

        summary = run_drill()
        assert summary["failures"] == []
        assert summary["ok"]
        assert summary["bit_identical"]
        assert summary["pool"]["deadline_kills"] >= 1
        assert summary["pool"]["quarantined"] >= 1
        assert summary["registry"]["disk_rejects"] >= 1
        assert "pool.worker.task:kill" in summary["attributed_faults"]
        assert "pool.worker.task:hang" in summary["attributed_faults"]
