"""Serving layer: registry dedup, frame cache, coalescing, jobs.

Frames here are tiny (the serving behaviors under test are cache and
scheduling logic, not tracer quality), and scenes are generated at
1/10000 scale so each cold render costs well under a second.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.gaussians import make_workload
from repro.serve import (
    LRUCache,
    RenderRequest,
    RenderServer,
    SceneRef,
    SceneRegistry,
    cloud_fingerprint,
)

SCALE = 1.0 / 10000.0


def _request(**overrides) -> RenderRequest:
    defaults = dict(scene="train", scale=SCALE, width=8, height=6)
    defaults.update(overrides)
    return RenderRequest(**defaults)


class TestLRUCache:
    def test_eviction_order_and_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes 'a'
        cache.put("c", 3)                    # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("c") == 3
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (2, 1, 1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestSceneSeeding:
    def test_same_seed_bit_identical(self):
        a = make_workload("train", scale=SCALE, seed=5)
        b = make_workload("train", scale=SCALE, seed=5)
        assert cloud_fingerprint(a) == cloud_fingerprint(b)
        assert np.array_equal(a.means, b.means)

    def test_fingerprint_covers_kappa(self):
        from dataclasses import replace

        cloud = make_workload("train", scale=SCALE)
        assert cloud_fingerprint(cloud) != cloud_fingerprint(replace(cloud, kappa=2.0))

    def test_seed_overrides_default(self):
        default = make_workload("train", scale=SCALE)
        reseeded = make_workload("train", scale=SCALE, seed=5)
        assert cloud_fingerprint(default) != cloud_fingerprint(reseeded)

    def test_scene_ref_key_includes_seed(self):
        assert SceneRef("train", SCALE, seed=1).key != SceneRef("train", SCALE, seed=2).key

    def test_request_rejects_conflicting_ref_and_overrides(self):
        ref = SceneRef("train", SCALE, seed=3)
        with pytest.raises(ValueError, match="on the ref"):
            RenderRequest(scene=ref, seed=5)
        with pytest.raises(ValueError, match="on the ref"):
            RenderRequest(scene=ref, scale=SCALE)
        assert RenderRequest(scene=ref).scene_ref is ref


class TestSceneRegistry:
    def test_structure_built_once_per_key(self):
        registry = SceneRegistry()
        ref = SceneRef("train", SCALE)
        first = registry.structure(ref, "tlas+sphere")
        second = registry.structure(ref, "tlas+sphere")
        assert first is second
        assert registry.builds == 1

    def test_distinct_proxy_is_distinct_build(self):
        registry = SceneRegistry()
        ref = SceneRef("train", SCALE)
        registry.structure(ref, "tlas+sphere")
        registry.structure(ref, "20-tri")
        assert registry.builds == 2

    def test_disk_warm_start(self, tmp_path):
        ref = SceneRef("train", SCALE)
        cold = SceneRegistry(cache_dir=tmp_path)
        built = cold.structure(ref, "tlas+sphere")
        assert cold.builds == 1 and cold.disk_hits == 0

        warm = SceneRegistry(cache_dir=tmp_path)
        loaded = warm.structure(ref, "tlas+sphere")
        assert warm.builds == 0 and warm.disk_hits == 1
        assert loaded.total_bytes == built.total_bytes

    def test_unwritable_cache_dir_degrades_gracefully(self, tmp_path, monkeypatch):
        """A failing disk write (full/read-only disk) must not fail the
        request — the in-memory build is still good.

        (Simulated via monkeypatch: chmod tricks don't work under root,
        which is how CI containers run.)
        """
        registry = SceneRegistry(cache_dir=tmp_path)

        def disk_full(structure, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.serve.registry.save_structure", disk_full)
        structure = registry.structure(SceneRef("train", SCALE), "tlas+sphere")
        assert structure is not None
        assert registry.builds == 1
        assert registry.disk_write_errors == 1
        # ... and the in-memory cache still serves it.
        assert registry.structure(SceneRef("train", SCALE), "tlas+sphere") is structure

    def test_corrupt_disk_entry_is_rebuilt(self, tmp_path):
        ref = SceneRef("train", SCALE)
        cold = SceneRegistry(cache_dir=tmp_path)
        cold.structure(ref, "tlas+sphere")
        archives = list(tmp_path.glob("*.npz"))
        assert len(archives) == 1
        archives[0].write_bytes(b"not a structure archive")

        recovering = SceneRegistry(cache_dir=tmp_path)
        structure = recovering.structure(ref, "tlas+sphere")
        assert structure is not None
        assert recovering.disk_rejects == 1
        assert recovering.builds == 1

    @staticmethod
    def _damage_truncated(archive):
        archive.write_bytes(archive.read_bytes()[: archive.stat().st_size // 2])

    @staticmethod
    def _damage_garbage(archive):
        archive.write_bytes(b"\x00" * 256)

    @staticmethod
    def _damage_wrong_version(archive):
        # A well-formed archive from a different format generation: the
        # loader must reject it on the version field, not mis-deserialize.
        np.savez_compressed(archive.with_suffix(""),
                            format_version=np.int64(999))

    @pytest.mark.parametrize(
        "damage", ["truncated", "garbage", "wrong_version"])
    def test_every_corruption_shape_degrades_to_a_rebuild(
            self, tmp_path, damage):
        """Truncated, garbage, and wrong-version cache entries must all
        surface internally as StructureFormatError, get evicted, and be
        served via rebuild — never crash the request or deserialize
        wrong bytes."""
        from repro.bvh.serialize import StructureFormatError, load_structure

        ref = SceneRef("train", SCALE)
        cold = SceneRegistry(cache_dir=tmp_path)
        built = cold.structure(ref, "tlas+sphere")
        (archive,) = tmp_path.glob("*.npz")
        getattr(type(self), f"_damage_{damage}")(archive)

        with pytest.raises(StructureFormatError):
            load_structure(archive)

        recovering = SceneRegistry(cache_dir=tmp_path)
        structure = recovering.structure(ref, "tlas+sphere")
        assert structure.total_bytes == built.total_bytes
        assert recovering.disk_rejects == 1
        assert recovering.disk_hits == 0
        assert recovering.builds == 1
        # The rejected entry was evicted and the rebuild re-persisted,
        # so the next registry warm-starts from a clean cache again.
        assert SceneRegistry(cache_dir=tmp_path).structure(
            ref, "tlas+sphere").total_bytes == built.total_bytes


class TestBenchWorkload:
    def test_unique_configs_are_actually_unique(self):
        from repro.serve.bench import _workload_requests

        requests = _workload_requests("train", 8, SCALE,
                                      ("tlas+sphere", "20-tri"),
                                      unique=12, total=20)
        keys = {req.frame_key("h") for req in requests}
        assert len(keys) == 12


class TestRenderServer:
    def test_repeat_request_hits_frame_cache(self):
        with RenderServer(workers=1) as server:
            request = _request()
            miss = server.render(request)
            hit = server.render(request)
        assert not miss.frame_cache_hit and hit.frame_cache_hit
        assert np.array_equal(miss.image, hit.image)
        assert miss.scene_hash == hit.scene_hash
        assert server.metrics.rendered == 1

    def test_cached_image_is_isolated_from_callers(self):
        with RenderServer(workers=1) as server:
            request = _request()
            first = server.render(request)
            first.image[:] = -1.0
            first.stats.n_rays = -999
            second = server.render(request)
        assert not np.array_equal(first.image, second.image)
        assert second.stats.n_rays == 8 * 6

    def test_frame_key_separates_seed_and_config(self):
        with RenderServer(workers=1) as server:
            base = server.render(_request())
            reseeded = server.render(_request(seed=5))
            other_k = server.render(_request(k=4))
        assert not reseeded.frame_cache_hit
        assert not other_k.frame_cache_hit
        assert base.scene_hash != reseeded.scene_hash
        assert server.metrics.rendered == 3

    def test_batch_dedupes_duplicates(self):
        with RenderServer(workers=1) as server:
            a, b = _request(), _request(k=4)
            responses = server.render_batch([a, a, b, a, b])
        assert server.metrics.rendered == 2
        assert sum(r.frame_cache_hit for r in responses) == 3
        assert np.array_equal(responses[0].image, responses[1].image)

    def test_batch_dedup_survives_frame_cache_eviction(self):
        """Within-batch dedup must not depend on frame-cache capacity."""
        with RenderServer(workers=1, frame_cache_size=1) as server:
            a, b = _request(), _request(k=4)
            responses = server.render_batch([a, b, a])
        assert server.metrics.rendered == 2
        assert responses[2].frame_cache_hit
        assert np.array_equal(responses[0].image, responses[2].image)

    def test_concurrent_identical_requests_render_once(self):
        with RenderServer(workers=1, submit_workers=4) as server:
            request = _request(width=10, height=8)
            barrier = threading.Barrier(4)
            responses = [None] * 4

            def hammer(slot: int) -> None:
                barrier.wait()
                responses[slot] = server.render(request)

            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert server.metrics.rendered == 1
        assert all(r is not None for r in responses)
        served_from_cache = sum(r.frame_cache_hit or r.coalesced for r in responses)
        assert served_from_cache == 3
        images = [r.image for r in responses]
        for image in images[1:]:
            assert np.array_equal(image, images[0])

    def test_concurrent_distinct_requests_render_correctly(self):
        """Different frame keys sharing a (scene, structure, config) must
        not share tracer scratch state across submit threads."""
        small, large = _request(width=8, height=6), _request(width=12, height=10)
        with RenderServer(workers=1, submit_workers=2) as server:
            jobs = [server.submit(r) for r in (small, large, small, large)]
            concurrent = {r.width: jobs[i].result(timeout=300).image
                          for i, r in enumerate((small, large))}
        with RenderServer(workers=1) as reference_server:
            for request in (small, large):
                expected = reference_server.render(request).image
                assert np.array_equal(concurrent[request.width], expected)

    def test_submit_returns_completed_job(self):
        with RenderServer(workers=1) as server:
            job = server.submit(_request())
            response = job.result(timeout=120)
        assert job.done() and job.status == "completed"
        assert response.image.shape == (6, 8, 3)

    def test_closed_server_rejects_requests(self):
        server = RenderServer(workers=1)
        server.close()
        with pytest.raises(RuntimeError):
            server.render(_request())

    def test_close_drains_submitted_jobs(self):
        """Jobs accepted before close() complete instead of erroring."""
        server = RenderServer(workers=1, submit_workers=1)
        jobs = [server.submit(_request()),
                server.submit(_request(k=4)),
                server.submit(_request(k=5))]
        server.close()
        for job in jobs:
            assert job.status == "completed"
            assert job.result().image.shape == (6, 8, 3)

    def test_stats_report_shape(self):
        with RenderServer(workers=1) as server:
            server.render(_request())
            report = server.stats_report()
        assert report["server"]["requests"] == 1
        assert report["registry"]["structure_builds"] == 1
        assert report["frame_cache"].size == 1

    def test_rejects_unknown_mode_and_camera(self):
        with pytest.raises(ValueError):
            _request(mode="warp-speed")
        with RenderServer(workers=1) as server:
            with pytest.raises(ValueError):
                server.render(_request(camera="fisheye"))


class TestTracerReuseCache:
    """Regression: the serial-path tracer-reuse cache used to key by
    ``(id(cloud), id(structure), k, checkpointing)``.  ``id()`` values
    are recycled after GC, so a dead scene's id could collide with a new
    scene and serve a tracer built over the wrong geometry, and the
    omitted TraceConfig fields let a cached renderer serve a request
    with a mismatched configuration.  The key must be pure content:
    scene hash + proxy + build params + engine + the full TraceConfig.
    """

    def test_key_is_content_based(self):
        from repro.rt import TraceConfig
        from repro.serve.registry import params_key

        with RenderServer(workers=1) as server:
            request = _request(proxy="20-tri", mode="baseline")
            response = server.render(request)
            keys = list(server._tracers._entries)
        assert len(keys) == 1
        scene_hash, proxy, pkey, engine, config = keys[0]
        assert scene_hash == response.scene_hash
        assert proxy == "20-tri"
        assert pkey == params_key(server.build_params)
        assert engine == "scalar"
        assert config == TraceConfig(k=request.k, checkpointing=False)

    def test_full_config_and_engine_are_in_the_key(self):
        """Requests differing only in mode (checkpointing) or engine must
        check out different cached renderers."""
        with RenderServer(workers=1) as server:
            server.render(_request(proxy="20-tri", mode="baseline"))
            server.render(_request(proxy="20-tri", mode="grtx"))
            server.render(_request(proxy="20-tri", mode="baseline",
                                   engine="packet"))
            keys = list(server._tracers._entries)
        assert len(keys) == 3
        configs = {(key[3], key[4].checkpointing) for key in keys}
        assert configs == {("scalar", False), ("scalar", True),
                           ("wavefront", False)}

    def test_tracer_reuse_across_frames_of_same_scene(self):
        """Same scene + config at a different frame size reuses the one
        cached renderer (the key holds no per-frame fields)."""
        with RenderServer(workers=1) as server:
            server.render(_request(proxy="20-tri", width=8, height=8))
            server.render(_request(proxy="20-tri", width=6, height=6))
            assert len(server._tracers) == 1
        assert server.metrics.rendered == 2

    def test_distinct_scene_content_never_shares_a_tracer(self):
        """Different seeds generate different geometry; both images must
        match a fresh single-purpose server's output."""
        a, b = _request(seed=1, proxy="20-tri"), _request(seed=2, proxy="20-tri")
        with RenderServer(workers=1) as server:
            img_a = server.render(a).image
            img_b = server.render(b).image
            assert len(server._tracers) == 2
        for request, image in ((a, img_a), (b, img_b)):
            with RenderServer(workers=1) as fresh:
                np.testing.assert_array_equal(fresh.render(request).image, image)
        assert not np.array_equal(img_a, img_b)

    def test_engine_is_part_of_frame_key(self):
        """Engines are parity-matched to 1e-9, not bit-identical, so a
        packet request must not be answered from a scalar frame."""
        with RenderServer(workers=1) as server:
            scalar = server.render(_request(proxy="20-tri", mode="baseline"))
            packet = server.render(_request(proxy="20-tri", mode="baseline",
                                            engine="packet"))
        assert not packet.frame_cache_hit
        assert server.metrics.rendered == 2
        assert np.abs(scalar.image - packet.image).max() <= 1e-9

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            _request(engine="quantum")

    def test_auto_resolves_before_frame_keying(self):
        """The frame key carries the *effective* engine, so auto and an
        equivalent explicit engine share one cache entry, and auto's
        resolution follows the mode (checkpointing => scalar)."""
        auto = _request(proxy="tlas+sphere", mode="baseline", engine="auto")
        packet = _request(proxy="tlas+sphere", mode="baseline",
                          engine="packet")
        assert auto.engine_active == "wavefront"
        assert auto.frame_key("h") == packet.frame_key("h")
        checkpointed = _request(proxy="tlas+sphere", mode="grtx",
                                engine="auto")
        assert checkpointed.engine_active == "scalar"
        with RenderServer(workers=1) as server:
            first = server.render(auto)
            second = server.render(packet)
        assert not first.frame_cache_hit
        assert second.frame_cache_hit

    def test_two_level_packet_request_serves_packet_frames(self):
        """tlas+sphere (the paper's structure) requested through the
        deprecated "packet" alias renders on the wavefront engine
        through the whole serving stack, matching a scalar server's
        frame within the parity bound."""
        request = _request(proxy="tlas+sphere", mode="baseline",
                           engine="packet")
        assert request.engine_active == "wavefront"
        with RenderServer(workers=1) as server:
            packet = server.render(request)
        with RenderServer(workers=1) as server:
            scalar = server.render(_request(proxy="tlas+sphere",
                                            mode="baseline"))
        assert np.abs(scalar.image - packet.image).max() <= 1e-9
