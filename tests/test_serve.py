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

from tests.scalar_oracle import render_request_scalar

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


class TestRenderServer:
    def test_repeat_request_hits_frame_cache(self):
        with RenderServer(workers=1) as server:
            request = _request()
            miss = server.render(request)
            hit = server.render(request)
        assert not miss.frame_cache_hit and hit.frame_cache_hit
        assert np.array_equal(miss.image, hit.image)
        assert miss.scene_hash == hit.scene_hash
        assert server.metrics.snapshot()["rendered"] == 1

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
        assert server.metrics.snapshot()["rendered"] == 3

    def test_batch_dedupes_duplicates(self):
        with RenderServer(workers=1) as server:
            a, b = _request(), _request(k=4)
            responses = server.render_batch([a, a, b, a, b])
        assert server.metrics.snapshot()["rendered"] == 2
        assert sum(r.frame_cache_hit for r in responses) == 3
        assert np.array_equal(responses[0].image, responses[1].image)

    def test_batch_dedup_survives_frame_cache_eviction(self):
        """Within-batch dedup must not depend on frame-cache capacity."""
        with RenderServer(workers=1, frame_cache_size=1) as server:
            a, b = _request(), _request(k=4)
            responses = server.render_batch([a, b, a])
        assert server.metrics.snapshot()["rendered"] == 2
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

        assert server.metrics.snapshot()["rendered"] == 1
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
    """Regression: a serial-path tracer cache keyed by recycled ``id()``s
    and a partial TraceConfig once served tracers built over the wrong
    scene or config.  Whatever a serial server reuses, every frame must
    equal a fresh server's, and the frame cache is keyed by content,
    never by an engine name.
    """

    def test_key_is_content_based(self):
        """The one frame-cache entry a render leaves is keyed by the
        scene's content hash and the request's pixel-changing fields."""
        with RenderServer(workers=1) as server:
            request = _request(proxy="20-tri", mode="baseline")
            response = server.render(request)
            keys = list(server._frames._entries)
        assert keys == [request.frame_key(response.scene_hash)]
        assert keys[0] == (response.scene_hash, "20-tri", "baseline",
                           request.k, request.width, request.height,
                           "pinhole")

    def test_each_mode_equals_a_fresh_servers_frame(self):
        """Requests differing only in mode (checkpointing) on one serial
        server each render the frame a fresh server renders."""
        requests = [_request(proxy="20-tri", mode=mode)
                    for mode in ("baseline", "grtx")]
        with RenderServer(workers=1) as server:
            images = [server.render(request).image for request in requests]
            assert server.metrics.snapshot()["rendered"] == 2
        for request, image in zip(requests, images):
            with RenderServer(workers=1) as fresh:
                np.testing.assert_array_equal(fresh.render(request).image,
                                              image)

    def test_frames_of_one_scene_equal_fresh_servers(self):
        """Same scene + config at two frame sizes on one server: both
        frames render and each equals a fresh server's."""
        requests = [_request(proxy="20-tri", width=8, height=8),
                    _request(proxy="20-tri", width=6, height=6)]
        with RenderServer(workers=1) as server:
            images = [server.render(request).image for request in requests]
        assert server.metrics.snapshot()["rendered"] == 2
        for request, image in zip(requests, images):
            with RenderServer(workers=1) as fresh:
                np.testing.assert_array_equal(fresh.render(request).image,
                                              image)

    def test_distinct_scene_content_never_shares_a_tracer(self):
        """Different seeds generate different geometry; both images must
        match a fresh single-purpose server's output."""
        a, b = _request(seed=1, proxy="20-tri"), _request(seed=2, proxy="20-tri")
        with RenderServer(workers=1) as server:
            img_a = server.render(a).image
            img_b = server.render(b).image
        for request, image in ((a, img_a), (b, img_b)):
            with RenderServer(workers=1) as fresh:
                np.testing.assert_array_equal(fresh.render(request).image, image)
        assert not np.array_equal(img_a, img_b)

    def test_auto_and_wavefront_share_one_frame(self):
        """The frame key names no engine: an ``auto`` and a
        ``wavefront`` request share one cache entry in every mode
        (checkpointing included) and one rendered frame, and that frame
        matches the scalar oracle within the parity bound."""
        for mode in ("baseline", "grtx"):
            assert (_request(proxy="20-tri", mode=mode,
                             engine="auto").frame_key("h")
                    == _request(proxy="20-tri", mode=mode,
                                engine="wavefront").frame_key("h"))
        auto = _request(proxy="20-tri", mode="baseline", engine="auto")
        explicit = _request(proxy="20-tri", mode="baseline",
                            engine="wavefront")
        with RenderServer(workers=1) as server:
            first = server.render(auto)
            second = server.render(explicit)
            scalar = render_request_scalar(server, auto)
        assert not first.frame_cache_hit
        assert second.frame_cache_hit
        assert server.metrics.snapshot()["rendered"] == 1
        assert np.abs(scalar.image - first.image).max() <= 1e-9

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            _request(engine="quantum")

    def test_two_level_packet_request_serves_packet_frames(self):
        """tlas+sphere (the paper's structure) requested on the batched
        engine renders on the wavefront engine through the whole serving
        stack, matching the scalar oracle's frame within the parity
        bound."""
        request = _request(proxy="tlas+sphere", mode="baseline",
                           engine="wavefront")
        with RenderServer(workers=1) as server:
            packet = server.render(request)
            scalar = render_request_scalar(server, request)
        assert np.abs(scalar.image - packet.image).max() <= 1e-9
