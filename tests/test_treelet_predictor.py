"""Tests for treelet prefetching and the ray-predictor analysis."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    GaussianRayTracer,
    GpuConfig,
    PinholeCamera,
    TraceConfig,
    build_monolithic,
    build_two_level,
    default_camera_for,
    make_workload,
    replay,
)
from repro.bvh.layout import internal_node_bytes
from repro.bvh.node import KIND_INTERNAL
from repro.hwsim.treelet import build_treelet_map
from repro.rt import RayPredictor, analyze_predictor

from tests.scalar_oracle import Tracer


@pytest.fixture(scope="module")
def scene():
    cloud = make_workload("drjohnson", scale=1 / 1000)
    mono = build_monolithic(cloud, proxy="20-tri")
    two = build_two_level(cloud, blas_kind="sphere")
    return cloud, mono, two


class TestTreeletMap:
    def test_members_disjoint_across_treelets(self, scene):
        _cloud, mono, _two = scene
        tm = build_treelet_map(mono, 1024)
        seen = set()
        for members in tm.values():
            for addr, _size in members:
                assert addr not in seen
                seen.add(addr)

    def test_every_internal_node_covered_once(self, scene):
        # Partitioning: every node is either a treelet root or a member of
        # exactly one treelet.
        _cloud, mono, _two = scene
        tm = build_treelet_map(mono, 1024)
        bvh = mono.bvh
        member_addrs = {addr for members in tm.values() for addr, _ in members}
        root_addrs = set(tm)
        node_addrs = {int(a) for a in bvh.node_addr}
        for addr in node_addrs:
            in_members = addr in member_addrs
            is_root = addr in root_addrs
            # The global root (node 0) may be a pure root; deep nodes may be
            # members; childless roots are absent from the map entirely.
            assert not (in_members and is_root) or addr != int(bvh.node_addr[0])

    def test_budget_respected(self, scene):
        _cloud, mono, _two = scene
        budget = 512
        tm = build_treelet_map(mono, budget)
        node_bytes = internal_node_bytes(mono.bvh.width)
        for members in tm.values():
            used = node_bytes + sum(size for _addr, size in members)
            assert used <= budget

    def test_two_level_includes_blas(self, scene):
        cloud, _mono, _two = scene
        two_ico = build_two_level(cloud, "icosphere", 0)
        tm = build_treelet_map(two_ico, 2048)
        assert len(tm) >= 1

    def test_rejects_bad_budget(self, scene):
        _cloud, mono, _two = scene
        with pytest.raises(ValueError):
            build_treelet_map(mono, 0)

    def test_bigger_budget_fewer_roots(self, scene):
        _cloud, mono, _two = scene
        small = build_treelet_map(mono, 512)
        large = build_treelet_map(mono, 4096)
        assert 0 < len(large) <= len(small)

    def test_budget_below_two_nodes_yields_empty_map(self, scene):
        # A treelet must hold the root plus at least one child; budgets
        # smaller than that cannot form any treelet.
        _cloud, mono, _two = scene
        assert build_treelet_map(mono, 256) == {}


class TestTreeletReplay:
    def test_treelet_prefetch_counts_prefetches(self, scene):
        cloud, mono, _two = scene
        camera = default_camera_for(cloud, 8, 8)
        result = GaussianRayTracer(cloud, mono, TraceConfig(k=8)).render(camera)
        tm = build_treelet_map(mono, 1024)
        config = replace(GpuConfig.rtx_like(), prefetch_enabled=False)
        base = replay(result.traces, config)
        with_treelet = replay(result.traces, config, treelet_map=tm)
        assert with_treelet.prefetches > base.prefetches

    def test_treelet_improves_no_prefetch_baseline(self, scene):
        cloud, mono, _two = scene
        camera = default_camera_for(cloud, 10, 10)
        result = GaussianRayTracer(cloud, mono, TraceConfig(k=8)).render(camera)
        tm = build_treelet_map(mono, 1024)
        config = replace(GpuConfig.rtx_like(), prefetch_enabled=False)
        base = replay(result.traces, config)
        with_treelet = replay(result.traces, config, treelet_map=tm)
        assert with_treelet.avg_fetch_latency <= base.avg_fetch_latency


class TestRayPredictor:
    def test_table_learns_and_recalls(self):
        predictor = RayPredictor()
        lo = np.zeros(3)
        extent = np.ones(3)
        origins = np.array([[0.5, 0.5, 0.5]])
        directions = np.array([[1.0, 0.0, 0.0]])
        predictor.train(origins, directions, [42], lo, extent)
        assert predictor.entries == 1
        assert predictor.predict(origins[0], directions[0], lo, extent) == 42

    def test_nearby_directions_share_entries(self):
        predictor = RayPredictor(angular_bins=8)
        lo = np.zeros(3)
        extent = np.ones(3)
        o = np.array([0.5, 0.5, 0.5])
        d1 = np.array([1.0, 0.001, 0.0])
        d2 = np.array([1.0, -0.001, 0.0])
        predictor.train(o[None], d1[None], [7], lo, extent)
        assert predictor.predict(o, d2, lo, extent) == 7

    def test_none_hits_are_skipped(self):
        predictor = RayPredictor()
        predictor.train(np.zeros((2, 3)), np.eye(3)[:2], [None, None],
                        np.zeros(3), np.ones(3))
        assert predictor.entries == 0

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            RayPredictor(angular_bins=0)


class TestPredictorAnalysis:
    def test_coverage_is_small_for_volume_rendering(self, scene):
        # The paper's Section VII argument: high hit rate, low coverage.
        cloud, _mono, two = scene
        renderer = GaussianRayTracer(cloud, two, TraceConfig(k=8))
        cam1 = default_camera_for(cloud, 8, 8)
        cam2 = PinholeCamera(
            cam1.position + 0.02 * np.array([1.0, 0.0, 0.0]),
            cam1.look_at, cam1.up, 8, 8, cam1.fov_y,
        )
        report = analyze_predictor(renderer, cam1, cam2)
        assert report.n_rays == 64
        assert 0.0 <= report.hit_rate <= 1.0
        assert report.mean_blended > 1.0  # many Gaussians per ray
        # One predicted Gaussian can cover only a sliver of the blend list.
        assert report.mean_coverage < 0.5
        assert report.traversal_savable_fraction <= report.mean_coverage + 1e-12

    def test_same_camera_has_high_hit_rate(self, scene):
        cloud, _mono, two = scene
        renderer = GaussianRayTracer(cloud, two, TraceConfig(k=8))
        cam = default_camera_for(cloud, 8, 8)
        report = analyze_predictor(renderer, cam, cam)
        assert report.hit_rate > 0.9


class TestAblationsMatchTheOracle:
    """The predictor and popping ablations read per-ray blend lists off
    one batched trace per frame; their numbers must be the ones the
    per-ray scalar oracle's blend lists give."""

    def test_predictor_report_equals_the_oracle(self, scene, monkeypatch):
        import repro.rt.predictor as predictor_module

        cloud, _mono, two = scene
        renderer = GaussianRayTracer(cloud, two, TraceConfig(k=8))
        cam1 = default_camera_for(cloud, 8, 8)
        cam2 = PinholeCamera(
            cam1.position + 0.02 * np.array([1.0, 0.0, 0.0]),
            cam1.look_at, cam1.up, 8, 8, cam1.fov_y,
        )
        got = analyze_predictor(renderer, cam1, cam2)

        def oracle_sets(renderer, camera):
            tracer = Tracer(renderer.structure, renderer.shading,
                            replace(renderer.config, record_blended=True))
            bundle = camera.generate_rays()
            blended = [
                [gid for gid, _a, _t in tracer.trace_ray(o, d).blend_records]
                for o, d in zip(bundle.origins, bundle.directions)]
            return bundle.origins, bundle.directions, blended

        monkeypatch.setattr(predictor_module, "_blended_sets", oracle_sets)
        assert got == analyze_predictor(renderer, cam1, cam2)
        assert got.mean_blended > 1.0

    def test_popping_frames_equal_the_oracle(self, scene):
        from repro.eval.experiments import popping_frames
        from repro.render.path import orbit_path
        from repro.rt import SceneShading

        cloud, _mono, two = scene
        config = TraceConfig(k=8)
        cameras = orbit_path(default_camera_for(cloud, 6, 6),
                             cloud.means.mean(axis=0), 3, total_angle=0.06)
        perray, global_ = popping_frames(cloud, two, config, cameras)

        shading = SceneShading(cloud)
        tracer = Tracer(two, shading, replace(config, record_blended=True))
        reblended = 0
        for camera, p_frame, g_frame in zip(cameras, perray, global_):
            _r, _u, forward = camera.basis
            depth_key = (cloud.means - camera.position) @ forward
            bundle = camera.generate_rays()
            p_flat, g_flat = p_frame.reshape(-1, 3), g_frame.reshape(-1, 3)
            for r in range(len(bundle)):
                outcome = tracer.trace_ray(bundle.origins[r],
                                           bundle.directions[r])
                pixel = int(bundle.pixel_ids[r])
                assert np.abs(outcome.color - p_flat[pixel]).max() <= 1e-9
                order = sorted(outcome.blend_records,
                               key=lambda rec: depth_key[rec[0]])
                want = np.zeros(3)
                if order:
                    reblended += 1
                    colors = shading.colors(
                        np.array([rec[0] for rec in order]),
                        bundle.directions[r])
                    trans = 1.0
                    for j, (_gid, alpha, _t) in enumerate(order):
                        want += trans * alpha * colors[j]
                        trans *= 1.0 - alpha
                        if trans < config.transmittance_min:
                            break
                assert np.abs(want - g_flat[pixel]).max() <= 1e-9
        assert reblended > 0
