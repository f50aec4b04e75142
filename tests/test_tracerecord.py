"""Trace equivalence: the frontier recorder vs the scalar tracer.

The contract under test is exact stream equality — for every supported
(structure, mode) pair, with and without GRTX-HW checkpointing, the
wavefront engine's recorded per-ray ``RayTrace``s are event-for-event
the scalar tracer's: same fetch records (addresses, sizes, kinds, test
counts), same prefetch pair lists, same per-round counters (checkpoint
and eviction writes included), same round structure, same unique/total
visit statistics and checkpoint/eviction high-water marks — so a
replayed :class:`TimingReport` is identical whichever engine produced
the traces, and so are the fig14–17 aggregates (node fetches, L1 hits,
L2 accesses).

Also covered here: the vectorized :func:`repro.hwsim.replay` against
its golden reference loop (:func:`repro.hwsim.replay_reference`), on
both the eviction-free fast path and the sequential fallback.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bvh import build_monolithic, build_two_level
from repro.gaussians import make_workload
from repro.hwsim import GpuConfig, replay, replay_reference
from repro.hwsim.treelet import build_treelet_map
from repro.render import GaussianRayTracer, SceneObjects, default_camera_for
from repro.rt import TraceConfig

from tests.conftest import tiny_cloud

STRUCTURES = ("20-tri", "custom", "tlas+sphere", "tlas+20-tri")

#: Multiround configs run with checkpointing off and on (singleround
#: cannot checkpoint).
CHECKPOINTING = (False, True)


@pytest.fixture(scope="module")
def cloud():
    return tiny_cloud(n=128, seed=21)


@pytest.fixture(scope="module")
def structures(cloud):
    return {
        "20-tri": build_monolithic(cloud, "20-tri"),
        "custom": build_monolithic(cloud, "custom"),
        "tlas+sphere": build_two_level(cloud, "sphere"),
        "tlas+20-tri": build_two_level(cloud, "icosphere", 0),
    }


def _round_key(rnd):
    return (list(rnd.stream), list(rnd.pf), rnd.anyhit_calls,
            rnd.kbuffer_ops, rnd.false_positives, rnd.blended,
            rnd.checkpoints_written, rnd.evictions_written)


def _assert_traces_equal(scalar_traces, packet_traces):
    assert len(scalar_traces) == len(packet_traces)
    for label in ("primary", "secondary"):
        s_traces = [t for t in scalar_traces if t.label == label]
        p_traces = [t for t in packet_traces if t.label == label]
        assert len(s_traces) == len(p_traces)
        for s, p in zip(s_traces, p_traces):
            assert s.n_rounds == p.n_rounds
            for sr, pr in zip(s.rounds, p.rounds):
                assert _round_key(sr) == _round_key(pr)
            assert s.fetch_multiset() == p.fetch_multiset()
            assert s.unique_internal == p.unique_internal
            assert s.unique_leaf == p.unique_leaf
            assert (s.total_internal, s.total_leaf) == (
                p.total_internal, p.total_leaf)
            assert (s.ckpt_high_water, s.evict_high_water) == (
                p.ckpt_high_water, p.evict_high_water)


def _assert_reports_equal(a, b):
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def _render_pair(cloud, structure, config, camera, objects=None):
    scalar = GaussianRayTracer(cloud, structure, config,
                               engine="scalar").render(
        camera, objects=objects, keep_traces=True)
    packet = GaussianRayTracer(cloud, structure, config,
                               engine="wavefront").render(
        camera, objects=objects, keep_traces=True)
    return scalar, packet


class TestTraceEquivalence:
    """Scalar-vs-wavefront per-ray streams across the support matrix."""

    @pytest.mark.parametrize("proxy", STRUCTURES)
    @pytest.mark.parametrize("mode", ["multiround", "singleround"])
    def test_streams_counters_and_replay(self, cloud, structures, proxy, mode):
        camera = default_camera_for(cloud, 8, 8)
        for checkpointing in CHECKPOINTING[:1 + (mode == "multiround")]:
            config = TraceConfig(k=4, mode=mode, checkpointing=checkpointing)
            scalar, packet = _render_pair(cloud, structures[proxy], config,
                                          camera)
            if checkpointing:
                assert scalar.stats.checkpoints_written > 0
            _assert_traces_equal(scalar.traces, packet.traces)
            assert scalar.stats == packet.stats, checkpointing
            _assert_reports_equal(
                replay(scalar.traces, GpuConfig.rtx_like()),
                replay(packet.traces, GpuConfig.rtx_like()))

    @pytest.mark.parametrize("proxy", ["20-tri", "tlas+sphere", "tlas+20-tri"])
    def test_secondary_rays_and_t_clip(self, cloud, structures, proxy):
        """Scene objects clip primaries and spawn secondary warps; both
        label streams must reconstruct identically."""
        camera = default_camera_for(cloud, 8, 8)
        objects = SceneObjects.default_for(cloud)
        for checkpointing in CHECKPOINTING:
            config = TraceConfig(k=4, checkpointing=checkpointing)
            scalar, packet = _render_pair(cloud, structures[proxy], config,
                                          camera, objects=objects)
            assert any(t.label == "secondary" for t in scalar.traces)
            _assert_traces_equal(scalar.traces, packet.traces)
            assert scalar.stats == packet.stats, checkpointing
            _assert_reports_equal(
                replay(scalar.traces, GpuConfig.rtx_like()),
                replay(packet.traces, GpuConfig.rtx_like()))

    def test_k1_max_rounds_cap(self, cloud, structures):
        """k=1 with a tight round cap exercises the frontier carry-over
        and the round-cap break in the reconstruction."""
        camera = default_camera_for(cloud, 8, 8)
        for checkpointing in CHECKPOINTING:
            config = TraceConfig(k=1, max_rounds=3,
                                 checkpointing=checkpointing)
            scalar, packet = _render_pair(cloud, structures["tlas+20-tri"],
                                          config, camera)
            if checkpointing:
                assert scalar.stats.checkpoints_written > 0
            _assert_traces_equal(scalar.traces, packet.traces)
            assert scalar.stats == packet.stats, checkpointing

    def test_early_termination(self, cloud, structures):
        camera = default_camera_for(cloud, 8, 8)
        for checkpointing in CHECKPOINTING:
            config = TraceConfig(k=16, transmittance_min=0.97,
                                 checkpointing=checkpointing)
            scalar, packet = _render_pair(cloud, structures["tlas+sphere"],
                                          config, camera)
            assert scalar.stats.rays_terminated_early > 0
            _assert_traces_equal(scalar.traces, packet.traces)
            assert scalar.stats == packet.stats, checkpointing

    @pytest.mark.parametrize("proxy", ["20-tri", "custom"])
    def test_checkpoint_resume_on_workload_cloud(self, proxy):
        """On a dense workload cloud, prefilled evictions and shrinking
        ``t_max`` leave some resumed leaf checkpoints between their box
        entry and their stored hit depth: the resume must test the
        stored ``t`` (re-checkpointing the leaf), as the scalar does."""
        cloud = make_workload("train", scale=1 / 4000)
        config = TraceConfig(k=2, checkpointing=True)
        camera = default_camera_for(cloud, 5, 5)
        scalar, packet = _render_pair(
            cloud, build_monolithic(cloud, proxy), config, camera)
        _assert_traces_equal(scalar.traces, packet.traces)
        assert scalar.stats == packet.stats

    def test_fig_aggregates_match(self, cloud, structures):
        """The fig14/16/17 quantities — node fetches, L1 hits, L2
        accesses — are identical from either engine's traces."""
        camera = default_camera_for(cloud, 8, 8)
        for proxy in ("20-tri", "tlas+20-tri"):
            scalar, packet = _render_pair(
                cloud, structures[proxy], TraceConfig(k=8), camera)
            a = replay(scalar.traces, GpuConfig.rtx_like())
            b = replay(packet.traces, GpuConfig.rtx_like())
            assert a.node_fetches == b.node_fetches
            assert a.l1_hits == b.l1_hits
            assert a.l2_accesses == b.l2_accesses
            assert a.cycles == b.cycles

    def test_recorded_result_matches_plain_packet(self, cloud, structures):
        """Recording must not perturb the render: colors and parity
        counters equal the plain path bit for bit."""
        from repro.rt import SceneShading, WavefrontTracer

        config = TraceConfig(k=4)
        shading = SceneShading(cloud)
        camera = default_camera_for(cloud, 8, 8)
        bundle = camera.generate_rays()
        for proxy in STRUCTURES:
            tracer = WavefrontTracer(structures[proxy], shading, config)
            plain = tracer.trace_packet(bundle.origins, bundle.directions)
            recorded, traces = tracer.trace_packet_recorded(
                bundle.origins, bundle.directions)
            assert np.array_equal(plain.colors, recorded.colors), proxy
            assert np.array_equal(plain.blended, recorded.blended), proxy
            assert np.array_equal(plain.terminated, recorded.terminated)
            assert plain.anyhit_calls == recorded.anyhit_calls
            assert plain.false_positives == recorded.false_positives
            assert len(traces) == len(bundle)

    def test_tiled_pooled_recording_ships_traces(self, cloud, structures):
        """Recording composes with pooled tiles: the reassembled frame
        carries every ray's trace and the same whole-frame multiset."""
        from repro.serve import TileScheduler

        config = TraceConfig(k=4)
        camera = default_camera_for(cloud, 8, 8)
        ref = GaussianRayTracer(cloud, structures["tlas+sphere"], config,
                                engine="wavefront").render(
            camera, keep_traces=True)
        with TileScheduler(tile_size=(4, 4), workers=2) as scheduler:
            pooled = scheduler.render(cloud, structures["tlas+sphere"],
                                      config, camera, keep_traces=True,
                                      engine="wavefront")
        assert np.array_equal(ref.image, pooled.image)
        assert len(pooled.traces) == len(ref.traces)
        ref_ms = sorted(tuple(sorted(t.fetch_multiset().items()))
                        for t in ref.traces)
        pooled_ms = sorted(tuple(sorted(t.fetch_multiset().items()))
                           for t in pooled.traces)
        assert ref_ms == pooled_ms


class TestReplayVectorization:
    """The batched replay against its golden per-event reference."""

    @pytest.mark.parametrize("proxy", ["20-tri", "tlas+sphere"])
    def test_fast_path_matches_reference(self, cloud, structures, proxy):
        result = GaussianRayTracer(
            cloud, structures[proxy], TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        for config in (GpuConfig.rtx_like(), GpuConfig.amd_like(),
                       dataclasses.replace(GpuConfig.rtx_like(),
                                           prefetch_enabled=False),
                       dataclasses.replace(GpuConfig.rtx_like(),
                                           dram_model="banked")):
            _assert_reports_equal(replay(result.traces, config),
                                  replay_reference(result.traces, config))

    def test_eviction_fallback_matches_reference(self, cloud, structures):
        """Tiny caches force LRU evictions, exercising the sequential
        tag walk instead of the first-occurrence fast path."""
        result = GaussianRayTracer(
            cloud, structures["20-tri"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        small = dataclasses.replace(
            GpuConfig.rtx_like(), l1_bytes=2 * 128 * 2, l1_ways=2,
            l2_bytes=128 * 16 * 4, l2_ways=4)
        _assert_reports_equal(replay(result.traces, small),
                              replay_reference(result.traces, small))

    def test_treelet_path_matches_reference(self, cloud, structures):
        structure = structures["20-tri"]
        result = GaussianRayTracer(
            cloud, structure, TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        tmap = build_treelet_map(structure, 1024)
        _assert_reports_equal(
            replay(result.traces, GpuConfig.rtx_like(), treelet_map=tmap),
            replay_reference(result.traces, GpuConfig.rtx_like(),
                             treelet_map=tmap))

    def test_non_power_of_two_warp_buffer(self, cloud, structures):
        """The fast path's per-segment latency sums must divide by the
        warp-buffer depth per event (the reference's accumulation
        order), which only shows when overlap is not a power of two."""
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        for wbs in (6, 7, 12):
            config = dataclasses.replace(GpuConfig.rtx_like(),
                                         warp_buffer_size=wbs)
            _assert_reports_equal(replay(result.traces, config),
                                  replay_reference(result.traces, config))

    def test_degenerate_merge_window_matches_reference(self, cloud,
                                                       structures):
        """A zero-capacity merge window never merges (every insert is
        evicted immediately); the duplicate-run shortcut must not claim
        otherwise. Capacity 1 exercises the shortcut's smallest case."""
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        for cap in (0, 1):
            config = dataclasses.replace(GpuConfig.rtx_like(),
                                         merge_window_size=cap)
            _assert_reports_equal(replay(result.traces, config),
                                  replay_reference(result.traces, config))

    def test_invalid_cache_geometry_raises(self, cloud, structures):
        """The fast path validates cache geometry like the reference's
        SetAssociativeCache construction does."""
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 6, 6))
        bad = dataclasses.replace(GpuConfig.rtx_like(), l1_bytes=1000)
        with pytest.raises(ValueError, match="multiple of line_bytes"):
            replay(result.traces, bad)
        with pytest.raises(ValueError, match="multiple of line_bytes"):
            replay_reference(result.traces, bad)

    def test_kbuffer_layouts_match(self, cloud, structures):
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 6, 6))
        for layout in ("soa", "payload"):
            _assert_reports_equal(
                replay(result.traces, GpuConfig.rtx_like(),
                       kbuffer_layout=layout),
                replay_reference(result.traces, GpuConfig.rtx_like(),
                                 kbuffer_layout=layout))

    def test_recorded_packet_traces_replay_identically(self, cloud,
                                                       structures):
        """End to end: wavefront-recorded traces through the batched
        replay equal scalar traces through the reference replay."""
        config = TraceConfig(k=4)
        camera = default_camera_for(cloud, 8, 8)
        scalar, packet = _render_pair(cloud, structures["tlas+20-tri"],
                                      config, camera)
        _assert_reports_equal(
            replay_reference(scalar.traces, GpuConfig.rtx_like()),
            replay(packet.traces, GpuConfig.rtx_like()))


class TestRecorderViews:
    """Zero-copy stream views (the replay's decode substrate)."""

    def test_events_view_layout(self):
        from repro.rt import RoundTrace
        from repro.rt.recorder import RECORD_FIELDS

        rnd = RoundTrace()
        rnd.fetch(1000, 208, 1, box_tests=6, prefetch=[(2000, 144),
                                                       (3000, 208)])
        rnd.fetch(2000, 144, 2, prim_tests=4, prim_kind=1)
        view = rnd.events_view()
        assert view.shape == (2, RECORD_FIELDS)
        assert view[0].tolist() == [1000, 208, 1, 6, 0, 0, 2]
        assert view[1].tolist() == [2000, 144, 2, 0, 4, 1, 0]
        pairs = rnd.prefetch_view()
        assert pairs.tolist() == [[2000, 144], [3000, 208]]
        # Zero-copy: the view reflects the live buffer.
        assert view.base is not None

    def test_views_memoized_by_length(self):
        from repro.rt import RoundTrace

        rnd = RoundTrace()
        rnd.fetch(0, 128, 1, box_tests=1)
        first = rnd.events_view()
        assert rnd.events_view() is first

    def test_empty_views(self):
        from repro.rt import RoundTrace

        rnd = RoundTrace()
        assert rnd.events_view().shape == (0, 7)
        assert rnd.prefetch_view().shape == (0, 2)
