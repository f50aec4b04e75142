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
L2 accesses).  Every recorded-trace check runs at the shipped recording
chunk and at one of 3 rays, which splits every bundle.

Also covered here: the batched :func:`repro.hwsim.replay` (its compiled
cache walk) against its golden reference loop
(``replay_reference`` in ``tests/replay_oracle.py``), on eviction-free and
eviction-prone cache geometries, at the shipped chunk budget and at one
that cuts every frame into many chunks.
"""

from __future__ import annotations

import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

from repro.bvh import build_monolithic, build_two_level
from repro.gaussians import make_workload
from repro.hwsim import GpuConfig, replay
from repro.hwsim.treelet import build_treelet_map
from repro.obs.tracing import BufferTraceSink, current_sink, install_sink
from repro.render import GaussianRayTracer, SceneObjects, default_camera_for
from repro.rt import TraceConfig, tracerecord
from repro.rt.recorder import FETCH_INTERNAL, RayTrace

from tests.conftest import tiny_cloud
from tests.replay_oracle import replay_reference

STRUCTURES = ("20-tri", "custom", "tlas+sphere", "tlas+20-tri")

#: Multiround configs run with checkpointing off and on (singleround
#: cannot checkpoint).
CHECKPOINTING = (False, True)

# The package re-exports the ``replay`` function under the module's name;
# the chunk budget lives on the module.
_replay_module = importlib.import_module("repro.hwsim.replay")

#: Chunk budgets every reference-parity check replays at: the shipped
#: constant, and one below these frames' segment sizes, so each (round,
#: warp) segment is a chunk of its own.
CHUNK_BUDGETS = (_replay_module.CHUNK_EVENTS, 300)

#: Recording chunks every recorded-trace check runs at: the shipped
#: constant, and 3 rays, so every bundle here records in several chunks.
RECORD_CHUNKS = (tracerecord._MAX_RECORD_PACKET, 3)


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


def _unique_addrs(trace):
    """The ray's distinct ``(internal, leaf)`` fetch addresses, as sets
    read from its rounds' event arrays."""
    internal, leaf = set(), set()
    for rnd in trace.rounds:
        events = rnd.events_view()
        for addr, kind in zip(events[:, 0].tolist(), events[:, 2].tolist()):
            (internal if kind == FETCH_INTERNAL else leaf).add(addr)
    return internal, leaf


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
            s_unique = _unique_addrs(s)
            assert s_unique == _unique_addrs(p)
            assert s.unique_counts() == p.unique_counts() == tuple(
                len(addrs) for addrs in s_unique)
            assert (s.total_internal, s.total_leaf) == (
                p.total_internal, p.total_leaf)
            assert (s.ckpt_high_water, s.evict_high_water) == (
                p.ckpt_high_water, p.evict_high_water)


def _assert_reports_equal(a, b):
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def _with_spans(name, run):
    """``run()`` plus the arguments of every ``name`` span it emits."""
    previous = current_sink()
    sink = BufferTraceSink()
    install_sink(sink)
    try:
        out = run()
    finally:
        install_sink(previous)
    return out, [event["args"] for event in sink.drain()
                 if event["name"] == name]


def _replay_span(traces, config, **kwargs):
    """``replay`` plus the arguments of the ``hwsim.replay`` span it emits."""
    report, (span,) = _with_spans(
        "hwsim.replay", lambda: replay(traces, config, **kwargs))
    return report, span


def _record_at_each_chunk(monkeypatch, record):
    """Yield ``record()``'s result at every recording chunk of
    :data:`RECORD_CHUNKS`, checking that each recorded bundle really
    split into ``ceil(rays / chunk)`` chunks."""
    for chunk in RECORD_CHUNKS:
        monkeypatch.setattr(tracerecord, "_MAX_RECORD_PACKET", chunk)
        out, spans = _with_spans("rt.wavefront.record", record)
        assert spans
        for args in spans:
            assert args["chunks"] == -(-args["rays"] // chunk)
        yield out


def _assert_matches_reference(monkeypatch, traces, config, want=None,
                              **kwargs):
    """``replay`` equals ``want`` (by default ``replay_reference`` on the
    same traces) at every chunk budget, and a budget below the frame's
    event count really splits a multi-segment frame."""
    if want is None:
        want = replay_reference(traces, config, **kwargs)
    for budget in CHUNK_BUDGETS:
        monkeypatch.setattr(_replay_module, "CHUNK_EVENTS", budget)
        got, span = _replay_span(traces, config, **kwargs)
        _assert_reports_equal(got, want)
        if span["events"] > budget and span["segments"] > 1:
            assert span["chunks"] > 1


def _render_pairs(monkeypatch, cloud, structure, config, camera,
                  objects=None):
    """Yield the scalar engine's recorded render paired with the
    wavefront engine's at each recording chunk."""
    scalar = GaussianRayTracer(cloud, structure, config,
                               engine="scalar").render(
        camera, objects=objects, keep_traces=True)
    wavefront = GaussianRayTracer(cloud, structure, config,
                                  engine="wavefront")
    for packet in _record_at_each_chunk(
            monkeypatch, lambda: wavefront.render(camera, objects=objects,
                                                  keep_traces=True)):
        yield scalar, packet


class TestTraceEquivalence:
    """Scalar-vs-wavefront per-ray streams across the support matrix."""

    @pytest.mark.parametrize("proxy", STRUCTURES)
    @pytest.mark.parametrize("mode", ["multiround", "singleround"])
    def test_streams_counters_and_replay(self, cloud, structures, proxy, mode,
                                         monkeypatch):
        camera = default_camera_for(cloud, 8, 8)
        for checkpointing in CHECKPOINTING[:1 + (mode == "multiround")]:
            config = TraceConfig(k=4, mode=mode, checkpointing=checkpointing)
            for scalar, packet in _render_pairs(
                    monkeypatch, cloud, structures[proxy], config, camera):
                if checkpointing:
                    assert scalar.stats.checkpoints_written > 0
                _assert_traces_equal(scalar.traces, packet.traces)
                assert scalar.stats == packet.stats, checkpointing
                _assert_reports_equal(
                    replay(scalar.traces, GpuConfig.rtx_like()),
                    replay(packet.traces, GpuConfig.rtx_like()))

    @pytest.mark.parametrize("proxy", ["20-tri", "tlas+sphere", "tlas+20-tri"])
    def test_secondary_rays_and_t_clip(self, cloud, structures, proxy,
                                       monkeypatch):
        """Scene objects clip primaries and spawn secondary warps; both
        label streams must reconstruct identically."""
        camera = default_camera_for(cloud, 8, 8)
        objects = SceneObjects.default_for(cloud)
        for checkpointing in CHECKPOINTING:
            config = TraceConfig(k=4, checkpointing=checkpointing)
            for scalar, packet in _render_pairs(
                    monkeypatch, cloud, structures[proxy], config, camera,
                    objects=objects):
                assert any(t.label == "secondary" for t in scalar.traces)
                _assert_traces_equal(scalar.traces, packet.traces)
                assert scalar.stats == packet.stats, checkpointing
                _assert_reports_equal(
                    replay(scalar.traces, GpuConfig.rtx_like()),
                    replay(packet.traces, GpuConfig.rtx_like()))

    def test_k1_max_rounds_cap(self, cloud, structures, monkeypatch):
        """k=1 with a tight round cap exercises the frontier carry-over
        and the round-cap break in the reconstruction."""
        camera = default_camera_for(cloud, 8, 8)
        for checkpointing in CHECKPOINTING:
            config = TraceConfig(k=1, max_rounds=3,
                                 checkpointing=checkpointing)
            for scalar, packet in _render_pairs(
                    monkeypatch, cloud, structures["tlas+20-tri"], config,
                    camera):
                if checkpointing:
                    assert scalar.stats.checkpoints_written > 0
                _assert_traces_equal(scalar.traces, packet.traces)
                assert scalar.stats == packet.stats, checkpointing

    def test_early_termination(self, cloud, structures, monkeypatch):
        camera = default_camera_for(cloud, 8, 8)
        for checkpointing in CHECKPOINTING:
            config = TraceConfig(k=16, transmittance_min=0.97,
                                 checkpointing=checkpointing)
            for scalar, packet in _render_pairs(
                    monkeypatch, cloud, structures["tlas+sphere"], config,
                    camera):
                assert scalar.stats.rays_terminated_early > 0
                _assert_traces_equal(scalar.traces, packet.traces)
                assert scalar.stats == packet.stats, checkpointing

    @pytest.mark.parametrize("proxy", ["20-tri", "custom"])
    def test_checkpoint_resume_on_workload_cloud(self, proxy, monkeypatch):
        """On a dense workload cloud, prefilled evictions and shrinking
        ``t_max`` leave some resumed leaf checkpoints between their box
        entry and their stored hit depth: the resume must test the
        stored ``t`` (re-checkpointing the leaf), as the scalar does."""
        cloud = make_workload("train", scale=1 / 4000)
        config = TraceConfig(k=2, checkpointing=True)
        camera = default_camera_for(cloud, 5, 5)
        for scalar, packet in _render_pairs(
                monkeypatch, cloud, build_monolithic(cloud, proxy), config,
                camera):
            _assert_traces_equal(scalar.traces, packet.traces)
            assert scalar.stats == packet.stats

    def test_fig_aggregates_match(self, cloud, structures, monkeypatch):
        """The fig14/16/17 quantities — node fetches, L1 hits, L2
        accesses — are identical from either engine's traces."""
        camera = default_camera_for(cloud, 8, 8)
        for proxy in ("20-tri", "tlas+20-tri"):
            for scalar, packet in _render_pairs(
                    monkeypatch, cloud, structures[proxy], TraceConfig(k=8),
                    camera):
                a = replay(scalar.traces, GpuConfig.rtx_like())
                b = replay(packet.traces, GpuConfig.rtx_like())
                assert a.node_fetches == b.node_fetches
                assert a.l1_hits == b.l1_hits
                assert a.l2_accesses == b.l2_accesses
                assert a.cycles == b.cycles

    def test_recorded_result_matches_plain_packet(self, cloud, structures,
                                                  monkeypatch):
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
            for recorded, traces in _record_at_each_chunk(
                    monkeypatch, lambda: tracer.trace_packet_recorded(
                        bundle.origins, bundle.directions)):
                assert np.array_equal(plain.colors, recorded.colors), proxy
                assert np.array_equal(plain.blended, recorded.blended), proxy
                assert np.array_equal(plain.terminated, recorded.terminated)
                assert plain.anyhit_calls == recorded.anyhit_calls
                assert plain.false_positives == recorded.false_positives
                assert len(traces) == len(bundle)

    def test_record_span_counts_chunks(self, cloud, structures):
        """A recorded render emits one ``rt.wavefront.record`` span per
        bundle: its rays, its ``ceil(rays / 32)`` chunks, its fetch
        events and the compiled walk that recorded them."""
        camera = default_camera_for(cloud, 12, 12)
        result, spans = _with_spans(
            "rt.wavefront.record",
            lambda: GaussianRayTracer(
                cloud, structures["20-tri"], TraceConfig(k=4),
                engine="wavefront").render(camera, keep_traces=True))
        assert tracerecord._MAX_RECORD_PACKET == 32
        assert spans == [{
            "rays": 144, "chunks": 5, "kernel": "c",
            "events": sum(rnd.n_fetches for trace in result.traces
                          for rnd in trace.rounds)}]

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
    def test_fast_path_matches_reference(self, cloud, structures, proxy,
                                         monkeypatch):
        result = GaussianRayTracer(
            cloud, structures[proxy], TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        for config in (GpuConfig.rtx_like(), GpuConfig.amd_like(),
                       dataclasses.replace(GpuConfig.rtx_like(),
                                           prefetch_enabled=False),
                       dataclasses.replace(GpuConfig.rtx_like(),
                                           dram_model="banked")):
            _assert_matches_reference(monkeypatch, result.traces, config)

    def test_eviction_fallback_matches_reference(self, cloud, structures,
                                                 monkeypatch):
        """Tiny caches force LRU evictions in the tag walk."""
        result = GaussianRayTracer(
            cloud, structures["20-tri"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        small = dataclasses.replace(
            GpuConfig.rtx_like(), l1_bytes=2 * 128 * 2, l1_ways=2,
            l2_bytes=128 * 16 * 4, l2_ways=4)
        _assert_matches_reference(monkeypatch, result.traces, small)

    def test_chunk_handoff_matches_reference(self, cloud, structures,
                                             monkeypatch):
        """Early chunks fill the caches, a later one overflows them: the
        LRU order carried across chunk edges decides the victims. A
        line's L1 recency is the later of its last demand touch and its
        prefetch insert (a prefetch hit does not promote); its L2 recency
        is its last L1 miss, from any SM.

        Two hand-built cases pin those rules (one-ray warps, one set per
        cache; ``[x pf y]`` is a demand fetch of line x carrying a
        prefetch of line y). Any other recency rule evicts a different
        line at the overflow and changes the counters.
        """
        a, b, c, d, e, f, g, h = (128 * line for line in range(8))

        def fetch(addr, prefetch=None):
            return addr, None if prefetch is None else [(prefetch, 64)]

        def ray(*rounds):
            trace = RayTrace()
            for fetches in rounds:
                rnd = trace.begin_round()
                for addr, prefetch in fetches:
                    rnd.fetch(addr, 64, FETCH_INTERNAL, box_tests=1,
                              prefetch=prefetch)
            return trace

        def check(traces, config, budget, chunks):
            monkeypatch.setattr(_replay_module, "CHUNK_EVENTS", budget)
            got, span = _replay_span(traces, config)
            assert span["chunks"] == chunks
            _assert_reports_equal(got, replay_reference(traces, config))

        # L1: SM 0 runs [a pf b], then [a pf b] again — a is promoted, the
        # prefetch hit leaves b the LRU line — then overflows its 2-way
        # L1 with c (evicting b), so a hits. SM 1 only adds a second L1
        # miss on a, which also makes a the L2's MRU line: d then evicts
        # b from the 3-way L2, so b goes to DRAM.
        check([ray([fetch(a, b)], [fetch(a, b)],
                   [fetch(c), fetch(a), fetch(d), fetch(b)]),
               ray([fetch(a)])],
              dataclasses.replace(
                  GpuConfig.rtx_like(), n_sms=2, warp_size=1,
                  l1_bytes=128 * 2, l1_ways=2, l2_bytes=128 * 3, l2_ways=3),
              budget=1, chunks=4)
        # L2 (4-way; 4-way L1s), two segments per chunk: SM 0 [a pf b] and
        # SM 1 [a] in one chunk leave the L2 at b, a; SM 0 [e pf f] adds
        # e, f; SM 1 missing e a chunk later leaves b, a, f, e. SM 0's
        # g overflows both caches and evicts b from the L2; SM 2 then
        # hits a, misses h (evicting f) and hits e.
        check([ray([fetch(a, b)], [fetch(e, f)], [fetch(a)], [fetch(g)]),
               ray([fetch(a)], [fetch(a)], [fetch(e)]),
               ray([], [], [], [fetch(a), fetch(h), fetch(e)])],
              dataclasses.replace(
                  GpuConfig.rtx_like(), n_sms=3, warp_size=1,
                  l1_bytes=128 * 4, l1_ways=4, l2_bytes=128 * 4, l2_ways=4),
              budget=2, chunks=5)

        # The same carried state on a rendered frame, over many chunks.
        result = GaussianRayTracer(
            cloud, structures["tlas+20-tri"], TraceConfig(k=1)).render(
            default_camera_for(cloud, 12, 12))
        tiny_l1 = dataclasses.replace(GpuConfig.rtx_like(),
                                      l1_bytes=128 * 64 * 2, l1_ways=64)
        monkeypatch.setattr(_replay_module, "CHUNK_EVENTS", 300)
        got, span = _replay_span(result.traces, tiny_l1)
        assert span["chunks"] > 1
        _assert_reports_equal(got, replay_reference(result.traces, tiny_l1))

    def test_replay_memory_bounded_by_chunk(self, cloud, structures,
                                            monkeypatch):
        """Replay's transient memory follows the chunk, not the frame:
        8x a frame's traces peak under 2x the traced allocation of 1x,
        with and without LRU evictions."""
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        monkeypatch.setattr(_replay_module, "CHUNK_EVENTS", 300)
        small = dataclasses.replace(GpuConfig.rtx_like(),
                                    l1_bytes=2 * 128 * 2, l1_ways=2)

        def peak(traces, config):
            replay(traces, config)  # memoize the stream views first
            tracemalloc.start()
            try:
                replay(traces, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for config in (GpuConfig.rtx_like(), small):
            assert peak(result.traces * 8, config) < 2 * peak(
                result.traces, config)

    def test_treelet_path_matches_reference(self, cloud, structures,
                                            monkeypatch):
        structure = structures["20-tri"]
        result = GaussianRayTracer(
            cloud, structure, TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        tmap = build_treelet_map(structure, 1024)
        _assert_matches_reference(monkeypatch, result.traces,
                                  GpuConfig.rtx_like(), treelet_map=tmap)

    def test_non_power_of_two_warp_buffer(self, cloud, structures,
                                          monkeypatch):
        """The per-segment latency sums must divide by the warp-buffer
        depth per event (the reference's accumulation order), which only
        shows when overlap is not a power of two."""
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        for wbs in (6, 7, 12):
            config = dataclasses.replace(GpuConfig.rtx_like(),
                                         warp_buffer_size=wbs)
            _assert_matches_reference(monkeypatch, result.traces, config)

    def test_degenerate_merge_window_matches_reference(self, cloud,
                                                       structures,
                                                       monkeypatch):
        """A zero-capacity merge window never merges (every insert is
        evicted immediately); capacity 1 merges only back-to-back
        duplicates."""
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 8, 8))
        for cap in (0, 1):
            config = dataclasses.replace(GpuConfig.rtx_like(),
                                         merge_window_size=cap)
            _assert_matches_reference(monkeypatch, result.traces, config)

    def test_invalid_cache_geometry_raises(self, cloud, structures):
        """``replay`` validates cache geometry like the reference's
        SetAssociativeCache construction does."""
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 6, 6))
        bad = dataclasses.replace(GpuConfig.rtx_like(), l1_bytes=1000)
        with pytest.raises(ValueError, match="multiple of line_bytes"):
            replay(result.traces, bad)
        with pytest.raises(ValueError, match="multiple of line_bytes"):
            replay_reference(result.traces, bad)

    def test_kbuffer_layouts_match(self, cloud, structures, monkeypatch):
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 6, 6))
        for layout in ("soa", "payload"):
            _assert_matches_reference(monkeypatch, result.traces,
                                      GpuConfig.rtx_like(),
                                      kbuffer_layout=layout)

    def test_unknown_kbuffer_layout_raises(self, cloud, structures):
        """Only the layouts TraceConfig accepts are costed; a misspelt one
        must not silently run as ``payload``."""
        result = GaussianRayTracer(
            cloud, structures["tlas+sphere"], TraceConfig(k=4)).render(
            default_camera_for(cloud, 6, 6))
        for replay_fn in (replay, replay_reference):
            with pytest.raises(ValueError, match="unknown kbuffer layout"):
                replay_fn(result.traces, GpuConfig.rtx_like(),
                          kbuffer_layout="SoA")

    def test_recorded_packet_traces_replay_identically(self, cloud,
                                                       structures,
                                                       monkeypatch):
        """End to end: wavefront-recorded traces through the batched
        replay equal scalar traces through the reference replay."""
        config = TraceConfig(k=4)
        camera = default_camera_for(cloud, 8, 8)
        for scalar, packet in _render_pairs(
                monkeypatch, cloud, structures["tlas+20-tri"], config,
                camera):
            _assert_matches_reference(
                monkeypatch, packet.traces, GpuConfig.rtx_like(),
                want=replay_reference(scalar.traces, GpuConfig.rtx_like()))


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
