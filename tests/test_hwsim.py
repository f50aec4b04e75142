"""Tests for the GPU timing model: caches, replay, hardware cost."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh import build_monolithic, build_two_level
from repro.hwsim import (
    CheckpointHardware,
    GpuConfig,
    checkpoint_hardware_cost,
    replay,
)
from repro.hwsim.rtunit import checkpoint_buffer_bytes
from repro.render import GaussianRayTracer, default_camera_for
from repro.rt import FETCH_INTERNAL, FETCH_LEAF, RayTrace, TraceConfig

from tests.cache_oracle import SetAssociativeCache
from tests.conftest import tiny_cloud


class TestCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(1024, 64, 4)
        assert not cache.access(5)
        assert cache.access(5)
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = SetAssociativeCache(4 * 64, 64, 4)  # one set, 4 ways
        for line in range(4):
            cache.access(line)
        cache.access(0)  # refresh 0
        cache.access(99)  # evicts 1 (LRU)
        assert cache.access(0)
        assert not cache.access(1)

    def test_sets_isolate_addresses(self):
        cache = SetAssociativeCache(2 * 2 * 64, 64, 2)  # 2 sets, 2 ways
        cache.access(0)  # set 0
        cache.access(1)  # set 1
        cache.access(2)  # set 0
        cache.access(4)  # set 0 -> evicts 0
        assert cache.access(1)
        assert not cache.access(0)

    def test_prefetch_fill_no_demand_stat(self):
        cache = SetAssociativeCache(1024, 64, 4)
        cache.fill(7)
        assert cache.stats.accesses == 0
        assert cache.stats.prefetch_fills == 1
        assert cache.contains(7)
        assert cache.access(7)

    def test_lines_of(self):
        cache = SetAssociativeCache(1024, 128, 4)
        assert list(cache.lines_of(0, 128)) == [0]
        assert list(cache.lines_of(100, 128)) == [0, 1]
        assert list(cache.lines_of(256, 1)) == [2]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 64, 4)

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
    @settings(max_examples=30)
    def test_capacity_never_exceeded(self, lines):
        cache = SetAssociativeCache(8 * 64, 64, 2)
        for line in lines:
            cache.access(line)
        for s in cache._sets:
            assert len(s) <= cache.ways


class TestConfig:
    def test_table1_rows(self):
        rows = dict(GpuConfig.rtx_like().table1_rows())
        assert "8, 1365 MHz, in-order" in rows["# Streaming Multiprocessors (SM)"]
        assert rows["Warp Buffer Size"] == "8"

    def test_amd_variant(self):
        amd = GpuConfig.amd_like(scene_scale=0.01)
        assert amd.shader_issued_fetch_cycles > 0
        assert amd.bvh_size_scale > 1.0
        assert amd.max_buffer_bytes == int(4 * 1024 ** 3 * 0.01)

    def test_cycles_to_ms(self):
        gpu = GpuConfig.rtx_like()
        assert gpu.cycles_to_ms(1365e3) == pytest.approx(1.0)


def _synthetic_trace(addrs, kind=FETCH_INTERNAL, label="primary"):
    trace = RayTrace(label=label)
    rt = trace.begin_round()
    for addr in addrs:
        rt.fetch(addr, 128, kind, box_tests=1)
        trace.note_fetch(addr, kind)
    return trace


class TestReplay:
    def test_empty(self):
        report = replay([], GpuConfig.rtx_like())
        assert report.cycles == 0.0

    def test_node_fetch_counting_with_merging(self):
        """Rays of one warp requesting the same address within the merge
        window coalesce into one fetch."""
        traces = [_synthetic_trace([0]) for _ in range(4)]
        report = replay(traces, GpuConfig.rtx_like())
        assert report.node_fetches == 1
        assert report.merged_requests == 3

    def test_merge_window_bounded(self):
        """Requests farther apart than the merge window don't coalesce."""
        config = GpuConfig.rtx_like()
        span = (config.merge_window_size + 2)
        addrs = [i * 1024 for i in range(span)] + [0]
        report = replay([_synthetic_trace(addrs)], config)
        assert report.node_fetches == span + 1  # the repeat of 0 is NOT merged

    def test_repeated_fetch_hits_l1(self):
        config = GpuConfig.rtx_like()
        far = (config.merge_window_size + 2)
        addrs = [i * 1024 for i in range(far)] + [0]
        report = replay([_synthetic_trace(addrs)], config)
        assert report.l1_hits >= 1
        assert 0 < report.l1_hit_rate < 1

    def test_footprint_counts_unique_lines(self):
        report = replay([_synthetic_trace([0, 128, 0, 128, 256])], GpuConfig.rtx_like())
        assert report.footprint_bytes == 3 * 128

    def test_label_cycles_split(self):
        traces = [_synthetic_trace([i * 128], label="primary") for i in range(4)]
        traces += [_synthetic_trace([i * 128], label="secondary") for i in range(2)]
        report = replay(traces, GpuConfig.rtx_like())
        assert report.label_cycles["primary"] > 0
        assert report.label_cycles["secondary"] > 0

    def test_prefetch_populates_l1(self):
        trace = RayTrace()
        rt = trace.begin_round()
        rt.fetch(0, 128, FETCH_INTERNAL, box_tests=1, prefetch=[(4096, 128)])
        trace.note_fetch(0, FETCH_INTERNAL)
        rt.fetch(4096, 128, FETCH_LEAF, prim_tests=2, prim_kind=1)
        trace.note_fetch(4096, FETCH_LEAF)
        report = replay([trace], GpuConfig.rtx_like())
        assert report.prefetches == 1
        assert report.l1_hits >= 1  # demand fetch of 4096 hits

    def test_prefetch_disable(self):
        trace = RayTrace()
        rt = trace.begin_round()
        rt.fetch(0, 128, FETCH_INTERNAL, box_tests=1, prefetch=[(4096, 128)])
        rt.fetch(4096, 128, FETCH_LEAF, prim_tests=2, prim_kind=1)
        config = dataclasses.replace(GpuConfig.rtx_like(), prefetch_enabled=False)
        report = replay([trace], config)
        assert report.prefetches == 0

    def test_dram_latency_dominates_cold_fetches(self):
        config = GpuConfig.rtx_like()
        addrs = [i * 131072 for i in range(20)]  # distinct sets, cold
        report = replay([_synthetic_trace(addrs)], config)
        assert report.avg_fetch_latency >= config.l2_latency

    def test_more_rounds_cost_more_overhead(self):
        one = RayTrace()
        rt = one.begin_round()
        rt.fetch(0, 128, FETCH_INTERNAL, box_tests=1)
        many = RayTrace()
        for _ in range(5):
            rt = many.begin_round()
            rt.fetch(0, 128, FETCH_INTERNAL, box_tests=1)
        r1 = replay([one], GpuConfig.rtx_like())
        r5 = replay([many], GpuConfig.rtx_like())
        assert r5.cycles > r1.cycles

    def test_kbuffer_layout_affects_sorting_cost(self):
        trace = RayTrace()
        rt = trace.begin_round()
        rt.fetch(0, 128, FETCH_INTERNAL, box_tests=1)
        rt.anyhit_calls = 10
        rt.kbuffer_ops = 10
        soa = replay([trace], GpuConfig.rtx_like(), kbuffer_layout="soa")
        payload = replay([trace], GpuConfig.rtx_like(), kbuffer_layout="payload")
        assert soa.sorting_cycles > payload.sorting_cycles

    def test_end_to_end_replay_consistency(self):
        """Replaying a real render: fetches equal recorder totals minus
        merges, and component cycles are all positive."""
        cloud = tiny_cloud(96, seed=30)
        structure = build_two_level(cloud, "sphere")
        cam = default_camera_for(cloud, 6, 6)
        result = GaussianRayTracer(cloud, structure, TraceConfig(k=4)).render(cam)
        report = replay(result.traces, GpuConfig.rtx_like())
        recorded = sum(t.total_fetches for t in result.traces)
        assert report.node_fetches + report.merged_requests == recorded
        assert report.traversal_cycles > 0
        assert report.sorting_cycles > 0
        assert report.blending_cycles > 0
        assert report.cycles == max(report.sm_cycles)
        assert report.time_ms == pytest.approx(
            report.cycles / (GpuConfig.rtx_like().clock_mhz * 1e3)
        )

    def test_amd_fetch_cost_slower(self):
        cloud = tiny_cloud(96, seed=31)
        structure = build_monolithic(cloud, "20-tri")
        cam = default_camera_for(cloud, 6, 6)
        result = GaussianRayTracer(cloud, structure, TraceConfig(k=4)).render(cam)
        rtx = replay(result.traces, GpuConfig.rtx_like())
        amd = replay(result.traces, GpuConfig.amd_like())
        assert amd.cycles > rtx.cycles


class TestCheckpointHardware:
    def test_table3_total_is_1_05_kb(self):
        hw = checkpoint_hardware_cost()
        assert hw.total_kb == pytest.approx(1.05, abs=0.02)

    def test_formula_components(self):
        hw = checkpoint_hardware_cost()
        assert hw.per_thread_bits == 33
        assert hw.threads_per_warp == 32
        assert hw.warps == 8
        assert hw.base_register_bytes == 18

    def test_buffer_bytes_scale_with_high_water(self):
        small = checkpoint_buffer_bytes(10, 20)
        large = checkpoint_buffer_bytes(20, 40)
        assert large[0] == 2 * small[0]
        assert large[1] == 2 * small[1]

    def test_buffer_bytes_formula(self):
        config = GpuConfig.rtx_like()
        ckpt, evict = checkpoint_buffer_bytes(1, 1, config, max_warps_per_sm=32)
        concurrent = config.n_sms * 32 * config.warp_size
        assert ckpt == 2 * 20 * concurrent
        assert evict == 2 * 8 * concurrent
