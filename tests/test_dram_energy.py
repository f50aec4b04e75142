"""Tests for the banked DRAM model and the energy model."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GaussianRayTracer, GpuConfig, TraceConfig, build_two_level, \
    default_camera_for, make_workload, replay
from repro.hwsim import DramModel, DramTimings, EnergyParams, estimate_energy
from repro.hwsim.replay import TimingReport


class TestDramTimings:
    def test_latency_ordering(self):
        t = DramTimings()
        assert t.row_hit_latency < t.row_empty_latency < t.row_conflict_latency

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            DramTimings(n_channels=0)
        with pytest.raises(ValueError):
            DramTimings(row_bytes=1000)  # not a power of two


class TestDramModel:
    def test_first_access_is_row_empty(self):
        dram = DramModel()
        lat = dram.access(0)
        assert lat == dram.timings.row_empty_latency
        assert dram.stats.row_empties == 1

    def test_same_row_hits(self):
        dram = DramModel()
        dram.access(0)
        lat = dram.access(64)  # same 2 KB row
        assert lat == dram.timings.row_hit_latency
        assert dram.stats.row_hits == 1

    def test_conflict_on_same_bank_different_row(self):
        dram = DramModel()
        t = dram.timings
        stride = t.row_bytes * t.n_channels * t.banks_per_channel  # same bank, next row
        dram.access(0)
        lat = dram.access(stride)
        assert lat == t.row_conflict_latency
        assert dram.stats.row_conflicts == 1

    def test_different_banks_do_not_conflict(self):
        dram = DramModel()
        dram.access(0)
        lat = dram.access(dram.timings.row_bytes)  # next row -> different bank
        assert lat == dram.timings.row_empty_latency

    def test_sequential_stream_mostly_hits(self):
        dram = DramModel()
        for addr in range(0, 64 * 1024, 128):
            dram.access(addr)
        assert dram.stats.row_hit_rate > 0.9

    def test_random_stream_mostly_misses(self):
        rng = np.random.default_rng(0)
        dram = DramModel()
        for addr in rng.integers(0, 1 << 30, 2000):
            dram.access(int(addr))
        assert dram.stats.row_hit_rate < 0.2

    def test_reset_clears_state(self):
        dram = DramModel()
        dram.access(0)
        dram.reset()
        assert dram.stats.accesses == 0
        assert dram.access(0) == dram.timings.row_empty_latency

    @given(st.lists(st.integers(0, 1 << 32), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_stats_always_consistent(self, addrs):
        dram = DramModel()
        for addr in addrs:
            lat = dram.access(addr)
            assert lat >= dram.timings.row_hit_latency
        assert dram.stats.accesses == len(addrs)
        assert 0.0 <= dram.stats.row_hit_rate <= 1.0


@pytest.fixture(scope="module")
def small_render():
    cloud = make_workload("room", scale=1 / 1000)
    structure = build_two_level(cloud, blas_kind="sphere")
    renderer = GaussianRayTracer(cloud, structure, TraceConfig(k=8))
    return renderer.render(default_camera_for(cloud, 10, 10))


class TestBankedReplay:
    def test_banked_model_populates_row_hit_rate(self, small_render):
        banked = replace(GpuConfig.rtx_like(), dram_model="banked")
        report = replay(small_render.traces, banked)
        assert 0.0 <= report.dram_row_hit_rate <= 1.0

    def test_flat_model_reports_zero_row_rate(self, small_render):
        report = replay(small_render.traces, GpuConfig.rtx_like())
        assert report.dram_row_hit_rate == 0.0

    def test_banked_and_flat_agree_on_counters(self, small_render):
        flat = replay(small_render.traces, GpuConfig.rtx_like())
        banked = replay(small_render.traces,
                        replace(GpuConfig.rtx_like(), dram_model="banked"))
        # Caches are unchanged; only DRAM latency differs.
        assert banked.node_fetches == flat.node_fetches
        assert banked.l2_accesses == flat.l2_accesses
        assert banked.dram_accesses == flat.dram_accesses

    def test_unknown_dram_model_rejected(self):
        """A misspelt model must not silently run the flat model."""
        with pytest.raises(ValueError, match="unknown dram model"):
            replace(GpuConfig.rtx_like(), dram_model="Banked")


class TestEnergyModel:
    def test_components_nonnegative(self, small_render):
        report = replay(small_render.traces, GpuConfig.rtx_like())
        energy = estimate_energy(report, GpuConfig.rtx_like())
        assert energy.l1_nj >= 0 and energy.l2_nj >= 0 and energy.dram_nj >= 0
        assert energy.compute_nj >= 0 and energy.static_nj >= 0
        assert energy.total_nj == pytest.approx(energy.dynamic_nj + energy.static_nj)

    def test_memory_fraction_bounded(self, small_render):
        report = replay(small_render.traces, GpuConfig.rtx_like())
        energy = estimate_energy(report)
        assert 0.0 <= energy.memory_fraction <= 1.0

    def test_energy_scales_with_accesses(self):
        a = TimingReport(l1_accesses=100, l2_accesses=10, dram_accesses=1)
        b = TimingReport(l1_accesses=200, l2_accesses=20, dram_accesses=2)
        ea = estimate_energy(a)
        eb = estimate_energy(b)
        assert eb.l1_nj == pytest.approx(2 * ea.l1_nj)
        assert eb.dram_nj == pytest.approx(2 * ea.dram_nj)

    def test_dram_dominates_per_access(self):
        params = EnergyParams()
        assert params.dram_access_pj > params.l2_access_pj > params.l1_access_pj

    def test_rejects_nonpositive_energy_constants(self):
        with pytest.raises(ValueError):
            EnergyParams(l1_access_pj=0.0)

    def test_as_row_keys(self, small_render):
        report = replay(small_render.traces, GpuConfig.rtx_like())
        row = estimate_energy(report).as_row()
        assert set(row) == {"l1_nj", "l2_nj", "dram_nj", "compute_nj",
                            "static_nj", "total_nj"}

    def test_grtx_uses_less_memory_energy_than_baseline(self):
        # The headline: shared BLAS + checkpointing cut fetch counts, so
        # memory energy must drop.
        from repro import build_monolithic

        cloud = make_workload("room", scale=1 / 1000)
        camera = default_camera_for(cloud, 10, 10)
        base = GaussianRayTracer(
            cloud, build_monolithic(cloud, proxy="20-tri"), TraceConfig(k=8)
        ).render(camera)
        grtx = GaussianRayTracer(
            cloud, build_two_level(cloud, blas_kind="sphere"),
            TraceConfig(k=8, checkpointing=True),
        ).render(camera)
        config = GpuConfig.rtx_like()
        e_base = estimate_energy(replay(base.traces, config), config)
        e_grtx = estimate_energy(replay(grtx.traces, config), config)
        mem_base = e_base.l2_nj + e_base.dram_nj
        mem_grtx = e_grtx.l2_nj + e_grtx.dram_nj
        assert mem_grtx < mem_base
