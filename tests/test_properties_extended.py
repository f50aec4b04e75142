"""Property-based tests for the extension modules.

Fuzzes the new data structures with hypothesis: build-strategy
equivalence, serialization round trips, SSIM bounds, and energy-model
additivity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh import (
    BuildParams,
    build_bvh,
    build_two_level,
    load_structure,
    save_structure,
)
from repro.hwsim import EnergyParams, estimate_energy
from repro.hwsim.replay import TimingReport
from repro.render.metrics import ssim
from repro.rt import SceneShading, TraceConfig

from tests.conftest import tiny_cloud
from tests.scalar_oracle import Tracer


@st.composite
def boxes(draw):
    seed = draw(st.integers(0, 100_000))
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5, 5, (n, 3))
    half = rng.uniform(0.01, 0.6, (n, 1))
    return centers - half, centers + half


class TestBuilderProperties:
    @given(boxes(), st.sampled_from(["sah", "median", "lbvh"]),
           st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_any_strategy_any_width_valid(self, lohi, strategy, width):
        lo, hi = lohi
        bvh = build_bvh(lo, hi, 48, BuildParams(width=width, strategy=strategy))
        bvh.validate()
        assert bvh.n_prims == lo.shape[0]

    @given(boxes())
    @settings(max_examples=15, deadline=None)
    def test_root_box_contains_all_prims(self, lohi):
        lo, hi = lohi
        bvh = build_bvh(lo, hi, 48, BuildParams(strategy="lbvh"))
        root_lo, root_hi = bvh.root_box()
        assert np.all(root_lo <= lo.min(axis=0) + 1e-12)
        assert np.all(root_hi >= hi.max(axis=0) - 1e-12)

    @given(st.integers(0, 10_000), st.sampled_from(["sah", "median", "lbvh"]))
    @settings(max_examples=10, deadline=None)
    def test_strategy_never_changes_the_image(self, seed, strategy):
        cloud = tiny_cloud(n=24, seed=seed)
        shading = SceneShading(cloud)
        ref = Tracer(build_two_level(cloud, "sphere"), shading, TraceConfig(k=8))
        alt = Tracer(
            build_two_level(cloud, "sphere", params=BuildParams(strategy=strategy)),
            shading, TraceConfig(k=8),
        )
        rng = np.random.default_rng(seed)
        center = cloud.means.mean(axis=0)
        o = center + rng.normal(0, 1, 3) * 8.0
        d = cloud.means[rng.integers(0, len(cloud))] - o
        np.testing.assert_array_equal(
            ref.trace_ray(o, d).color, alt.trace_ray(o, d).color)


class TestSerializationProperties:
    @given(st.integers(0, 10_000), st.sampled_from(["sphere", "icosphere"]))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_preserves_layout(self, seed, blas_kind):
        import tempfile
        from pathlib import Path

        cloud = tiny_cloud(n=16, seed=seed)
        structure = build_two_level(cloud, blas_kind)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.npz"
            save_structure(structure, path)
            loaded = load_structure(path)
        assert loaded.total_bytes == structure.total_bytes
        assert np.array_equal(loaded.tlas.node_addr, structure.tlas.node_addr)
        assert np.array_equal(loaded.tlas.prim_order, structure.tlas.prim_order)



class TestMetricProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_ssim_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((12, 12))
        b = rng.random((12, 12))
        score = ssim(a, b)
        assert -1.0 <= score <= 1.0

    @given(st.integers(0, 10_000), st.floats(0.0, 0.2))
    @settings(max_examples=20, deadline=None)
    def test_ssim_decreases_with_noise(self, seed, sigma):
        rng = np.random.default_rng(seed)
        img = rng.random((16, 16))
        noisy = img + rng.normal(0, sigma + 1e-6, img.shape)
        very_noisy = img + rng.normal(0, 5 * (sigma + 1e-6), img.shape)
        assert ssim(img, very_noisy) <= ssim(img, noisy) + 1e-6


class TestEnergyProperties:
    @given(st.integers(0, 5_000), st.integers(0, 500), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_energy_additive_in_counters(self, l1, l2, dram):
        a = TimingReport(l1_accesses=l1, l2_accesses=l2, dram_accesses=dram)
        b = TimingReport(l1_accesses=2 * l1, l2_accesses=2 * l2,
                         dram_accesses=2 * dram)
        ea = estimate_energy(a)
        eb = estimate_energy(b)
        assert eb.l1_nj + eb.l2_nj + eb.dram_nj == pytest.approx(
            2 * (ea.l1_nj + ea.l2_nj + ea.dram_nj))

    @given(st.floats(1.0, 1000.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling_all_constants_scales_energy(self, factor):
        report = TimingReport(l1_accesses=100, l2_accesses=20, dram_accesses=5)
        base = estimate_energy(report, params=EnergyParams())
        scaled = estimate_energy(report, params=EnergyParams(
            l1_access_pj=25.0 * factor,
            l2_access_pj=120.0 * factor,
            dram_access_pj=2500.0 * factor,
        ))
        mem_base = base.l1_nj + base.l2_nj + base.dram_nj
        mem_scaled = scaled.l1_nj + scaled.l2_nj + scaled.dram_nj
        assert mem_scaled == pytest.approx(factor * mem_base, rel=1e-9)
