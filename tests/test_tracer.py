"""Tracer correctness: the core invariants of the reproduction.

The heavyweight invariants here are exactly the ones the paper relies on:

1. every acceleration structure renders the same scene (bit-identical
   within a primitive family, high-PSNR across families);
2. GRTX-HW checkpoint & replay is *lossless*: baseline multi-round and
   checkpointed multi-round produce bit-identical images;
3. single-round and multi-round tracing agree;
4. checkpointing strictly reduces re-traversal (the total/unique node
   visit gap of Figure 7).

Images come from the shipped engine; the visit, checkpoint and eviction
counters of invariant 4, and the per-ray unit tests, come from the
scalar oracle (``tests/scalar_oracle.py``), which counts them on every
render.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh import build_monolithic, build_two_level
from repro.gaussians import build_inverse_covariance, gaussian_alpha_along_ray
from repro.render import GaussianRayTracer, default_camera_for, psnr
from repro.rt import RayTrace, SceneShading, TraceConfig

from tests.conftest import tiny_cloud
from tests.scalar_oracle import Tracer, evaluate_hit, render_scalar


def render_image(cloud, structure, config, res=10):
    camera = default_camera_for(cloud, res, res)
    return GaussianRayTracer(cloud, structure, config).render(camera, keep_traces=False)


def render_oracle(cloud, structure, config, res=10):
    camera = default_camera_for(cloud, res, res)
    return render_scalar(cloud, structure, camera, config, keep_traces=False)


@pytest.fixture(scope="module")
def cloud():
    return tiny_cloud(n=160, seed=11)


@pytest.fixture(scope="module")
def structures(cloud):
    return {
        "mono-20tri": build_monolithic(cloud, "20-tri"),
        "mono-80tri": build_monolithic(cloud, "80-tri"),
        "mono-custom": build_monolithic(cloud, "custom"),
        "tlas-sphere": build_two_level(cloud, "sphere"),
        "tlas-20tri": build_two_level(cloud, "icosphere", 0),
        "tlas-80tri": build_two_level(cloud, "icosphere", 1),
    }


class TestStructureEquivalence:
    def test_exact_primitives_bit_identical(self, cloud, structures):
        """Custom-ellipsoid and unit-sphere paths evaluate the same exact
        intersection, so their images must match to the last bit."""
        cfg = TraceConfig(k=8)
        a = render_image(cloud, structures["mono-custom"], cfg).image
        b = render_image(cloud, structures["tlas-sphere"], cfg).image
        np.testing.assert_array_equal(a, b)

    def test_same_proxy_shape_bit_identical(self, cloud, structures):
        """A 20-tri proxy reports the same entry hits whether its
        triangles live in a monolithic BVH or a shared BLAS."""
        cfg = TraceConfig(k=8)
        a = render_image(cloud, structures["mono-20tri"], cfg).image
        b = render_image(cloud, structures["tlas-20tri"], cfg).image
        np.testing.assert_array_equal(a, b)

    def test_cross_family_quality_matches(self, cloud, structures):
        """Across proxy families the sort keys differ slightly (proxy
        entry vs exact ellipsoid entry), but rendering quality must be
        equivalent — the paper's premise for comparing them at all."""
        cfg = TraceConfig(k=8)
        ref = render_image(cloud, structures["tlas-sphere"], cfg).image
        for name in ("mono-20tri", "mono-80tri", "tlas-20tri", "tlas-80tri"):
            img = render_image(cloud, structures[name], cfg).image
            assert psnr(img, ref) > 24.0, name

    def test_80tri_closer_to_exact_than_20tri(self, cloud, structures):
        """Finer proxies approximate the ellipsoid entry better, so the
        80-tri image should be at least as close to the exact-primitive
        image as the 20-tri one (fewer false positives, tighter entry)."""
        cfg = TraceConfig(k=8)
        ref = render_image(cloud, structures["tlas-sphere"], cfg).image
        p20 = psnr(render_image(cloud, structures["mono-20tri"], cfg).image, ref)
        p80 = psnr(render_image(cloud, structures["mono-80tri"], cfg).image, ref)
        assert p80 >= p20 - 1.0


class TestCheckpointReplay:
    @pytest.mark.parametrize("name", [
        "mono-20tri", "mono-custom", "tlas-sphere", "tlas-20tri",
    ])
    def test_hw_checkpointing_lossless(self, cloud, structures, name):
        """The headline correctness claim of GRTX-HW: resuming from
        checkpoints must be invisible in the output."""
        base = render_image(cloud, structures[name], TraceConfig(k=4)).image
        hw = render_image(cloud, structures[name], TraceConfig(k=4, checkpointing=True)).image
        np.testing.assert_array_equal(base, hw)

    def test_hw_lossless_across_k(self, cloud, structures):
        for k in (1, 2, 3, 8, 32):
            base = render_image(cloud, structures["tlas-sphere"], TraceConfig(k=k)).image
            hw = render_image(
                cloud, structures["tlas-sphere"], TraceConfig(k=k, checkpointing=True)
            ).image
            np.testing.assert_array_equal(base, hw)

    def test_checkpointing_reduces_total_visits(self, cloud, structures):
        """Figure 7 / Figure 14: replay eliminates redundant re-traversal."""
        base = render_oracle(cloud, structures["mono-20tri"], TraceConfig(k=4))
        hw = render_oracle(cloud, structures["mono-20tri"], TraceConfig(k=4, checkpointing=True))
        assert hw.stats.total_visits < base.stats.total_visits
        # Unique visits are a property of the scene+rays, not the policy.
        assert hw.stats.unique_visits == pytest.approx(base.stats.unique_visits, rel=0.05)

    def test_checkpointing_never_restarts_from_root(self, cloud, structures):
        """In replay rounds the root must not be re-fetched unless it was
        itself checkpointed: redundancy ratio must drop toward 1."""
        base = render_oracle(cloud, structures["tlas-sphere"], TraceConfig(k=2))
        hw = render_oracle(cloud, structures["tlas-sphere"], TraceConfig(k=2, checkpointing=True))
        assert hw.stats.redundancy < base.stats.redundancy

    def test_eviction_buffer_used(self, cloud, structures):
        hw = render_oracle(cloud, structures["tlas-sphere"], TraceConfig(k=2, checkpointing=True))
        assert hw.stats.evictions_written > 0
        assert hw.stats.evict_high_water > 0
        assert hw.stats.ckpt_high_water > 0


class TestRoundModes:
    def test_single_vs_multi_round_identical(self, cloud, structures):
        multi = render_image(cloud, structures["tlas-sphere"], TraceConfig(k=8)).image
        single = render_image(cloud, structures["tlas-sphere"], TraceConfig(mode="singleround")).image
        np.testing.assert_array_equal(multi, single)

    def test_k_does_not_change_image(self, cloud, structures):
        imgs = [
            render_image(cloud, structures["tlas-sphere"], TraceConfig(k=k)).image
            for k in (2, 8, 64)
        ]
        np.testing.assert_array_equal(imgs[0], imgs[1])
        np.testing.assert_array_equal(imgs[1], imgs[2])

    def test_smaller_k_means_more_rounds(self, cloud, structures):
        r2 = render_image(cloud, structures["tlas-sphere"], TraceConfig(k=2))
        r32 = render_image(cloud, structures["tlas-sphere"], TraceConfig(k=32))
        assert r2.stats.rounds_total > r32.stats.rounds_total

    def test_singleround_rejects_checkpointing(self):
        with pytest.raises(ValueError):
            TraceConfig(mode="singleround", checkpointing=True)


class TestTracerUnit:
    def test_miss_ray_returns_background(self, cloud, structures):
        shading = SceneShading(cloud)
        tracer = Tracer(structures["tlas-sphere"], shading, TraceConfig(k=8))
        outcome = tracer.trace_ray(np.array([500.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(outcome.color, np.zeros(3))
        assert outcome.transmittance == 1.0
        assert outcome.blended == 0

    def test_single_gaussian_alpha_blend(self):
        """One isotropic Gaussian dead ahead: color must equal
        alpha * sh_color with alpha = opacity (ray through the mean)."""
        cloud = tiny_cloud(n=1, seed=5)
        cloud.means[0] = [0.0, 0.0, 0.0]
        cloud.scales[0] = [0.3, 0.3, 0.3]
        cloud.rotations[0] = [1.0, 0.0, 0.0, 0.0]
        structure = build_two_level(cloud, "sphere")
        shading = SceneShading(cloud)
        tracer = Tracer(structure, shading, TraceConfig(k=8))
        origin = np.array([-5.0, 0.0, 0.0])
        direction = np.array([1.0, 0.0, 0.0])
        outcome = tracer.trace_ray(origin, direction)
        alpha = min(cloud.opacities[0], 0.999)
        expected = alpha * shading.colors(np.array([0]), direction)[0]
        np.testing.assert_allclose(outcome.color, expected, rtol=1e-12)

    def test_blend_depth_order(self):
        """Two Gaussians on one ray must blend front-to-back."""
        cloud = tiny_cloud(n=2, seed=6)
        cloud.means[0] = [2.0, 0.0, 0.0]
        cloud.means[1] = [-2.0, 0.0, 0.0]
        cloud.scales[:] = 0.3
        cloud.rotations[:] = [1.0, 0.0, 0.0, 0.0]
        cloud.opacities[:] = [0.6, 0.9]
        structure = build_two_level(cloud, "sphere")
        shading = SceneShading(cloud)
        tracer = Tracer(structure, shading, TraceConfig(k=8))
        direction = np.array([1.0, 0.0, 0.0])
        outcome = tracer.trace_ray(np.array([-6.0, 0.0, 0.0]), direction)
        colors = shading.colors(np.array([1, 0]), direction)
        a1 = min(0.9, 0.999)
        a0 = min(0.6, 0.999)
        expected = a1 * colors[0] + (1 - a1) * a0 * colors[1]
        np.testing.assert_allclose(outcome.color, expected, rtol=1e-9)

    def test_t_clip_excludes_far_gaussians(self):
        cloud = tiny_cloud(n=2, seed=7)
        cloud.means[0] = [2.0, 0.0, 0.0]
        cloud.means[1] = [8.0, 0.0, 0.0]
        cloud.scales[:] = 0.3
        cloud.rotations[:] = [1.0, 0.0, 0.0, 0.0]
        structure = build_two_level(cloud, "sphere")
        tracer = Tracer(structure, SceneShading(cloud), TraceConfig(k=8))
        origin = np.array([-4.0, 0.0, 0.0])
        direction = np.array([1.0, 0.0, 0.0])
        full = tracer.trace_ray(origin, direction)
        clipped = tracer.trace_ray(origin, direction, t_clip=8.0)
        assert clipped.blended == 1
        assert full.blended == 2

    def test_ert_terminates(self):
        """A wall of opaque Gaussians must trigger early ray termination
        and leave the far ones unblended."""
        cloud = tiny_cloud(n=24, seed=8)
        cloud.means[:] = 0.0
        cloud.means[:, 0] = np.linspace(1.0, 24.0, 24)
        cloud.scales[:] = 0.4
        cloud.rotations[:] = [1.0, 0.0, 0.0, 0.0]
        cloud.opacities[:] = 0.9
        structure = build_two_level(cloud, "sphere")
        tracer = Tracer(structure, SceneShading(cloud), TraceConfig(k=4))
        outcome = tracer.trace_ray(np.array([-3.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert outcome.terminated_early
        assert outcome.blended < 24
        assert outcome.transmittance < 0.01

    def test_trace_records_rounds(self, cloud, structures):
        shading = SceneShading(cloud)
        tracer = Tracer(structures["tlas-sphere"], shading, TraceConfig(k=2))
        trace = RayTrace()
        center = cloud.means.mean(axis=0)
        origin = center + np.array([0.0, 0.0, 20.0])
        outcome = tracer.trace_ray(origin, center - origin, trace)
        assert trace.n_rounds == outcome.rounds
        assert trace.total_fetches >= trace.unique_fetches > 0


class TestShadingKernel:
    """The scalar oracle's per-ray canonical any-hit evaluation, which
    the engine's batched ``shade_and_blend`` mirrors."""

    def test_evaluate_hit_consistent_with_reference_alpha(self):
        """The object-space alpha must match the covariance-space formula
        of Section II-B (gaussian_alpha_along_ray)."""
        cloud = tiny_cloud(n=32, seed=9)
        shading = SceneShading(cloud)
        inv_cov = build_inverse_covariance(cloud)
        rng = np.random.default_rng(10)
        hits = 0
        for gid in range(32):
            origin = cloud.means[gid] + rng.uniform(2, 4) * np.array([1.0, 0.2, -0.1])
            direction = cloud.means[gid] - origin + rng.normal(0, 0.05, 3)
            result = evaluate_hit(shading, gid, origin, direction)
            if result is None:
                continue
            hits += 1
            _, alpha = result
            ref_alpha, _ = gaussian_alpha_along_ray(
                inv_cov[gid : gid + 1], cloud.means[gid : gid + 1],
                cloud.opacities[gid : gid + 1], origin[None], direction[None],
            )
            np.testing.assert_allclose(alpha, min(ref_alpha[0], 0.999), rtol=1e-9)
        assert hits > 20

    def test_evaluate_hit_entry_on_ellipsoid_surface(self):
        cloud = tiny_cloud(n=16, seed=12)
        shading = SceneShading(cloud)
        for gid in range(16):
            origin = cloud.means[gid] + np.array([3.0, 0.1, 0.05])
            direction = cloud.means[gid] - origin
            result = evaluate_hit(shading, gid, origin, direction)
            if result is None:
                continue
            t_entry, _ = result
            point = origin + t_entry * direction
            obj = shading.w2o_linear[gid] @ point + shading.w2o_offset[gid]
            assert np.linalg.norm(obj) == pytest.approx(1.0, abs=1e-9)

    def test_miss_returns_none(self):
        cloud = tiny_cloud(n=1, seed=13)
        cloud.means[0] = [0.0, 0.0, 0.0]
        cloud.scales[0] = [0.1, 0.1, 0.1]
        shading = SceneShading(cloud)
        assert evaluate_hit(shading, 0, np.array([-5.0, 3.0, 0.0]),
                            np.array([1.0, 0.0, 0.0])) is None

    def test_behind_origin_returns_none(self):
        cloud = tiny_cloud(n=1, seed=14)
        cloud.means[0] = [0.0, 0.0, 0.0]
        cloud.scales[0] = [0.2, 0.2, 0.2]
        cloud.rotations[0] = [1.0, 0.0, 0.0, 0.0]
        shading = SceneShading(cloud)
        assert evaluate_hit(shading, 0, np.array([5.0, 0.0, 0.0]),
                            np.array([1.0, 0.0, 0.0])) is None
