"""Property-based tests over randomized scenes (hypothesis).

These fuzz the heavy invariants with freshly generated Gaussian clouds:
whatever the scene, checkpointing must be lossless, exact primitive
structures must agree bitwise, and traversal must find exactly the
Gaussians a brute-force intersector finds.  They run on the per-ray
scalar oracle (``tests/scalar_oracle.py``), where checkpointing changes
the traversal; the parity suites hold the shipped engine to it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh import build_monolithic, build_two_level
from repro.rt import SceneShading, TraceConfig

from tests.conftest import tiny_cloud
from tests.scalar_oracle import Tracer, evaluate_hit


def _probe_rays(cloud, n_rays: int, seed: int):
    """Rays aimed from outside the cloud toward random Gaussians."""
    rng = np.random.default_rng(seed)
    center = cloud.means.mean(axis=0)
    spread = float(cloud.means.std()) + 1.0
    origins = center + rng.normal(0, 1, (n_rays, 3)) * spread * 4.0
    targets = cloud.means[rng.integers(0, len(cloud), n_rays)]
    directions = targets - origins
    return origins, directions


@st.composite
def cloud_and_seed(draw):
    n = draw(st.integers(8, 64))
    seed = draw(st.integers(0, 10_000))
    return tiny_cloud(n=n, seed=seed), seed


class TestRandomizedInvariants:
    @given(cloud_and_seed(), st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_checkpointing_lossless_on_random_scenes(self, cloud_seed, k):
        cloud, seed = cloud_seed
        structure = build_two_level(cloud, "sphere")
        shading = SceneShading(cloud)
        base = Tracer(structure, shading, TraceConfig(k=k))
        hw = Tracer(structure, shading, TraceConfig(k=k, checkpointing=True))
        origins, directions = _probe_rays(cloud, 6, seed)
        for o, d in zip(origins, directions):
            a = base.trace_ray(o, d)
            b = hw.trace_ray(o, d)
            np.testing.assert_array_equal(a.color, b.color)
            assert a.transmittance == b.transmittance
            assert a.blended == b.blended

    @given(cloud_and_seed())
    @settings(max_examples=10, deadline=None)
    def test_exact_structures_agree_on_random_scenes(self, cloud_seed):
        cloud, seed = cloud_seed
        sphere = Tracer(build_two_level(cloud, "sphere"), SceneShading(cloud),
                        TraceConfig(k=8))
        custom = Tracer(build_monolithic(cloud, "custom"), SceneShading(cloud),
                        TraceConfig(k=8))
        origins, directions = _probe_rays(cloud, 5, seed + 1)
        for o, d in zip(origins, directions):
            a = sphere.trace_ray(o, d)
            b = custom.trace_ray(o, d)
            np.testing.assert_array_equal(a.color, b.color)

    @given(cloud_and_seed())
    @settings(max_examples=10, deadline=None)
    def test_traversal_finds_exactly_bruteforce_hits(self, cloud_seed):
        """Single-round traversal through the TLAS must report exactly the
        Gaussians a brute-force loop over all of them accepts."""
        cloud, seed = cloud_seed
        shading = SceneShading(cloud)
        tracer = Tracer(build_two_level(cloud, "sphere"), shading,
                        TraceConfig(mode="singleround", record_blended=True))
        origins, directions = _probe_rays(cloud, 4, seed + 2)
        for o, d in zip(origins, directions):
            outcome = tracer.trace_ray(o, d)
            brute = []
            for gid in range(len(cloud)):
                result = evaluate_hit(shading, gid, o,
                                      np.asarray(d, dtype=np.float64))
                if result is not None:
                    brute.append((result[0], gid))
            brute.sort()
            got = [(t, g) for g, a, t in (outcome.blend_records or [])]
            # ERT may stop blending early: the blended list must be a
            # prefix of the brute-force depth ordering.
            assert got == brute[: len(got)]
            if not outcome.terminated_early:
                assert len(got) == len(brute)

    @given(cloud_and_seed(), st.sampled_from([2, 4, 8]))
    @settings(max_examples=10, deadline=None)
    def test_image_independent_of_k_random(self, cloud_seed, k):
        cloud, seed = cloud_seed
        structure = build_two_level(cloud, "sphere")
        shading = SceneShading(cloud)
        small = Tracer(structure, shading, TraceConfig(k=k))
        large = Tracer(structure, shading, TraceConfig(k=48))
        origins, directions = _probe_rays(cloud, 4, seed + 3)
        for o, d in zip(origins, directions):
            np.testing.assert_array_equal(
                small.trace_ray(o, d).color, large.trace_ray(o, d).color
            )
