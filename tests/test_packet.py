"""Batched-engine parity (both structure families) and regressions.

The wavefront engine's contract: for every supported proxy/mode
combination — monolithic *and* two-level — it renders the scalar
tracer's image within 1e-9 per channel, and the parity-matched
functional counters — ``n_rays``, ``blended_total``,
``rays_terminated_early`` — agree exactly.  Alongside live the
regression tests for the equal-t hit drop in multiround tracing (tied
depths must survive k-buffer overflow), the flattened-layout round-trip
guarantees, engine="auto" resolution (and the deprecated ``"packet"``
alias), and fallback observability.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh import build_monolithic, build_two_level, flatten
from repro.gaussians import GaussianCloud
from repro.obs import get_registry
from repro.render import GaussianRayTracer, SceneObjects, default_camera_for
from repro.rt import RayTrace, SceneShading, TraceConfig, Tracer
from repro.rt import wavefront
from repro.rt.wavefront import WavefrontTracer, fallback_reason, resolve_engine
from repro.serve import TileScheduler

from tests.conftest import tiny_cloud

#: The image parity bound from the acceptance criteria.
TOL = 1e-9

#: Counters that must agree exactly between engines.
PARITY_COUNTERS = ("n_rays", "n_primary", "n_secondary",
                   "blended_total", "rays_terminated_early")

#: The full structural parity matrix: monolithic proxies plus the
#: paper's two-level structures (sphere and icosphere BLAS).
ALL_PROXIES = ["20-tri", "custom", "tlas+sphere", "tlas+ico"]
TWO_LEVEL = ["tlas+sphere", "tlas+ico"]


@pytest.fixture(scope="module")
def cloud():
    return tiny_cloud(n=120, seed=21)


@pytest.fixture(scope="module")
def opaque_cloud():
    """High-opacity variant so early ray termination actually fires."""
    c = tiny_cloud(n=120, seed=21)
    return GaussianCloud(
        means=c.means, scales=c.scales, rotations=c.rotations,
        opacities=np.clip(c.opacities * 8.0, 0.0, 0.98),
        sh=c.sh, kappa=c.kappa, name="tiny-opaque",
    )


@pytest.fixture
def rearm_fallback_warnings(monkeypatch):
    """Forget which fallback reasons already warned (the warning fires
    once per reason per process)."""
    monkeypatch.setattr(wavefront, "_warned_reasons", set())


def fallback_count() -> int:
    return int(get_registry().counter_value("rt.packet_fallbacks"))


@pytest.fixture(scope="module")
def structures(cloud):
    return {
        "20-tri": build_monolithic(cloud, "20-tri"),
        "custom": build_monolithic(cloud, "custom"),
        "tlas+sphere": build_two_level(cloud, "sphere"),
        "tlas+ico": build_two_level(cloud, "icosphere", 0),
    }


def render_pair(cloud, structure, config, res=10, objects=None):
    camera = default_camera_for(cloud, res, res)
    scalar = GaussianRayTracer(cloud, structure, config).render(
        camera, objects=objects, keep_traces=False)
    packet_renderer = GaussianRayTracer(cloud, structure, config,
                                        engine="wavefront")
    assert packet_renderer.engine_active == "wavefront"
    packet = packet_renderer.render(camera, objects=objects, keep_traces=False)
    return scalar, packet


def assert_parity(scalar, packet):
    assert np.abs(scalar.image - packet.image).max() <= TOL
    for name in PARITY_COUNTERS:
        assert getattr(scalar.stats, name) == getattr(packet.stats, name), name


class TestPacketParity:
    @pytest.mark.parametrize("proxy", ALL_PROXIES)
    @pytest.mark.parametrize("mode", ["multiround", "singleround"])
    def test_image_and_counter_parity(self, cloud, structures, proxy, mode):
        scalar, packet = render_pair(
            cloud, structures[proxy], TraceConfig(k=4, mode=mode))
        assert_parity(scalar, packet)

    @pytest.mark.parametrize("proxy", ALL_PROXIES)
    @pytest.mark.parametrize("mode", ["multiround", "singleround"])
    def test_parity_with_scene_objects(self, cloud, structures, proxy, mode):
        """Secondary rays (t_clip-truncated primaries + scattered
        continuations) trace through the wavefront engine too."""
        objects = SceneObjects.default_for(cloud)
        scalar, packet = render_pair(
            cloud, structures[proxy], TraceConfig(k=4, mode=mode),
            objects=objects)
        assert scalar.stats.n_secondary > 0  # the setup must exercise them
        assert_parity(scalar, packet)

    @pytest.mark.parametrize("proxy", ALL_PROXIES)
    def test_parity_with_t_clip(self, cloud, structures, proxy):
        """An explicit per-ray segment bound cuts the same hits."""
        structure = structures[proxy]
        config = TraceConfig(k=4)
        shading = SceneShading(cloud)
        scalar = Tracer(structure, shading, config)
        packet = WavefrontTracer(structure, shading, config)
        bundle = default_camera_for(cloud, 8, 8).generate_rays()
        extent = float(np.linalg.norm(cloud.means.std(axis=0)))
        clip = np.linspace(0.5 * extent, 6.0 * extent,
                           bundle.origins.shape[0])
        got = packet.trace_packet(bundle.origins, bundle.directions, clip)
        clipped_someone = False
        for i in range(bundle.origins.shape[0]):
            unclipped = scalar.trace_ray(
                bundle.origins[i], bundle.directions[i], RayTrace())
            out = scalar.trace_ray(
                bundle.origins[i], bundle.directions[i], RayTrace(),
                t_clip=float(clip[i]))
            clipped_someone |= out.blended != unclipped.blended
            assert np.abs(out.color - got.colors[i]).max() <= TOL
            assert out.blended == got.blended[i]
            assert out.terminated_early == bool(got.terminated[i])
        assert clipped_someone  # the bounds must actually cut hits

    @pytest.mark.parametrize("proxy", ["20-tri", "tlas+sphere", "tlas+ico"])
    def test_early_termination_parity(self, opaque_cloud, proxy):
        """Opaque scenes terminate rays early; the cutoff index must
        match the scalar blend loop exactly."""
        from repro.eval.harness import build_structure_for

        label = "tlas+20-tri" if proxy == "tlas+ico" else proxy
        structure = build_structure_for(opaque_cloud, label)
        scalar, packet = render_pair(
            opaque_cloud, structure, TraceConfig(k=4), res=12)
        assert scalar.stats.rays_terminated_early > 0
        assert_parity(scalar, packet)

    @pytest.mark.parametrize("proxy", ["20-tri", "tlas+sphere"])
    def test_max_rounds_cap_parity(self, cloud, structures, proxy):
        """The scalar loop blends at most max_rounds * k hits per ray;
        the wavefront engine applies the identical cap."""
        config = TraceConfig(k=1, max_rounds=3)
        scalar, packet = render_pair(cloud, structures[proxy], config)
        assert_parity(scalar, packet)

    @pytest.mark.parametrize("proxy", ["20-tri", "tlas+sphere", "tlas+ico"])
    def test_tiled_packet_render_matches_untiled(self, cloud, structures,
                                                 proxy):
        """Rays are independent, so a tiled wavefront render must be
        bit-identical to the untiled wavefront render."""
        config = TraceConfig(k=4)
        camera = default_camera_for(cloud, 12, 12)
        whole = GaussianRayTracer(
            cloud, structures[proxy], config, engine="wavefront").render(
                camera, keep_traces=False)
        tiled = TileScheduler(tile_size=(5, 5), workers=1).render(
            cloud, structures[proxy], config, camera, engine="wavefront")
        np.testing.assert_array_equal(whole.image, tiled.image)


class TestEngineSelection:
    def test_unknown_engine_rejected(self, cloud, structures):
        with pytest.raises(ValueError, match="engine"):
            GaussianRayTracer(cloud, structures["20-tri"], TraceConfig(),
                              engine="warp")

    @pytest.mark.parametrize("proxy", TWO_LEVEL)
    def test_two_level_runs_on_the_packet_engine(self, cloud, structures,
                                                 proxy):
        """The paper's headline structures trace on the batched engine
        (the deprecated "packet" alias included), never the slow path."""
        renderer = GaussianRayTracer(cloud, structures[proxy],
                                     TraceConfig(k=4), engine="packet")
        assert renderer.engine_active == "wavefront"

    def test_checkpointing_falls_back_to_scalar(self, cloud, structures,
                                                rearm_fallback_warnings):
        config = TraceConfig(k=4, checkpointing=True)
        with pytest.warns(RuntimeWarning,
                          match="wavefront engine unavailable.*falling back"):
            renderer = GaussianRayTracer(cloud, structures["tlas+sphere"],
                                         config, engine="wavefront")
        assert renderer.engine_active == "scalar"

    def test_record_blended_stays_on_packet(self, cloud, structures):
        """record_blended is batched: no fallback, and the per-ray
        blend lists match the scalar tracer's (same gids in the same
        blend order; alpha/t to float noise)."""
        before = fallback_count()
        config = TraceConfig(k=4, record_blended=True)
        renderer = GaussianRayTracer(cloud, structures["20-tri"], config,
                                     engine="wavefront")
        assert renderer.engine_active == "wavefront"
        assert fallback_count() == before

        camera = default_camera_for(cloud, 6, 6)
        bundle = camera.generate_rays()
        result = renderer.packet.trace_packet(bundle.origins,
                                              bundle.directions)
        scalar = Tracer(structures["20-tri"], SceneShading(cloud), config)
        for i in range(len(bundle)):
            outcome = scalar.trace_ray(bundle.origins[i],
                                       bundle.directions[i])
            expected = outcome.blend_records or []
            got = result.blend_records[i]
            assert [g for g, _, _ in got] == [g for g, _, _ in expected]
            for (g1, a1, t1), (g2, a2, t2) in zip(expected, got):
                assert a1 == pytest.approx(a2, abs=1e-12)
                assert t1 == pytest.approx(t2, abs=1e-12)

    def test_packet_tracer_rejects_unsupported(self, cloud, structures):
        config = TraceConfig(k=4, checkpointing=True)
        assert fallback_reason(structures["tlas+sphere"], config)
        with pytest.raises(ValueError, match="wavefront engine"):
            WavefrontTracer(structures["tlas+sphere"], SceneShading(cloud),
                            config)

    def test_both_engines_keep_traces(self, cloud, structures):
        """Per-ray fetch traces come from either engine; the frontier
        recorder emits one RayTrace per ray like the scalar loop (deep
        equivalence is covered by tests/test_tracerecord.py)."""
        config = TraceConfig(k=4)
        camera = default_camera_for(cloud, 4, 4)
        scalar = GaussianRayTracer(cloud, structures["20-tri"], config)
        packet = GaussianRayTracer(cloud, structures["20-tri"], config,
                                   engine="wavefront")
        s = scalar.render(camera, keep_traces=True)
        p = packet.render(camera, keep_traces=True)
        assert len(s.traces) == len(p.traces) == 16
        # Traces stay off (empty) unless asked for, on both engines.
        assert packet.render(camera, keep_traces=False).traces == []


class TestAutoEngine:
    """engine="auto": the batched (wavefront) engine whenever supported,
    scalar otherwise — silently (no fallback counter, no warning)."""

    def test_auto_picks_packet_when_supported(self, cloud, structures):
        for proxy in ALL_PROXIES:
            renderer = GaussianRayTracer(cloud, structures[proxy],
                                         TraceConfig(k=4), engine="auto")
            assert renderer.engine_active == "wavefront", proxy

    def test_auto_picks_scalar_for_checkpointing(self, cloud, structures):
        config = TraceConfig(k=4, checkpointing=True)
        renderer = GaussianRayTracer(cloud, structures["tlas+sphere"],
                                     config, engine="auto")
        assert renderer.engine_active == "scalar"

    def test_auto_never_counts_a_fallback(self, cloud, structures):
        before = fallback_count()
        config = TraceConfig(k=4, checkpointing=True)
        GaussianRayTracer(cloud, structures["tlas+sphere"], config,
                          engine="auto")
        assert fallback_count() == before

    def test_resolve_engine_values(self, structures):
        supported = TraceConfig(k=4)
        unsupported = TraceConfig(k=4, checkpointing=True)
        assert resolve_engine("scalar", structures["tlas+sphere"],
                              supported) == "scalar"
        assert resolve_engine("auto", structures["tlas+sphere"],
                              supported) == "wavefront"
        assert resolve_engine("packet", structures["tlas+sphere"],
                              supported) == "wavefront"
        assert resolve_engine("auto", structures["tlas+sphere"],
                              unsupported) == "scalar"
        with pytest.raises(ValueError, match="engine"):
            resolve_engine("warp", structures["tlas+sphere"], supported)


class TestFallbackObservability:
    """An explicit batched-engine degrade is counted (registry counter
    ``rt.packet_fallbacks``) and warned about once per reason, naming
    the engine that was asked for, instead of being invisible."""

    def test_explicit_packet_degrade_counts_and_warns_once(
            self, cloud, structures, rearm_fallback_warnings):
        before = fallback_count()
        config = TraceConfig(k=4, checkpointing=True)
        with pytest.warns(RuntimeWarning,
                          match="packet engine unavailable.*"
                                "scalar-engine-only"):
            GaussianRayTracer(cloud, structures["tlas+sphere"], config,
                              engine="packet")
        # Second degrade for the same reason: counted, but not re-warned.
        with warnings_none():
            GaussianRayTracer(cloud, structures["tlas+sphere"], config,
                              engine="wavefront")
        assert fallback_count() - before == 2

    def test_server_exposes_fallback_gauge(self, tmp_path):
        from repro.serve import RenderRequest, RenderServer

        with RenderServer(workers=1) as server:
            # mode="grtx" checkpoints, so an explicit packet request
            # degrades; the gauge must reflect it.
            request = RenderRequest(scene="train", scale=1 / 4000.0,
                                    width=6, height=6, proxy="tlas+sphere",
                                    mode="grtx", engine="packet")
            assert request.engine_active == "scalar"
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore", RuntimeWarning)
                server.render(request)
            snapshot = server.metrics.snapshot()
            report = server.stats_report()
        assert snapshot["gauge.packet_fallbacks"] >= 1
        assert report["server"]["gauge.packet_fallbacks"] >= 1


class warnings_none:
    """Context manager asserting no warning is emitted inside it."""

    def __enter__(self):
        import warnings as _w

        self._catcher = _w.catch_warnings(record=True)
        self._records = self._catcher.__enter__()
        _w.simplefilter("always")
        return self._records

    def __exit__(self, *exc):
        self._catcher.__exit__(*exc)
        assert self._records == [], [str(r.message) for r in self._records]


class TestFlattenRoundTrip:
    """The flattened layout must round-trip the source structure's byte
    accounting exactly, and its instance table must equal the shading
    tables (the drift guard for the two transform sources)."""

    @pytest.mark.parametrize("proxy", ALL_PROXIES)
    def test_total_bytes_and_height(self, structures, proxy):
        structure = structures[proxy]
        flat = flatten(structure)
        assert flat.total_bytes == structure.total_bytes
        assert flat.height == structure.height
        assert flat.proxy == structure.proxy
        assert flat.n_gaussians == structure.n_gaussians

    @pytest.mark.parametrize("proxy", TWO_LEVEL)
    def test_instance_addresses(self, structures, proxy):
        structure = structures[proxy]
        flat = flatten(structure)
        tlas = structure.tlas
        for leaf in range(tlas.n_leaves):
            for slot in range(int(tlas.leaf_count[leaf])):
                assert (flat.instance_address(leaf, slot)
                        == structure.instance_address(leaf, slot))

    def test_monolithic_has_no_instances(self, structures):
        flat = flatten(structures["20-tri"])
        with pytest.raises(ValueError, match="instance"):
            flat.instance_address(0, 0)

    @pytest.mark.parametrize("proxy", TWO_LEVEL)
    def test_instance_transforms_match_shading(self, cloud, structures,
                                               proxy):
        """Both engines transform rays with the shading tables; the flat
        instance table carries the same values by construction."""
        flat = flatten(structures[proxy])
        shading = SceneShading(cloud)
        np.testing.assert_array_equal(
            flat.inst_w2o_linear, shading.w2o_linear[flat.prim_gid])
        np.testing.assert_array_equal(
            flat.inst_w2o_offset, shading.w2o_offset[flat.prim_gid])

    def test_flatten_is_memoized_and_idempotent(self, structures):
        flat = flatten(structures["tlas+sphere"])
        assert flatten(structures["tlas+sphere"]) is flat
        assert flatten(flat) is flat

    @pytest.mark.parametrize("proxy", TWO_LEVEL)
    def test_flattened_structure_renders_identically(self, cloud,
                                                     structures, proxy):
        """A pre-flattened structure (what ships to pool workers) must
        trace bit-identically to the source structure on both engines."""
        config = TraceConfig(k=4)
        camera = default_camera_for(cloud, 8, 8)
        flat = flatten(structures[proxy])
        for engine in ("scalar", "wavefront"):
            src = GaussianRayTracer(cloud, structures[proxy], config,
                                    engine=engine).render(
                                        camera, keep_traces=False)
            via_flat = GaussianRayTracer(cloud, flat, config,
                                         engine=engine).render(
                                             camera, keep_traces=False)
            np.testing.assert_array_equal(src.image, via_flat.image)
            assert via_flat.structure_bytes == src.structure_bytes


# ---------------------------------------------------------------------------
# Equal-t regression: a hit whose depth exactly ties the round boundary
# but overflowed the k-buffer must survive into the next round.


def tie_cloud(n_dup: int = 3) -> GaussianCloud:
    """``n_dup`` bit-identical Gaussians: every proxy hit of a ray that
    crosses them reports exactly the same depth."""
    one = np.array([[0.0, 0.0, 0.0]])
    sh = np.zeros((1, 4, 3))
    sh[0, 0] = [0.8, 0.2, 0.1]
    return GaussianCloud(
        means=np.repeat(one, n_dup, axis=0),
        scales=np.full((n_dup, 3), 0.4),
        rotations=np.repeat([[1.0, 0.0, 0.0, 0.0]], n_dup, axis=0),
        opacities=np.full(n_dup, 0.3),
        sh=np.repeat(sh, n_dup, axis=0),
        name="tie",
    )


def trace_one(structure, cloud, config):
    tracer = Tracer(structure, SceneShading(cloud), config)
    # Slightly off-axis so the ray crosses proxy faces in their interior
    # (an exactly-through-a-vertex ray is a degenerate-geometry case,
    # not the tied-depth scenario under test).
    return tracer.trace_ray(
        np.array([0.07, 0.05, -5.0]), np.array([0.0, 0.0, 1.0]), RayTrace())


class TestEqualTDepthRegression:
    @pytest.mark.parametrize("proxy", ["20-tri", "custom"])
    @pytest.mark.parametrize("checkpointing", [False, True])
    def test_tied_hits_survive_kbuffer_overflow(self, proxy, checkpointing):
        """k=1 with three equal-depth Gaussians: each round's boundary t
        ties the overflowed hits, which used to be dropped forever —
        multiround diverged from singleround on tied depths."""
        cloud = tie_cloud(3)
        structure = build_monolithic(cloud, proxy)
        multi = trace_one(structure, cloud,
                          TraceConfig(k=1, checkpointing=checkpointing))
        single = trace_one(structure, cloud,
                           TraceConfig(k=1, mode="singleround"))
        assert single.blended == 3
        assert multi.blended == 3
        np.testing.assert_allclose(multi.color, single.color, atol=1e-12)
        np.testing.assert_allclose(
            multi.transmittance, single.transmittance, atol=1e-12)

    def test_tie_wider_than_kbuffer_advances_frontier(self):
        """Five tied Gaussians through k=2: the boundary cannot advance
        between rounds, so the blended-at-boundary set must accumulate
        (and never double-blend anyone)."""
        cloud = tie_cloud(5)
        structure = build_monolithic(cloud, "custom")
        multi = trace_one(structure, cloud, TraceConfig(k=2))
        assert multi.blended == 5

    @pytest.mark.parametrize("builder", [
        lambda c: build_monolithic(c, "custom"),
        lambda c: build_two_level(c, "sphere"),
        lambda c: build_two_level(c, "icosphere", 0),
    ], ids=["custom", "tlas+sphere", "tlas+ico"])
    def test_packet_parity_on_tied_depths(self, builder):
        cloud = tie_cloud(3)
        structure = builder(cloud)
        config = TraceConfig(k=1)
        scalar, packet = render_pair(cloud, structure, config, res=6)
        assert_parity(scalar, packet)


# ---------------------------------------------------------------------------
# Two-level interval-pruning regression: the TLAS used to bound only the
# ellipsoid, but the icosphere BLAS reports proxy-triangle depths that
# can lie beyond the ellipsoid AABB's exit — so a hit deferred past a
# k-buffer overflow was pruned by the next round's t_min and dropped
# forever (multiround diverged from singleround on dense scenes).


class TestTwoLevelIntervalRegression:
    @pytest.mark.parametrize("subdivisions", [0, 1])
    def test_tlas_boxes_bound_the_proxy_geometry(self, subdivisions):
        """Soundness invariant: every instance's TLAS leaf box contains
        its transformed template mesh, so an interval-pruned leaf can
        never hide a proxy hit inside the live interval."""
        from repro.geometry import unit_icosahedron_circumscribed
        from repro.math3d import quat_to_rotation_matrix
        from tests.conftest import tiny_cloud as make

        cloud = make(n=64, seed=3)
        structure = build_two_level(cloud, "icosphere", subdivisions)
        verts, _ = unit_icosahedron_circumscribed(subdivisions)
        rot = quat_to_rotation_matrix(cloud.rotations)
        radii = cloud.kappa * cloud.scales
        world = np.einsum("nij,nvj->nvi", rot,
                          verts[None, :, :] * radii[:, None, :]
                          ) + cloud.means[:, None, :]
        tlas = structure.tlas
        flat = flatten(structure)
        for leaf in range(tlas.n_leaves):
            for slot, gid in enumerate(tlas.leaf_prims(leaf)):
                node, box_slot = _leaf_slot_of(tlas, leaf)
                lo = tlas.child_lo[node, box_slot]
                hi = tlas.child_hi[node, box_slot]
                assert np.all(world[gid].min(axis=0) >= lo - 1e-9)
                assert np.all(world[gid].max(axis=0) <= hi + 1e-9)
        assert flat.two_level

    def test_multiround_matches_singleround_on_dense_scene(self):
        """The end-to-end shape of the bug: on a dense scene the scalar
        multiround render must blend exactly what singleround does."""
        from repro.gaussians import make_workload
        from repro.render import default_camera_for

        cloud = make_workload("train", scale=1 / 2000.0)
        structure = build_two_level(cloud, "icosphere", 0)
        shading = SceneShading(cloud)
        multi = Tracer(structure, shading, TraceConfig(k=4))
        single = Tracer(structure, shading,
                        TraceConfig(k=4, mode="singleround"))
        bundle = default_camera_for(cloud, 8, 8).generate_rays()
        for i in range(bundle.origins.shape[0]):
            m = multi.trace_ray(bundle.origins[i], bundle.directions[i],
                                RayTrace())
            g = single.trace_ray(bundle.origins[i], bundle.directions[i],
                                 RayTrace())
            assert m.blended == g.blended
            np.testing.assert_allclose(m.color, g.color, atol=1e-12)


def _leaf_slot_of(bvh, leaf_ref: int) -> tuple[int, int]:
    """Locate the (node, slot) whose child is the given leaf record."""
    from repro.bvh import KIND_LEAF

    hits = np.argwhere((bvh.child_kind == KIND_LEAF)
                       & (bvh.child_ref == leaf_ref))
    assert hits.shape[0] == 1
    return int(hits[0][0]), int(hits[0][1])
