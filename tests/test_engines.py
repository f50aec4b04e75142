"""The parity matrix: every structure x mode against the scalar oracle.

One parameterized table drives the wavefront engine and the scalar
oracle (``tests/scalar_oracle.py``) over the full structural matrix —
both monolithic proxies and both two-level structures — in both trace
modes.  The standing contract checked here:

* the wavefront engine matches the scalar golden within 1e-9 per
  channel, whether the frame is traced as one wavefront or as
  tile-sized packets;
* the parity-matched functional counters (``n_rays``, ``n_primary``,
  ``n_secondary``, ``blended_total``, ``rays_terminated_early``) agree
  exactly;
* the wavefront engine is additionally *bit-identical* to itself however
  the rays are batched (whole frame, tile-sized packets, ray chunks);
* the ``engine`` keyword of ``GaussianRayTracer`` and the field of
  ``RenderRequest`` reject unknown engines (the retired ``"packet"``
  alias and ``"scalar"`` engine included) loudly, and "auto" traces on
  the one batched engine without regard to batch size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh import build_monolithic, build_two_level
from repro.render import GaussianRayTracer, default_camera_for
from repro.rt import SceneShading, TraceConfig, WavefrontTracer
from repro.rt import wavefront

from tests.conftest import tiny_cloud
from tests.scalar_oracle import Tracer, render_scalar, trace_rays_scalar

#: The image parity bound from the acceptance criteria.
TOL = 1e-9

#: Counters that must agree exactly across the engines.
PARITY_COUNTERS = ("n_rays", "n_primary", "n_secondary",
                   "blended_total", "rays_terminated_early")

#: Every structure family the wavefront engine supports.
ALL_STRUCTURES = ["20-tri", "custom", "tlas+sphere", "tlas+ico"]

MODES = ["multiround", "singleround"]


@pytest.fixture(scope="module")
def cloud():
    return tiny_cloud(n=110, seed=33)


@pytest.fixture(scope="module")
def structures(cloud):
    return {
        "20-tri": build_monolithic(cloud, "20-tri"),
        "custom": build_monolithic(cloud, "custom"),
        "tlas+sphere": build_two_level(cloud, "sphere"),
        "tlas+ico": build_two_level(cloud, "icosphere", 0),
    }


@pytest.fixture(scope="module")
def goldens(cloud, structures):
    """Scalar renders, computed once per (structure, mode) cell."""
    camera = default_camera_for(cloud, 10, 10)
    out = {}
    for name, structure in structures.items():
        for mode in MODES:
            config = TraceConfig(k=4, mode=mode)
            out[name, mode] = render_scalar(cloud, structure, camera, config,
                                            keep_traces=False)
    return out


class TestEngineMatrix:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("structure_name", ALL_STRUCTURES)
    @pytest.mark.parametrize("batching", ["packet", "wavefront"])
    def test_engine_matches_scalar_golden(self, cloud, structures, goldens,
                                          structure_name, mode, batching):
        """The wavefront engine holds the parity bound whether the frame
        is traced as one wavefront or as 4x4-pixel packets (the tile
        scheduler's serial path, merging per-packet counters)."""
        from repro.serve import TileScheduler

        config = TraceConfig(k=4, mode=mode)
        camera = default_camera_for(cloud, 10, 10)
        structure = structures[structure_name]
        if batching == "packet":
            result = TileScheduler(tile_size=(4, 4)).render(
                cloud, structure, config, camera)
        else:
            result = GaussianRayTracer(cloud, structure, config).render(
                camera, keep_traces=False)
        golden = goldens[structure_name, mode]
        assert np.abs(golden.image - result.image).max() <= TOL
        for name in PARITY_COUNTERS:
            assert getattr(golden.stats, name) == getattr(
                result.stats, name), (name, batching)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("structure_name", ALL_STRUCTURES)
    def test_wavefront_bit_identical_to_packet(self, cloud, structures,
                                               structure_name, mode):
        """Stronger than the 1e-9 bound: the whole frame traced as one
        bundle is bit-equal to the same rays traced as tile-sized
        packets (what pooled tiles do) — the frontier visits the same
        pair set and every reduction is order-free."""
        config = TraceConfig(k=4, mode=mode)
        camera = default_camera_for(cloud, 10, 10)
        bundle = camera.generate_rays()
        tracer = WavefrontTracer(structures[structure_name],
                                 SceneShading(cloud), config)
        whole = tracer.trace_packet(bundle.origins, bundle.directions)
        packets = [tracer.trace_packet(bundle.origins[i:i + 16],
                                       bundle.directions[i:i + 16])
                   for i in range(0, len(bundle), 16)]
        for field in ("colors", "transmittance", "blended", "terminated"):
            assert np.array_equal(
                getattr(whole, field),
                np.concatenate([getattr(p, field) for p in packets])), field
        assert whole.anyhit_calls == sum(p.anyhit_calls for p in packets)
        assert whole.false_positives == sum(p.false_positives
                                            for p in packets)

    def test_wavefront_chunking_is_invisible(self, cloud, structures,
                                             monkeypatch):
        """Odd ray-chunk sizes must not change a single bit."""
        config = TraceConfig(k=4)
        camera = default_camera_for(cloud, 10, 10)
        bundle = camera.generate_rays()
        tracer = WavefrontTracer(structures["tlas+sphere"],
                                 SceneShading(cloud), config)
        whole = tracer.trace_packet(bundle.origins, bundle.directions)
        monkeypatch.setattr(wavefront, "WAVEFRONT_RAY_CHUNK", 17)
        chunked = tracer.trace_packet(bundle.origins, bundle.directions)
        assert np.array_equal(whole.colors, chunked.colors)
        assert np.array_equal(whole.blended, chunked.blended)


class TestResolveEngineHardening:
    """The engine name is checked where a caller passes it — the
    ``GaussianRayTracer`` keyword and the ``RenderRequest`` field — and
    nowhere after: both valid names build the one batched tracer."""

    def test_unknown_engine_is_rejected_loudly(self, cloud, structures):
        config = TraceConfig(k=4)
        with pytest.raises(ValueError, match="unknown engine 'wavefont'"):
            GaussianRayTracer(cloud, structures["tlas+sphere"], config,
                              engine="wavefont")

    def test_rejection_names_the_valid_engines(self, cloud, structures):
        from repro.serve import RenderRequest

        config = TraceConfig(k=4)
        structure = structures["tlas+sphere"]
        valid = "valid engines are: wavefront, auto"
        with pytest.raises(ValueError, match=valid):
            GaussianRayTracer(cloud, structure, config, engine="gpu")
        with pytest.raises(ValueError, match=valid):
            RenderRequest(scene="train", engine="gpu")
        # The retired "packet" alias and the retired "scalar" engine are
        # unknown engines at both entry points.
        for retired in ("packet", "scalar"):
            match = f"unknown engine '{retired}'"
            with pytest.raises(ValueError, match=match):
                GaussianRayTracer(cloud, structure, config, engine=retired)
            with pytest.raises(ValueError, match=match):
                RenderRequest(scene="train", engine=retired)

    def test_auto_and_wavefront_resolve_to_wavefront(self, cloud,
                                                     structures):
        """No frame-size threshold: "auto" and an explicit "wavefront"
        both construct the one batched tracer."""
        config = TraceConfig(k=4)
        structure = structures["tlas+sphere"]
        for engine in ("auto", "wavefront"):
            renderer = GaussianRayTracer(cloud, structure, config,
                                         engine=engine)
            assert isinstance(renderer.packet, WavefrontTracer)

    def test_auto_resolves_checkpointing_to_wavefront(self, cloud,
                                                      structures):
        """Checkpointing (GRTX-HW) demotes nothing: "auto" constructs
        the batched tracer on every structure family."""
        config = TraceConfig(k=4, checkpointing=True)
        for structure in structures.values():
            renderer = GaussianRayTracer(cloud, structure, config,
                                         engine="auto")
            assert isinstance(renderer.packet, WavefrontTracer)

    def test_explicit_wavefront_respects_small_batches(self, cloud,
                                                       structures):
        """A four-ray batch traces on the wavefront engine and matches
        the scalar tracer — no size-based demotion anywhere."""
        config = TraceConfig(k=4)
        renderer = GaussianRayTracer(cloud, structures["tlas+sphere"],
                                     config, engine="wavefront")
        assert isinstance(renderer.packet, WavefrontTracer)
        bundle = default_camera_for(cloud, 2, 2).generate_rays()
        got = renderer.trace_rays(bundle.origins, bundle.directions,
                                  bundle.pixel_ids, keep_traces=False)
        want = trace_rays_scalar(
            Tracer(structures["tlas+sphere"], SceneShading(cloud), config),
            bundle.origins, bundle.directions, bundle.pixel_ids,
            keep_traces=False)
        assert np.abs(got.colors - want.colors).max() <= TOL


class TestWavefrontDeployment:
    def test_tiled_auto_equals_tiled_wavefront(self, cloud, structures):
        """"auto" and an explicit "wavefront" tracer render the identical
        image and stats, and the tiled frame (which names no engine)
        assembles to them."""
        from repro.serve import TileScheduler

        camera = default_camera_for(cloud, 12, 12)
        config = TraceConfig(k=4)
        structure = structures["tlas+sphere"]
        auto, wavefront = (
            GaussianRayTracer(cloud, structure, config, engine=engine).render(
                camera, keep_traces=False)
            for engine in ("auto", "wavefront"))
        tiled = TileScheduler(tile_size=(8, 8)).render(
            cloud, structure, config, camera)
        for other in (wavefront, tiled):
            assert np.array_equal(auto.image, other.image)
            assert auto.stats == other.stats

    def test_pooled_auto_frame_fans_wavefront_tiles(self, cloud, structures):
        """A frame-sized "auto" render fans its wavefront tiles across the
        pool — one task per tile — and reassembles to the untiled and the
        serial render bit for bit: image, every RenderStats field and the
        per-ray trace multiset."""
        from dataclasses import asdict

        from repro.serve import TileScheduler

        camera = default_camera_for(cloud, 64, 64)
        config = TraceConfig(k=4)
        structure = structures["tlas+sphere"]
        untiled = GaussianRayTracer(cloud, structure, config,
                                    engine="auto").render(camera,
                                                          keep_traces=True)
        serial = TileScheduler(tile_size=(16, 16), workers=1).render(
            cloud, structure, config, camera, keep_traces=True)
        with TileScheduler(tile_size=(16, 16), workers=2) as scheduler:
            pooled = scheduler.render(cloud, structure, config, camera,
                                      keep_traces=True)
            assert scheduler.pool_stats()["tasks_completed"] == 16
        for other in (serial, pooled):
            assert np.array_equal(untiled.image, other.image)
            assert asdict(untiled.stats) == asdict(other.stats)

        def multiset(traces):
            return sorted(tuple(sorted(t.fetch_multiset().items()))
                          for t in traces)

        assert multiset(pooled.traces) == multiset(untiled.traces)
