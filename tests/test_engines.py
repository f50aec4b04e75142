"""The cross-engine parity matrix: every structure x mode x engine.

One parameterized table drives both engines (scalar and wavefront) over
the full structural matrix — both monolithic proxies, both homogeneous
two-level structures, and the heterogeneous multi-BLAS TLAS — in both
trace modes.  The standing contract checked here:

* the wavefront engine matches the scalar golden within 1e-9 per
  channel, whether requested as ``"wavefront"`` or through the
  deprecated ``"packet"`` alias;
* the parity-matched functional counters (``n_rays``, ``n_primary``,
  ``n_secondary``, ``blended_total``, ``rays_terminated_early``) agree
  exactly;
* the wavefront engine is additionally *bit-identical* to itself however
  the rays are batched (whole frame, tile-sized packets, ray chunks);
* ``resolve_engine`` rejects unknown engines loudly and resolves "auto"
  without regard to batch size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh import build_monolithic, build_two_level
from repro.bvh.two_level import build_two_level_hetero
from repro.render import GaussianRayTracer, default_camera_for
from repro.rt import SceneShading, TraceConfig, WavefrontTracer
from repro.rt import wavefront
from repro.rt.wavefront import resolve_engine

from tests.conftest import tiny_cloud

#: The image parity bound from the acceptance criteria.
TOL = 1e-9

#: Counters that must agree exactly across the engines.
PARITY_COUNTERS = ("n_rays", "n_primary", "n_secondary",
                   "blended_total", "rays_terminated_early")

#: Every structure the wavefront engine supports, heterogeneous TLAS
#: included — it consumes the per-instance multi-BLAS tables.
ALL_STRUCTURES = ["20-tri", "custom", "tlas+sphere", "tlas+ico", "hetero"]

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
        "hetero": build_two_level_hetero(
            cloud,
            blas_specs=[("sphere", 0), ("icosphere", 0)],
            gaussian_blas=np.arange(len(cloud)) % 2,
        ),
    }


@pytest.fixture(scope="module")
def goldens(cloud, structures):
    """Scalar renders, computed once per (structure, mode) cell."""
    camera = default_camera_for(cloud, 10, 10)
    out = {}
    for name, structure in structures.items():
        for mode in MODES:
            config = TraceConfig(k=4, mode=mode)
            out[name, mode] = GaussianRayTracer(
                cloud, structure, config).render(camera, keep_traces=False)
    return out


class TestEngineMatrix:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("structure_name", ALL_STRUCTURES)
    @pytest.mark.parametrize("engine", ["packet", "wavefront"])
    def test_engine_matches_scalar_golden(self, cloud, structures, goldens,
                                          structure_name, mode, engine):
        """``engine`` is the *requested* name: the deprecated "packet"
        alias must land on the wavefront engine with the same parity."""
        config = TraceConfig(k=4, mode=mode)
        camera = default_camera_for(cloud, 10, 10)
        renderer = GaussianRayTracer(cloud, structures[structure_name],
                                     config, engine=engine)
        assert renderer.engine_active == "wavefront"
        result = renderer.render(camera, keep_traces=False)
        golden = goldens[structure_name, mode]
        assert np.abs(golden.image - result.image).max() <= TOL
        for name in PARITY_COUNTERS:
            assert getattr(golden.stats, name) == getattr(
                result.stats, name), (name, engine)

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
    def test_unknown_engine_is_rejected_loudly(self, structures):
        config = TraceConfig(k=4)
        with pytest.raises(ValueError, match="unknown engine 'wavefont'"):
            resolve_engine("wavefont", structures["tlas+sphere"], config)

    def test_rejection_names_the_valid_engines(self, structures):
        config = TraceConfig(k=4)
        with pytest.raises(ValueError, match="scalar, packet, wavefront"):
            resolve_engine("gpu", structures["tlas+sphere"], config)

    def test_auto_and_the_packet_alias_resolve_to_wavefront(self,
                                                            structures):
        """No frame-size threshold: "auto" and the deprecated "packet"
        alias both resolve to the one batched engine."""
        config = TraceConfig(k=4)
        structure = structures["tlas+sphere"]
        for engine in ("auto", "packet", "wavefront"):
            assert resolve_engine(engine, structure, config) == "wavefront"

    def test_auto_degrades_to_scalar_when_unsupported(self, structures):
        config = TraceConfig(k=4, checkpointing=True)
        assert resolve_engine("auto", structures["tlas+sphere"],
                              config) == "scalar"

    def test_explicit_wavefront_respects_small_batches(self, cloud,
                                                       structures):
        """A four-ray batch traces on the wavefront engine and matches
        the scalar tracer — no size-based demotion anywhere."""
        config = TraceConfig(k=4)
        renderer = GaussianRayTracer(cloud, structures["tlas+sphere"],
                                     config, engine="wavefront")
        assert renderer.engine_active == "wavefront"
        bundle = default_camera_for(cloud, 2, 2).generate_rays()
        got = renderer.trace_rays(bundle.origins, bundle.directions,
                                  bundle.pixel_ids, keep_traces=False)
        want = GaussianRayTracer(cloud, structures["tlas+sphere"],
                                 config).trace_rays(
            bundle.origins, bundle.directions, bundle.pixel_ids,
            keep_traces=False)
        assert np.abs(got.colors - want.colors).max() <= TOL


class TestWavefrontDeployment:
    def test_tiled_wavefront_equals_tiled_packet(self, cloud, structures):
        """The "packet" alias and "wavefront" tile the frame the same
        way and assemble the identical image."""
        from repro.serve import TileScheduler

        camera = default_camera_for(cloud, 12, 12)
        scheduler = TileScheduler(tile_size=(8, 8))
        config = TraceConfig(k=4)
        packet = scheduler.render(cloud, structures["tlas+sphere"], config,
                                  camera, engine="packet")
        wavefront = scheduler.render(cloud, structures["tlas+sphere"], config,
                                     camera, engine="wavefront")
        assert np.array_equal(packet.image, wavefront.image)
        assert packet.stats == wavefront.stats

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
            cloud, structure, config, camera, keep_traces=True,
            engine="auto")
        with TileScheduler(tile_size=(16, 16), workers=2) as scheduler:
            pooled = scheduler.render(cloud, structure, config, camera,
                                      keep_traces=True, engine="auto")
            assert scheduler.pool_stats()["tasks_completed"] == 16
        for other in (serial, pooled):
            assert np.array_equal(untiled.image, other.image)
            assert asdict(untiled.stats) == asdict(other.stats)

        def multiset(traces):
            return sorted(tuple(sorted(t.fetch_multiset().items()))
                          for t in traces)

        assert multiset(pooled.traces) == multiset(untiled.traces)
