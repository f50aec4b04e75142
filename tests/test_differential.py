"""Differential test: the wavefront engine against the scalar reference
on generated inputs.

Hypothesis draws tiny Gaussian clouds, tracing configurations (k,
``max_rounds``, ``transmittance_min``, trace mode) and per-ray segment
bounds (``t_clip``), and every flattenable structure family is built
over each cloud.  On every input:

* the batched images are within 1e-9 of the scalar tracer's, with
  exactly equal per-ray blend counts, termination flags and round
  counts;
* the frontier-recorded fetch traces are event-equal to the scalar
  traces (single-BLAS structures: multi-BLAS recording is out of the
  recorder's scope);
* :func:`repro.hwsim.replay` reports the same timing for both trace
  sets.

The tier-1 profile is derandomized (the same examples on every run) and
small, so it adds a few seconds to the suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bvh import build_monolithic, build_two_level
from repro.bvh.two_level import build_two_level_hetero
from repro.hwsim import GpuConfig, replay
from repro.render import default_camera_for
from repro.rt import RayTrace, SceneShading, TraceConfig, Tracer
from repro.rt import WavefrontTracer

from tests.conftest import tiny_cloud
from tests.test_tracerecord import _assert_traces_equal

#: Every flattenable structure family; the value builds it over a cloud.
FAMILIES = {
    "20-tri": lambda c: build_monolithic(c, "20-tri"),
    "custom": lambda c: build_monolithic(c, "custom"),
    "tlas+sphere": lambda c: build_two_level(c, "sphere"),
    "tlas+ico": lambda c: build_two_level(c, "icosphere", 0),
    "hetero": lambda c: build_two_level_hetero(
        c, blas_specs=[("sphere", 0), ("icosphere", 0)],
        gaussian_blas=np.arange(len(c)) % 2),
}

#: Families whose traces the frontier recorder covers (one shared BLAS).
RECORDED = ("20-tri", "custom", "tlas+sphere", "tlas+ico")

#: The tier-1 profile: a fixed, small example sequence.
TIER1 = settings(max_examples=15, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

TOL = 1e-9


@st.composite
def inputs(draw):
    """A tiny cloud, a tracing config and a seed for the rays and their
    ``t_clip`` bounds."""
    cloud = tiny_cloud(n=draw(st.integers(6, 60)),
                       seed=draw(st.integers(0, 10_000)))
    config = TraceConfig(
        k=draw(st.integers(1, 6)),
        mode=draw(st.sampled_from(["multiround", "singleround"])),
        max_rounds=draw(st.integers(1, 4)),
        transmittance_min=draw(st.sampled_from([1e-3, 0.2, 0.6, 0.95])),
    )
    return cloud, config, draw(st.integers(0, 2**16))


def _rays(cloud, n: int, seed: int):
    """``n`` rays from the default viewpoint aimed at random Gaussians
    (so most of them hit something), half of them cut by a ``t_clip``
    somewhere across the cloud, half unbounded."""
    rng = np.random.default_rng(seed)
    eye = default_camera_for(cloud, 4, 4).position
    targets = cloud.means[rng.integers(0, len(cloud), n)]
    directions = targets - eye
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    origins = np.repeat(eye[None, :], n, axis=0)
    reach = np.linalg.norm(targets - eye, axis=1)
    cut = rng.uniform(0.6, 1.4, n) * reach
    return origins, directions, np.where(rng.random(n) < 0.5, np.inf, cut)


@pytest.mark.parametrize("family", list(FAMILIES))
@TIER1
@given(inputs())
def test_wavefront_matches_scalar(family, case):
    cloud, config, seed = case
    structure = FAMILIES[family](cloud)
    origins, directions, t_clip = _rays(cloud, 12, seed)
    n = origins.shape[0]

    shading = SceneShading(cloud)
    scalar = Tracer(structure, shading, config)
    scalar_traces = []
    outcomes = []
    for i in range(n):
        trace = RayTrace()
        outcomes.append(scalar.trace_ray(origins[i], directions[i], trace,
                                         t_clip=float(t_clip[i])))
        scalar_traces.append(trace)

    wavefront = WavefrontTracer(structure, shading, config)
    plain = wavefront.trace_packet(origins, directions, t_clip)
    for i, outcome in enumerate(outcomes):
        assert np.abs(outcome.color - plain.colors[i]).max() <= TOL
        assert outcome.blended == plain.blended[i]
        assert outcome.terminated_early == bool(plain.terminated[i])

    if family not in RECORDED:
        return
    recorded, traces = wavefront.trace_packet_recorded(origins, directions,
                                                       t_clip)
    assert np.array_equal(recorded.colors, plain.colors)
    assert [o.rounds for o in outcomes] == recorded.rounds.tolist()
    _assert_traces_equal(scalar_traces, traces)
    a = replay(scalar_traces, GpuConfig.rtx_like())
    b = replay(traces, GpuConfig.rtx_like())
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name
