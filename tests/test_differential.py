"""Differential test: the wavefront engine against the scalar reference
on generated inputs.

Hypothesis draws tiny Gaussian clouds, tracing configurations (k,
``max_rounds``, ``transmittance_min``, trace mode, GRTX-HW
checkpointing) and per-ray segment bounds (``t_clip``), and every
flattenable structure family is built over each cloud.  Some rays are
degenerate: a zeroed direction component, a ±1e-13 one (below the slab
test's 1e-12 guard) or an exact axis direction.  On every input:

* the batched images are within 1e-9 of the scalar tracer's, with
  exactly equal per-ray blend counts and termination flags; the plain
  path's round counts equal the scalar's without checkpointing, and
  exceed them by at most one with it (the scalar also stops when a
  round leaves no checkpoint and no eviction, which the plain path
  cannot see);
* the frontier-recorded fetch traces are event-equal to the scalar
  traces, checkpoint/eviction counts and high-water marks included
  (single-BLAS structures: a multi-BLAS recording runs on the scalar
  tracer), at the shipped recording chunk and at one of 3 rays;
* :func:`repro.hwsim.replay` reports the same timing for both trace
  sets.

A second slice generates ``RayTrace``s directly, with tiny cache
geometries, merge windows, prefetch lists, both DRAM models and treelet
maps, and holds :func:`repro.hwsim.replay` (its compiled cache walk)
equal to ``replay_reference`` (``tests/replay_oracle.py``) field for
field at the shipped chunk budget and at 3 events.

A stress slice aims the recorder's compiled round walk at its rare
paths: Gaussians repeated at equal depths, ``k`` and ``max_rounds`` up
to 8, mostly checkpointed, with a tiny termination threshold so rays run
many rounds; its traces must equal the scalar tracer's.

A third slice round-trips each single-BLAS structure through
:func:`repro.bvh.save_structure`/:func:`repro.bvh.load_structure`: the
loaded structure flattens to the same arrays, dtypes included, and both
engines render it bit-identically to the original.

The tier-1 profile is derandomized (the same examples on every run) and
small, so it adds a few seconds to the suite.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bvh import (
    build_monolithic,
    build_two_level,
    flatten,
    load_structure,
    save_structure,
)
from repro.bvh.two_level import build_two_level_hetero
from repro.gaussians import GaussianCloud
from repro.hwsim import DramTimings, GpuConfig, replay
from repro.render import GaussianRayTracer, default_camera_for
from repro.rt import RayTrace, SceneShading, TraceConfig, Tracer
from repro.rt import WavefrontTracer, tracerecord
from repro.rt.recorder import FETCH_INTERNAL, FETCH_LEAF

from tests.conftest import tiny_cloud
from tests.replay_oracle import replay_reference
from tests.test_tracerecord import (
    _assert_reports_equal,
    _assert_traces_equal,
    _record_at_each_chunk,
    _replay_module,
)

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
    mode = draw(st.sampled_from(["multiround", "singleround"]))
    config = TraceConfig(
        k=draw(st.integers(1, 6)),
        mode=mode,
        checkpointing=mode == "multiround" and draw(st.booleans()),
        max_rounds=draw(st.integers(1, 4)),
        transmittance_min=draw(st.sampled_from([1e-3, 0.2, 0.6, 0.95])),
    )
    return cloud, config, draw(st.integers(0, 2**16))


def _rays(cloud, n: int, seed: int):
    """``n`` rays from the default viewpoint aimed at random Gaussians
    (so most of them hit something), half of them cut by a ``t_clip``
    somewhere across the cloud, half unbounded.

    About one ray in eight each gets a zeroed direction component, a
    ±1e-13 component, or the exact axis direction nearest its aim (the
    zeroed or tiny component is never the dominant one)."""
    rng = np.random.default_rng(seed)
    eye = default_camera_for(cloud, 4, 4).position
    targets = cloud.means[rng.integers(0, len(cloud), n)]
    directions = targets - eye
    family = rng.integers(0, 8, n)
    dominant = np.abs(directions).argmax(axis=1)
    minor = (dominant + rng.integers(1, 3, n)) % 3
    rows = np.arange(n)
    flat = family >= 5
    directions[rows[flat], minor[flat]] = 0.0
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    tiny = family == 6
    directions[rows[tiny], minor[tiny]] = rng.choice(
        [-1e-13, 1e-13], int(tiny.sum()))
    axis = family == 7
    sign = np.sign(directions[rows[axis], dominant[axis]])
    directions[axis] = 0.0
    directions[rows[axis], dominant[axis]] = sign
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
        extra = int(plain.rounds[i]) - outcome.rounds
        if config.checkpointing:
            assert 0 <= extra <= 1
        else:
            assert extra == 0

    if family not in RECORDED:
        return
    a = replay(scalar_traces, GpuConfig.rtx_like())
    with pytest.MonkeyPatch.context() as monkeypatch:
        for recorded, traces in _record_at_each_chunk(
                monkeypatch, lambda: wavefront.trace_packet_recorded(
                    origins, directions, t_clip)):
            assert np.array_equal(recorded.colors, plain.colors)
            assert [o.rounds for o in outcomes] == recorded.rounds.tolist()
            _assert_traces_equal(scalar_traces, traces)
            for s, p in zip(scalar_traces, traces):
                assert _ckpt_counts(s) == _ckpt_counts(p)
            b = replay(traces, GpuConfig.rtx_like())
            for field in dataclasses.fields(a):
                assert getattr(a, field.name) == getattr(b, field.name), (
                    field.name)


def _ckpt_counts(trace: RayTrace) -> tuple[int, int, int, int]:
    """``(checkpoints_written, evictions_written, ckpt_high_water,
    evict_high_water)`` of one ray."""
    return (sum(r.checkpoints_written for r in trace.rounds),
            sum(r.evictions_written for r in trace.rounds),
            trace.ckpt_high_water, trace.evict_high_water)


@st.composite
def stress_inputs(draw):
    """A cloud with repeated Gaussians, a config that runs many rounds,
    and a seed for the rays and their ``t_clip`` bounds.

    A repeat has its original's geometry and a fresh opacity, so the
    two hit at the same depth: rounds end on tied hits (frontier
    carry-over) and evictions land exactly on the next round's
    ``t_min``.  ``transmittance_min`` is tiny, so rays rarely terminate
    early, and checkpointing is on in three examples of four."""
    base = tiny_cloud(n=draw(st.integers(20, 80)),
                      seed=draw(st.integers(0, 10_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dup = rng.integers(0, len(base), draw(st.integers(len(base) // 2,
                                                      2 * len(base))))
    cloud = GaussianCloud(
        means=np.concatenate([base.means, base.means[dup]]),
        scales=np.concatenate([base.scales, base.scales[dup]]),
        rotations=np.concatenate([base.rotations, base.rotations[dup]]),
        opacities=np.concatenate([base.opacities,
                                  rng.uniform(0.05, 0.9, dup.size)]),
        sh=np.concatenate([base.sh, base.sh[dup]]), name="tied")
    config = TraceConfig(
        k=draw(st.integers(1, 8)),
        checkpointing=draw(st.integers(0, 3)) > 0,
        max_rounds=draw(st.integers(1, 8)),
        transmittance_min=draw(st.sampled_from([1e-6, 1e-3])),
    )
    return cloud, config, draw(st.integers(0, 2**16))


@pytest.mark.parametrize("family", RECORDED)
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stress_inputs())
def test_recorded_walk_matches_scalar_under_stress(family, case):
    """The compiled round walk's rare paths — tied depths, ``t ==
    t_min`` evictions, many checkpointed rounds, clipped and unclipped
    rays — record the scalar tracer's traces exactly.  The walk arrays
    start a few words long, so every chunk outgrows them and is walked
    again at its exact size."""
    cloud, config, seed = case
    structure = FAMILIES[family](cloud)
    origins, directions, t_clip = _rays(cloud, 16, seed)
    shading = SceneShading(cloud)
    scalar = Tracer(structure, shading, config)
    scalar_traces = [RayTrace() for _ in range(origins.shape[0])]
    rounds = [scalar.trace_ray(o, d, trace, t_clip=float(t)).rounds
              for o, d, t, trace in zip(origins, directions, t_clip,
                                        scalar_traces)]
    wavefront = WavefrontTracer(structure, shading, config)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tracerecord, "_WALK_WORDS", (7, 2))
        for recorded, traces in _record_at_each_chunk(
                monkeypatch, lambda: wavefront.trace_packet_recorded(
                    origins, directions, t_clip)):
            assert recorded.rounds.tolist() == rounds
            _assert_traces_equal(scalar_traces, traces)
            for s, p in zip(scalar_traces, traces):
                assert _ckpt_counts(s) == _ckpt_counts(p)


@pytest.mark.parametrize("checkpointing", [False, True])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_auto_records_every_family(family, checkpointing):
    """``auto`` with ``keep_traces`` never raises on a flattenable
    family — a multi-BLAS recording runs on the scalar tracer — and
    its traces equal the scalar engine's."""
    cloud = tiny_cloud(n=40, seed=7)
    structure = FAMILIES[family](cloud)
    config = TraceConfig(k=3, checkpointing=checkpointing)
    camera = default_camera_for(cloud, 5, 5)
    auto = GaussianRayTracer(cloud, structure, config,
                             engine="auto").render(camera, keep_traces=True)
    scalar = GaussianRayTracer(cloud, structure, config,
                               engine="scalar").render(camera,
                                                       keep_traces=True)
    _assert_traces_equal(scalar.traces, auto.traces)
    assert auto.stats == scalar.stats


def _assert_flat_equal(a, b, path="flat"):
    """Two flattened layouts agree field for field: arrays by dtype and
    value, nested dataclasses and tuples recursively."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for field in dataclasses.fields(a):
            _assert_flat_equal(getattr(a, field.name),
                               getattr(b, field.name),
                               f"{path}.{field.name}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype, path
        assert np.array_equal(a, b), path
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_flat_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


@pytest.mark.parametrize("family", RECORDED)
@TIER1
@given(inputs())
def test_serialize_round_trip_flattens_and_renders_identically(family, case):
    cloud, config, seed = case
    structure = FAMILIES[family](cloud)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "structure.npz"
        save_structure(structure, path)
        loaded = load_structure(path)
        with pytest.raises(TypeError):
            save_structure(FAMILIES["hetero"](cloud), Path(tmp) / "h.npz")
    _assert_flat_equal(flatten(structure), flatten(loaded))

    origins, directions, t_clip = _rays(cloud, 12, seed)
    shading = SceneShading(cloud)

    def scalar_image(s):
        tracer = Tracer(s, shading, config)
        return np.stack([
            tracer.trace_ray(origins[i], directions[i],
                             t_clip=float(t_clip[i])).color
            for i in range(len(origins))])

    def wavefront_image(s):
        return WavefrontTracer(s, shading, config).trace_packet(
            origins, directions, t_clip).colors

    for image in (scalar_image, wavefront_image):
        assert np.array_equal(image(structure), image(loaded))


#: Bytes between two rows of one banked-DRAM bank.
_BANK_STRIDE = DramTimings().row_bytes * (DramTimings().n_channels
                                          * DramTimings().banks_per_channel)

#: Replay chunk budgets of the generated-trace slice: the shipped one and
#: 3 events, which cuts nearly every segment into a chunk of its own.
REPLAY_BUDGETS = (_replay_module.CHUNK_EVENTS, 3)


@st.composite
def replay_cases(draw):
    """Generated traces, a tiny GPU config and maybe a treelet map.

    Addresses come from a small pool, so fetches, prefetch pairs and
    treelet roots repeat and the 1-4 set, 1-4 way caches evict. Treelet
    members also reach lines no fetch touches, so a root can hit the L1
    while its treelet is gone. Sizes include 0 bytes and fetches
    spanning two or three 128-byte lines. Addresses lie in three regions
    one banked-DRAM bank stride apart, so DRAM rows conflict.
    """
    def address(lines):
        return st.builds(lambda x, row: 32 * x + row * _BANK_STRIDE,
                         st.integers(0, lines), st.integers(0, 2))

    pool = draw(st.lists(address(40), min_size=1, max_size=12))
    addr = st.sampled_from(pool)
    nbytes = st.sampled_from([0, 1, 64, 128, 200, 300])
    pair = st.tuples(addr, nbytes)

    traces = []
    for _ in range(draw(st.integers(1, 9))):
        trace = RayTrace(label=draw(st.sampled_from(["primary",
                                                     "secondary"])))
        for _ in range(draw(st.integers(0, 4))):
            rnd = trace.begin_round()
            rnd.anyhit_calls = draw(st.integers(0, 3))
            rnd.kbuffer_ops = draw(st.integers(0, 3))
            rnd.blended = draw(st.integers(0, 3))
            for _ in range(draw(st.integers(0, 6))):
                rnd.fetch(draw(addr), draw(nbytes),
                          draw(st.sampled_from([FETCH_INTERNAL,
                                                FETCH_LEAF])),
                          box_tests=draw(st.integers(0, 1)),
                          prim_tests=draw(st.integers(0, 3)),
                          prim_kind=draw(st.integers(0, 4)),
                          prefetch=draw(st.lists(pair, max_size=3)))
        traces.append(trace)

    line = 128
    l1_sets, l1_ways, l2_sets, l2_ways = (draw(st.integers(1, 4))
                                          for _ in range(4))
    config = dataclasses.replace(
        GpuConfig.rtx_like(),
        n_sms=draw(st.integers(1, 3)),
        warp_size=draw(st.integers(1, 4)),
        l1_bytes=l1_sets * l1_ways * line, l1_ways=l1_ways,
        l2_bytes=l2_sets * l2_ways * line, l2_ways=l2_ways,
        merge_window_size=draw(st.sampled_from([0, 1, 8, 100])),
        prefetch_enabled=draw(st.booleans()),
        dram_model=draw(st.sampled_from(["flat", "banked"])),
        warp_buffer_size=draw(st.sampled_from([1, 7, 8])),
    )
    member = st.tuples(address(80), nbytes)
    treelet_map = draw(st.none() | st.dictionaries(
        addr, st.lists(member, max_size=3), max_size=6))
    return traces, config, treelet_map


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(replay_cases())
def test_replay_matches_reference_on_generated_traces(case):
    traces, config, treelet_map = case
    want = replay_reference(traces, config, treelet_map=treelet_map)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for budget in REPLAY_BUDGETS:
            monkeypatch.setattr(_replay_module, "CHUNK_EVENTS", budget)
            _assert_reports_equal(
                replay(traces, config, treelet_map=treelet_map), want)
