"""Array-native round templates against the per-ray oracle builders.

:func:`repro.rt.tracerecord.build_templates` folds a recording
traversal's frontier log into every ray's round template with numpy.
``tests/template_oracle.py`` keeps the per-ray Python builders it
replaced verbatim; on generated clouds and rays, every ray's columns
``(kind, tn, tf, ref, skip)`` must equal the oracle's entries and skips,
for the root level of every recorded family and for the shared mesh
BLAS of each (ray, instance) pair.  Two more tests bound recording's
peak traced allocation per ray and hold its transient allocation to one
chunk's, whatever the bundle size.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.render import default_camera_for
from repro.rt import SceneShading, TraceConfig, WavefrontTracer, tracerecord
from repro.rt.kernels import box_slab
from repro.rt.tracer import flat_tables
from repro.rt.tracerecord import (
    _T_BLAS_LEAF,
    PacketTraceRecorder,
    build_templates,
)

from tests.conftest import tiny_cloud
from tests.template_oracle import OracleSim, _visit_tables
from tests.test_differential import FAMILIES, RECORDED, _rays

TIER1 = settings(max_examples=10, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _oracle_rows(n, log):
    """The oracle's per-root visit tables (its log rows carry no
    depth)."""
    return _visit_tables(n, [entry[1:] for entry in log])


def _columns(tpl, root):
    """One root's entries ``(kind, tn, tf, ref)`` and template-local
    skips, as plain lists."""
    a, b = int(tpl.ptr[root]), int(tpl.ptr[root + 1])
    kind, tn, tf, ref = (col[a:b].tolist()
                         for col in (tpl.kind, tpl.tn, tpl.tf, tpl.ref))
    return list(zip(kind, tn, tf, ref)), (tpl.skip[a:b] - a).tolist()


@pytest.mark.parametrize("family", RECORDED)
@TIER1
@given(n_gaussians=st.integers(6, 80), cloud_seed=st.integers(0, 10_000),
       ray_seed=st.integers(0, 2**16))
def test_templates_match_oracle(family, n_gaussians, cloud_seed, ray_seed):
    cloud = tiny_cloud(n=n_gaussians, seed=cloud_seed)
    tracer = WavefrontTracer(FAMILIES[family](cloud), SceneShading(cloud),
                             TraceConfig())
    recorder = PacketTraceRecorder(tracer)
    flat = tracer.flat
    tables = flat_tables(flat)
    o, d, t_clip = _rays(cloud, 10, ray_seed)
    n = o.shape[0]
    inv_d = 1.0 / np.where(np.abs(d) < 1e-12, 1e-12, d)

    log: list = []
    leaf_rays, leaf_refs = tracer._traverse_wave(tracer._root, o, inv_d,
                                                 t_clip, log=log)
    tpl = build_templates(tracer._root, np.zeros(n), log,
                          recorder._node_code, recorder._leaf_code)
    rows = _oracle_rows(n, log)
    for r in range(n):
        entries, skips = OracleSim(flat, tables, rows[r])._build_template()
        assert _columns(tpl, r) == (entries, skips), r

    if not flat.two_level or recorder._sphere_blas:
        return
    # Shared mesh BLAS: one template per live (ray, instance) pair.
    rp, _, _, o2, d2 = recorder._instance_pairs(o, d, leaf_rays, leaf_refs)
    if rp.size == 0:
        return
    rtn, rtf, inv_d2 = box_slab(*tracer._blas_roots[0], o2, d2)
    clip = t_clip[rp]
    live = np.nonzero((rtn <= rtf) & (rtf >= 0.0) & (rtn <= clip))[0]
    if live.size == 0:
        return
    level = tracer._blas_levels[0]
    blog: list = []
    tracer._traverse_wave(level, o2[live], inv_d2[live], clip[live],
                          log=blog)
    btpl = build_templates(level, rtn[live], blog,
                           np.zeros(level.child_kind.shape[0], dtype=np.int8),
                           _T_BLAS_LEAF)
    brows = _oracle_rows(live.size, blog)
    for p in range(live.size):
        oracle = OracleSim(flat, tables, {}, mesh_nodes={0: brows[p]})
        entries, skips = oracle._build_blas_template(0, float(rtn[live][p]))
        assert _columns(btpl, p) == (entries, skips), p


#: Peak traced bytes per recorded ray on the fixed cloud below: about
#: 0.75x what the per-ray Python template build peaked at (80.5 KB
#: monolithic, 73.8 KB two-level); the numpy build peaks near 40 KB.
PEAK_BYTES_PER_RAY = 60_000


@pytest.mark.parametrize("family", ["20-tri", "tlas+ico"])
@pytest.mark.parametrize("checkpointing", [False, True])
def test_recording_peak_allocation_per_ray(family, checkpointing):
    cloud = tiny_cloud(n=400, seed=5)
    tracer = WavefrontTracer(FAMILIES[family](cloud), SceneShading(cloud),
                             TraceConfig(k=4, checkpointing=checkpointing))
    bundle = default_camera_for(cloud, 16, 16).generate_rays()
    # Warm the per-structure tables outside the measurement.
    tracer.trace_packet_recorded(bundle.origins[:2], bundle.directions[:2])
    tracemalloc.start()
    try:
        _, traces = tracer.trace_packet_recorded(bundle.origins,
                                                 bundle.directions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traces) == len(bundle)
    assert peak / len(bundle) < PEAK_BYTES_PER_RAY


class _NoFlatTables:
    """Stands in for the scalar tracer's tables: building it fails."""

    def __init__(self, flat) -> None:
        raise AssertionError("recording built the scalar FlatTables")


@pytest.mark.parametrize("family", ["20-tri", "tlas+ico"])
def test_recording_transient_bounded_by_chunk(family, monkeypatch):
    """Recording's transient memory follows the chunk, not the bundle:
    the traced peak minus what the returned result and traces still
    hold stays under 1.5x its two-chunk value when the bundle is 8x as
    long.  Recording never builds the scalar tracer's tables."""
    monkeypatch.setattr("repro.rt.tracer.FlatTables", _NoFlatTables)
    cloud = tiny_cloud(n=400, seed=5)
    tracer = WavefrontTracer(FAMILIES[family](cloud), SceneShading(cloud),
                             TraceConfig(k=4))
    bundle = default_camera_for(cloud, 16, 16).generate_rays()
    n = 64
    assert n >= 2 * tracerecord._MAX_RECORD_PACKET
    o, d = bundle.origins[:n], bundle.directions[:n]
    # Warm the per-structure tables outside the measurement.
    tracer.trace_packet_recorded(o[:2], d[:2])

    def transient(reps):
        origins, directions = np.tile(o, (reps, 1)), np.tile(d, (reps, 1))
        tracemalloc.start()
        try:
            _, traces = tracer.trace_packet_recorded(origins, directions)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traces) == reps * n
        return peak - held

    assert transient(8) < 1.5 * transient(1)
