"""Compiled round templates against the per-ray oracle builders.

``template_build.c`` builds every root's round template with a stack DFS
over a level's arrays.  ``tests/template_oracle.py`` keeps the per-ray
Python builders of the original recorder; they read per-ray visit rows,
computed here with numpy's per-axis slab over *every* ``(ray, node)``
pair of a tiny cloud, independently of any traversal.  On generated
clouds and rays, every root's columns ``(kind, tn, tf, ref, skip)`` must
equal the oracle's entries and skips, for the root level of every
recorded family and for the shared mesh BLAS of each (ray, instance)
pair; each entry's ``kids`` must be its children in slot order and
``cmax`` their largest ``tn``.  Degenerate direction components, finite
``t_clip`` and a start capacity of a few entries (the re-run path) are
covered.  Two more tests bound recording's peak traced allocation per
ray and hold its transient allocation to one chunk's, whatever the
bundle size.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bvh.node import KIND_INTERNAL
from repro.native import kernel
from repro.render import default_camera_for
from repro.rt import SceneShading, TraceConfig, WavefrontTracer, tracerecord
from repro.rt.kernels import box_slab
from repro.rt.tracerecord import PacketTraceRecorder

from tests.conftest import tiny_cloud
from tests.scalar_oracle import flat_tables
from tests.template_oracle import OracleSim, _visit_tables
from tests.test_differential import FAMILIES, _rays
from tests.test_tracerecord import _assert_traces_equal

TIER1 = settings(max_examples=10, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _visit_rows(level, o, inv_d, t_clip):
    """Per-ray oracle visit tables from every ``(ray, node)`` pair's
    child slab rows: per axis ``(lo - o) * inv_d``, NaN-propagating
    min/max, then max/min across the axes in order, accepted on ``tn <=
    tf``, ``tf >= 0``, ``tn <= t_clip`` and an occupied slot."""
    n = o.shape[0]
    n_nodes = level.child_kind.shape[0]
    rays = np.repeat(np.arange(n), n_nodes)
    nodes = np.tile(np.arange(n_nodes), n)
    tn = tf = None
    for a in range(3):
        t0 = (level.boxes[2 * a][nodes] - o[rays, a, None]) * inv_d[rays, a,
                                                                    None]
        t1 = (level.boxes[2 * a + 1][nodes] - o[rays, a, None]) * inv_d[
            rays, a, None]
        near, far = np.minimum(t0, t1), np.maximum(t0, t1)
        tn = near if tn is None else np.maximum(tn, near)
        tf = far if tf is None else np.minimum(tf, far)
    hit = ((tn <= tf) & (tf >= 0.0) & (tn <= t_clip[rays, None])
           & (level.child_kind[nodes] != 0))
    return _visit_tables(n, [(rays, nodes, tn, tf, hit)])


def _columns(tpl, root):
    """One root's entries ``(kind, tn, tf, ref)`` and template-local
    skips, as plain lists."""
    a, b = int(tpl["ptr"][root]), int(tpl["ptr"][root + 1])
    kind, tn, tf, ref = (tpl[name][a:b].tolist()
                         for name in ("kind", "tn", "tf", "ref"))
    return list(zip(kind, tn, tf, ref)), (tpl["skip"][a:b] - a).tolist()


def _assert_kids(tpl, level):
    """Each entry's ``kids`` block lists its children — the entries
    that start its subtree's top-level blocks — in slot order, and
    ``cmax`` is their largest ``tn`` (``-inf`` for none)."""
    internal_codes = (tracerecord._T_NODE, tracerecord._T_NODE_PF)
    assert tpl["kptr"][0] == 0 and tpl["kptr"][-1] == tpl["kids"].size
    for i in range(tpl["kind"].size):
        children = []
        j = i + 1
        while j < tpl["skip"][i]:
            children.append(j)
            j = int(tpl["skip"][j])
        kids = tpl["kids"][tpl["kptr"][i]:tpl["kptr"][i + 1]].tolist()
        assert sorted(kids) == children, i
        if children:
            node = tpl["ref"][i]
            slot_of = {(int(k == KIND_INTERNAL), int(r)): s for s, (k, r) in
                       enumerate(zip(level.child_kind[node],
                                     level.child_ref[node]))}
            slots = [slot_of[(int(tpl["kind"][c] in internal_codes),
                              int(tpl["ref"][c]))] for c in kids]
            assert slots == sorted(slots), i
            assert tpl["cmax"][i] == max(tpl["tn"][children])
        else:
            assert tpl["cmax"][i] == -np.inf


def _check_against_oracle(family, cloud, o, d, t_clip, caps):
    """The compiled root and shared-BLAS templates of one ray bundle
    equal the oracle's, root for root."""
    tracer = WavefrontTracer(FAMILIES[family](cloud), SceneShading(cloud),
                             TraceConfig())
    recorder = PacketTraceRecorder(tracer)
    build = kernel("repro.rt", "template_build.c", tracerecord._Build)
    flat = tracer.flat
    tables = flat_tables(flat)
    n = o.shape[0]
    inv_d = 1.0 / np.where(np.abs(d) < 1e-12, 1e-12, d)

    tpl = recorder._templates(build, recorder._root_level, o, inv_d, t_clip,
                              np.zeros(n), caps, 2)
    rows = _visit_rows(tracer._root, o, inv_d, t_clip)
    for r in range(n):
        entries, skips = OracleSim(flat, tables, rows[r])._build_template()
        assert _columns(tpl, r) == (entries, skips), r
    _assert_kids(tpl, tracer._root)

    if not flat.two_level or recorder._sphere_blas:
        return
    # Shared mesh BLAS: one template per live (ray, instance) pair.
    leaf_rays, leaf_refs = tracerecord._leaf_entries(
        tpl, tracerecord._T_TLAS_LEAF)
    rp, _, _, o2, d2 = recorder._instance_pairs(o, d, leaf_rays, leaf_refs)
    if rp.size == 0:
        return
    rtn, rtf, inv_d2 = box_slab(*tracer._blas_root, o2, d2)
    clip = t_clip[rp]
    live = np.nonzero((rtn <= rtf) & (rtf >= 0.0) & (rtn <= clip))[0]
    if live.size == 0:
        return
    level = tracer._blas_level
    btpl = recorder._templates(build, recorder._blas_level, o2[live],
                               inv_d2[live], clip[live], rtn[live], caps, 3)
    brows = _visit_rows(level, o2[live], inv_d2[live], clip[live])
    for p in range(live.size):
        oracle = OracleSim(flat, tables, {}, mesh_nodes={0: brows[p]})
        entries, skips = oracle._build_blas_template(0, float(rtn[live][p]))
        assert _columns(btpl, p) == (entries, skips), p
    _assert_kids(btpl, level)


@pytest.mark.parametrize("family", list(FAMILIES))
@TIER1
@given(n_gaussians=st.integers(6, 80), cloud_seed=st.integers(0, 10_000),
       ray_seed=st.integers(0, 2**16))
def test_templates_match_oracle(family, n_gaussians, cloud_seed, ray_seed):
    cloud = tiny_cloud(n=n_gaussians, seed=cloud_seed)
    o, d, t_clip = _rays(cloud, 10, ray_seed)
    _check_against_oracle(family, cloud, o, d, t_clip,
                          list(tracerecord._WALK_WORDS
                               + tracerecord._TEMPLATE_ENTRIES))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_degenerate_rays_and_small_capacity_match_oracle(family):
    """Axis-parallel rays (exact zero components), ±1e-13 components
    (the ``1e-12`` guard), finite and zero ``t_clip``, from outside and
    inside the cloud, built from a start capacity of three entries so
    every build runs twice."""
    cloud = tiny_cloud(n=40, seed=3)
    eye = default_camera_for(cloud, 4, 4).position
    centre = cloud.means.mean(axis=0)
    d = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                  [1e-13, -1e-13, 1.0], [0.6, 0.8, 0.0],
                  [-1e-13, 0.6, -0.8]])
    d = np.concatenate([d, (centre - eye)[None] / np.linalg.norm(
        centre - eye)])
    n = d.shape[0]
    o = np.concatenate([np.repeat(centre[None], n, axis=0),
                        np.repeat(eye[None], n, axis=0)])
    d = np.concatenate([d, d])
    t_clip = np.tile([np.inf, 2.0, 0.0, 5.0, np.inf, 1.0, 9.0], 2)
    _check_against_oracle(family, cloud, o, d, t_clip, [0, 0, 3, 3])


@pytest.mark.parametrize("family", list(FAMILIES))
def test_template_rerun_records_the_same_traces(family, monkeypatch):
    """A recording whose template columns start a few entries long
    re-runs each build at twice the size it needed and records the
    same traces as one from the default capacities."""
    cloud = tiny_cloud(n=60, seed=11)
    tracer = WavefrontTracer(FAMILIES[family](cloud), SceneShading(cloud),
                             TraceConfig(k=3, checkpointing=True))
    o, d, t_clip = _rays(cloud, 40, 5)
    want_result, want = tracer.trace_packet_recorded(o, d, t_clip)
    monkeypatch.setattr(tracerecord, "_TEMPLATE_ENTRIES", (4, 4))
    got_result, got = tracer.trace_packet_recorded(o, d, t_clip)
    _assert_traces_equal(want, got)
    assert np.array_equal(want_result.colors, got_result.colors)
    assert np.array_equal(want_result.rounds, got_result.rounds)


#: Peak traced bytes per recorded ray on the fixed cloud below: about
#: 0.75x what the per-ray Python template build peaked at (80.5 KB
#: monolithic, 73.8 KB two-level); the numpy build peaked near 40 KB.
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
    """Stands in for the scalar oracle's tables: building it fails."""

    def __init__(self, flat) -> None:
        raise AssertionError("recording built the scalar FlatTables")


@pytest.mark.parametrize("family", ["20-tri", "tlas+ico"])
def test_recording_transient_bounded_by_chunk(family, monkeypatch):
    """Recording's transient memory follows the chunk, not the bundle:
    the traced peak minus what the returned result and traces still
    hold stays under 1.5x its two-chunk value when the bundle is 8x as
    long.  Recording never builds the scalar oracle's tables."""
    monkeypatch.setattr("tests.scalar_oracle.FlatTables", _NoFlatTables)
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
