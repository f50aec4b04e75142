"""Compiled triangle-leaf hits against numpy Möller–Trumbore.

``leaf_hits.c`` intersects every triangle-leaf entry of a template set
with its root's ray and reduces the hits in C.  The oracle here is the
numpy path it replaced: :func:`repro.rt.kernels.entering_hits` over the
expanded ``(ray, triangle)`` candidate pairs, followed by the lexsort
reductions — per leaf entry the nearest hit per Gaussian in ``(t,
gid)`` order plus per ``(root, gid)`` candidates for monolithic
proxies, per leaf entry and per root the nearest hit for the shared
mesh BLAS.  Every output column must be bit-equal (``np.array_equal``),
in both modes, on hand-built boundary cases (``det`` exactly ``-1e-12``,
``u == 0``, ``u + v == 1``, ``t`` just above 0, empty leaves, one
Gaussian owning several entering triangles at tied ``t``), on generated
template sets and on the templates of recorded families.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.native import kernel
from repro.rt import SceneShading, TraceConfig, WavefrontTracer, tracerecord
from repro.rt.kernels import box_slab, entering_hits, expand_pairs
from repro.rt.tracerecord import PacketTraceRecorder

from tests.conftest import tiny_cloud
from tests.test_differential import FAMILIES, _rays

TIER1 = settings(max_examples=30, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

_INF = float("inf")


def _first(*keys):
    """Mask of the first row of each run of equal ``keys``."""
    first = np.ones(keys[0].size, dtype=bool)
    if keys[0].size:
        first[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return first


def oracle(tpl, level, mesh, o, d):
    """The numpy leaf-hit stage: candidate expansion, ``entering_hits``
    and the lexsort reductions, returning what ``_leaf_hits`` returns
    plus ``n_hits``."""
    blas = mesh.owner is None
    code = tracerecord._T_BLAS_LEAF if blas else tracerecord._T_TRI_LEAF
    m = tpl["kind"].size
    entries = np.nonzero(tpl["kind"] == code)[0]
    roots = np.searchsorted(tpl["ptr"], entries, side="right") - 1
    refs = tpl["ref"][entries]
    rp, tp = expand_pairs(level, roots, refs)
    le = np.repeat(entries, level.leaf_count[refs])
    if rp.size:
        sel, t = entering_hits(o[rp], d[rp], tp, mesh.v0, mesh.e1, mesh.e2)
    else:
        sel, t = rp, np.empty(0)
    hr, he, tp = rp[sel], le[sel], tp[sel]
    if blas:
        # Nearest hit per leaf entry, then per root.
        order = np.lexsort((t, he))
        hr, he, t = hr[order], he[order], t[order]
        keep = _first(he)
        hr, he, t = hr[keep], he[keep], t[keep]
        best = np.full(m, _INF)
        best[he] = t
        order = np.lexsort((t, hr))
        hr, t = hr[order], t[order]
        keep = _first(hr)
        return {"c_root": hr[keep], "c_t": t[keep], "bbest": best,
                "n_hits": he.size}
    # Nearest hit per (leaf entry, gid)...
    hg = mesh.owner[tp]
    order = np.lexsort((t, hg, he))
    hr, he, hg, t = hr[order], he[order], hg[order], t[order]
    keep = _first(he, hg)
    hr, he, hg, t = hr[keep], he[keep], hg[keep], t[keep]
    # ...in (t, gid) order within each leaf entry...
    order = np.lexsort((hg, t, he))
    hptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(he, minlength=m), out=hptr[1:])
    out = {"hptr": hptr, "hit_t": t[order], "hit_g": hg[order],
           "n_hits": he.size}
    # ...and the nearest per (root, gid) over all leaves.
    order = np.lexsort((t, hg, hr))
    hr, hg, t = hr[order], hg[order], t[order]
    keep = _first(hr, hg)
    out.update(c_root=hr[keep], c_gid=hg[keep], c_t=t[keep])
    return out


def _check(tpl, level, mesh, o, d):
    """``leaf_hits.c`` equals the oracle column for column, and the
    work counters count its candidates and kept hits."""
    fn = kernel("repro.rt", "leaf_hits.c", tracerecord._Hits)
    work = {"candidates": 0, "hits": 0}
    got = PacketTraceRecorder._leaf_hits(fn, tpl, level, mesh, o, d, work)
    want = oracle(tpl, level, mesh, o, d)
    assert work["hits"] == want.pop("n_hits")
    code = (tracerecord._T_BLAS_LEAF if mesh.owner is None
            else tracerecord._T_TRI_LEAF)
    assert work["candidates"] == level.leaf_count[
        tpl["ref"][tpl["kind"] == code]].sum()
    assert got.keys() == want.keys()
    for name, col in want.items():
        assert got[name].dtype == col.dtype, name
        assert np.array_equal(got[name], col), name
    return want


def _set(roots, leaves, tris, blas):
    """A template set, its leaf level and a mesh from plain lists:
    ``roots`` is per root a list of entries (a leaf index, or ``None``
    for an internal node), ``leaves`` ``(start, count)`` pairs, ``tris``
    ``(v0, e1, e2, owner)`` rows."""
    code = tracerecord._T_BLAS_LEAF if blas else tracerecord._T_TRI_LEAF
    sizes = [len(entries) for entries in roots]
    flat = [entry for entries in roots for entry in entries]
    tpl = {"ptr": np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
           "kind": np.array([tracerecord._T_NODE if e is None else code
                             for e in flat], dtype=np.int8),
           "ref": np.array([0 if e is None else e for e in flat],
                           dtype=np.int64)}
    leaves = np.array(leaves, dtype=np.int64).reshape(-1, 2)
    level = SimpleNamespace(leaf_start=leaves[:, 0].copy(),
                            leaf_count=leaves[:, 1].copy())
    cols = [np.array([row[i] for row in tris], dtype=np.float64).reshape(-1, 3)
            for i in range(3)]
    owner = None if blas else np.array([row[3] for row in tris],
                                       dtype=np.int64)
    return tpl, level, SimpleNamespace(v0=cols[0], e1=cols[1], e2=cols[2],
                                       owner=owner)


def _on_ray(u, v, t, a=1.0, b=1.0, owner=0):
    """A triangle with edges ``a * x`` and ``b * y``, placed so that the
    ray from the origin along ``+z`` meets it at ``(u, v, t)``; with
    ``a = b = 1`` numpy computes ``u``, ``v`` and ``t`` exactly."""
    return ((-u * a, -v * b, t), (a, 0.0, 0.0), (0.0, b, 0.0), owner)


#: Boundary triangles for the ray from the origin along ``+z``, and
#: whether ``entering_hits`` keeps each.
_BOUNDARY = [
    (_on_ray(0.0, 0.5, 1.0), True),                  # u == 0
    (_on_ray(0.25, 0.75, 1.0), True),                # u + v == 1
    (_on_ray(0.25, 0.75 + 2.0 ** -52, 1.0), False),  # u + v just over 1
    (_on_ray(-2.0 ** -60, 0.5, 1.0), False),         # u just below 0
    (_on_ray(1.0, 0.0, 1.0), True),                  # u == 1, v == 0
    (_on_ray(0.5, 0.25, 2.0 ** -60), True),          # t just above 0
    (_on_ray(0.5, 0.25, 0.0), False),                # t == 0
    (_on_ray(0.5, 0.25, -1.0), False),               # behind the origin
    (_on_ray(0.5, 0.25, 1.0, a=1e-12), True),        # det == -1e-12
    (_on_ray(0.5, 0.25, 1.0, a=np.nextafter(1e-12, 0.0)), False),
    (_on_ray(0.5, 0.25, 1.0, b=-1.0), False),        # back face
]


def _boundary_set(blas):
    """The boundary triangles in two leaves, then tied hits: one
    Gaussian owning three entering triangles at ``t = 2`` (two of them
    identical) next to another Gaussian at the same ``t``, and an empty
    leaf; visited by an axis ray, a ray with ±1e-13 components, a ray
    with no leaves and an oblique ray."""
    tris = [tri for tri, _ in _BOUNDARY] + [
        _on_ray(0.25, 0.25, 2.0, owner=3), _on_ray(0.25, 0.25, 2.0, owner=3),
        _on_ray(0.5, 0.25, 2.0, owner=3), _on_ray(0.1, 0.1, 2.0, owner=1),
        _on_ray(0.2, 0.2, 1.5, owner=2)]
    n = len(_BOUNDARY)
    leaves = [(0, 6), (6, n - 6), (n, 5), (n, 0), (n + 1, 2)]
    roots = [[None, 0, None, 1, 2, 3], [None, 2, 4, 0], [], [None],
             [1, 2, None, 4]]
    o = np.zeros((len(roots), 3))
    d = np.array([[0.0, 0.0, 1.0], [1e-13, -1e-13, 1.0], [0.0, 0.0, 1.0],
                  [0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    o[4] = (-0.3, -0.1, 0.0)
    return (*_set(roots, leaves, tris, blas), o, d)


def test_boundary_cases_hit_as_intended():
    """The hand-built cases sit on the boundaries they name: numpy keeps
    exactly the triangles marked as hits."""
    tpl, level, mesh, o, d = _boundary_set(blas=False)
    n = len(_BOUNDARY)
    sel, _ = entering_hits(np.repeat(o[:1], n, axis=0),
                           np.repeat(d[:1], n, axis=0), np.arange(n),
                           mesh.v0, mesh.e1, mesh.e2)
    assert sel.tolist() == [i for i, (_, hit) in enumerate(_BOUNDARY) if hit]


@pytest.mark.parametrize("blas", [False, True])
def test_boundary_cases_match_numpy(blas):
    want = _check(*_boundary_set(blas))
    if not blas:
        # Gaussian 3's three tied triangles collapse to one hit, which
        # sorts after Gaussian 1's at the same t.
        row = slice(*want["hptr"][[4, 5]])
        assert want["hit_t"][row].tolist() == [1.5, 2.0, 2.0]
        assert want["hit_g"][row].tolist() == [2, 1, 3]


#: Ray directions: axis-parallel, ±1e-13 components, exact oblique.
_DIRS = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                  [1e-13, -1e-13, 1.0], [-1e-13, 0.6, -0.8],
                  [0.6, 0.8, 0.0]])
#: Barycentrics on and next to the hit boundaries, and hit depths.
_UV = np.array([[0.5, 0.25], [0.0, 0.5], [0.25, 0.75], [1.0, 0.0],
                [-1e-13, 0.5], [0.5, 0.5 + 1e-13]])
_T = np.array([1.0, 2.0, 2.0 ** -60, 0.0])


def _leaf_set(n_roots, n_tris, seed):
    """Rays (half along :data:`_DIRS`) and a triangle mesh whose rows
    are mostly aimed at one ray at a :data:`_UV`/:data:`_T` point and
    facing it (edges sometimes scaled to ``det`` near ``-1e-12``), else
    copies of an earlier row under another or the same owner (tied
    ``t``) or generic; leaves (the first spans every row, others may be
    empty or overlap) and per root up to 8 leaf and internal entries."""
    rng = np.random.default_rng(seed)
    o = rng.uniform(-1.0, 1.0, (n_roots, 3))
    d = rng.normal(size=(n_roots, 3))
    axis = rng.random(n_roots) < 0.5
    d[axis] = _DIRS[rng.integers(len(_DIRS), size=axis.sum())]
    tris = []
    for _ in range(n_tris):
        owner = int(rng.integers(4))
        how = rng.random()
        if how < 0.2 and tris:
            tris.append((*tris[rng.integers(len(tris))][:3], owner))
        elif how < 0.3:
            tris.append((*rng.normal(size=(3, 3)), owner))
        else:
            r = rng.integers(n_roots)
            (u, v), t = _UV[rng.integers(len(_UV))], _T[rng.integers(4)]
            scale = rng.choice([1.0, 1.0, 1e-6], (2, 1))
            e1, e2 = rng.normal(size=(2, 3)) * scale
            if np.dot(d[r], np.cross(e1, e2)) < 0.0:
                (e1, u), (e2, v) = (e2, v), (e1, u)
            tris.append((o[r] + t * d[r] - u * e1 - v * e2, e1, e2, owner))
    starts = rng.integers(n_tris + 1, size=4)
    leaves = [(0, n_tris)] + [(int(a), int(rng.integers(n_tris - a + 1)))
                              for a in starts]
    roots = [[None if rng.random() < 0.3 else int(rng.integers(len(leaves)))
              for _ in range(rng.integers(9))] for _ in range(n_roots)]
    return roots, leaves, tris, o, d


@pytest.mark.parametrize("blas", [False, True])
@TIER1
@given(n_roots=st.integers(1, 6), n_tris=st.integers(0, 24),
       seed=st.integers(0, 2**32 - 1))
def test_generated_leaf_sets_match_numpy(blas, n_roots, n_tris, seed):
    roots, leaves, tris, o, d = _leaf_set(n_roots, n_tris, seed)
    _check(*_set(roots, leaves, tris, blas), o, d)


@pytest.mark.parametrize("family", ["20-tri", "tlas+ico"])
@settings(max_examples=8, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_gaussians=st.integers(6, 60), cloud_seed=st.integers(0, 10_000),
       ray_seed=st.integers(0, 2**16))
def test_recorded_templates_match_numpy(family, n_gaussians, cloud_seed,
                                        ray_seed):
    """On a recorded family's own templates — the root level's
    triangle leaves, or the shared BLAS's per live (ray, instance)
    pair — for rays that include degenerate directions."""
    cloud = tiny_cloud(n=n_gaussians, seed=cloud_seed)
    tracer = WavefrontTracer(FAMILIES[family](cloud), SceneShading(cloud),
                             TraceConfig())
    recorder = PacketTraceRecorder(tracer)
    build = kernel("repro.rt", "template_build.c", tracerecord._Build)
    o, d, t_clip = _rays(cloud, 12, ray_seed)
    n = o.shape[0]
    inv_d = 1.0 / np.where(np.abs(d) < 1e-12, 1e-12, d)
    caps = list(tracerecord._WALK_WORDS + tracerecord._TEMPLATE_ENTRIES)
    tpl = recorder._templates(build, recorder._root_level, o, inv_d, t_clip,
                              np.zeros(n), caps, 2)
    if not tracer.flat.two_level:
        _check(tpl, tracer._root, tracer.flat.mesh, o, d)
        return
    rp, _, _, o2, d2 = recorder._instance_pairs(
        o, d, *tracerecord._leaf_entries(tpl, tracerecord._T_TLAS_LEAF))
    if rp.size == 0:
        return
    rtn, rtf, inv_d2 = box_slab(*tracer._blas_root, o2, d2)
    clip = t_clip[rp]
    live = np.nonzero((rtn <= rtf) & (rtf >= 0.0) & (rtn <= clip))[0]
    if live.size == 0:
        return
    btpl = recorder._templates(build, recorder._blas_level, o2[live],
                               inv_d2[live], clip[live], rtn[live], caps, 3)
    _check(btpl, tracer._blas_level, recorder._blas.mesh, o2[live],
           d2[live])
