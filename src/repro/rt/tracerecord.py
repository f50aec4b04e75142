"""Fetch-trace recording on the wavefront frontier.

The scalar :class:`~repro.rt.tracer.Tracer` records per-ray fetch traces
as a side effect of walking the BVH one ray at a time.  This module
teaches the batched engine (:class:`~repro.rt.wavefront.WavefrontTracer`)
to produce the *same* traces from its breadth-first traversal.  A bundle
records in chunks of :data:`_MAX_RECORD_PACKET` rays (the modelled warp
size), each taken through two phases before the next starts, so only
the finished traces outlive a chunk:

**Phase A — batched geometry and round templates.**  One recording
frontier traversal per chunk visits every ``(ray, node)`` pair
reachable with ``t_min = 0`` and no ``t_max`` — a superset of what any
tracing round visits — and logs each level's ``(depth, rays, nodes, tn,
tf, hit)`` rows: every visiting pair's child slab results and accept
mask.  :func:`build_templates` folds that log into every ray's *round
template* with numpy: the ray's DFS visit sequence (node ordering
depends only on per-ray entry distances, which are round-invariant) as
CSR columns ``(kind, tn, tf, ref, skip)`` — subtree sizes bottom-up
over the logged levels, preorder positions top-down with siblings in
pop order (ascending ``tn``, ties in reverse slot order), and ``skip``
= position + subtree size.  Leaf pairs feed one masked Möller–Trumbore
over all candidate pairs, batched instance transforms, one shared-BLAS
frontier traversal per chunk (whose log yields per-instance BLAS
templates the same way), and one vectorized canonical any-hit
evaluation per candidate ``(ray, gaussian)`` pair.  The shade/blend
stage then runs on exactly the candidate sets a plain ``trace_packet``
would build, so the recorded render's
:class:`~repro.rt.kernels.PacketResult` matches the plain path.

**Phase B — per-ray control-flow replay.**  Each tracing round is a
linear walk of the ray's template — two comparisons per entry
(``tf < t_min`` / ``tn > t_max``) with subtree skipping — that replays
the scalar tracer's exact algorithm: interval bounds, k-buffer
semantics, shrinking ``t_max``, frontier carry-over and blend
termination.  With GRTX-HW checkpointing a checkpoint is a template
index plus its stored ``t`` (an instance checkpoint carries the
Gaussian and its TLAS leaf address instead); checkpoints are written in
the scalar's order, and the next round resumes them nearest first over
their subtree ``[i, skip[i])``, prefilled from the scalar's
:class:`~repro.rt.kbuffer.EvictionBuffer`.  The emitted
:class:`~repro.rt.recorder.RayTrace` streams are event-for-event what
the scalar recorder produces — same addresses, sizes, kinds, test
counts, prefetch lists, per-round counters, checkpoint/eviction counts
and high-water marks, and round structure — so :func:`repro.hwsim.replay`
accepts either engine's traces interchangeably.

Equivalence argument: a round's DFS visits a node iff every ancestor
accepted it under the round's ``(t_min, t_max, t_clip)`` interval, and
each such accept implies the template's weaker ``(0, inf, t_clip)``
accept — so the template contains every node any round can visit, in
the round's visit order (pruning removes contiguous subtree blocks
without reordering survivors, and ``t_max`` at an entry's walk position
is exactly the scalar's value at that node's pop).  A resumed
checkpoint's subtree is a contiguous template block in the same DFS
order.  The static fetch records and leaf slices are read straight from
the :class:`~repro.bvh.flatten.FlatStructure` arrays the scalar tracer's
tables are built from, so the two recorders cannot drift on what a
structure looks like (the trace-equality suites hold them together).

Recording covers every flattenable structure with at most one shared
BLAS (:func:`recordable`); a heterogeneous multi-BLAS structure records
on the scalar tracer.
"""

from __future__ import annotations

import weakref
from operator import itemgetter

import numpy as np

from repro.bvh.flatten import BLAS_SPHERE, PRIMS_GAUSSIANS, PRIMS_TRIANGLES
from repro.bvh.layout import (
    INSTANCE_BYTES,
    LEAF_HEADER_BYTES,
    SPHERE_PRIM_BYTES,
    internal_node_bytes,
)
from repro.bvh.node import KIND_EMPTY, KIND_INTERNAL, KIND_LEAF
from repro.obs import span
from repro.rt.kbuffer import EvictionBuffer, KBuffer, KBufferEntry
from repro.rt.kernels import (
    PacketResult,
    box_slab,
    empty_result,
    entering_hits,
    expand_pairs,
    shade_and_blend,
    to_object_space,
    unit_box_slab,
)
from repro.rt.recorder import (
    FETCH_INTERNAL,
    FETCH_LEAF,
    PRIM_CUSTOM,
    PRIM_SPHERE,
    PRIM_TRANSFORM,
    PRIM_TRI,
    RayTrace,
)
from repro.rt.shading import ALPHA_MAX, ALPHA_MIN

_INF = float("inf")

_get0 = itemgetter(0)


def recordable(flat) -> bool:
    """Whether the frontier recorder covers a flattened structure: every
    structure with at most one shared BLAS.  The one recording limit —
    a heterogeneous multi-BLAS structure records on the scalar tracer."""
    return not flat.two_level or len(flat.blas) == 1


def _leaf_columns(level, l_rays, l_refs):
    """``(ray, primitive, leaf)`` candidate columns for accepted
    ``(ray, leaf)`` pairs."""
    rp, pp = expand_pairs(level, l_rays, l_refs)
    return rp, pp, np.repeat(l_refs, level.leaf_count[l_refs])


#: Rays per recording chunk: the modelled warp size.  A chunk's frontier
#: log, round templates, Möller–Trumbore temporaries and any-hit maps
#: live until its traces are built, so the chunk, not the bundle, sets
#: recording's transient memory.  On a 2-core host, recording a 576-ray
#: frame (24x24, ``train`` at 1/400, ``20-tri``, k=8) peaked at
#: 178/190/216/275/367/818 MB RSS with 8/16/32/64/128/1,024-ray chunks
#: and took 5.1-5.9 s at every chunk up to 128 (6.8 s at 1,024).
_MAX_RECORD_PACKET = 32

# Template entry kinds.  ``tn``/``tf`` of an entry are the ray's slab
# result at the entry's parent (the per-round residual tests), ``ref``
# indexes the structure's static tables (pre-baked fetch records, leaf
# slots, primitive slices).
_T_NODE = 0         # internal node without leaf children
_T_NODE_PF = 1      # internal node with (prefetchable) leaf children
_T_TRI_LEAF = 2     # monolithic triangle-proxy leaf
_T_CUSTOM_LEAF = 3  # monolithic custom-primitive leaf
_T_TLAS_LEAF = 4    # TLAS instance leaf
_T_BLAS_LEAF = 5    # shared mesh-BLAS leaf

# Checkpoint tags: ``(t, _CK_TEMPLATE, index)`` resumes a root-level
# template subtree; ``(t, _CK_INSTANCE, gid, inst_addr)`` re-fetches an
# instance and re-runs it; ``(t, _CK_BLAS, gid, inst_addr, index)``
# re-fetches an instance and resumes inside its BLAS template.
_CK_TEMPLATE = 0
_CK_INSTANCE = 1
_CK_BLAS = 2

_INSTANCE_REC = (INSTANCE_BYTES, FETCH_LEAF, 0, 1, PRIM_TRANSFORM, 0)


class Templates:
    """Round templates of a bundle of traversal roots, as CSR columns.

    Root ``r``'s template is ``[ptr[r], ptr[r + 1])`` of the entry
    columns ``kind``, ``tn``, ``tf``, ``ref`` and ``skip`` (the first
    index past the entry's subtree).  ``kptr``/``kids`` list each
    entry's children in slot order (prefetch lists and checkpoints at
    the parent follow slot order); ``cmax`` is the largest child ``tn``.
    """

    __slots__ = ("ptr", "kind", "tn", "tf", "ref", "skip", "kptr", "kids",
                 "cmax")

    def __init__(self, ptr, kind, tn, tf, ref, skip, kptr, kids, cmax):
        self.ptr = ptr
        self.kind = kind
        self.tn = tn
        self.tf = tf
        self.ref = ref
        self.skip = skip
        self.kptr = kptr
        self.kids = kids
        self.cmax = cmax

    def lists(self, a: int, b: int, *extra) -> tuple:
        """Entries ``[a, b)`` (whole templates) as plain lists indexed
        from 0: ``(kind, tn, tf, ref, skip, kptr, kids, cmax)``, then
        the same slice of each per-entry column in ``extra``."""
        k0, k1 = int(self.kptr[a]), int(self.kptr[b])
        return (self.kind[a:b].tolist(), self.tn[a:b].tolist(),
                self.tf[a:b].tolist(), self.ref[a:b].tolist(),
                (self.skip[a:b] - a).tolist(),
                (self.kptr[a:b + 1] - k0).tolist(),
                (self.kids[k0:k1] - a).tolist(),
                self.cmax[a:b].tolist(),
                *(col[a:b].tolist() for col in extra))


def build_templates(level, root_tn, log, node_code, leaf_code) -> Templates:
    """Every root's round template from one recording traversal's
    frontier log (``(depth, rays, nodes, tn, tf, hit)`` slices in level
    order, as :meth:`~repro.rt.wavefront.WavefrontTracer._traverse_wave`
    writes it).

    ``root_tn`` is each root entry's ``tn`` (its ``tf`` is ``inf``);
    ``node_code`` maps a node id to its entry kind and ``leaf_code`` is
    the kind of every leaf entry.  An entry is an internal node's log
    row or an accepted leaf slot; a root's template is its entries in
    the scalar DFS order.
    """
    n = root_tn.shape[0]
    rays = np.concatenate([s[1] for s in log])
    nodes = np.concatenate([s[2] for s in log])
    depth = np.concatenate([np.full(s[1].size, s[0], dtype=np.int64)
                            for s in log])
    n_rows = rays.size
    # Accepted children in (row, slot) order — slot order per parent.
    parts = []
    base = 0
    for _, fr, _, tn, tf, hit in log:
        pp, ss = np.nonzero(hit)
        parts.append((pp + base, ss, tn[pp, ss], tf[pp, ss]))
        base += fr.size
    parent = np.concatenate([q[0] for q in parts])
    slot = np.concatenate([q[1] for q in parts])
    c_tn = np.concatenate([q[2] for q in parts])
    c_tf = np.concatenate([q[3] for q in parts])
    del parts
    c_kind = level.child_kind[nodes[parent], slot]
    c_ref = level.child_ref[nodes[parent], slot]
    internal = c_kind == KIND_INTERNAL
    n_leaves = int(np.count_nonzero(~internal))

    # Entry ids: log rows first, then leaf slots.  An accepted internal
    # child is the next level's row of the same (root, node).
    n_nodes = level.child_kind.shape[0]
    row_key = rays * n_nodes + nodes
    sorter = np.argsort(row_key)
    child_key = rays[parent[internal]] * n_nodes + c_ref[internal]
    entry = np.empty(parent.size, dtype=np.int64)
    entry[internal] = sorter[np.searchsorted(row_key, child_key,
                                             sorter=sorter)]
    entry[~internal] = n_rows + np.arange(n_leaves)
    n_entries = n_rows + n_leaves

    n_levels = int(depth[-1]) + 1
    level_row = np.searchsorted(depth, np.arange(n_levels + 1))
    level_child = np.searchsorted(parent, level_row)

    # Subtree sizes, bottom-up over the levels.
    size = np.ones(n_entries, dtype=np.int64)
    for d in range(n_levels - 1, -1, -1):
        a, b = level_child[d], level_child[d + 1]
        if a < b:
            r0, r1 = level_row[d], level_row[d + 1]
            size[r0:r1] += np.bincount(
                parent[a:b] - r0, weights=size[entry[a:b]],
                minlength=r1 - r0).astype(np.int64)

    # Preorder positions, top-down: siblings in pop order (ascending tn,
    # ties in reverse slot order — the reverse of the scalar's stable
    # descending-tn push order), each after its earlier siblings'
    # subtrees.  The sort's primary key is the parent, so every level's
    # children stay one block.
    order = np.lexsort((-slot, c_tn, parent))
    o_entry = entry[order]
    o_parent = parent[order]
    o_size = size[o_entry]
    before = np.cumsum(o_size) - o_size
    first = np.ones(order.size, dtype=bool)
    first[1:] = o_parent[1:] != o_parent[:-1]
    before -= before[first][np.cumsum(first) - 1]
    pos = np.zeros(n_entries, dtype=np.int64)
    for d in range(n_levels):
        a, b = level_child[d], level_child[d + 1]
        pos[o_entry[a:b]] = pos[o_parent[a:b]] + 1 + before[a:b]
    del order, o_entry, o_parent, o_size, before, first

    n_roots = int(level_row[1])
    root_size = np.zeros(n, dtype=np.int64)
    root_size[rays[:n_roots]] = size[:n_roots]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(root_size, out=ptr[1:])
    e_root = np.concatenate([rays, rays[parent[~internal]]])
    g = ptr[e_root] + pos
    del pos, e_root

    kind = np.empty(n_entries, dtype=np.int8)
    kind[g[:n_rows]] = node_code[nodes]
    kind[g[n_rows:]] = leaf_code
    ref = np.empty(n_entries, dtype=np.int64)
    ref[g[:n_rows]] = nodes
    ref[g[n_rows:]] = c_ref[~internal]
    tn = np.empty(n_entries)
    tf = np.empty(n_entries)
    g_child = g[entry]
    tn[g_child] = c_tn
    tf[g_child] = c_tf
    g_root = g[:n_roots]
    tn[g_root] = root_tn[rays[:n_roots]]
    tf[g_root] = _INF
    skip = np.empty(n_entries, dtype=np.int64)
    skip[g] = g + size

    g_parent = g[parent]
    by_parent = np.argsort(g_parent, kind="stable")
    kids = g_child[by_parent]
    kptr = np.zeros(n_entries + 1, dtype=np.int64)
    np.cumsum(np.bincount(g_parent, minlength=n_entries), out=kptr[1:])
    cmax = np.full(n_entries, -_INF)
    np.maximum.at(cmax, g_parent, c_tn)
    return Templates(ptr, kind, tn, tf, ref, skip, kptr, kids, cmax)


def _entry_index(tpl: Templates, code: int, keys_root, keys_ref):
    """Template index of each ``(root, ref)`` leaf entry of kind
    ``code`` named by the key columns (every key must exist)."""
    sel = np.nonzero(tpl.kind == code)[0]
    span = int(tpl.ref.max()) + 1 if tpl.ref.size else 1
    roots = np.repeat(np.arange(tpl.ptr.size - 1), np.diff(tpl.ptr))
    have = roots[sel] * span + tpl.ref[sel]
    sorter = np.argsort(have)
    want = keys_root * span + keys_ref
    return sel[sorter[np.searchsorted(have, want, sorter=sorter)]]


class PacketTraceRecorder:
    """Produces scalar-identical fetch traces from frontier traversal.

    Built once per :class:`~repro.rt.wavefront.WavefrontTracer` (the
    tracer memoizes it); carries only static tables, so one instance
    records any number of ray bundles.
    """

    def __init__(self, tracer) -> None:
        if not recordable(tracer.flat):
            raise NotImplementedError(
                "trace recording supports a single shared BLAS")
        config = tracer.config
        # The tracer memoizes its recorder, so a strong reference back
        # would make a cycle that keeps both (and the per-structure walk
        # constants) alive until a full garbage collection.
        self.tracer = weakref.proxy(tracer)
        self.config = config
        self.flat = tracer.flat
        self.shading = tracer.shading
        self.two_level = tracer.flat.two_level
        self.prims = tracer.flat.root_prims
        if self.two_level:
            self._blas = tracer.flat.blas[0]
            self._sphere_blas = self._blas.kind == BLAS_SPHERE
            if self._sphere_blas:
                sphere_bytes = LEAF_HEADER_BYTES + 24 + SPHERE_PRIM_BYTES
                self._sphere_rec = (self._blas.root_address, sphere_bytes,
                                    FETCH_LEAF, 1, 1, PRIM_SPHERE, 0)
            self._leaf_code = _T_TLAS_LEAF
        else:
            self._blas = None
            self._sphere_blas = False
            self._leaf_code = (_T_TRI_LEAF if self.prims == PRIMS_TRIANGLES
                               else _T_CUSTOM_LEAF)
        # Per-node entry kind: nodes with a leaf child prefetch.
        self._node_code = np.where(
            (tracer.flat.root.child_kind == KIND_LEAF).any(axis=1),
            _T_NODE_PF, _T_NODE).astype(np.int8)
        self._static = None

    def static_recs(self) -> "_StaticRecs":
        """The (lazily built) per-structure walk constants."""
        if self._static is None:
            self._static = _StaticRecs(self)
        return self._static

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def record(self, origins, directions, t_clip=None, label="primary"):
        """Trace a bundle with recording; ``(PacketResult, traces)``.

        The :class:`~repro.rt.kernels.PacketResult` matches a plain
        ``trace_packet`` of the same bundle (the shade/blend stage runs
        on the same candidate sets), with ``rounds`` replaced by the
        reconstruction's exact per-ray round counts.  ``traces`` is one
        :class:`~repro.rt.recorder.RayTrace` per ray, in ray order.
        Records chunk by chunk and emits one ``rt.wavefront.record``
        span with the bundle's ``rays``, ``chunks`` and fetch
        ``events``.
        """
        o = np.ascontiguousarray(origins, dtype=np.float64)
        d = np.ascontiguousarray(directions, dtype=np.float64)
        n = o.shape[0]
        if t_clip is None:
            t_clip = np.full(n, _INF)
        else:
            t_clip = np.asarray(t_clip, dtype=np.float64)
        if n == 0:
            return empty_result(0, self.config.record_blended), []
        chunk = _MAX_RECORD_PACKET
        parts = []
        traces: list[RayTrace] = []
        with span("rt.wavefront.record", rays=n) as record_span:
            for i in range(0, n, chunk):
                part, part_traces = self._record_chunk(
                    o[i:i + chunk], d[i:i + chunk], t_clip[i:i + chunk],
                    label)
                parts.append(part)
                traces.extend(part_traces)
            record_span.args["chunks"] = len(parts)
            record_span.args["events"] = sum(
                rnd.n_fetches for trace in traces for rnd in trace.rounds)
        return (PacketResult.concatenate(parts, self.config.record_blended),
                traces)

    # ------------------------------------------------------------------
    # Phase A — batched geometry and round templates
    # ------------------------------------------------------------------

    def _record_chunk(self, o, d, t_clip, label):
        tracer = self.tracer
        n = o.shape[0]
        safe = np.where(np.abs(d) < 1e-12, 1e-12, d)
        inv_d = 1.0 / safe

        log: list = []
        leaf_rays, leaf_refs = tracer._traverse_wave(
            tracer._root, o, inv_d, t_clip, log=log)
        tpl = build_templates(tracer._root, np.zeros(n), log,
                              self._node_code, self._leaf_code)
        del log

        sph_box = mesh_root = blas = hits = None
        o2c = d2c = None
        if self.prims == PRIMS_TRIANGLES:
            hits, ray_c, gid_c, t_proxy = self._tri_leaf_hits(
                tpl, o, d, leaf_rays, leaf_refs)
        elif self.prims == PRIMS_GAUSSIANS:
            ray_c, gid_c = tracer._wave_customs(leaf_rays, leaf_refs)
            t_proxy = None
        elif self._sphere_blas:
            sph_box, ray_c, gid_c, o2c, d2c = self._sphere_box_tables(
                n, o, d, t_clip, leaf_rays, leaf_refs)
            t_proxy = None
        else:
            (mesh_root, blas, best, pair_ptr,
             ray_c, gid_c, t_proxy, o2c, d2c) = self._mesh_tables(
                n, o, d, t_clip, leaf_rays, leaf_refs)

        result = shade_and_blend(self.shading, self.config, o, d, t_clip,
                                 ray_c, gid_c, t_proxy, o2=o2c, d2=d2c)

        eval_map = self._eval_tables(n, o, d, ray_c, gid_c, o2c, d2c)

        # Phase B — round walks per ray over its template slice.
        traces: list[RayTrace] = []
        rounds_out = np.empty(n, dtype=np.int64)
        t_clip_l = t_clip.tolist()
        ptr = tpl.ptr.tolist()
        for r in range(n):
            trace = RayTrace(label=label)
            a, b = ptr[r], ptr[r + 1]
            cols = tpl.lists(a, b)
            if hits is not None:
                hptr, hit_t, hit_g = hits
                h0, h1 = int(hptr[a]), int(hptr[b])
                cols += ((hptr[a:b + 1] - h0).tolist(),
                         hit_t[h0:h1].tolist(), hit_g[h0:h1].tolist())
            blas_cols = None
            if blas is not None:
                blas_cols = blas.lists(int(blas.ptr[pair_ptr[r]]),
                                       int(blas.ptr[pair_ptr[r + 1]]), best)
            sim = _RaySim(
                self, trace, t_clip_l[r], cols,
                eval_map[r],
                sph_box[r] if sph_box is not None else None,
                mesh_root[r] if mesh_root is not None else None,
                blas_cols,
            )
            rounds_out[r] = sim.run()
            traces.append(trace)
        result.rounds = rounds_out
        return result, traces

    def _tri_leaf_hits(self, tpl, o, d, leaf_rays, leaf_refs):
        """Each triangle-leaf template entry's entering proxy hits as
        the scalar leaf loop sees them — sorted by ``(t, gid)``,
        deduplicated per Gaussian keeping the nearest — as CSR ``(hptr,
        t, gid)`` (``hptr`` per template entry), plus the global
        per-(ray, gid) candidates (nearest entering triangle over all
        leaves, the values the plain path's reduction produces)."""
        rp, tp, lf = _leaf_columns(self.tracer._root, leaf_rays, leaf_refs)
        n_entries = tpl.kind.size
        empty = np.empty(0, dtype=np.int64)
        if rp.size:
            mesh = self.flat.mesh
            sel, t = entering_hits(o[rp], d[rp], tp, mesh.v0, mesh.e1,
                                   mesh.e2)
        if rp.size == 0 or sel.size == 0:
            hits = (np.zeros(n_entries + 1, dtype=np.int64), np.empty(0),
                    empty)
            return hits, empty, empty, np.empty(0)
        hr, hl = rp[sel], lf[sel]
        hg = mesh.owner[tp[sel]]
        # Nearest entering triangle per (ray, leaf, gid)...
        order = np.lexsort((t, hg, hl, hr))
        hr, hl, hg, t = hr[order], hl[order], hg[order], t[order]
        first = np.ones(hr.size, dtype=bool)
        first[1:] = ((hr[1:] != hr[:-1]) | (hl[1:] != hl[:-1])
                     | (hg[1:] != hg[:-1]))
        hr, hl, hg, t = hr[first], hl[first], hg[first], t[first]
        # ...then the scalar's (t, gid) iteration order within the leaf,
        # grouped by the leaf's template entry.
        entry = _entry_index(tpl, _T_TRI_LEAF, hr, hl)
        order = np.lexsort((hg, t, entry))
        hptr = np.zeros(n_entries + 1, dtype=np.int64)
        np.cumsum(np.bincount(entry, minlength=n_entries), out=hptr[1:])
        hits = (hptr, t[order], hg[order])
        # Global candidates: nearest entering triangle per (ray, gid) —
        # the min over per-leaf minima equals the plain path's min over
        # all entering hits, bit for bit.
        order = np.lexsort((t, hg, hr))
        cr, cg, ct = hr[order], hg[order], t[order]
        first = np.ones(cr.size, dtype=bool)
        first[1:] = (cr[1:] != cr[:-1]) | (cg[1:] != cg[:-1])
        return hits, cr[first], cg[first], ct[first]

    def _instance_pairs(self, o, d, leaf_rays, leaf_refs):
        """The TLAS (ray, instance) pair bundle with object-space rays —
        the recording twin of the head of the engine's
        ``_wave_instances``."""
        rp, pp = expand_pairs(self.tracer._root, leaf_rays, leaf_refs)
        if rp.size == 0:
            return rp, pp, None, None, None
        gid = self.flat.prim_gid[pp]
        o2, d2 = to_object_space(
            self.flat.inst_w2o_linear[pp], self.flat.inst_w2o_offset[pp],
            o[rp], d[rp])
        return rp, pp, gid, o2, d2

    def _sphere_box_tables(self, n, o, d, t_clip, leaf_rays, leaf_refs):
        """Per (ray, instance): the sphere-BLAS unit-box slab result the
        scalar instance path computes (same exact-zero guard), plus the
        surviving candidate pairs (the plain path's keep mask)."""
        rp, pp, gid, o2, d2 = self._instance_pairs(o, d, leaf_rays,
                                                   leaf_refs)
        out: list[dict] = [dict() for _ in range(n)]
        empty = np.empty(0, dtype=np.int64)
        if rp.size == 0:
            return out, empty, empty, None, None
        tn, tf = unit_box_slab(o2, d2)
        for r, g, a, b in zip(rp.tolist(), gid.tolist(), tn.tolist(),
                              tf.tolist()):
            out[r][g] = (a, b)
        keep = (tn <= tf) & (tf >= 0.0) & (tn <= t_clip[rp])
        return out, rp[keep], gid[keep], o2[keep], d2[keep]

    def _mesh_tables(self, n, o, d, t_clip, leaf_rays, leaf_refs):
        """Per (ray, instance): root-box slab result and the index of the
        pair's BLAS template; the BLAS templates of every live pair,
        ordered by ray (``pair_ptr`` bounds each ray's pairs), and per
        template entry the nearest entering template-triangle depth of a
        leaf (``inf`` for none); plus the surviving candidate pairs with
        their proxy depths (the plain path's
        nearest-entering-template-triangle reduction)."""
        tracer = self.tracer
        rp, pp, gid, o2, d2 = self._instance_pairs(o, d, leaf_rays,
                                                   leaf_refs)
        mesh_root: list[dict] = [dict() for _ in range(n)]
        empty = np.empty(0, dtype=np.int64)
        pair_ptr = [0] * (n + 1)
        none = (mesh_root, None, None, pair_ptr, empty, empty, np.empty(0),
                None, None)
        if rp.size == 0:
            return none
        rtn, rtf, inv_d2 = box_slab(*tracer._blas_roots[0], o2, d2)
        clip = t_clip[rp]
        live = np.nonzero((rtn <= rtf) & (rtf >= 0.0) & (rtn <= clip))[0]
        # Live pairs by ray, so each ray's BLAS templates are one block.
        live = live[np.argsort(rp[live], kind="stable")]
        root_of = np.full(rp.size, -1, dtype=np.int64)
        pair_ptr = np.searchsorted(rp[live], np.arange(n + 1)).tolist()
        tpl = None
        if live.size:
            level = tracer._blas_levels[0]
            o_l, d_l = o2[live], d2[live]
            blog: list = []
            bleaf_rays, bleaf_refs = tracer._traverse_wave(
                level, o_l, inv_d2[live], clip[live], log=blog)
            tpl = build_templates(level, rtn[live], blog,
                                  np.zeros(level.child_kind.shape[0],
                                           dtype=np.int8), _T_BLAS_LEAF)
            del blog
            # Template index local to the pair's ray block.
            ray_base = tpl.ptr[np.asarray(pair_ptr)[rp[live]]]
            root_of[live] = tpl.ptr[:-1] - ray_base
        for r, g, a, b, root in zip(rp.tolist(), gid.tolist(), rtn.tolist(),
                                    rtf.tolist(), root_of.tolist()):
            mesh_root[r][g] = (a, b, root)
        if tpl is None:
            return none

        # Per (pair, BLAS leaf): nearest entering template triangle, at
        # the leaf's template entry.
        blas = self._blas
        best = np.full(tpl.kind.size, _INF)
        pr, tp, lf = _leaf_columns(level, bleaf_rays, bleaf_refs)
        if pr.size:
            sel, t = entering_hits(o_l[pr], d_l[pr], tp, blas.mesh.v0,
                                   blas.mesh.e1, blas.mesh.e2)
        if pr.size == 0 or sel.size == 0:
            return (mesh_root, tpl, best, pair_ptr) + none[4:]
        pr, lf = pr[sel], lf[sel]
        order = np.lexsort((t, lf, pr))
        pr, lf, t = pr[order], lf[order], t[order]
        first = np.ones(pr.size, dtype=bool)
        first[1:] = (pr[1:] != pr[:-1]) | (lf[1:] != lf[:-1])
        pr, lf, t = pr[first], lf[first], t[first]
        best[_entry_index(tpl, _T_BLAS_LEAF, pr, lf)] = t

        # Candidates: nearest entering template triangle per pair (min
        # over per-leaf minima == the plain path's global min).
        order = np.lexsort((t, pr))
        pr2, t2 = pr[order], t[order]
        first = np.ones(pr2.size, dtype=bool)
        first[1:] = pr2[1:] != pr2[:-1]
        sub = live[pr2[first]]
        return (mesh_root, tpl, best, pair_ptr,
                rp[sub], gid[sub], t2[first], o2[sub], d2[sub])

    def _eval_tables(self, n, o, d, ray_c, gid_c, o2, d2):
        """Per (ray, gaussian) canonical any-hit results for every
        candidate pair: ``(t_entry, alpha)`` or ``False`` (rejected) —
        the vectorized mirror of ``SceneShading.evaluate_hit``, sharing
        the shade stage's expressions."""
        shading = self.shading
        out: list[dict] = [dict() for _ in range(n)]
        if ray_c.size == 0:
            return out
        if o2 is None:
            o2, d2 = to_object_space(
                shading.w2o_linear[gid_c], shading.w2o_offset[gid_c],
                o[ray_c], d[ray_c])
        dd = d2[:, 0] * d2[:, 0] + d2[:, 1] * d2[:, 1] + d2[:, 2] * d2[:, 2]
        od = o2[:, 0] * d2[:, 0] + o2[:, 1] * d2[:, 1] + o2[:, 2] * d2[:, 2]
        oo = o2[:, 0] * o2[:, 0] + o2[:, 1] * o2[:, 1] + o2[:, 2] * o2[:, 2]
        valid = dd >= 1e-30
        dd_safe = np.where(valid, dd, 1.0)
        min_sq = oo - od * od / dd_safe
        valid &= min_sq <= 1.0
        t_entry = (-od / dd_safe) - np.sqrt(
            np.maximum((1.0 - min_sq) / dd_safe, 0.0))
        valid &= t_entry > 0.0
        alpha = shading.opacities[gid_c] * np.exp(
            (-0.5 * shading.kappa_sq) * min_sq)
        valid &= alpha >= ALPHA_MIN
        alpha = np.minimum(alpha, ALPHA_MAX)
        for r, g, ok, t, a in zip(ray_c.tolist(), gid_c.tolist(),
                                  valid.tolist(), t_entry.tolist(),
                                  alpha.tolist()):
            out[r][g] = (t, a) if ok else False
        return out


class _StaticRecs:
    """Per-structure constants for template walks, read from the
    flattened arrays: pre-baked fixed-width fetch records, leaf prefetch
    pairs and leaf primitive slices, shared by every ray."""

    __slots__ = (
        "node_rec6", "node_rec7", "leaf_rec7", "leaf_pf", "leaf_addr",
        "leaf_start", "leaf_count", "gids", "bnode_rec7", "bleaf_rec7",
    )

    def __init__(self, rec: PacketTraceRecorder) -> None:
        flat = rec.flat
        bvh = flat.root
        if rec.two_level:
            prim_kind = PRIM_TRANSFORM
        elif rec.prims == PRIMS_TRIANGLES:
            prim_kind = PRIM_TRI
        else:
            prim_kind = PRIM_CUSTOM
        self.node_rec7 = _node_recs(bvh)
        self.node_rec6 = [r[:6] for r in self.node_rec7]
        self.leaf_rec7 = _leaf_recs(bvh, prim_kind)
        self.leaf_addr = bvh.leaf_addr.tolist()
        self.leaf_pf = list(zip(self.leaf_addr, bvh.leaf_bytes.tolist()))
        self.leaf_start = bvh.leaf_start.tolist()
        self.leaf_count = bvh.leaf_count.tolist()
        # Leaf-ordered Gaussian per custom primitive or instance.
        self.gids = (None if flat.prim_gid is None
                     else flat.prim_gid.tolist())
        if rec.two_level and not rec._sphere_blas:
            self.bnode_rec7 = _node_recs(rec._blas.bvh)
            self.bleaf_rec7 = _leaf_recs(rec._blas.bvh, PRIM_TRI)
        else:
            self.bnode_rec7 = self.bleaf_rec7 = None


def _node_recs(bvh) -> list[tuple]:
    """Each internal node's fetch record; its box-test count is the
    number of occupied slots before the first empty one."""
    empty = bvh.child_kind == KIND_EMPTY
    occupied = np.where(empty.any(axis=1), empty.argmax(axis=1), bvh.width)
    nbytes = internal_node_bytes(bvh.width)
    return [(addr, nbytes, FETCH_INTERNAL, boxes, 0, 0, 0)
            for addr, boxes in zip(bvh.node_addr.tolist(),
                                   occupied.tolist())]


def _leaf_recs(bvh, prim_kind: int) -> list[tuple]:
    """Each leaf record's fetch record."""
    return [(addr, nbytes, FETCH_LEAF, 0, count, prim_kind, 0)
            for addr, nbytes, count in zip(bvh.leaf_addr.tolist(),
                                           bvh.leaf_bytes.tolist(),
                                           bvh.leaf_count.tolist())]


class _RaySim:
    """Replays the scalar tracer's control flow for one ray over its
    round template, emitting the ray's fetch trace.

    The template bakes everything round-invariant — the DFS visit order
    (child ordering depends only on per-ray entry distances), the static
    accept tests (``tn <= tf``, ``tf >= 0``, ``tn <= t_clip``) and
    subtree-skip jumps; a round walk applies only the interval residuals
    (``tf >= t_min``, ``tn <= t_max``), mirroring
    :class:`repro.rt.tracer.Tracer` decision for decision (minus color
    math), GRTX-HW checkpoint, eviction and resume rules included.  The
    trace-equivalence test matrix pins the two implementations together.
    """

    __slots__ = (
        "rec", "recs", "config", "hw", "trace", "t_clip", "cols",
        "eval_map", "sph_box", "mesh_root", "blas",
        # per-round state (the scalar _RoundState)
        "t_min", "t_max", "kbuffer", "round_trace", "collect_all", "hits",
        "hits_seen", "frontier", "evict_out", "ckpt_out", "pre",
    )

    def __init__(self, rec: PacketTraceRecorder, trace: RayTrace,
                 t_clip: float, cols, eval_map, sph_box, mesh_root,
                 blas) -> None:
        self.rec = rec
        self.recs = rec.static_recs()
        self.config = rec.config
        self.hw = rec.config.checkpointing
        self.trace = trace
        self.t_clip = t_clip
        self.cols = cols
        self.eval_map = eval_map
        self.sph_box = sph_box
        self.mesh_root = mesh_root
        self.blas = blas

    # -- round drivers (Tracer.trace_ray / _trace_*_round) -------------

    def run(self) -> int:
        """Trace the ray to completion; returns the exact round count."""
        if self.config.mode == "singleround":
            return self._run_single_round()
        return self._run_multi_round()

    def _run_single_round(self) -> int:
        round_trace = self.trace.begin_round()
        self._begin_state(0.0, None, round_trace, collect_all=True)
        self._walk(0)
        hits = sorted(self.hits, key=lambda e: (e.t, e.gaussian_id))
        round_trace.kbuffer_ops += len(hits)
        _, blended, _ = self._blend(hits, 1.0)
        round_trace.blended = blended
        return 1

    def _run_multi_round(self) -> int:
        config = self.config
        hw = self.hw
        trace = self.trace
        t_min = 0.0
        frontier: frozenset[int] = frozenset()
        transmittance = 1.0
        ckpt_src: list = []
        evict_src: list[KBufferEntry] = []
        rounds = 0
        for round_index in range(config.max_rounds):
            round_trace = trace.begin_round()
            rounds += 1
            kbuffer = KBuffer(config.k)
            self._begin_state(t_min, kbuffer, round_trace,
                              collect_all=False, frontier=frontier)
            if hw and round_index > 0:
                self._prefill(evict_src)
                self._resume(ckpt_src)
            else:
                self._walk(0)
            entries = sorted(kbuffer.drain(),
                             key=lambda e: (e.t, e.gaussian_id))
            round_trace.kbuffer_ops += kbuffer.insertions
            if hw:
                evict_out = self.evict_out
                round_trace.evictions_written += len(evict_out)
                if evict_out.high_water > trace.evict_high_water:
                    trace.evict_high_water = evict_out.high_water
                if len(self.ckpt_out) > trace.ckpt_high_water:
                    trace.ckpt_high_water = len(self.ckpt_out)
            if not entries:
                break
            transmittance, blended, terminated = self._blend(
                entries, transmittance)
            round_trace.blended = blended
            if terminated:
                break
            last_t = entries[-1].t
            tied = frozenset(
                e.gaussian_id for e in entries if e.t == last_t)
            frontier = (frontier | tied) if last_t == t_min else tied
            t_min = last_t
            if len(entries) < config.k:
                break
            if hw:
                ckpt_src = self.ckpt_out
                evict_src = self.evict_out.drain_sorted(t_min, frontier)
                if not ckpt_src and not evict_src:
                    break
        return rounds

    def _begin_state(self, t_min, kbuffer, round_trace, collect_all,
                     frontier: frozenset = frozenset()) -> None:
        self.t_min = t_min
        self.t_max = _INF
        self.kbuffer = kbuffer
        self.round_trace = round_trace
        self.collect_all = collect_all
        self.hits = []
        self.hits_seen = set()
        self.frontier = frontier
        self.evict_out = EvictionBuffer()
        self.ckpt_out = []
        #: Template entries checkpointed at their parent this round; a
        #: later failing pop of one is not checkpointed twice.
        self.pre = set()

    def _blend(self, entries, transmittance):
        """The scalar blend loop minus color math: same transmittance
        sequence, so the same blended count and termination decision."""
        blended = 0
        terminated = False
        threshold = self.config.transmittance_min
        for entry in entries:
            transmittance *= 1.0 - entry.alpha
            blended += 1
            if transmittance < threshold:
                terminated = True
                break
        return transmittance, blended, terminated

    # -- GRTX-HW: eviction prefill and checkpoint resume ---------------

    def _checkpoint(self, ck) -> None:
        self.ckpt_out.append(ck)
        self.round_trace.checkpoints_written += 1

    def _prefill(self, evict_src) -> None:
        """``Tracer._prefill_from_evictions``: the first k evicted
        entries seed the k-buffer, the first beyond them sets ``t_max``,
        and the rest carry over to the next eviction buffer."""
        kbuffer = self.kbuffer
        k = kbuffer.k
        for i, entry in enumerate(evict_src):
            if i < k:
                kbuffer.insert(entry)
                continue
            if i == k:
                self.t_max = entry.t
            self.evict_out.push(entry)

    def _resume(self, ckpt_src) -> None:
        """``Tracer._replay_checkpoints``: resume nearest first, each
        checkpoint to completion; one still beyond ``t_max`` is written
        again."""
        trace = self.trace
        for ck in sorted(ckpt_src, key=_get0):
            if ck[0] > self.t_max:
                self._checkpoint(ck)
                continue
            tag = ck[1]
            if tag == _CK_TEMPLATE:
                self._walk(ck[2])
                continue
            gid = ck[2]
            inst_addr = ck[3]
            # Re-fetch the instance record to recover the transform.
            self.round_trace.stream.extend((inst_addr,) + _INSTANCE_REC)
            trace.total_leaf += 1
            if tag == _CK_INSTANCE:
                n_int, n_leaf = self._instance(gid, inst_addr)
            else:
                n_int, n_leaf, best = self._walk_blas(ck[4], gid, inst_addr)
                if best is not None:
                    t_hit = self._anyhit(gid, self.eval_map[gid], best)
                    if t_hit is not None:
                        self._checkpoint((t_hit, _CK_INSTANCE, gid,
                                          inst_addr))
            trace.total_internal += n_int
            trace.total_leaf += n_leaf

    # -- the round walk -------------------------------------------------

    def _walk(self, i: int) -> None:
        """Walk template entry ``i``'s subtree ``[i, skip[i])`` with
        subtree jumps.  Entry ``i`` itself is taken unconditionally: it
        is the round's root or a resumed checkpoint (tested against its
        stored ``t`` by the caller, like the scalar's seed)."""
        recs = self.recs
        trace = self.trace
        rt = self.round_trace
        stream = rt.stream
        emit = stream.extend
        pf_emit = rt.pf.extend
        s_append = stream.append
        t_min = self.t_min
        hw = self.hw
        pre = self.pre
        checkpoint = self._checkpoint
        em = self.eval_map
        node_rec7 = recs.node_rec7
        node_rec6 = recs.node_rec6
        leaf_rec7 = recs.leaf_rec7
        leaf_pf = recs.leaf_pf
        leaf_addr = recs.leaf_addr
        leaf_start = recs.leaf_start
        leaf_count = recs.leaf_count
        gids = recs.gids
        anyhit = self._anyhit
        instance = self._instance
        kinds, tns, tfs, refs, skips, kptr, kids, cmax = self.cols[:8]
        if len(self.cols) > 8:
            hptr, hit_t, hit_g = self.cols[8:]
        end = skips[i]
        n_int = n_leaf = 0
        # Only the any-hits of a leaf move t_max; it is re-read after one.
        t_max = self.t_max

        while True:
            kind = kinds[i]
            ref = refs[i]
            if kind <= _T_NODE_PF:
                if hw and cmax[i] > t_max:
                    # Children failing t_max at the parent, slot order.
                    for c in kids[kptr[i]:kptr[i + 1]]:
                        if tfs[c] >= t_min and tns[c] > t_max:
                            checkpoint((tns[c], _CK_TEMPLATE, c))
                            pre.add(c)
                if kind == _T_NODE:
                    emit(node_rec7[ref])
                else:
                    npf = 0
                    for c in kids[kptr[i]:kptr[i + 1]]:
                        if (kinds[c] > _T_NODE_PF and tfs[c] >= t_min
                                and tns[c] <= t_max):
                            pf_emit(leaf_pf[refs[c]])
                            npf += 1
                    emit(node_rec6[ref])
                    s_append(npf)
                n_int += 1
            else:
                emit(leaf_rec7[ref])
                n_leaf += 1
                beyond = _INF
                if kind == _T_TRI_LEAF:
                    for j in range(hptr[i], hptr[i + 1]):
                        gid = hit_g[j]
                        t_hit = anyhit(gid, em[gid], hit_t[j])
                        if t_hit is not None and t_hit < beyond:
                            beyond = t_hit
                elif kind == _T_CUSTOM_LEAF:
                    start = leaf_start[ref]
                    for slot in range(start, start + leaf_count[ref]):
                        gid = gids[slot]
                        t_hit = anyhit(gid, em[gid], None)
                        if t_hit is not None and t_hit < beyond:
                            beyond = t_hit
                else:  # _T_TLAS_LEAF
                    start = leaf_start[ref]
                    base = leaf_addr[ref] + LEAF_HEADER_BYTES
                    for slot in range(leaf_count[ref]):
                        bi, bl = instance(gids[start + slot],
                                          base + slot * INSTANCE_BYTES)
                        n_int += bi
                        n_leaf += bl
                if hw and beyond < _INF:
                    checkpoint((beyond, _CK_TEMPLATE, i))
                t_max = self.t_max
            i += 1
            # Skip subtrees failing the round's interval; one failing
            # t_max at its pop is checkpointed (unless its parent did).
            while i < end:
                if tfs[i] < t_min:
                    i = skips[i]
                elif tns[i] > t_max:
                    if hw and i not in pre:
                        checkpoint((tns[i], _CK_TEMPLATE, i))
                    i = skips[i]
                else:
                    break
            if i >= end:
                break

        trace.total_internal += n_int
        trace.total_leaf += n_leaf

    def _instance(self, gid: int, inst_addr: int) -> tuple[int, int]:
        """``Tracer._process_instance``: the shared-BLAS test of one
        instance.  Returns its ``(internal, leaf)`` fetch counts."""
        t_min = self.t_min
        if self.rec._sphere_blas:
            sphere_rec = self.rec._sphere_rec
            self.round_trace.stream.extend(sphere_rec)
            itn, itf = self.sph_box[gid]
            if itn > itf or itf < t_min or itf < 0.0 or itn > self.t_clip:
                return 0, 1
            if itn > self.t_max:
                if self.hw:
                    self._checkpoint((itn, _CK_INSTANCE, gid, inst_addr))
                return 0, 1
            t_hit = self._anyhit(gid, self.eval_map[gid], None)
            if t_hit is not None and self.hw:
                self._checkpoint((t_hit, _CK_INSTANCE, gid, inst_addr))
            return 0, 1
        rtn, rtf, root = self.mesh_root[gid]
        if rtn > rtf or rtf < t_min or rtf < 0.0 or rtn > self.t_clip:
            return 0, 0
        if rtn > self.t_max:
            if self.hw:
                self._checkpoint((rtn, _CK_INSTANCE, gid, inst_addr))
            return 0, 0
        n_int, n_leaf, best = self._walk_blas(root, gid, inst_addr)
        if best is not None:
            t_hit = self._anyhit(gid, self.eval_map[gid], best)
            if t_hit is not None and self.hw:
                self._checkpoint((t_hit, _CK_INSTANCE, gid, inst_addr))
        return n_int, n_leaf

    def _walk_blas(self, i: int, gid: int, inst_addr: int):
        """One shared-BLAS sub-traversal over BLAS template entry ``i``'s
        subtree, entry ``i`` taken unconditionally.  ``t_max`` is frozen
        inside (the any-hit runs after the walk), so a child failing it
        fails at its parent, where it is checkpointed in slot order.
        Returns ``(internal fetches, leaf fetches, nearest entering
        template-triangle t or None)``."""
        recs = self.recs
        rt = self.round_trace
        emit = rt.stream.extend
        bnode_rec7 = recs.bnode_rec7
        bleaf_rec7 = recs.bleaf_rec7
        t_min = self.t_min
        t_max = self.t_max
        hw = self.hw
        kinds, tns, tfs, refs, skips, kptr, kids, cmax, bests = self.blas
        end = skips[i]
        n_int = n_leaf = 0
        best = _INF
        while True:
            ref = refs[i]
            if kinds[i] == _T_NODE:
                if hw and cmax[i] > t_max:
                    for c in kids[kptr[i]:kptr[i + 1]]:
                        if tfs[c] >= t_min and tns[c] > t_max:
                            self._checkpoint((tns[c], _CK_BLAS, gid,
                                              inst_addr, c))
                emit(bnode_rec7[ref])
                n_int += 1
            else:  # _T_BLAS_LEAF
                emit(bleaf_rec7[ref])
                n_leaf += 1
                if bests[i] < best:
                    best = bests[i]
            i += 1
            while i < end and (tfs[i] < t_min or tns[i] > t_max):
                i = skips[i]
            if i >= end:
                break
        return n_int, n_leaf, (best if best < _INF else None)

    # -- canonical any-hit (Tracer._anyhit) ----------------------------

    def _anyhit(self, gid: int, result, t_depth: float | None):
        """Returns the hit's depth when it fails ``t_max`` (the caller
        checkpoints its enclosing node), else ``None``."""
        if result is False:
            self.round_trace.false_positives += 1
            return None
        t_exact, alpha = result
        t_hit = t_exact if t_depth is None else t_depth

        if t_hit > self.t_clip:
            return None

        if self.collect_all:
            if t_hit > self.t_min and gid not in self.hits_seen:
                self.hits_seen.add(gid)
                self.round_trace.anyhit_calls += 1
                self.hits.append(KBufferEntry(t_hit, gid, alpha))
            return None

        if t_hit < self.t_min or (t_hit == self.t_min
                                  and gid in self.frontier):
            return None
        if t_hit > self.t_max:
            return t_hit
        kbuffer = self.kbuffer
        if gid in kbuffer:
            return None
        self.round_trace.anyhit_calls += 1
        rejected = kbuffer.insert(KBufferEntry(t_hit, gid, alpha))
        if rejected is not None:
            if self.hw:
                self.evict_out.push(rejected)
            if rejected.gaussian_id == gid:
                # The new hit itself was beyond the k closest: the
                # shader reports it, shrinking t_max (Listing 1, lines
                # 18-20).
                self.t_max = t_hit
        return None
