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

**Phase B — the compiled round walk.**  Each tracing round is a linear
walk of the ray's template — two comparisons per entry (``tf < t_min``
/ ``tn > t_max``) with subtree skipping — that replays the scalar
tracer's exact algorithm: interval bounds, k-buffer semantics,
shrinking ``t_max``, frontier carry-over and blend termination.  One C
kernel (``round_walk.c``, loaded by :mod:`repro.native`) walks a
chunk's rays over the template CSR columns, reading the per-structure
fetch records and the ``(ray, gid)``-sorted any-hit and instance
tables, and writes each round's fixed-width records, prefetch pairs and
counters to int64 arrays that Python slices into
:class:`~repro.rt.recorder.RayTrace` objects.  With GRTX-HW
checkpointing a checkpoint is a template index plus its stored ``t``
(an instance checkpoint carries the Gaussian and its TLAS leaf address
instead); checkpoints are written in the scalar's order, and the next
round resumes them nearest first over their subtree ``[i, skip[i])``,
prefilled by the scalar's :class:`~repro.rt.kbuffer.EvictionBuffer`
rules.  The emitted streams are event-for-event what the scalar
recorder produces — same addresses, sizes, kinds, test counts, prefetch
lists, per-round counters, checkpoint/eviction counts and high-water
marks, and round structure — so :func:`repro.hwsim.replay` accepts
either engine's traces interchangeably.

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

import ctypes
import weakref
from typing import NamedTuple

import numpy as np

from repro.bvh.flatten import BLAS_SPHERE, PRIMS_GAUSSIANS, PRIMS_TRIANGLES
from repro.bvh.layout import (
    INSTANCE_BYTES,
    LEAF_HEADER_BYTES,
    SPHERE_PRIM_BYTES,
    internal_node_bytes,
)
from repro.bvh.node import KIND_EMPTY, KIND_INTERNAL, KIND_LEAF
from repro.native import kernel
from repro.obs import span
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

#: Starting event and prefetch capacities of a recording's walk arrays,
#: in int64 words; a chunk that outgrows them is walked again at its
#: exact size, and later chunks start there.
_WALK_WORDS = (1 << 16, 1 << 14)

# Template entry kinds (``round_walk.c`` has the same codes).  ``tn``/``tf``
# of an entry are the ray's slab result at the entry's parent (the
# per-round residual tests), ``ref`` indexes the structure's static
# tables (pre-baked fetch records, leaf slots, primitive slices).
_T_NODE = 0         # internal node without leaf children
_T_NODE_PF = 1      # internal node with (prefetchable) leaf children
_T_TRI_LEAF = 2     # monolithic triangle-proxy leaf
_T_CUSTOM_LEAF = 3  # monolithic custom-primitive leaf
_T_TLAS_LEAF = 4    # TLAS instance leaf
_T_BLAS_LEAF = 5    # shared mesh-BLAS leaf

_F64P = ctypes.POINTER(ctypes.c_double)
_I64P = ctypes.POINTER(ctypes.c_int64)
_I8P = ctypes.POINTER(ctypes.c_int8)
_DTYPES = {_F64P: np.float64, _I64P: np.int64, _I8P: np.int8}


class _Walk(ctypes.Structure):
    """``walk_t`` of ``round_walk.c``: one chunk's tables and outputs."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in (
            "k", "max_rounds", "hw", "single", "sphere", "leaf_header",
            "inst_bytes", "n_rays", "ev_cap", "pf_cap", "n_ev", "n_pf",
            "n_rounds")]
        + [("transmittance_min", ctypes.c_double)]
        + [(name, _I64P) for name in (
            "node_rec", "leaf_rec", "bnode_rec", "bleaf_rec", "sphere_rec",
            "inst_rec", "leaf_addr", "leaf_bytes", "leaf_start",
            "leaf_count", "gids", "ptr", "ref", "skip", "kptr", "kids",
            "hptr", "hit_g")]
        + [(name, _F64P) for name in ("tn", "tf", "cmax", "hit_t", "t_clip")]
        + [("kind", _I8P)]
        + [(name, _I64P) for name in ("bref", "bskip", "bkptr", "bkids")]
        + [(name, _F64P) for name in ("btn", "btf", "bcmax", "bbest")]
        + [("bkind", _I8P)]
        + [(name, _I64P) for name in (
            "eptr", "egid", "iptr", "igid", "iroot")]
        + [(name, _F64P) for name in ("et", "ealpha", "itn", "itf")]
        + [("evalid", _I8P)]
        + [(name, _I64P) for name in (
            "events", "pf", "rounds", "rays", "pre")]
        + [("seen", _I8P)]
    )


_FIELD_TYPES = dict(_Walk._fields_)


def _bind(walk: _Walk, arrays: dict, keep: list) -> None:
    """Point ``walk``'s array fields at ``arrays`` (converted to the
    field's dtype, C-contiguous); ``keep`` holds them for the call."""
    for name, arr in arrays.items():
        ctype = _FIELD_TYPES[name]
        arr = np.ascontiguousarray(arr, dtype=_DTYPES[ctype])
        keep.append(arr)
        setattr(walk, name, arr.ctypes.data_as(ctype))


def _ray_table(n: int, rays, gids, prefix: str, **cols) -> dict:
    """Columns keyed by ``(ray, gid)`` as the walk's sorted table:
    ``<prefix>ptr`` bounds each ray's rows, ``<prefix>gid`` ascends
    within them, and each column ``c`` is ``<prefix>c``."""
    order = np.lexsort((gids, rays))
    out = {prefix + "ptr": np.searchsorted(rays[order], np.arange(n + 1)),
           prefix + "gid": gids[order]}
    out.update((prefix + name, col[order]) for name, col in cols.items())
    return out


def _template_arrays(tpl: "Templates", prefix: str = "") -> dict:
    """A template set's per-entry columns, names prefixed as in
    ``walk_t``."""
    return {prefix + name: getattr(tpl, name) for name in tpl._fields[1:]}


class Templates(NamedTuple):
    """Round templates of a bundle of traversal roots, as CSR columns.

    Root ``r``'s template is ``[ptr[r], ptr[r + 1])`` of the entry
    columns ``kind``, ``tn``, ``tf``, ``ref`` and ``skip`` (the first
    index past the entry's subtree).  ``kptr``/``kids`` list each
    entry's children in slot order (prefetch lists and checkpoints at
    the parent follow slot order); ``cmax`` is the largest child ``tn``.
    """

    ptr: np.ndarray
    kind: np.ndarray
    tn: np.ndarray
    tf: np.ndarray
    ref: np.ndarray
    skip: np.ndarray
    kptr: np.ndarray
    kids: np.ndarray
    cmax: np.ndarray


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

    def static_recs(self) -> dict:
        """The (lazily built) per-structure walk constants, read from the
        flattened arrays: fixed-width fetch records, leaf prefetch pairs
        and leaf primitive slices, shared by every ray."""
        if self._static is None:
            flat = self.flat
            bvh = flat.root
            prim_kind = (PRIM_TRANSFORM if self.two_level else PRIM_TRI
                         if self.prims == PRIMS_TRIANGLES else PRIM_CUSTOM)
            recs = {
                "node_rec": _node_recs(bvh),
                "leaf_rec": _leaf_recs(bvh, prim_kind),
                "inst_rec": _recs(0, INSTANCE_BYTES, FETCH_LEAF, 0, 1,
                                  PRIM_TRANSFORM, 0),
                "leaf_addr": bvh.leaf_addr, "leaf_bytes": bvh.leaf_bytes,
                "leaf_start": bvh.leaf_start, "leaf_count": bvh.leaf_count,
            }
            if flat.prim_gid is not None:
                # Leaf-ordered Gaussian per custom primitive or instance.
                recs["gids"] = flat.prim_gid
            if self._sphere_blas:
                recs["sphere_rec"] = _recs(
                    self._blas.root_address,
                    LEAF_HEADER_BYTES + 24 + SPHERE_PRIM_BYTES, FETCH_LEAF,
                    1, 1, PRIM_SPHERE, 0)
            elif self.two_level:
                recs["bnode_rec"] = _node_recs(self._blas.bvh)
                recs["bleaf_rec"] = _leaf_recs(self._blas.bvh, PRIM_TRI)
            self._static = {name: np.ascontiguousarray(arr, dtype=np.int64)
                            for name, arr in recs.items()}
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
        span with the bundle's ``rays``, ``chunks``, fetch ``events``
        and ``kernel="c"``.  Raises
        :class:`~repro.native.NativeUnavailable` without a C compiler.
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
        walk_fn = kernel("repro.rt", "round_walk.c", _Walk)
        chunk = _MAX_RECORD_PACKET
        parts = []
        traces: list[RayTrace] = []
        caps = list(_WALK_WORDS)
        with span("rt.wavefront.record", rays=n, kernel="c") as record_span:
            for i in range(0, n, chunk):
                part, part_traces = self._record_chunk(
                    o[i:i + chunk], d[i:i + chunk], t_clip[i:i + chunk],
                    label, walk_fn, caps)
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

    def _record_chunk(self, o, d, t_clip, label, walk_fn, caps):
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

        tables = {"ptr": tpl.ptr, "t_clip": t_clip,
                  **_template_arrays(tpl)}
        o2c = d2c = t_proxy = None
        if self.prims == PRIMS_TRIANGLES:
            hits, ray_c, gid_c, t_proxy = self._tri_leaf_hits(
                tpl, o, d, leaf_rays, leaf_refs)
            tables.update(zip(("hptr", "hit_t", "hit_g"), hits))
        elif self.prims == PRIMS_GAUSSIANS:
            ray_c, gid_c = tracer._wave_customs(leaf_rays, leaf_refs)
        elif self._sphere_blas:
            inst, ray_c, gid_c, o2c, d2c = self._sphere_box_tables(
                n, o, d, t_clip, leaf_rays, leaf_refs)
            tables.update(inst)
        else:
            inst, ray_c, gid_c, t_proxy, o2c, d2c = self._mesh_tables(
                n, o, d, t_clip, leaf_rays, leaf_refs)
            tables.update(inst)

        result = shade_and_blend(self.shading, self.config, o, d, t_clip,
                                 ray_c, gid_c, t_proxy, o2=o2c, d2=d2c)
        tables.update(self._eval_tables(n, o, d, ray_c, gid_c, o2c, d2c))
        traces, result.rounds = self._walk_rounds(n, tables, label, walk_fn,
                                                  caps)
        return result, traces

    # ------------------------------------------------------------------
    # Phase B — the compiled round walk
    # ------------------------------------------------------------------

    def _walk_rounds(self, n, tables, label, walk_fn, caps):
        """Every ray's rounds over its template in ``round_walk.c``;
        returns one :class:`~repro.rt.recorder.RayTrace` per ray and the
        per-ray round counts.  ``caps`` holds the event and prefetch
        capacities (see :data:`_WALK_WORDS`) and keeps the larger."""
        config = self.config
        single = config.mode == "singleround"
        walk = _Walk(
            k=config.k, max_rounds=config.max_rounds,
            hw=config.checkpointing, single=single, sphere=self._sphere_blas,
            leaf_header=LEAF_HEADER_BYTES, inst_bytes=INSTANCE_BYTES,
            n_rays=n, transmittance_min=config.transmittance_min)
        rounds = np.empty((n * (1 if single else config.max_rounds), 8),
                          dtype=np.int64)
        rays = np.empty((n, 5), dtype=np.int64)
        keep: list = []
        _bind(walk, {**self.static_recs(), **tables, "rounds": rounds,
                     "rays": rays}, keep)
        while True:
            events = np.empty(caps[0], dtype=np.int64)
            pf = np.empty(caps[1], dtype=np.int64)
            # Scratch: per-entry checkpoint stamps, per-candidate flags.
            _bind(walk, {"events": events, "pf": pf,
                         "pre": np.zeros(tables["kind"].size, np.int64),
                         "seen": np.zeros(tables["egid"].size, np.int8)},
                  keep)
            walk.ev_cap, walk.pf_cap = caps
            err = walk_fn(ctypes.byref(walk))
            if err:
                raise RuntimeError(f"round_walk failed with code {err}")
            if walk.n_ev <= caps[0] and walk.n_pf <= caps[1]:
                break
            caps[:] = max(caps[0], walk.n_ev), max(caps[1], walk.n_pf)

        ev = memoryview(events).cast("B")
        pfb = memoryview(pf).cast("B")
        counts = rounds[:walk.n_rounds].tolist()
        traces: list[RayTrace] = []
        e0 = p0 = j = 0
        for n_rounds, *totals in rays.tolist():
            trace = RayTrace(label=label)
            (trace.total_internal, trace.total_leaf, trace.ckpt_high_water,
             trace.evict_high_water) = totals
            for e1, p1, *row in counts[j:j + n_rounds]:
                rnd = trace.begin_round()
                rnd.stream.frombytes(ev[8 * e0:8 * e1])
                rnd.pf.frombytes(pfb[8 * p0:8 * p1])
                (rnd.anyhit_calls, rnd.kbuffer_ops, rnd.false_positives,
                 rnd.blended, rnd.checkpoints_written,
                 rnd.evictions_written) = row
                e0, p0 = e1, p1
            j += n_rounds
            traces.append(trace)
        return traces, rays[:, 0].copy()

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
        scalar instance path computes (same exact-zero guard), as the
        walk's ``i*`` table, plus the surviving candidate pairs (the
        plain path's keep mask)."""
        rp, pp, gid, o2, d2 = self._instance_pairs(o, d, leaf_rays,
                                                   leaf_refs)
        if rp.size == 0:
            none = np.empty(0)
            return (_ray_table(n, rp, rp, "i", tn=none, tf=none), rp, rp,
                    None, None)
        tn, tf = unit_box_slab(o2, d2)
        keep = (tn <= tf) & (tf >= 0.0) & (tn <= t_clip[rp])
        return (_ray_table(n, rp, gid, "i", tn=tn, tf=tf), rp[keep],
                gid[keep], o2[keep], d2[keep])

    def _mesh_tables(self, n, o, d, t_clip, leaf_rays, leaf_refs):
        """Per (ray, instance), as the walk's ``i*`` table: root-box slab
        result and the global index of the pair's BLAS template (-1 for
        a pair that misses the root box); the BLAS templates of every
        live pair as the ``b*`` columns, with per template entry the
        nearest entering template-triangle depth of a leaf (``bbest``,
        ``inf`` for none); plus the surviving candidate pairs with their
        proxy depths (the plain path's
        nearest-entering-template-triangle reduction)."""
        tracer = self.tracer
        rp, pp, gid, o2, d2 = self._instance_pairs(o, d, leaf_rays,
                                                   leaf_refs)
        if rp.size == 0:
            none = np.empty(0)
            return (_ray_table(n, rp, rp, "i", tn=none, tf=none, root=rp),
                    rp, rp, none, None, None)
        rtn, rtf, inv_d2 = box_slab(*tracer._blas_roots[0], o2, d2)
        clip = t_clip[rp]
        live = np.nonzero((rtn <= rtf) & (rtf >= 0.0) & (rtn <= clip))[0]
        root = np.full(rp.size, -1, dtype=np.int64)
        tables = {}
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
            root[live] = tpl.ptr[:-1]
            best = np.full(tpl.kind.size, _INF)
            tables = {"bbest": best, **_template_arrays(tpl, "b")}
        tables.update(_ray_table(n, rp, gid, "i", tn=rtn, tf=rtf, root=root))
        none = (tables, rp[:0], rp[:0], np.empty(0), None, None)
        if not live.size:
            return none

        # Per (pair, BLAS leaf): nearest entering template triangle, at
        # the leaf's template entry.
        blas = self._blas
        pr, tp, lf = _leaf_columns(level, bleaf_rays, bleaf_refs)
        if pr.size:
            sel, t = entering_hits(o_l[pr], d_l[pr], tp, blas.mesh.v0,
                                   blas.mesh.e1, blas.mesh.e2)
        if pr.size == 0 or sel.size == 0:
            return none
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
        return tables, rp[sub], gid[sub], t2[first], o2[sub], d2[sub]

    def _eval_tables(self, n, o, d, ray_c, gid_c, o2, d2):
        """Per (ray, gaussian) canonical any-hit results for every
        candidate pair as the walk's ``e*`` table: ``valid``, ``t``
        (entry depth) and ``alpha`` — the vectorized mirror of
        ``SceneShading.evaluate_hit``, sharing the shade stage's
        expressions."""
        shading = self.shading
        if ray_c.size == 0:
            none = np.empty(0)
            return _ray_table(n, ray_c, gid_c, "e", valid=none, t=none,
                              alpha=none)
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
        return _ray_table(n, ray_c, gid_c, "e", valid=valid, t=t_entry,
                          alpha=alpha)


def _recs(*cols) -> np.ndarray:
    """Fixed-width fetch records, one row per element of the array
    columns (scalars repeat)."""
    return np.stack(np.broadcast_arrays(*cols), axis=-1).astype(np.int64)


def _node_recs(bvh) -> np.ndarray:
    """Each internal node's fetch record; its box-test count is the
    number of occupied slots before the first empty one."""
    empty = bvh.child_kind == KIND_EMPTY
    occupied = np.where(empty.any(axis=1), empty.argmax(axis=1), bvh.width)
    return _recs(bvh.node_addr, internal_node_bytes(bvh.width),
                 FETCH_INTERNAL, occupied, 0, 0, 0)


def _leaf_recs(bvh, prim_kind: int) -> np.ndarray:
    """Each leaf record's fetch record."""
    return _recs(bvh.leaf_addr, bvh.leaf_bytes, FETCH_LEAF, 0,
                 bvh.leaf_count, prim_kind, 0)


