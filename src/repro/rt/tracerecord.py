"""Fetch-trace recording for the batched engine.

This module makes the batched engine
(:class:`~repro.rt.wavefront.WavefrontTracer`) record per-ray fetch
traces: event-for-event the traces the per-ray scalar oracle
(``tests/scalar_oracle.py``) records as a side effect of walking the BVH
one ray at a time.  A bundle records in chunks of
:data:`_MAX_RECORD_PACKET` rays, each taken through two phases, so only
the finished traces outlive a chunk.  On a host with at least two CPUs
the calling thread and one worker thread take alternate chunks (two
lanes) while the C kernels run without the GIL; the chunks' results are
put back together in chunk order, so the output does not depend on the
lane count:

**Phase A — round templates and batched geometry.**  One C kernel
(``template_build.c``, loaded by :mod:`repro.native`) builds every ray's
*round template*: a stack DFS over the level's arrays visiting every
node reachable with ``t_min = 0`` and no ``t_max`` — a superset of what
any tracing round visits — with the wavefront slab's arithmetic and
accept test, children popped in the scalar DFS order (ascending ``tn``,
ties in reverse slot order; node ordering depends only on per-ray entry
distances, which are round-invariant).  It writes CSR columns ``(kind,
tn, tf, ref, skip)`` in preorder, plus slot-ordered children and their
largest ``tn`` (see :meth:`PacketTraceRecorder._templates`).  The leaf
entries are the chunk's accepted ``(ray, leaf)`` pairs.  A second C
kernel (``leaf_hits.c``, see :meth:`PacketTraceRecorder._leaf_hits`)
intersects each triangle-leaf entry's triangles with its ray using
:func:`~repro.rt.kernels.entering_hits`' arithmetic and reduces the
hits to each leaf's per-Gaussian nearest and the chunk's candidate
pairs.  Instance leaves get batched instance transforms and one
shared-BLAS template build per chunk over the live ``(ray, instance)``
pairs, whose leaves go through the same leaf-hit kernel; then one
vectorized canonical any-hit evaluation runs per candidate ``(ray,
gaussian)`` pair.  The shade/blend
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
prefilled by the scalar oracle's eviction-buffer rules.  The emitted
streams are event-for-event what the scalar oracle records — same
addresses, sizes, kinds, test counts, prefetch lists, per-round
counters, checkpoint/eviction counts and high-water marks, and round
structure — so :func:`repro.hwsim.replay` costs them the same.

Equivalence argument: a round's DFS visits a node iff every ancestor
accepted it under the round's ``(t_min, t_max, t_clip)`` interval, and
each such accept implies the template's weaker ``(0, inf, t_clip)``
accept — so the template contains every node any round can visit, in
the round's visit order (pruning removes contiguous subtree blocks
without reordering survivors, and ``t_max`` at an entry's walk position
is exactly the scalar's value at that node's pop).  A resumed
checkpoint's subtree is a contiguous template block in the same DFS
order.  The static fetch records and leaf slices are read straight from
the :class:`~repro.bvh.flatten.FlatStructure` arrays the scalar oracle's
tables are built from, so the two recorders cannot drift on what a
structure looks like (the trace-equality suites hold them together).
Recording covers every flattenable structure.
"""

from __future__ import annotations

import ctypes
import os
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.bvh.flatten import BLAS_SPHERE, PRIMS_GAUSSIANS, PRIMS_TRIANGLES
from repro.bvh.layout import (
    INSTANCE_BYTES,
    LEAF_HEADER_BYTES,
    SPHERE_PRIM_BYTES,
    internal_node_bytes,
)
from repro.bvh.node import KIND_EMPTY, KIND_LEAF
from repro.native import kernel
from repro.obs import span
from repro.rt.kernels import (
    PacketResult,
    box_slab,
    empty_result,
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


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _leaf_entries(tpl: dict, code: int):
    """A template set's leaf entries of kind ``code``: their roots and
    their leaf records."""
    entries = np.nonzero(tpl["kind"] == code)[0]
    roots = np.searchsorted(tpl["ptr"], entries, side="right") - 1
    return roots, tpl["ref"][entries]


#: Rays per recording chunk.  A chunk's round templates, leaf hits and
#: any-hit maps live until its traces are built, so the chunk, not the
#: bundle, sets recording's transient memory; two lanes of 16 keep the
#: 32 rays in flight that one lane of 32 did.  On a 2-core host,
#: recording a 576-ray frame (24x24, ``train`` at 1/400, ``20-tri``,
#: k=8) with numpy templates peaked at 178/190/216/275/367/818 MB RSS
#: with 8/16/32/64/128/1,024-ray chunks and took 5.1-5.9 s at every
#: chunk up to 128 (6.8 s at 1,024).
_MAX_RECORD_PACKET = 16

#: Starting event and prefetch capacities of a recording's walk arrays,
#: in int64 words.  A chunk that outgrows them is walked again with
#: twice the size it needed, and later chunks start there: chunks grow
#: towards a frame's centre, and re-running each larger one at its exact
#: size cost the ``train`` 12x12 campaign pass a tenth of its recording.
_WALK_WORDS = (1 << 16, 1 << 14)

#: Starting entry capacities of a recording's root and shared-BLAS
#: template columns; same re-run rule as :data:`_WALK_WORDS`.
_TEMPLATE_ENTRIES = (1 << 14, 1 << 16)

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


class _Build(ctypes.Structure):
    """``build_t`` of ``template_build.c``: one level's tables, a bundle
    of roots and the template columns."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in (
            "n_roots", "width", "leaf_code", "cap", "n_entries", "n_nodes")]
        + [("lo", _F64P), ("hi", _F64P), ("child_ref", _I64P)]
        + [(name, _I8P) for name in ("child_kind", "node_code")]
        + [(name, _F64P) for name in ("o", "inv_d", "t_clip", "root_tn")]
        + [(name, _I64P) for name in ("ptr", "ref", "skip", "kptr", "kids")]
        + [(name, _F64P) for name in ("tn", "tf", "cmax")]
        + [("kind", _I8P)]
    )


class _Hits(ctypes.Structure):
    """``hits_t`` of ``leaf_hits.c``: one template set's leaf entries,
    its roots' rays, a leaf-ordered triangle mesh and the outputs."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in (
            "n_roots", "leaf_code", "blas", "cap", "n_hits", "n_cands")]
        + [(name, _I64P) for name in (
            "ptr", "ref", "leaf_start", "leaf_count", "owner")]
        + [("kind", _I8P)]
        + [(name, _F64P) for name in ("v0", "e1", "e2", "o", "d")]
        + [(name, _I64P) for name in ("hptr", "hit_g", "c_root", "c_gid")]
        + [(name, _F64P) for name in ("hit_t", "c_t", "bbest")]
    )


def _bind(struct, arrays: dict, keep: list) -> None:
    """Point ``struct``'s array fields at ``arrays`` (converted to the
    field's dtype, C-contiguous); ``keep`` holds them for the call."""
    types = dict(type(struct)._fields_)
    for name, arr in arrays.items():
        ctype = types[name]
        arr = np.ascontiguousarray(arr, dtype=_DTYPES[ctype])
        keep.append(arr)
        setattr(struct, name, arr.ctypes.data_as(ctype))


def _ray_table(n: int, rays, gids, prefix: str, **cols) -> dict:
    """Columns keyed by ``(ray, gid)`` as the walk's sorted table:
    ``<prefix>ptr`` bounds each ray's rows, ``<prefix>gid`` ascends
    within them, and each column ``c`` is ``<prefix>c``."""
    order = np.lexsort((gids, rays))
    out = {prefix + "ptr": np.searchsorted(rays[order], np.arange(n + 1)),
           prefix + "gid": gids[order]}
    out.update((prefix + name, col[order]) for name, col in cols.items())
    return out


class PacketTraceRecorder:
    """Produces scalar-identical fetch traces from round templates.

    Built once per :class:`~repro.rt.wavefront.WavefrontTracer` (the
    tracer memoizes it); carries only static tables, so one instance
    records any number of ray bundles.
    """

    def __init__(self, tracer) -> None:
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
            self._blas = tracer.flat.blas
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
        # Template build inputs per level: (level, node kinds, leaf kind).
        self._root_level = (self.flat.root, self._node_code, self._leaf_code)
        if self.two_level and not self._sphere_blas:
            bvh = self._blas.bvh
            self._blas_level = (bvh, np.zeros(len(bvh.child_kind),
                                              dtype=np.int8), _T_BLAS_LEAF)
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
        Records on the lanes :func:`_cpus` allows and emits one
        ``rt.wavefront.record`` span with the bundle's ``rays``,
        ``chunks``, ``lanes`` (1 or 2), fetch ``events``, template
        ``entries`` built (root and shared BLAS), Möller–Trumbore
        ``candidates`` (ray, triangle) pairs, entering proxy ``hits``
        kept after per-leaf deduplication and ``kernel="c"``.  Raises
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
        # Shared by the lanes, so loaded and built before either starts.
        kernels = (kernel("repro.rt", "template_build.c", _Build),
                   kernel("repro.rt", "leaf_hits.c", _Hits),
                   kernel("repro.rt", "round_walk.c", _Walk))
        self.static_recs()
        chunk = _MAX_RECORD_PACKET
        starts = range(0, n, chunk)
        lanes = min(2 if _cpus() >= 2 else 1, len(starts))

        def lane(first):
            """Chunks ``first``, ``first + lanes``, ... as ``(result,
            traces, work)``; each lane grows its own capacities."""
            caps = list(_WALK_WORDS) + list(_TEMPLATE_ENTRIES)
            out = []
            for i in starts[first::lanes]:
                work = {"entries": 0, "candidates": 0, "hits": 0}
                out.append((*self._record_chunk(
                    o[i:i + chunk], d[i:i + chunk], t_clip[i:i + chunk],
                    label, kernels, caps, work), work))
            return out

        with span("rt.wavefront.record", rays=n, kernel="c",
                  lanes=lanes) as record_span:
            if lanes == 1:
                done = [lane(0)]
            else:
                with ThreadPoolExecutor(max_workers=1) as pool:
                    other = pool.submit(lane, 1)
                    done = [lane(0), other.result()]
            chunks = [done[j % lanes][j // lanes] for j in range(len(starts))]
            traces = [trace for _, part, _ in chunks for trace in part]
            record_span.args["chunks"] = len(chunks)
            record_span.args["events"] = sum(
                rnd.n_fetches for trace in traces for rnd in trace.rounds)
            record_span.args.update(
                (name, sum(work[name] for *_, work in chunks))
                for name in chunks[0][2])
        return (PacketResult.concatenate([part for part, _, _ in chunks],
                                         self.config.record_blended),
                traces)

    # ------------------------------------------------------------------
    # Phase A — batched geometry and round templates
    # ------------------------------------------------------------------

    def _record_chunk(self, o, d, t_clip, label, kernels, caps, work):
        tracer = self.tracer
        build_fn, hits_fn, walk_fn = kernels
        n = o.shape[0]
        safe = np.where(np.abs(d) < 1e-12, 1e-12, d)
        inv_d = 1.0 / safe

        tpl = self._templates(build_fn, self._root_level, o, inv_d, t_clip,
                              np.zeros(n), caps, 2)
        work["entries"] += tpl["kind"].size
        leaf_rays, leaf_refs = _leaf_entries(tpl, self._leaf_code)

        tables = {**tpl, "t_clip": t_clip}
        o2c = d2c = t_proxy = None
        if self.prims == PRIMS_TRIANGLES:
            hits = self._leaf_hits(hits_fn, tpl, tracer._root,
                                   self.flat.mesh, o, d, work)
            ray_c, gid_c, t_proxy = (hits.pop(name) for name in (
                "c_root", "c_gid", "c_t"))
            tables.update(hits)
        elif self.prims == PRIMS_GAUSSIANS:
            ray_c, pp = expand_pairs(tracer._root, leaf_rays, leaf_refs)
            gid_c = self.flat.prim_gid[pp]
        elif self._sphere_blas:
            inst, ray_c, gid_c, o2c, d2c = self._sphere_box_tables(
                n, o, d, t_clip, leaf_rays, leaf_refs)
            tables.update(inst)
        else:
            inst, ray_c, gid_c, t_proxy, o2c, d2c = self._mesh_tables(
                n, o, d, t_clip, leaf_rays, leaf_refs, kernels[:2], caps,
                work)
            tables.update(inst)

        result = shade_and_blend(self.shading, self.config, o, d, t_clip,
                                 ray_c, gid_c, t_proxy, o2=o2c, d2=d2c)
        tables.update(self._eval_tables(n, o, d, ray_c, gid_c, o2c, d2c))
        traces, result.rounds = self._walk_rounds(n, tables, label, walk_fn,
                                                  caps)
        return result, traces

    @staticmethod
    def _templates(build_fn, level, o, inv_d, t_clip, root_tn, caps,
                   i) -> dict:
        """Every root's round template, built in ``template_build.c``
        over a ``(FlatBVH, node kinds, leaf kind)`` triple from the
        roots' ``(o, inv_d, t_clip, root_tn)``, as CSR columns: root ``r``'s
        template is ``[ptr[r], ptr[r + 1])`` of ``kind``, ``tn``,
        ``tf`` (the slab result at the parent; ``root_tn`` and ``inf``
        at a root), ``ref`` (node or leaf record) and ``skip`` (the
        first index past the entry's subtree); ``kptr``/``kids`` list
        each entry's children in slot order and ``cmax`` is their
        largest ``tn`` (``-inf`` for none).  ``caps[i]`` holds the entry
        capacity (see :data:`_TEMPLATE_ENTRIES`) and grows it."""
        bvh, node_code, leaf_code = level
        n = o.shape[0]
        ptr = np.empty(n + 1, dtype=np.int64)
        build = _Build(n_roots=n, leaf_code=leaf_code)
        build.n_nodes, build.width = bvh.child_kind.shape
        keep: list = []
        _bind(build, {"lo": bvh.child_lo, "hi": bvh.child_hi,
                      "child_ref": bvh.child_ref,
                      "child_kind": bvh.child_kind, "node_code": node_code,
                      "o": o, "inv_d": inv_d, "t_clip": t_clip,
                      "root_tn": root_tn, "ptr": ptr}, keep)
        while True:
            cap = build.cap = caps[i]
            # The output columns, the last fields of ``build_t``.
            cols = {name: np.empty(cap + (name == "kptr"), _DTYPES[ctype])
                    for name, ctype in _Build._fields_[-8:]}
            _bind(build, cols, keep)
            err = build_fn(ctypes.byref(build))
            if err:
                raise RuntimeError(f"template_build failed with code {err}")
            if build.n_entries <= cap:
                break
            caps[i] = 2 * build.n_entries
        m = build.n_entries
        size = {"kptr": m + 1, "kids": m - n}
        return {"ptr": ptr, **{name: col[:size.get(name, m)]
                               for name, col in cols.items()}}

    # ------------------------------------------------------------------
    # Phase B — the compiled round walk
    # ------------------------------------------------------------------

    def _walk_rounds(self, n, tables, label, walk_fn, caps):
        """Every ray's rounds over its template in ``round_walk.c``;
        returns one :class:`~repro.rt.recorder.RayTrace` per ray and the
        per-ray round counts.  ``caps[:2]`` holds the event and prefetch
        capacities (see :data:`_WALK_WORDS`) and grows them."""
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
            walk.ev_cap, walk.pf_cap = caps[:2]
            err = walk_fn(ctypes.byref(walk))
            if err:
                raise RuntimeError(f"round_walk failed with code {err}")
            if walk.n_ev <= walk.ev_cap and walk.n_pf <= walk.pf_cap:
                break
            caps[:2] = (max(walk.ev_cap, 2 * walk.n_ev),
                        max(walk.pf_cap, 2 * walk.n_pf))

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

    @staticmethod
    def _leaf_hits(hits_fn, tpl, level, mesh, o, d, work) -> dict:
        """The entering proxy hits of a template set's triangle-leaf
        entries against their roots' rays ``(o, d)``, from
        ``leaf_hits.c``.  For monolithic proxies (``mesh.owner`` set):
        per leaf entry each Gaussian's nearest hit as the CSR ``hptr``
        (per template entry), ``hit_t``, ``hit_g`` in the scalar leaf
        loop's ``(t, gid)`` order, and per ``(root, gid)`` the nearest
        hit over all leaves as the candidates ``c_root``, ``c_gid``,
        ``c_t`` in ``(root, gid)`` order (the plain path's reduction).
        For the shared mesh BLAS: per template entry its nearest leaf
        hit as ``bbest`` (``inf`` for none), and per root with a hit its
        nearest as ``c_root``, ``c_t``.  Every output is sized by the
        leaves' triangle count, which bounds hits and candidates."""
        blas = mesh.owner is None
        code = _T_BLAS_LEAF if blas else _T_TRI_LEAF
        cap = int(level.leaf_count[tpl["ref"][tpl["kind"] == code]].sum())
        m = tpl["kind"].size
        out = {"c_root": np.empty(cap, np.int64), "c_t": np.empty(cap)}
        if blas:
            out["bbest"] = np.empty(m)
        else:
            out.update(hptr=np.empty(m + 1, np.int64), hit_t=np.empty(cap),
                       hit_g=np.empty(cap, np.int64),
                       c_gid=np.empty(cap, np.int64))
        hits = _Hits(n_roots=o.shape[0], leaf_code=code, blas=blas, cap=cap)
        keep: list = []
        _bind(hits, {"ptr": tpl["ptr"], "ref": tpl["ref"],
                     "kind": tpl["kind"], "leaf_start": level.leaf_start,
                     "leaf_count": level.leaf_count, "v0": mesh.v0,
                     "e1": mesh.e1, "e2": mesh.e2, "o": o, "d": d, **out,
                     **({} if blas else {"owner": mesh.owner})}, keep)
        err = hits_fn(ctypes.byref(hits))
        if err:
            raise RuntimeError(f"leaf_hits failed with code {err}")
        work["candidates"] += cap
        work["hits"] += hits.n_hits
        rows = dict.fromkeys(("hit_t", "hit_g"), hits.n_hits)
        rows.update(dict.fromkeys(("c_root", "c_gid", "c_t"), hits.n_cands))
        return {name: col[:rows.get(name)] for name, col in out.items()}

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

    def _mesh_tables(self, n, o, d, t_clip, leaf_rays, leaf_refs, kernels,
                     caps, work):
        """Per (ray, instance), as the walk's ``i*`` table: root-box slab
        result and the global index of the pair's BLAS template (-1 for
        a pair that misses the root box); the BLAS templates of every
        live pair as the ``b*`` columns, with per template entry the
        nearest entering template-triangle depth of a leaf (``bbest``,
        ``inf`` for none); plus the surviving candidate pairs with their
        proxy depths (the plain path's
        nearest-entering-template-triangle reduction)."""
        tracer = self.tracer
        build_fn, hits_fn = kernels
        rp, pp, gid, o2, d2 = self._instance_pairs(o, d, leaf_rays,
                                                   leaf_refs)
        if rp.size == 0:
            none = np.empty(0)
            return (_ray_table(n, rp, rp, "i", tn=none, tf=none, root=rp),
                    rp, rp, none, None, None)
        rtn, rtf, inv_d2 = box_slab(*tracer._blas_root, o2, d2)
        clip = t_clip[rp]
        live = np.nonzero((rtn <= rtf) & (rtf >= 0.0) & (rtn <= clip))[0]
        root = np.full(rp.size, -1, dtype=np.int64)
        tables, sub, t_proxy = {}, live, np.empty(0)
        if live.size:
            o_l, d_l = o2[live], d2[live]
            tpl = self._templates(build_fn, self._blas_level, o_l,
                                  inv_d2[live], clip[live], rtn[live], caps,
                                  3)
            work["entries"] += tpl["kind"].size
            root[live] = tpl["ptr"][:-1]
            hits = self._leaf_hits(hits_fn, tpl, tracer._blas_level,
                                   self._blas.mesh, o_l, d_l, work)
            tables = {"b" + name: col for name, col in tpl.items()
                      if name != "ptr"}
            tables["bbest"] = hits["bbest"]
            # Candidates: the live pairs with an entering template hit.
            sub, t_proxy = live[hits["c_root"]], hits["c_t"]
        tables.update(_ray_table(n, rp, gid, "i", tn=rtn, tf=rtf, root=root))
        return tables, rp[sub], gid[sub], t_proxy, o2[sub], d2[sub]

    def _eval_tables(self, n, o, d, ray_c, gid_c, o2, d2):
        """Per (ray, gaussian) canonical any-hit results for every
        candidate pair as the walk's ``e*`` table: ``valid``, ``t``
        (entry depth) and ``alpha`` — the vectorized mirror of the
        scalar oracle's ``evaluate_hit``, sharing the shade stage's
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


