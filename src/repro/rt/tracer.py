"""Multi-round Gaussian ray tracing with optional checkpoint & replay.

This module is the heart of the reproduction. It implements:

* interval-constrained BVH traversal over both structure families
  (monolithic proxy BVH and GRTX-SW's TLAS + shared BLAS);
* the any-hit k-buffer algorithm of Listing 1, including the
  ``ignoreIntersectionEXT`` / hit-report ``t_max`` semantics;
* multi-round tracing with early ray termination (the 3DGRT baseline);
* single-round tracing (Figure 6a's comparison point);
* GRTX-HW traversal checkpointing: nodes and instances whose entry
  distance fails the ``t_max`` validation are checkpointed (node address +
  TLAS leaf address + t, Figure 11), rejected k-buffer entries go to the
  eviction buffer, and subsequent rounds resume from the checkpointed
  frontier instead of the root.

Every node fetch is recorded with its byte address so the hardware model
can replay the exact memory behaviour.

Implementation note: the traversal inner loops deliberately use plain
Python floats and pre-converted lists for per-slot scalar work, and numpy
only for the vectorized slab and triangle tests. Pure-Python BVH traversal
over hundreds of thousands of nodes is the throughput bottleneck of the
whole reproduction and this hybrid is ~10x faster than idiomatic
numpy-everywhere code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bvh.flatten import PRIMS_TRIANGLES, flatten
from repro.bvh.layout import INSTANCE_BYTES, LEAF_HEADER_BYTES, SPHERE_PRIM_BYTES, internal_node_bytes
from repro.bvh.monolithic import MonolithicBVH
from repro.bvh.node import KIND_INTERNAL, KIND_LEAF
from repro.bvh.two_level import TwoLevelBVH

from repro.rt.kbuffer import EvictionBuffer, KBuffer, KBufferEntry
from repro.rt.recorder import (
    FETCH_INTERNAL,
    FETCH_LEAF,
    PRIM_CUSTOM,
    PRIM_SPHERE,
    PRIM_TRANSFORM,
    PRIM_TRI,
    RayTrace,
)
from repro.rt.shading import SceneShading
from repro.util import IdentityMemo

# Checkpoint entry kinds (what the 20-byte checkpoint record refers to).
CKPT_NODE = 0
CKPT_LEAF = 1
CKPT_INSTANCE = 2
CKPT_BLAS_NODE = 3
CKPT_BLAS_LEAF = 4

# Any-hit outcome codes.
_HIT_ACCEPTED = 0
_HIT_REJECTED = 1
_HIT_BEYOND = 2

_INF = float("inf")


@dataclass(frozen=True)
class TraceConfig:
    """Rendering algorithm configuration.

    Attributes
    ----------
    k:
        k-buffer capacity per tracing round (paper default: 16 for the
        motivation study, 8 for GRTX).
    mode:
        ``"multiround"`` (3DGRT's k-buffer rounds) or ``"singleround"``
        (collect every intersection in one traversal, sort, then blend).
    checkpointing:
        Enable GRTX-HW checkpoint & replay across rounds.
    transmittance_min:
        Early-ray-termination threshold: blending stops once accumulated
        transmittance drops below this.
    max_rounds:
        Safety bound on tracing rounds per ray.
    kbuffer_layout:
        ``"soa"`` (k-buffer in global memory, our Vulkan-style layout) or
        ``"payload"`` (OptiX-style ray payload registers). Only affects
        the timing model (Figure 21), never the image.
    """

    k: int = 16
    mode: str = "multiround"
    checkpointing: bool = False
    transmittance_min: float = 0.01
    max_rounds: int = 64
    kbuffer_layout: str = "soa"
    record_blended: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mode not in ("multiround", "singleround"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.kbuffer_layout not in ("soa", "payload"):
            raise ValueError(f"unknown kbuffer layout {self.kbuffer_layout!r}")
        if not 0.0 < self.transmittance_min < 1.0:
            raise ValueError("transmittance_min must be in (0, 1)")
        if self.mode == "singleround" and self.checkpointing:
            raise ValueError("checkpointing only applies to multiround tracing")


@dataclass
class RayOutcome:
    """Result of tracing one ray to completion."""

    color: np.ndarray
    transmittance: float
    rounds: int
    blended: int
    terminated_early: bool
    #: (gaussian_id, alpha, t) triples in blend order, populated when
    #: TraceConfig.record_blended is set (the training substrate needs
    #: the exact blend lists for its backward pass).
    blend_records: list[tuple[int, float, float]] | None = None


class _RoundState:
    """Mutable per-round traversal state (one traceRayEXT invocation)."""

    __slots__ = (
        "t_min",
        "t_max",
        "t_clip",
        "kbuffer",
        "evict_out",
        "ckpt_out",
        "round_trace",
        "collect_all",
        "hits",
        "hits_seen",
        "ckpt_enabled",
        "frontier",
    )

    def __init__(
        self,
        t_min: float,
        kbuffer: KBuffer | None,
        round_trace,
        collect_all: bool,
        ckpt_enabled: bool,
        t_clip: float = _INF,
        frontier: frozenset[int] = frozenset(),
    ):
        self.t_min = t_min
        self.t_max = _INF
        self.t_clip = t_clip
        self.kbuffer = kbuffer
        self.evict_out = EvictionBuffer()
        self.ckpt_out: list[tuple[float, int, int, int, int]] = []
        self.round_trace = round_trace
        self.collect_all = collect_all
        self.hits: list[KBufferEntry] = []
        self.hits_seen: set[int] = set()
        self.ckpt_enabled = ckpt_enabled
        #: Gaussians already blended at exactly ``t_min``: the interval
        #: bound is exclusive only of these, so a hit whose t ties the
        #: previous round's boundary is not dropped (equal-t survival).
        self.frontier = frontier

    def checkpoint(self, kind: int, ref: int, gid: int, inst_addr: int, t: float) -> None:
        """Record a checkpoint entry (no-op when GRTX-HW is disabled: the
        baseline drops the node and re-finds it from the root next round)."""
        if not self.ckpt_enabled:
            return
        self.ckpt_out.append((t, kind, ref, gid, inst_addr))
        self.round_trace.checkpoints_written += 1


class FlatTables:
    """Plain-list views of one flattened structure for per-ray loops.

    The scalar tracer's hot loops index Python lists (faster than numpy
    scalars at this granularity), and the wavefront trace recorder's
    control-flow reconstruction reads the *same* tables — one builder,
    so the two consumers cannot disagree on addresses, child layouts or
    leaf contents. Built once per :class:`~repro.bvh.flatten.FlatStructure`
    (see :func:`flat_tables`); treat every attribute as immutable.
    """

    __slots__ = (
        "child_lo", "child_hi", "child_kind", "child_ref",
        "node_addr", "leaf_addr", "leaf_bytes", "leaf_start", "leaf_count",
        "child_addr", "child_bytes", "child_is_leaf", "node_bytes",
        "ordered_gids", "v0", "e1", "e2", "owner", "blas_tables",
        "gid_blas",
    )

    def __init__(self, flat) -> None:
        bvh = flat.root
        self.child_lo = bvh.child_lo.tolist()
        self.child_hi = bvh.child_hi.tolist()
        self.child_kind = bvh.child_kind.tolist()
        self.child_ref = bvh.child_ref.tolist()
        self.node_addr = bvh.node_addr.tolist()
        self.leaf_addr = bvh.leaf_addr.tolist()
        self.leaf_bytes = bvh.leaf_bytes.tolist()
        self.leaf_start = bvh.leaf_start.tolist()
        self.leaf_count = bvh.leaf_count.tolist()
        self.node_bytes = internal_node_bytes(bvh.width)
        # Child (address, size) for prefetch lists, any slot kind.
        addr, sizes, leaf_mask = [], [], []
        for n in range(bvh.n_nodes):
            row_a, row_s, row_l = [], [], []
            for slot in range(bvh.width):
                kind = self.child_kind[n][slot]
                ref = self.child_ref[n][slot]
                if kind == KIND_INTERNAL:
                    row_a.append(self.node_addr[ref])
                    row_s.append(self.node_bytes)
                    row_l.append(False)
                elif kind == KIND_LEAF:
                    row_a.append(self.leaf_addr[ref])
                    row_s.append(self.leaf_bytes[ref])
                    row_l.append(True)
                else:
                    row_a.append(0)
                    row_s.append(0)
                    row_l.append(False)
            addr.append(row_a)
            sizes.append(row_s)
            leaf_mask.append(row_l)
        self.child_addr = addr
        self.child_bytes = sizes
        self.child_is_leaf = leaf_mask

        self.ordered_gids = None
        self.v0 = self.e1 = self.e2 = self.owner = None
        self.blas_tables = None
        self.gid_blas = None
        if flat.two_level:
            self.ordered_gids = flat.prim_gid.tolist()
            # One entry per shared-BLAS slot (None for sphere slots, which
            # need no tree tables). Homogeneous structures have one slot.
            self.blas_tables = tuple(
                _BlasTables(b) if b.kind == "mesh" else None
                for b in flat.blas
            )
            if len(flat.blas) > 1:
                # Per-Gaussian slot lookup for heterogeneous scenes: the
                # instance table is leaf-ordered, the hot loop indexes by
                # Gaussian id.
                gid_blas = np.zeros(flat.n_gaussians, dtype=np.int64)
                gid_blas[flat.prim_gid] = flat.inst_blas
                self.gid_blas = gid_blas.tolist()
        elif flat.is_triangle_proxy:
            # Plain-list copies of the flattened (already leaf-ordered)
            # triangle soup: leaves hold <= a handful of triangles, and
            # a scalar Moller-Trumbore over Python floats beats numpy's
            # per-call overhead by ~6x at that size.
            mesh = flat.mesh
            self.v0 = mesh.v0.tolist()
            self.e1 = mesh.e1.tolist()
            self.e2 = mesh.e2.tolist()
            self.owner = mesh.owner.tolist()
        else:
            self.ordered_gids = flat.prim_gid.tolist()


# Identity-checked memo mirroring repro.bvh.flatten's registry: keyed by
# object identity (FlatStructure defines __eq__, so it is unhashable),
# weakref-verified against the live object, locked (serving dispatchers
# and tile threads build tables concurrently), and evicted when the
# structure dies. Keeping the tables out of the object itself also keeps
# them out of the pickle stream when pooled tiles ship flattened
# structures to workers.
_TABLES_MEMO = IdentityMemo()


def flat_tables(flat) -> FlatTables:
    """The (memoized) :class:`FlatTables` of one flattened structure."""
    return _TABLES_MEMO.get_or_build(flat, FlatTables)


class Tracer:
    """Traces rays through one scene + acceleration structure.

    The tracer is built once per (scene, structure, config) and reused for
    every ray; construction precomputes leaf-contiguous primitive arrays
    and plain-list views of the BVH tables for the hot loops.
    """

    def __init__(
        self,
        structure: MonolithicBVH | TwoLevelBVH,
        shading: SceneShading,
        config: TraceConfig | None = None,
    ) -> None:
        # Both engines consume the same flattened layout (leaf-ordered
        # primitive tables, instance table, shared-BLAS slots), so the
        # scalar and wavefront tracers cannot drift apart on what a
        # structure is.  A pre-flattened structure (what pool workers
        # receive) is accepted directly.
        flat = flatten(structure)
        self.structure = structure
        self.flat = flat
        self.shading = shading
        self.config = config or TraceConfig()
        self.two_level = flat.two_level
        self._bvh = flat.root
        self._blas = flat.blas[0] if flat.two_level else None
        self._blas_list = flat.blas if flat.two_level else ()
        self._node_bytes = internal_node_bytes(self._bvh.width)
        self._sphere_blas_bytes = LEAF_HEADER_BYTES + 24 + SPHERE_PRIM_BYTES
        self._prepare_tables()
        # Per-ray scratch, set by trace_ray.
        self._o = np.zeros(3)
        self._d = np.zeros(3)
        self._inv_d = np.zeros(3)
        self._blend_log: list[tuple[int, float, float]] | None = None
        #: Optional :class:`repro.obs.PhaseAccumulator`; when set, the
        #: round drivers accumulate traversal/blend seconds into it
        #: (the renderer attaches one per bundle and flushes it into
        #: the ``rt.phase.*`` histograms). None keeps the hot loop
        #: branch-cheap.
        self.profile = None

    def _prepare_tables(self) -> None:
        """Bind the shared plain-list tables to hot-loop attributes."""
        tables = flat_tables(self.flat)
        self._child_lo_l = tables.child_lo
        self._child_hi_l = tables.child_hi
        self._child_kind = tables.child_kind
        self._child_ref = tables.child_ref
        self._node_addr = tables.node_addr
        self._leaf_addr = tables.leaf_addr
        self._leaf_bytes = tables.leaf_bytes
        self._leaf_start = tables.leaf_start
        self._leaf_count = tables.leaf_count
        self._child_addr = tables.child_addr
        self._child_bytes = tables.child_bytes
        self._child_is_leaf = tables.child_is_leaf

        if self.two_level:
            self._ordered_gids = tables.ordered_gids
            self._blas_tables_all = tables.blas_tables
            self._gid_blas = tables.gid_blas
            if self._blas.kind == "mesh":
                self._blas_tables = tables.blas_tables[0]
        elif self.flat.is_triangle_proxy:
            self._v0l = tables.v0
            self._e1l = tables.e1
            self._e2l = tables.e2
            self._ownero = tables.owner
        else:
            self._ordered_gids = tables.ordered_gids

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def trace_ray(
        self,
        origin: np.ndarray,
        direction: np.ndarray,
        ray_trace: RayTrace | None = None,
        t_clip: float = _INF,
    ) -> RayOutcome:
        """Trace one ray to completion and return its blended color.

        ``t_clip`` bounds the traced segment: Gaussians beyond it are
        ignored entirely (used when an analytic scene object — mirror or
        glass — truncates the primary segment before a secondary ray is
        spawned).
        """
        ray_trace = ray_trace if ray_trace is not None else RayTrace()
        self._o = np.asarray(origin, dtype=np.float64)
        d = np.asarray(direction, dtype=np.float64)
        self._d = d
        safe = np.where(np.abs(d) < 1e-12, 1e-12, d)
        self._inv_d = 1.0 / safe

        if self.config.mode == "singleround":
            return self._trace_single_round(ray_trace, t_clip)
        return self._trace_multi_round(ray_trace, t_clip)

    # ------------------------------------------------------------------
    # Round drivers
    # ------------------------------------------------------------------

    def _trace_single_round(self, ray_trace: RayTrace, t_clip: float) -> RayOutcome:
        """One exhaustive traversal, then a global sort + blend.

        Figure 6(a)'s single-round configuration: no t_max shrinking
        during traversal and no per-hit sorting in the any-hit shader;
        all intersections are collected and sorted afterwards.
        """
        profile = self.profile
        round_trace = ray_trace.begin_round()
        state = _RoundState(0.0, None, round_trace, collect_all=True,
                            ckpt_enabled=False, t_clip=t_clip)
        if profile is not None:
            t0 = time.perf_counter()
        self._drain([(KIND_INTERNAL, 0, 0.0)], state, ray_trace)
        hits = sorted(state.hits, key=lambda e: (e.t, e.gaussian_id))
        round_trace.kbuffer_ops += len(hits)
        self._blend_log = [] if self.config.record_blended else None
        if profile is not None:
            t1 = time.perf_counter()
            profile.add("traversal", t1 - t0)
        color, transmittance, blended, terminated = self._blend(hits, 1.0, np.zeros(3))
        if profile is not None:
            profile.add("blend", time.perf_counter() - t1)
        round_trace.blended = blended
        return RayOutcome(
            color=color,
            transmittance=transmittance,
            rounds=1,
            blended=blended,
            terminated_early=terminated,
            blend_records=self._blend_log,
        )

    def _trace_multi_round(self, ray_trace: RayTrace, t_clip: float) -> RayOutcome:
        config = self.config
        hw = config.checkpointing
        t_min = 0.0
        #: Gaussians blended at exactly ``t_min`` so far. Carrying this
        #: (t, gid) frontier between rounds keeps the next-round bound
        #: exclusive only of already-blended Gaussians: a hit whose t
        #: exactly ties the last blended entry but overflowed this
        #: round's k-buffer survives into the next round instead of
        #: being dropped forever (which made multiround diverge from
        #: singleround on tied depths).
        frontier: frozenset[int] = frozenset()
        transmittance = 1.0
        color = np.zeros(3)
        blended_total = 0
        terminated = False
        self._blend_log = [] if config.record_blended else None
        ckpt_src: list[tuple[float, int, int, int, int]] = []
        evict_src: list[KBufferEntry] = []
        rounds = 0

        profile = self.profile
        for round_index in range(config.max_rounds):
            round_trace = ray_trace.begin_round()
            rounds += 1
            kbuffer = KBuffer(config.k)
            state = _RoundState(t_min, kbuffer, round_trace, collect_all=False,
                                ckpt_enabled=hw, t_clip=t_clip, frontier=frontier)

            if profile is not None:
                t0 = time.perf_counter()
            if hw and round_index > 0:
                self._prefill_from_evictions(evict_src, state)
                self._replay_checkpoints(ckpt_src, state, ray_trace)
            else:
                self._drain([(KIND_INTERNAL, 0, 0.0)], state, ray_trace)
            if profile is not None:
                profile.add("traversal", time.perf_counter() - t0)

            entries = sorted(kbuffer.drain(), key=lambda e: (e.t, e.gaussian_id))
            round_trace.kbuffer_ops += kbuffer.insertions
            round_trace.evictions_written += len(state.evict_out)
            if state.evict_out.high_water > ray_trace.evict_high_water:
                ray_trace.evict_high_water = state.evict_out.high_water
            if len(state.ckpt_out) > ray_trace.ckpt_high_water:
                ray_trace.ckpt_high_water = len(state.ckpt_out)

            if not entries:
                break

            if profile is not None:
                t1 = time.perf_counter()
            color, transmittance, blended, terminated = self._blend(
                entries, transmittance, color
            )
            if profile is not None:
                profile.add("blend", time.perf_counter() - t1)
            round_trace.blended = blended
            blended_total += blended
            if terminated:
                break
            last_t = entries[-1].t
            tied = frozenset(e.gaussian_id for e in entries if e.t == last_t)
            # When the boundary does not advance (a run of equal-t hits
            # wider than k), the frontier accumulates; otherwise it
            # resets to the Gaussians blended at the new boundary.
            frontier = (frontier | tied) if last_t == t_min else tied
            t_min = last_t
            if len(entries) < config.k:
                # Traversal exhausted the scene beyond t_min.
                break
            if hw:
                ckpt_src = state.ckpt_out
                evict_src = state.evict_out.drain_sorted(t_min, frontier)
                if not ckpt_src and not evict_src:
                    break

        return RayOutcome(
            color=color,
            transmittance=transmittance,
            rounds=rounds,
            blended=blended_total,
            terminated_early=terminated,
            blend_records=self._blend_log,
        )

    def _blend(
        self,
        entries: list[KBufferEntry],
        transmittance: float,
        color: np.ndarray,
    ) -> tuple[np.ndarray, float, int, bool]:
        """Front-to-back alpha blending with early ray termination."""
        if not entries:
            return color, transmittance, 0, False
        gids = np.fromiter((e.gaussian_id for e in entries), dtype=np.int64, count=len(entries))
        colors = self.shading.colors(gids, self._d)
        blended = 0
        terminated = False
        threshold = self.config.transmittance_min
        log = self._blend_log
        for i, entry in enumerate(entries):
            color = color + transmittance * entry.alpha * colors[i]
            transmittance *= 1.0 - entry.alpha
            blended += 1
            if log is not None:
                log.append((entry.gaussian_id, entry.alpha, entry.t))
            if transmittance < threshold:
                terminated = True
                break
        return color, transmittance, blended, terminated

    # ------------------------------------------------------------------
    # GRTX-HW: eviction prefill and checkpoint replay
    # ------------------------------------------------------------------

    def _prefill_from_evictions(self, evict_src: list[KBufferEntry], state: _RoundState) -> None:
        """Move evicted Gaussians into the new round's k-buffer.

        The first k entries (closest first) seed the k-buffer; the
        remainder is immediately beyond the buffer, so the first of them
        reports a hit (shrinking ``t_max``) and all of them carry over to
        the next eviction buffer — Listing 1 semantics applied to the
        replayed entries.
        """
        kbuffer = state.kbuffer
        k = kbuffer.k
        for i, entry in enumerate(evict_src):
            if i < k:
                kbuffer.insert(entry)
                continue
            if i == k:
                state.t_max = entry.t
            state.evict_out.push(entry)

    def _replay_checkpoints(
        self,
        ckpt_src: list[tuple[float, int, int, int, int]],
        state: _RoundState,
        ray_trace: RayTrace,
    ) -> None:
        """Resume traversal from checkpointed nodes, nearest first.

        Each checkpointed subtree is traversed to completion before the
        next checkpoint is taken up (the paper traverses the checkpointed
        subtrees sequentially).
        """
        for t, kind, ref, gid, inst_addr in sorted(ckpt_src, key=lambda c: c[0]):
            if t > state.t_max:
                # Still beyond the committed hit; defer again.
                state.checkpoint(kind, ref, gid, inst_addr, t)
                continue
            if kind == CKPT_NODE:
                self._drain([(KIND_INTERNAL, ref, t)], state, ray_trace)
            elif kind == CKPT_LEAF:
                self._drain([(KIND_LEAF, ref, t)], state, ray_trace)
            elif kind == CKPT_INSTANCE:
                # Re-fetch the instance record to recover the transform.
                state.round_trace.fetch(
                    inst_addr, INSTANCE_BYTES, FETCH_LEAF, prim_tests=1,
                    prim_kind=PRIM_TRANSFORM,
                )
                ray_trace.note_fetch(inst_addr, FETCH_LEAF)
                self._process_instance(ref, inst_addr, state, ray_trace)
            else:
                # BLAS node/leaf checkpoint: recover the instance transform
                # from the stored TLAS leaf address, then resume inside the
                # shared BLAS.
                state.round_trace.fetch(
                    inst_addr, INSTANCE_BYTES, FETCH_LEAF, prim_tests=1,
                    prim_kind=PRIM_TRANSFORM,
                )
                ray_trace.note_fetch(inst_addr, FETCH_LEAF)
                o2, d2 = self.shading.to_object(gid, self._o, self._d)
                o2, d2 = np.array(o2), np.array(d2)
                start_kind = KIND_INTERNAL if kind == CKPT_BLAS_NODE else KIND_LEAF
                tables = (self._blas_tables_all[self._gid_blas[gid]]
                          if self._gid_blas is not None else None)
                hit_t = self._traverse_blas(o2, d2, gid, inst_addr, state, ray_trace,
                                            start=(start_kind, ref, t), tables=tables)
                if hit_t is not None:
                    code, t_hit = self._anyhit(gid, state, hit_t)
                    if code == _HIT_BEYOND:
                        state.checkpoint(CKPT_INSTANCE, gid, gid, inst_addr, t_hit)

    # ------------------------------------------------------------------
    # Core traversal
    # ------------------------------------------------------------------

    def _drain(
        self,
        seeds: list[tuple[int, int, float]],
        state: _RoundState,
        ray_trace: RayTrace,
    ) -> None:
        """Depth-first traversal of the main BVH from the seed entries.

        Stack entries are ``(child_kind, ref, t_entry)``; entries whose
        recorded entry distance has fallen beyond the current ``t_max``
        are checkpointed without being fetched (the RT unit's t-value
        validation rejects them at pop time).
        """
        kind_rows = self._child_kind
        ref_rows = self._child_ref
        addr_rows = self._child_addr
        bytes_rows = self._child_bytes
        leaf_rows = self._child_is_leaf
        lo_rows = self._child_lo_l
        hi_rows = self._child_hi_l
        node_addr = self._node_addr
        node_bytes = self._node_bytes
        o = self._o
        inv_d = self._inv_d
        ox, oy, oz = o[0], o[1], o[2]
        ix, iy, iz = inv_d[0], inv_d[1], inv_d[2]
        rt = state.round_trace

        stack = list(seeds)
        while stack:
            kind, ref, t_entry = stack.pop()
            if t_entry > state.t_max:
                ckpt_kind = CKPT_NODE if kind == KIND_INTERNAL else CKPT_LEAF
                state.checkpoint(ckpt_kind, ref, -1, -1, t_entry)
                continue
            if kind == KIND_LEAF:
                self._process_leaf(ref, state, ray_trace)
                continue

            # Internal node: fetch, then slab-test each child (scalar slab
            # over list-backed boxes: faster than numpy at width 6).
            kinds = kind_rows[ref]
            refs = ref_rows[ref]
            lo_row = lo_rows[ref]
            hi_row = hi_rows[ref]
            t_min = state.t_min
            t_max = state.t_max
            t_clip = state.t_clip

            occupied = 0
            visit: list[tuple[float, int, int]] = []
            prefetch: list[tuple[int, int]] | None = None
            addr_row = addr_rows[ref]
            bytes_row = bytes_rows[ref]
            leaf_row = leaf_rows[ref]
            for slot in range(len(kinds)):
                ckind = kinds[slot]
                if ckind == 0:
                    break
                occupied += 1
                lo = lo_row[slot]
                hi = hi_row[slot]
                a = (lo[0] - ox) * ix
                b = (hi[0] - ox) * ix
                if a > b:
                    tn, tf = b, a
                else:
                    tn, tf = a, b
                a = (lo[1] - oy) * iy
                b = (hi[1] - oy) * iy
                if a > b:
                    a, b = b, a
                if a > tn:
                    tn = a
                if b < tf:
                    tf = b
                a = (lo[2] - oz) * iz
                b = (hi[2] - oz) * iz
                if a > b:
                    a, b = b, a
                if a > tn:
                    tn = a
                if b < tf:
                    tf = b
                if tn > tf or tf < t_min or tf < 0.0 or tn > t_clip:
                    continue
                if tn > t_max:
                    ckpt_kind = CKPT_NODE if ckind == KIND_INTERNAL else CKPT_LEAF
                    state.checkpoint(ckpt_kind, refs[slot], -1, -1, tn)
                    continue
                visit.append((tn, ckind, refs[slot]))
                if leaf_row[slot]:
                    # Sibling-leaf prefetch (Section V-A): intersected leaf
                    # children are staged into the L1 when the first of
                    # them is demand-fetched.
                    if prefetch is None:
                        prefetch = []
                    prefetch.append((addr_row[slot], bytes_row[slot]))

            addr = node_addr[ref]
            rt.fetch(addr, node_bytes, FETCH_INTERNAL, box_tests=occupied,
                     prefetch=prefetch)
            ray_trace.note_fetch(addr, FETCH_INTERNAL)

            if visit:
                # Push far-to-near so the nearest child is popped first.
                visit.sort(key=lambda item: -item[0])
                for tn, ckind, cref in visit:
                    stack.append((ckind, cref, tn))

    def _process_leaf(self, leaf_ref: int, state: _RoundState, ray_trace: RayTrace) -> None:
        if self.two_level:
            self._process_tlas_leaf(leaf_ref, state, ray_trace)
        elif self.flat.root_prims == PRIMS_TRIANGLES:
            self._process_triangle_leaf(leaf_ref, state, ray_trace)
        else:
            self._process_custom_leaf(leaf_ref, state, ray_trace)

    # -- monolithic leaves ---------------------------------------------

    def _process_triangle_leaf(self, leaf_ref: int, state: _RoundState, ray_trace: RayTrace) -> None:
        start = self._leaf_start[leaf_ref]
        count = self._leaf_count[leaf_ref]
        end = start + count
        addr = self._leaf_addr[leaf_ref]
        rt = state.round_trace
        rt.fetch(addr, self._leaf_bytes[leaf_ref], FETCH_LEAF,
                 prim_tests=count, prim_kind=PRIM_TRI)
        ray_trace.note_fetch(addr, FETCH_LEAF)

        o = self._o
        d = self._d
        ox, oy, oz = o[0], o[1], o[2]
        dx, dy, dz = d[0], d[1], d[2]
        v0l, e1l, e2l = self._v0l, self._e1l, self._e2l
        owners = self._ownero
        hits: list[tuple[float, int]] = []
        for i in range(start, end):
            e2 = e2l[i]
            pvx = dy * e2[2] - dz * e2[1]
            pvy = dz * e2[0] - dx * e2[2]
            pvz = dx * e2[1] - dy * e2[0]
            e1 = e1l[i]
            det = e1[0] * pvx + e1[1] * pvy + e1[2] * pvz
            if det > -1e-12:
                continue  # backface or parallel: not an entering hit
            inv_det = 1.0 / det
            v0 = v0l[i]
            tvx = ox - v0[0]
            tvy = oy - v0[1]
            tvz = oz - v0[2]
            u = (tvx * pvx + tvy * pvy + tvz * pvz) * inv_det
            if u < 0.0 or u > 1.0:
                continue
            qvx = tvy * e1[2] - tvz * e1[1]
            qvy = tvz * e1[0] - tvx * e1[2]
            qvz = tvx * e1[1] - tvy * e1[0]
            v = (dx * qvx + dy * qvy + dz * qvz) * inv_det
            if v < 0.0 or u + v > 1.0:
                continue
            t = (e2[0] * qvx + e2[1] * qvy + e2[2] * qvz) * inv_det
            if t > 0.0:
                hits.append((t, owners[i]))
        if not hits:
            return
        hits.sort()
        seen: set[int] = set()
        beyond_t = _INF
        for t_proxy, gid in hits:
            if gid in seen:
                continue
            seen.add(gid)
            code, t_hit = self._anyhit(gid, state, t_proxy)
            if code == _HIT_BEYOND and t_hit < beyond_t:
                beyond_t = t_hit
        if beyond_t < _INF:
            state.checkpoint(CKPT_LEAF, leaf_ref, -1, -1, beyond_t)

    def _process_custom_leaf(self, leaf_ref: int, state: _RoundState, ray_trace: RayTrace) -> None:
        start = self._leaf_start[leaf_ref]
        count = self._leaf_count[leaf_ref]
        addr = self._leaf_addr[leaf_ref]
        rt = state.round_trace
        rt.fetch(addr, self._leaf_bytes[leaf_ref], FETCH_LEAF,
                 prim_tests=count, prim_kind=PRIM_CUSTOM)
        ray_trace.note_fetch(addr, FETCH_LEAF)
        gids = self._ordered_gids
        beyond_t = _INF
        for i in range(start, start + count):
            code, t_hit = self._anyhit(gids[i], state)
            if code == _HIT_BEYOND and t_hit < beyond_t:
                beyond_t = t_hit
        if beyond_t < _INF:
            state.checkpoint(CKPT_LEAF, leaf_ref, -1, -1, beyond_t)

    # -- two-level leaves ------------------------------------------------

    def _process_tlas_leaf(self, leaf_ref: int, state: _RoundState, ray_trace: RayTrace) -> None:
        start = self._leaf_start[leaf_ref]
        count = self._leaf_count[leaf_ref]
        addr = self._leaf_addr[leaf_ref]
        rt = state.round_trace
        rt.fetch(addr, self._leaf_bytes[leaf_ref], FETCH_LEAF,
                 prim_tests=count, prim_kind=PRIM_TRANSFORM)
        ray_trace.note_fetch(addr, FETCH_LEAF)
        gids = self._ordered_gids
        base = addr + LEAF_HEADER_BYTES
        for slot in range(count):
            self._process_instance(gids[start + slot], base + slot * INSTANCE_BYTES,
                                   state, ray_trace)

    def _process_instance(
        self,
        gid: int,
        inst_addr: int,
        state: _RoundState,
        ray_trace: RayTrace,
    ) -> None:
        """Transform the ray into the instance's object space and test the
        shared BLAS (one box + one sphere test for the sphere BLAS)."""
        shading = self.shading
        if self._gid_blas is None:
            blas = self._blas
            blas_tables = None
        else:
            # Heterogeneous scene: each Gaussian selects its template.
            slot = self._gid_blas[gid]
            blas = self._blas_list[slot]
            blas_tables = self._blas_tables_all[slot]
        rt = state.round_trace
        o2, d2 = shading.to_object(gid, self._o, self._d)

        if blas.kind == "sphere":
            # One root-box test + one sphere test, both against the shared
            # BLAS record that stays hot in the L1.
            ox, oy, oz = o2[0], o2[1], o2[2]
            dx, dy, dz = d2[0], d2[1], d2[2]
            t_near = -_INF
            t_far = _INF
            for oc, dc in ((ox, dx), (oy, dy), (oz, dz)):
                if dc == 0.0:  # repro: lint-ok[float-eq] exact-zero slab-divide guard; the batched engines mirror it bit-for-bit
                    dc = 1e-12
                a = (-1.0 - oc) / dc
                b = (1.0 - oc) / dc
                if a > b:
                    a, b = b, a
                if a > t_near:
                    t_near = a
                if b < t_far:
                    t_far = b
            rt.fetch(blas.root_address, self._sphere_blas_bytes, FETCH_LEAF,
                     box_tests=1, prim_tests=1, prim_kind=PRIM_SPHERE)
            ray_trace.note_fetch(blas.root_address, FETCH_LEAF)
            if t_near > t_far or t_far < state.t_min or t_far < 0.0 or t_near > state.t_clip:
                return
            if t_near > state.t_max:
                state.checkpoint(CKPT_INSTANCE, gid, gid, inst_addr, t_near)
                return
            code, t_hit = self._anyhit(gid, state)
            if code == _HIT_BEYOND:
                state.checkpoint(CKPT_INSTANCE, gid, gid, inst_addr, t_hit)
            return

        # Icosphere BLAS: traverse the small template triangle BVH.
        o2, d2 = np.array(o2), np.array(d2)
        tables = blas_tables if blas_tables is not None else self._blas_tables
        root_lo, root_hi = tables.root_lo, tables.root_hi
        safe = np.where(np.abs(d2) < 1e-12, 1e-12, d2)
        inv_d2 = 1.0 / safe
        t0 = (root_lo - o2) * inv_d2
        t1 = (root_hi - o2) * inv_d2
        t_near = float(np.minimum(t0, t1).max())
        t_far = float(np.maximum(t0, t1).min())
        if t_near > t_far or t_far < state.t_min or t_far < 0.0 or t_near > state.t_clip:
            return
        if t_near > state.t_max:
            state.checkpoint(CKPT_INSTANCE, gid, gid, inst_addr, t_near)
            return
        hit_t = self._traverse_blas(o2, d2, gid, inst_addr, state, ray_trace,
                                    start=(KIND_INTERNAL, 0, t_near), inv_d2=inv_d2,
                                    tables=tables)
        if hit_t is not None:
            code, t_hit = self._anyhit(gid, state, hit_t)
            if code == _HIT_BEYOND:
                state.checkpoint(CKPT_INSTANCE, gid, gid, inst_addr, t_hit)

    def _traverse_blas(
        self,
        o2: np.ndarray,
        d2: np.ndarray,
        gid: int,
        inst_addr: int,
        state: _RoundState,
        ray_trace: RayTrace,
        start: tuple[int, int, float],
        inv_d2: np.ndarray | None = None,
        tables=None,
    ) -> float | None:
        """Traverse the shared template BLAS in object space.

        Returns the nearest proxy-triangle hit distance, or ``None``.
        BLAS children failing the t_max validation are checkpointed with
        the TLAS leaf (instance) address so replay can re-transform.
        """
        if tables is None:
            tables = self._blas_tables
        bbvh = tables.bvh
        if inv_d2 is None:
            safe = np.where(np.abs(d2) < 1e-12, 1e-12, d2)
            inv_d2 = 1.0 / safe
        rt = state.round_trace
        best: float | None = None

        stack = [start]
        while stack:
            kind, ref, t_entry = stack.pop()
            if t_entry > state.t_max:
                ckpt_kind = CKPT_BLAS_NODE if kind == KIND_INTERNAL else CKPT_BLAS_LEAF
                state.checkpoint(ckpt_kind, ref, gid, inst_addr, t_entry)
                continue
            if kind == KIND_LEAF:
                start_p = tables.leaf_start[ref]
                count = tables.leaf_count[ref]
                end = start_p + count
                addr = tables.leaf_addr[ref]
                rt.fetch(addr, tables.leaf_bytes[ref], FETCH_LEAF,
                         prim_tests=count, prim_kind=PRIM_TRI)
                ray_trace.note_fetch(addr, FETCH_LEAF)
                ox, oy, oz = o2[0], o2[1], o2[2]
                dx, dy, dz = d2[0], d2[1], d2[2]
                v0l, e1l, e2l = tables.v0, tables.e1, tables.e2
                for i in range(start_p, end):
                    e2t = e2l[i]
                    pvx = dy * e2t[2] - dz * e2t[1]
                    pvy = dz * e2t[0] - dx * e2t[2]
                    pvz = dx * e2t[1] - dy * e2t[0]
                    e1t = e1l[i]
                    det = e1t[0] * pvx + e1t[1] * pvy + e1t[2] * pvz
                    if det > -1e-12:
                        continue
                    inv_det = 1.0 / det
                    v0t = v0l[i]
                    tvx = ox - v0t[0]
                    tvy = oy - v0t[1]
                    tvz = oz - v0t[2]
                    u = (tvx * pvx + tvy * pvy + tvz * pvz) * inv_det
                    if u < 0.0 or u > 1.0:
                        continue
                    qvx = tvy * e1t[2] - tvz * e1t[1]
                    qvy = tvz * e1t[0] - tvx * e1t[2]
                    qvz = tvx * e1t[1] - tvy * e1t[0]
                    v = (dx * qvx + dy * qvy + dz * qvz) * inv_det
                    if v < 0.0 or u + v > 1.0:
                        continue
                    t = (e2t[0] * qvx + e2t[1] * qvy + e2t[2] * qvz) * inv_det
                    if t > 0.0 and (best is None or t < best):
                        best = t
                continue

            t0 = (bbvh.child_lo[ref] - o2) * inv_d2
            t1 = (bbvh.child_hi[ref] - o2) * inv_d2
            t_near = np.minimum(t0, t1).max(axis=1).tolist()
            t_far = np.maximum(t0, t1).min(axis=1).tolist()
            kinds = tables.child_kind[ref]
            refs = tables.child_ref[ref]
            occupied = 0
            visit: list[tuple[float, int, int]] = []
            for slot in range(len(kinds)):
                ckind = kinds[slot]
                if ckind == 0:
                    break
                occupied += 1
                tn = t_near[slot]
                tf = t_far[slot]
                if tn > tf or tf < state.t_min or tf < 0.0 or tn > state.t_clip:
                    continue
                if tn > state.t_max:
                    ckpt_kind = CKPT_BLAS_NODE if ckind == KIND_INTERNAL else CKPT_BLAS_LEAF
                    state.checkpoint(ckpt_kind, refs[slot], gid, inst_addr, tn)
                    continue
                visit.append((tn, ckind, refs[slot]))
            addr = tables.node_addr[ref]
            rt.fetch(addr, tables.node_bytes, FETCH_INTERNAL, box_tests=occupied)
            ray_trace.note_fetch(addr, FETCH_INTERNAL)
            if visit:
                visit.sort(key=lambda item: -item[0])
                for tn, ckind, cref in visit:
                    stack.append((ckind, cref, tn))
        return best

    # ------------------------------------------------------------------
    # Canonical any-hit shader
    # ------------------------------------------------------------------

    def _anyhit(self, gid: int, state: _RoundState,
                t_depth: float | None = None) -> tuple[int, float]:
        """Canonical any-hit evaluation + Listing 1 k-buffer update.

        ``t_depth`` is the proxy hit distance reported by the traversal
        (the entering triangle's t). Exact-primitive paths (unit sphere,
        custom ellipsoid) pass ``None`` and use the exact ellipsoid entry
        distance. The depth is what the k-buffer sorts by and what the
        interval (t_min, t_max] validates — matching 3DGRT, where the
        reported hit t of the bounding primitive drives the k-buffer.

        Returns ``(code, t)``: ``_HIT_ACCEPTED`` (inserted or reported),
        ``_HIT_REJECTED`` (false positive / negligible alpha / already
        handled), or ``_HIT_BEYOND`` (fails the ``t_max`` validation — the
        caller checkpoints the enclosing node so the hit is recoverable
        next round).
        """
        result = self.shading.evaluate_hit(gid, self._o, self._d)
        if result is None:
            state.round_trace.false_positives += 1
            return _HIT_REJECTED, 0.0
        t_exact, alpha = result
        t_hit = t_exact if t_depth is None else t_depth

        if t_hit > state.t_clip:
            return _HIT_REJECTED, t_hit

        if state.collect_all:
            if t_hit > state.t_min and gid not in state.hits_seen:
                state.hits_seen.add(gid)
                state.round_trace.anyhit_calls += 1
                state.hits.append(KBufferEntry(t_hit, gid, alpha))
            return _HIT_ACCEPTED, t_hit

        if t_hit < state.t_min or (t_hit == state.t_min and gid in state.frontier):
            # Strictly-before hits were all blended in earlier rounds
            # (the k-buffer keeps the k closest, so nothing nearer than
            # the boundary is ever lost); hits exactly at the boundary
            # are re-admitted unless this Gaussian was already blended.
            return _HIT_REJECTED, t_hit
        if t_hit > state.t_max:
            return _HIT_BEYOND, t_hit
        kbuffer = state.kbuffer
        if gid in kbuffer:
            return _HIT_REJECTED, t_hit
        state.round_trace.anyhit_calls += 1
        rejected = kbuffer.insert(KBufferEntry(t_hit, gid, alpha))
        if rejected is not None:
            if self.config.checkpointing:
                state.evict_out.push(rejected)
            if rejected.gaussian_id == gid:
                # The new hit itself was beyond the k closest: report it so
                # the RT unit shrinks t_max (Listing 1, lines 18-20).
                state.t_max = t_hit
        return _HIT_ACCEPTED, t_hit


class _BlasTables:
    """Precomputed fast-path tables for a shared mesh BLAS, built from
    the flattened layout (the triangle soup is already leaf-ordered)."""

    __slots__ = (
        "bvh", "child_kind", "child_ref", "node_addr", "leaf_addr",
        "leaf_bytes", "leaf_start", "leaf_count", "node_bytes",
        "v0", "e1", "e2", "root_lo", "root_hi",
    )

    def __init__(self, blas) -> None:
        bbvh = blas.bvh
        self.bvh = bbvh
        self.child_kind = bbvh.child_kind.tolist()
        self.child_ref = bbvh.child_ref.tolist()
        self.node_addr = bbvh.node_addr.tolist()
        self.leaf_addr = bbvh.leaf_addr.tolist()
        self.leaf_bytes = bbvh.leaf_bytes.tolist()
        self.leaf_start = bbvh.leaf_start.tolist()
        self.leaf_count = bbvh.leaf_count.tolist()
        self.node_bytes = internal_node_bytes(bbvh.width)
        self.v0 = blas.mesh.v0.tolist()
        self.e1 = blas.mesh.e1.tolist()
        self.e2 = blas.mesh.e2.tolist()
        self.root_lo, self.root_hi = bbvh.root_box()
