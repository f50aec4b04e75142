"""The per-ray scalar tracer: the parity oracle of the batched engine.

Traces one ray at a time in plain Python: interval-constrained BVH
traversal over both structure families (monolithic proxy BVH and
GRTX-SW's TLAS + shared BLAS), the any-hit k-buffer of Listing 1,
multi-round tracing with early ray termination, single-round tracing,
and GRTX-HW traversal checkpointing with the eviction buffer.  Every
node fetch is recorded with its byte address.

The shipped engine (:class:`repro.rt.wavefront.WavefrontTracer`) must
render these images within 1e-9 per channel with exactly equal
functional counters, and its recorded fetch traces must be
event-for-event this tracer's.  The suites hold it to that by comparing
against :func:`render_scalar` / :func:`trace_rays_scalar` (whole frames
and ray bundles, secondary rays included) and :class:`Tracer` (single
rays).  The benchmarks import the same helpers for their scalar side.

The traversal inner loops use plain Python floats and pre-converted
lists (:class:`FlatTables`) for per-slot scalar work, and numpy only for
the vectorized slab and triangle tests.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.bvh.flatten import PRIMS_TRIANGLES, flatten
from repro.bvh.layout import INSTANCE_BYTES, LEAF_HEADER_BYTES, SPHERE_PRIM_BYTES, internal_node_bytes
from repro.bvh.monolithic import MonolithicBVH
from repro.bvh.node import KIND_INTERNAL, KIND_LEAF
from repro.bvh.two_level import TwoLevelBVH
from repro.render.image import ImageBuffer
from repro.render.renderer import (
    _MIN_SECONDARY_WEIGHT,
    BundleResult,
    RenderResult,
    RenderStats,
)
from repro.rt.config import TraceConfig
from repro.rt.recorder import (
    FETCH_INTERNAL,
    FETCH_LEAF,
    PRIM_CUSTOM,
    PRIM_SPHERE,
    PRIM_TRANSFORM,
    PRIM_TRI,
    RayTrace,
    unique_fetch_counts,
)
from repro.rt.shading import ALPHA_MAX, ALPHA_MIN, SceneShading
from repro.util import IdentityMemo


# ---------------------------------------------------------------------------
# Per-ray canonical shading

def to_object(shading: SceneShading, gaussian_id: int, origin: np.ndarray,
              direction: np.ndarray):
    """One ray in one Gaussian's object space, as ``(o, d)`` float
    triples.

    The row-expanded 3x3 matvec of
    :func:`repro.rt.kernels.to_object_space`, term for term and in the
    same order, so this oracle and the batched engine transform rays
    bit-identically (a BLAS ``linear @ vec`` is free to fuse or reorder
    the products, and does on some hosts).
    """
    (a, b, c), (e, f, g), (h, i, j) = shading.w2o_linear[gaussian_id].tolist()
    o0, o1, o2 = shading.w2o_offset[gaussian_id].tolist()
    ox, oy, oz = origin.tolist()
    dx, dy, dz = direction.tolist()
    return ((a * ox + b * oy + c * oz + o0,
             e * ox + f * oy + g * oz + o1,
             h * ox + i * oy + j * oz + o2),
            (a * dx + b * dy + c * dz,
             e * dx + f * dy + g * dz,
             h * dx + i * dy + j * dz))


def evaluate_hit(
    shading: SceneShading,
    gaussian_id: int,
    origin: np.ndarray,
    direction: np.ndarray,
) -> tuple[float, float] | None:
    """Canonical any-hit evaluation for one candidate Gaussian.

    Returns ``(t_entry, alpha)`` when the ray enters the Gaussian's
    kappa-sigma ellipsoid in front of the origin with
    ``alpha >= ALPHA_MIN``; ``None`` otherwise (false positives from
    proxy geometry land here).

    ``t_entry`` — where the ray crosses into the bounding ellipsoid —
    is the exact-primitive analogue of 3DGRT's sort key (the
    bounding-proxy entry hit reported by backface-culled traversal);
    ``alpha`` is evaluated at the point of maximum response
    (``t_alpha`` in the paper), matching Section II-B.
    """
    o, d = to_object(shading, gaussian_id, origin, direction)
    dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    if dd < 1e-30:
        return None
    od = o[0] * d[0] + o[1] * d[1] + o[2] * d[2]
    oo = o[0] * o[0] + o[1] * o[1] + o[2] * o[2]
    t_peak = -od / dd
    min_sq = oo - od * od / dd
    if min_sq > 1.0:
        # Closest approach misses the bounding ellipsoid: the ray does
        # not cross the kappa-sigma surface. Proxy hit was a false
        # positive.
        return None
    t_entry = t_peak - math.sqrt(max((1.0 - min_sq) / dd, 0.0))
    if t_entry <= 0.0:
        # Entry behind the origin (or origin inside the ellipsoid):
        # backface-culled proxy traversal reports no hit either.
        return None
    alpha = shading.opacities[gaussian_id] * math.exp(
        -0.5 * shading.kappa_sq * min_sq)
    if alpha < ALPHA_MIN:
        return None
    return t_entry, min(alpha, ALPHA_MAX)


# ---------------------------------------------------------------------------
# The k-buffer and eviction buffer of Listing 1
#
# The k-buffer keeps the k closest accepted Gaussians in depth order via
# insertion sort (the paper's any-hit shader).  The eviction buffer is the
# GRTX-HW addition: Gaussians rejected from a full k-buffer are parked
# there and get a second opportunity at the start of the next round
# instead of being re-discovered by a root-restarted traversal.

@dataclass(frozen=True)
class KBufferEntry:
    """One accepted hit: depth, Gaussian id, and its precomputed alpha."""

    t: float
    gaussian_id: int
    alpha: float


class KBuffer:
    """Depth-sorted buffer of the k closest Gaussians for one ray.

    ``insert`` implements the any-hit shader's insertion-sort semantics:

    * buffer not full -> insert, return ``None`` (ignoreIntersection);
    * buffer full, new hit closer than the farthest -> insert, evict and
      return the old farthest (ignoreIntersection);
    * buffer full, new hit farthest -> return the new entry itself
      (the shader *reports* the hit, shrinking ``t_max``).
    """

    __slots__ = ("k", "_entries", "_members", "insertions")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._entries: list[KBufferEntry] = []
        self._keys: list[float]
        self._members: set[int] = set()
        self.insertions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.k

    def __contains__(self, gaussian_id: int) -> bool:
        return gaussian_id in self._members

    @property
    def farthest_t(self) -> float:
        """Depth of the current farthest entry (inf when empty)."""
        return self._entries[-1].t if self._entries else float("inf")

    def insert(self, entry: KBufferEntry) -> KBufferEntry | None:
        """Insert an accepted hit; return the rejected entry, if any.

        The returned entry is either the evicted old farthest (new hit was
        closer) or ``entry`` itself (new hit was beyond all k). ``None``
        means the buffer absorbed the hit without rejecting anything.
        """
        self.insertions += 1
        if self.full and entry.t >= self._entries[-1].t:
            return entry
        keys = [e.t for e in self._entries]
        pos = bisect.bisect_right(keys, entry.t)
        self._entries.insert(pos, entry)
        self._members.add(entry.gaussian_id)
        if len(self._entries) > self.k:
            evicted = self._entries.pop()
            self._members.discard(evicted.gaussian_id)
            return evicted
        return None

    def drain(self) -> list[KBufferEntry]:
        """Remove and return all entries in depth order (round blending)."""
        entries = self._entries
        self._entries = []
        self._members = set()
        return entries

    def peek(self) -> list[KBufferEntry]:
        """Entries in depth order without draining."""
        return list(self._entries)


class EvictionBuffer:
    """Per-ray eviction buffer (GRTX-HW, global-memory resident).

    Tracks its high-water mark so Figure 20's memory-usage numbers can be
    reproduced: the hardware sizes the allocation by the maximum number of
    entries any concurrent ray holds.
    """

    __slots__ = ("_entries", "high_water")

    def __init__(self) -> None:
        self._entries: list[KBufferEntry] = []
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, entry: KBufferEntry) -> None:
        self._entries.append(entry)
        if len(self._entries) > self.high_water:
            self.high_water = len(self._entries)

    def drain_sorted(
        self, t_min: float, blended_at_t_min: frozenset[int] = frozenset()
    ) -> list[KBufferEntry]:
        """Remove all entries, deduplicated by Gaussian id, depth order.

        Entries strictly before ``t_min`` belong to already-blended
        Gaussians and are dropped (the baseline equally skips them via
        the ``t >= t_min`` traversal interval). Entries exactly at
        ``t_min`` are kept unless their Gaussian is in
        ``blended_at_t_min`` — an evicted hit that ties the round
        boundary must get its second opportunity, not be dropped.
        """
        best: dict[int, KBufferEntry] = {}
        for entry in self._entries:
            if entry.t < t_min or (
                entry.t == t_min and entry.gaussian_id in blended_at_t_min
            ):
                continue
            prev = best.get(entry.gaussian_id)
            if prev is None or entry.t < prev.t:
                best[entry.gaussian_id] = entry
        self._entries = []
        return sorted(best.values(), key=lambda e: (e.t, e.gaussian_id))


# ---------------------------------------------------------------------------
# The tracer

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


@dataclass
class RayOutcome:
    """Result of tracing one ray to completion."""

    color: np.ndarray
    transmittance: float
    rounds: int
    blended: int
    terminated_early: bool
    #: (gaussian_id, alpha, t) triples in blend order, populated when
    #: TraceConfig.record_blended is set (the popping ablation and the
    #: predictor ablation read the exact blend lists).
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
    """Plain-list views of one flattened structure for the scalar
    tracer's per-ray loops.

    The scalar tracer's hot loops index Python lists (faster than numpy
    scalars at this granularity); it is the only reader. The wavefront
    trace recorder reads the same :class:`~repro.bvh.flatten.FlatStructure`
    arrays directly and never builds these tables. Built once per
    flattened structure (see :func:`flat_tables`); treat every attribute
    as immutable.
    """

    __slots__ = (
        "child_lo", "child_hi", "child_kind", "child_ref",
        "node_addr", "leaf_addr", "leaf_bytes", "leaf_start", "leaf_count",
        "child_addr", "child_bytes", "child_is_leaf", "ordered_gids",
        "v0", "e1", "e2", "owner", "blas_tables",
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
        node_bytes = internal_node_bytes(bvh.width)
        # Child (address, size) for prefetch lists, any slot kind.
        addr, sizes, leaf_mask = [], [], []
        for n in range(bvh.n_nodes):
            row_a, row_s, row_l = [], [], []
            for slot in range(bvh.width):
                kind = self.child_kind[n][slot]
                ref = self.child_ref[n][slot]
                if kind == KIND_INTERNAL:
                    row_a.append(self.node_addr[ref])
                    row_s.append(node_bytes)
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
        if flat.two_level:
            self.ordered_gids = flat.prim_gid.tolist()
            # The shared mesh BLAS's tables (None for the sphere BLAS,
            # which needs no tree tables).
            blas = flat.blas
            self.blas_tables = _BlasTables(blas) if blas.kind == "mesh" else None
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
        self._blas = flat.blas
        self._node_bytes = internal_node_bytes(self._bvh.width)
        self._sphere_blas_bytes = LEAF_HEADER_BYTES + 24 + SPHERE_PRIM_BYTES
        self._prepare_tables()
        # Per-ray scratch, set by trace_ray.
        self._o = np.zeros(3)
        self._d = np.zeros(3)
        self._inv_d = np.zeros(3)
        self._blend_log: list[tuple[int, float, float]] | None = None

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
            self._blas_tables = tables.blas_tables
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
        round_trace = ray_trace.begin_round()
        state = _RoundState(0.0, None, round_trace, collect_all=True,
                            ckpt_enabled=False, t_clip=t_clip)
        self._drain([(KIND_INTERNAL, 0, 0.0)], state, ray_trace)
        hits = sorted(state.hits, key=lambda e: (e.t, e.gaussian_id))
        round_trace.kbuffer_ops += len(hits)
        self._blend_log = [] if self.config.record_blended else None
        color, transmittance, blended, terminated = self._blend(hits, 1.0, np.zeros(3))
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

        for round_index in range(config.max_rounds):
            round_trace = ray_trace.begin_round()
            rounds += 1
            kbuffer = KBuffer(config.k)
            state = _RoundState(t_min, kbuffer, round_trace, collect_all=False,
                                ckpt_enabled=hw, t_clip=t_clip, frontier=frontier)

            if hw and round_index > 0:
                self._prefill_from_evictions(evict_src, state)
                self._replay_checkpoints(ckpt_src, state, ray_trace)
            else:
                self._drain([(KIND_INTERNAL, 0, 0.0)], state, ray_trace)

            entries = sorted(kbuffer.drain(), key=lambda e: (e.t, e.gaussian_id))
            round_trace.kbuffer_ops += kbuffer.insertions
            round_trace.evictions_written += len(state.evict_out)
            if state.evict_out.high_water > ray_trace.evict_high_water:
                ray_trace.evict_high_water = state.evict_out.high_water
            if len(state.ckpt_out) > ray_trace.ckpt_high_water:
                ray_trace.ckpt_high_water = len(state.ckpt_out)

            if not entries:
                break

            color, transmittance, blended, terminated = self._blend(
                entries, transmittance, color
            )
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
                o2, d2 = to_object(self.shading, gid, self._o, self._d)
                o2, d2 = np.array(o2), np.array(d2)
                start_kind = KIND_INTERNAL if kind == CKPT_BLAS_NODE else KIND_LEAF
                hit_t = self._traverse_blas(o2, d2, gid, inst_addr, state, ray_trace,
                                            start=(start_kind, ref, t))
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
        blas = self._blas
        rt = state.round_trace
        o2, d2 = to_object(shading, gid, self._o, self._d)

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
        tables = self._blas_tables
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
                                    start=(KIND_INTERNAL, 0, t_near), inv_d2=inv_d2)
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
    ) -> float | None:
        """Traverse the shared template BLAS in object space.

        Returns the nearest proxy-triangle hit distance, or ``None``.
        BLAS children failing the t_max validation are checkpointed with
        the TLAS leaf (instance) address so replay can re-transform.
        """
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
        result = evaluate_hit(self.shading, gid, self._o, self._d)
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


# ---------------------------------------------------------------------------
# Whole bundles and frames


def trace_rays_scalar(
    tracer: Tracer,
    origins: np.ndarray,
    directions: np.ndarray,
    pixel_ids: np.ndarray,
    objects=None,
    keep_traces: bool = True,
) -> BundleResult:
    """Trace a batch of primary rays one at a time: what
    :meth:`GaussianRayTracer.trace_rays` returns for the same batch,
    every :class:`RenderStats` counter absorbed per ray from the
    recorded traces.

    When ``objects`` is given, a primary ray hitting a mirror or glass
    object is clipped there and, while enough transmittance is left, one
    secondary ray continues through the Gaussian scene.
    """
    n = origins.shape[0]
    colors = np.zeros((n, 3), dtype=np.float64)
    stats = RenderStats()
    traces: list[RayTrace] = []
    for i in range(n):
        origin = origins[i]
        direction = directions[i]

        t_obj = float("inf")
        obj = None
        if objects is not None:
            t_obj, obj = objects.nearest(origin, direction)

        trace = RayTrace(label="primary")
        outcome = tracer.trace_ray(origin, direction, trace, t_clip=t_obj)
        stats.absorb(trace, outcome.rounds, outcome.blended,
                     outcome.terminated_early,
                     unique_fetch_counts([trace])[0])
        if keep_traces:
            traces.append(trace)
        color = outcome.color

        if obj is not None and outcome.transmittance > _MIN_SECONDARY_WEIGHT:
            sec_origin, sec_direction = obj.scatter(origin, direction, t_obj)
            sec_trace = RayTrace(label="secondary")
            sec_outcome = tracer.trace_ray(sec_origin, sec_direction, sec_trace)
            stats.absorb(
                sec_trace, sec_outcome.rounds, sec_outcome.blended,
                sec_outcome.terminated_early,
                unique_fetch_counts([sec_trace])[0],
            )
            if keep_traces:
                traces.append(sec_trace)
            weight = outcome.transmittance
            color = color + weight * np.asarray(obj.tint) * sec_outcome.color

        colors[i] = color
    return BundleResult(
        colors=colors,
        pixel_ids=np.asarray(pixel_ids, dtype=np.int64),
        stats=stats,
        traces=traces,
    )


def render_scalar(
    cloud,
    structure,
    camera,
    config: TraceConfig | None = None,
    objects=None,
    keep_traces: bool = True,
) -> RenderResult:
    """Render one frame on the scalar tracer: the oracle's
    :meth:`GaussianRayTracer.render`."""
    tracer = Tracer(structure, SceneShading(cloud), config)
    bundle = camera.generate_rays()
    result = trace_rays_scalar(tracer, bundle.origins, bundle.directions,
                               bundle.pixel_ids, objects, keep_traces)
    framebuffer = ImageBuffer(camera.width, camera.height)
    framebuffer.scatter(result.pixel_ids, result.colors)
    return RenderResult(
        image=framebuffer.array,
        stats=result.stats,
        traces=result.traces,
        config=tracer.config,
        structure_bytes=structure.total_bytes,
    )


def render_request_scalar(server, request) -> RenderResult:
    """The frame ``server`` serves for ``request``, rendered on the
    oracle from the server's own scene, structure and camera."""
    cloud, _ = server.registry.scene(request.scene_ref)
    structure = server.registry.structure(request.scene_ref, request.proxy,
                                          server.build_params)
    camera = server._camera_for(request, cloud)
    return render_scalar(cloud, structure, camera, request.trace_config(),
                         keep_traces=False)
