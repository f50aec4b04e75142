"""The batched engine: wavefront (breadth-first) ray tracing over the
flattened layout, plus engine selection.

The scalar :class:`~repro.rt.tracer.Tracer` walks acceleration
structures one ray at a time in pure Python.  This module traces a whole
bundle of rays (a tile or a frame) *together* over the one flattened
layout every structure lowers to (:func:`repro.bvh.flatten.flatten`),
with the traversal restructured as a **wavefront**:

* the unit of work is a frontier of live ``(ray, node)`` pairs, all at
  the same tree depth, across the bundle's whole ray set;
* each Python-level step gathers every pair's child boxes and runs
  **one** vectorized slab test over the entire frontier, so the number
  of interpreter iterations is O(tree height), not O(nodes visited);
* surviving internal pairs are compacted with ``np.nonzero`` and binned
  by node id with a stable ``np.argsort`` (gather coherence — pairs at
  the same node read the same child rows); leaf pairs are expanded to
  ``(ray, primitive)`` candidates with ``np.repeat`` offsets from the
  leaf-count prefix sums;
* leaf batches then flow through the shared kernels
  (:mod:`repro.rt.kernels`): one masked Möller–Trumbore per candidate
  batch, batched world->object instance transforms, the batched
  sphere-BLAS root test, a breadth-first traversal of each shared mesh
  BLAS with its whole instance group, and the canonical any-hit +
  front-to-back blend.

**Parity argument.**  The accept test per ``(ray, node)`` pair is the
scalar slab's arithmetic with ``t_min = 0`` and no shrinking ``t_max``,
so the frontier visits every node any tracing round could visit.  Every
kernel after traversal is elementwise per candidate, and the blend stage
sorts by the fully determining ``(ray, t, gid)`` key before any
order-sensitive accumulation — so candidate *order* (and hence how rays
are batched into bundles or chunks) changes nothing: a tile traced alone
is bit-identical to the same rays traced inside a frame.  Images match
the scalar tracer within 1e-9 per channel with exactly equal functional
counters; :meth:`WavefrontTracer.trace_packet_recorded` additionally
emits scalar-identical fetch traces (:mod:`repro.rt.tracerecord` reads
the frontier's per-level slab rows).

GRTX-HW checkpointing stays scalar-engine-only: :func:`resolve_engine`
routes it there, counting and warning when an explicitly requested
batched engine cannot be honored.

Per-phase ``repro.obs`` histograms: ``rt.phase.bin`` (frontier
compaction: nonzero/argsort/expand) alongside the ``rt.phase.traversal``
/ ``rt.phase.intersect`` / ``rt.phase.blend`` the scalar tracer also
reports, so the phase breakdown compares directly.
"""

from __future__ import annotations

import threading
import time
import warnings

import numpy as np

from repro.obs import events as obs_events
from repro.obs import flight, get_registry, span

from repro.bvh.flatten import (
    BLAS_SPHERE,
    PRIMS_GAUSSIANS,
    PRIMS_TRIANGLES,
    flatten,
    flattenable,
)
from repro.bvh.node import KIND_INTERNAL
from repro.rt.kernels import (
    Level,
    PacketResult,
    box_slab,
    empty_result,
    entering_hits,
    expand_pairs,
    shade_and_blend,
    sphere_blas_hits,
    to_object_space,
)
from repro.rt.shading import SceneShading
from repro.rt.tracer import TraceConfig

__all__ = [
    "MONOLITHIC_PROXIES",
    "TWO_LEVEL_PROXIES",
    "WAVEFRONT_PROXIES",
    "WAVEFRONT_RAY_CHUNK",
    "WavefrontTracer",
    "fallback_reason",
    "resolve_engine",
    "wavefront_config_supported",
]

#: Rays per wavefront chunk.  Frontier temporaries scale with the live
#: pair count (bounded separately by :data:`_MAX_FRONTIER`), so a whole
#: frame in one chunk is the common case.
WAVEFRONT_RAY_CHUNK = 1 << 16

#: Maximum live pairs slab-tested in one vectorized step; bounds the
#: (pairs, width) per-axis temporaries to tens of MB.  Splitting a
#: frontier changes nothing numerically (every op is elementwise).
_MAX_FRONTIER = 1 << 17

_INF = float("inf")


# ---------------------------------------------------------------------------
# Engine selection

#: Proxy labels that build monolithic structures.
MONOLITHIC_PROXIES = ("20-tri", "80-tri", "custom")

#: Proxy labels that build two-level (GRTX-SW) structures.
TWO_LEVEL_PROXIES = ("tlas+sphere", "tlas+20-tri", "tlas+80-tri")

#: Every proxy label the wavefront engine covers — the single source for
#: request-level engine resolution, so the serving layer can never
#: drift from :func:`fallback_reason`.
WAVEFRONT_PROXIES = MONOLITHIC_PROXIES + TWO_LEVEL_PROXIES


def wavefront_config_supported(config: TraceConfig) -> bool:
    """The config half of :func:`fallback_reason`: GRTX-HW
    checkpointing stays on the scalar engine."""
    return not config.checkpointing


def fallback_reason(structure, config: TraceConfig) -> str | None:
    """Why this (structure, config) pair needs the scalar engine
    (``None`` when the wavefront engine covers it).

    Structural support is :func:`repro.bvh.flatten.flattenable` — the
    same predicate the scalar tracer's table setup uses — so both
    engines agree by construction on what a structure is.
    """
    if not flattenable(structure):
        return f"unsupported structure type {type(structure).__name__}"
    if not wavefront_config_supported(config):
        return "checkpointing (GRTX-HW) is scalar-engine-only"
    return None


# A one-time warning per distinct reason, so an explicit batched-engine
# request silently degrading to the scalar tracer is visible to callers.
# How often it happened is the registry counter ``rt.packet_fallbacks``
# (worker deltas ride back to the parent with task results); why and
# when is the flight event.
_warn_lock = threading.Lock()
_warned_reasons: set[str] = set()


def _note_fallback(engine: str, reason: str) -> None:
    """Record one explicit-engine -> scalar degrade; warns once per
    reason."""
    with _warn_lock:
        first = reason not in _warned_reasons
        _warned_reasons.add(reason)
    get_registry().add("rt.packet_fallbacks")
    flight.record(obs_events.FALLBACK, "rt.packet_fallback", reason=reason)
    if first:
        warnings.warn(
            f"{engine} engine unavailable ({reason}); falling back to the "
            "scalar tracer", RuntimeWarning, stacklevel=3)


def resolve_engine(engine: str, structure, config: TraceConfig) -> str:
    """The concrete engine a (structure, config) pair will trace with:
    ``"scalar"`` or ``"wavefront"``.

    ``"auto"`` silently picks the wavefront engine whenever it covers
    the pair and the scalar tracer otherwise — that is its contract.
    ``"packet"`` is a deprecated alias of ``"wavefront"``.  An explicit
    ``"packet"`` or ``"wavefront"`` that cannot be honored *degrades*
    to scalar: the degrade is counted (registry counter
    ``rt.packet_fallbacks``) and warned about once per reason, because
    the caller asked for something they are not getting.  Unknown
    engine names are a fail-fast ``ValueError`` (a typo must not
    silently render with the wrong engine).
    """
    if engine == "scalar":
        return "scalar"
    if engine not in ("packet", "wavefront", "auto"):
        raise ValueError(
            f"unknown engine {engine!r}; valid engines are: "
            "scalar, packet, wavefront, auto")
    reason = fallback_reason(structure, config)
    if reason is None:
        return "wavefront"
    if engine != "auto":
        _note_fallback(engine, reason)
    return "scalar"


# ---------------------------------------------------------------------------
# The tracer


class WavefrontTracer:
    """Traces ray bundles breadth-first through one flattened scene
    structure.

    Built once per (structure, shading, config) like the scalar
    :class:`~repro.rt.tracer.Tracer`.  Accepts raw structures
    (flattened on construction, memoized) or an already-flattened
    :class:`~repro.bvh.flatten.FlatStructure`.  Like the scalar tracer,
    one instance serves one caller at a time (it carries small
    per-trace phase-timing scratch).
    """

    def __init__(
        self,
        structure,
        shading: SceneShading,
        config: TraceConfig | None = None,
    ) -> None:
        config = config or TraceConfig()
        reason = fallback_reason(structure, config)
        if reason is not None:
            raise ValueError(
                "wavefront engine supports flattenable structures without "
                f"checkpointing; use the scalar Tracer ({reason})")
        flat = flatten(structure)
        self.structure = structure
        self.flat = flat
        self.shading = shading
        self.config = config
        self._recorder = None
        self._root = Level(flat.root)
        self._prims = flat.root_prims
        if flat.root_prims == PRIMS_TRIANGLES:
            mesh = flat.mesh
            self._v0, self._e1, self._e2 = mesh.v0, mesh.e1, mesh.e2
            self._owner = mesh.owner
        else:
            # Custom primitives or instances: leaf-ordered Gaussian ids.
            self._gids = flat.prim_gid
        if flat.two_level:
            # The instance table (leaf-ordered, aligned with prim_gid) —
            # bit-equal to the shading tables by construction, which the
            # test suite guards, so consuming it preserves scalar parity.
            self._inst_lin = flat.inst_w2o_linear
            self._inst_off = flat.inst_w2o_offset
            self._inst_blas = flat.inst_blas
            self._blas = flat.blas
            self._blas_levels = [
                Level(b.bvh) if b.bvh is not None else None
                for b in flat.blas
            ]
            self._blas_roots = [
                b.bvh.root_box() if b.bvh is not None else None
                for b in flat.blas
            ]
        #: Seconds spent in frontier compaction during the current
        #: chunk (reset per chunk; reported as ``rt.phase.bin``).
        self._bin_s = 0.0
        #: Per-level axis-major box tables (built on first traversal of
        #: each level, keyed by the level's stable slot name): ``(6,
        #: n_nodes, width)`` C-contiguous, so the frontier's per-axis
        #: gather reads contiguous rows.
        self._axis_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def trace_packet(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        t_clip: np.ndarray | None = None,
    ) -> PacketResult:
        """Trace a bundle of rays to completion.

        ``t_clip`` optionally bounds each ray's traced segment (analytic
        scene objects truncating primaries), per ray; ``None`` means
        unbounded.
        """
        o = np.ascontiguousarray(origins, dtype=np.float64)
        d = np.ascontiguousarray(directions, dtype=np.float64)
        n = o.shape[0]
        if t_clip is None:
            t_clip = np.full(n, _INF)
        else:
            t_clip = np.asarray(t_clip, dtype=np.float64)
        if n == 0:
            return empty_result(0, self.config.record_blended)
        chunk = WAVEFRONT_RAY_CHUNK
        with span("rt.wavefront.trace", rays=n):
            if n <= chunk:
                return self._trace_chunk(o, d, t_clip)
            parts = [
                self._trace_chunk(o[i:i + chunk], d[i:i + chunk],
                                  t_clip[i:i + chunk])
                for i in range(0, n, chunk)
            ]
            return PacketResult.concatenate(parts, self.config.record_blended)

    def trace_packet_recorded(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        t_clip: np.ndarray | None = None,
        label: str = "primary",
    ):
        """Trace a bundle *and* record per-ray fetch traces.

        Returns ``(PacketResult, traces)`` where ``traces`` is one
        :class:`~repro.rt.recorder.RayTrace` per input ray, stream- and
        counter-equal to what the scalar tracer would have recorded (the
        timing model replays either interchangeably).  The result's
        ``rounds`` array carries the reconstructed exact round counts.
        See :mod:`repro.rt.tracerecord` for the recording pipeline.
        """
        from repro.rt.tracerecord import PacketTraceRecorder

        if self._recorder is None:
            self._recorder = PacketTraceRecorder(self)
        return self._recorder.record(origins, directions, t_clip, label)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def _trace_chunk(self, o, d, t_clip) -> PacketResult:
        # Same degenerate-direction guard as the scalar tracer, so slab
        # tests agree bit-for-bit.
        safe = np.where(np.abs(d) < 1e-12, 1e-12, d)
        inv_d = 1.0 / safe

        registry = get_registry()
        self._bin_s = 0.0
        t_start = time.perf_counter()
        l_rays, l_refs = self._traverse_wave(self._root, o, inv_d, t_clip)
        bin_traversal = self._bin_s
        t_traversal = time.perf_counter()
        o2 = d2 = None
        if self._prims == PRIMS_TRIANGLES:
            ray_c, gid_c, t_proxy = self._wave_triangles(o, d, l_rays, l_refs)
        elif self._prims == PRIMS_GAUSSIANS:
            ray_c, gid_c = self._wave_customs(l_rays, l_refs)
            t_proxy = None
        else:
            ray_c, gid_c, t_proxy, o2, d2 = self._wave_instances(
                o, d, t_clip, l_rays, l_refs)
        bin_intersect = self._bin_s - bin_traversal
        t_intersect = time.perf_counter()
        result = shade_and_blend(self.shading, self.config, o, d, t_clip,
                                 ray_c, gid_c, t_proxy, o2=o2, d2=d2)
        t_blend = time.perf_counter()
        registry.observe("rt.phase.bin", self._bin_s)
        registry.observe("rt.phase.traversal",
                         (t_traversal - t_start) - bin_traversal)
        registry.observe("rt.phase.intersect",
                         (t_intersect - t_traversal) - bin_intersect)
        registry.observe("rt.phase.blend", t_blend - t_intersect)
        return result

    def _traverse_wave(
        self,
        level: Level,
        o: np.ndarray,
        inv_d: np.ndarray,
        t_clip: np.ndarray,
        log: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first traversal of one flattened level.

        One frontier of ``(ray, node)`` pairs per depth; each iteration
        runs one gathered slab test over the whole frontier (sliced at
        :data:`_MAX_FRONTIER` pairs to bound temporaries) and compacts
        survivors.  Returns the accepted ``(ray, leaf record)`` pairs as
        flat parallel arrays.  The accept test is the scalar slab's with
        ``t_min = 0`` and no ``t_max`` pruning, so the frontier holds
        every pair any tracing round can visit.

        With ``log`` given, every slice appends its ``(rays, nodes, tn,
        tf, hit)`` rows — each visiting pair's slab results for *all*
        child slots plus the accept mask — which the trace recorder
        folds into per-ray visit tables.
        """
        kinds = level.child_kind
        refs = level.child_ref
        packed = level.boxes
        # Axis-major ray tables: contiguous per-axis rows, gathered once
        # per frontier slice.
        oT = np.ascontiguousarray(o.T)
        iT = np.ascontiguousarray(inv_d.T)
        n = o.shape[0]
        empty = np.empty(0, dtype=np.int64)
        f_rays = np.arange(n, dtype=np.int64)
        f_nodes = np.zeros(n, dtype=np.int64)
        leaf_ray_parts: list[np.ndarray] = []
        leaf_ref_parts: list[np.ndarray] = []
        while f_rays.size:
            next_ray_parts: list[np.ndarray] = []
            next_node_parts: list[np.ndarray] = []
            for s0 in range(0, f_rays.size, _MAX_FRONTIER):
                fr = f_rays[s0:s0 + _MAX_FRONTIER]
                fn = f_nodes[s0:s0 + _MAX_FRONTIER]
                # Axis-split slab test: per-axis contiguous
                # (pairs, width) gathers updated in place — 3x smaller
                # temporaries than a (pairs, width, 3) broadcast, and
                # every ufunc runs on contiguous memory ((lo-o)*inv per
                # axis, min/max per axis, then an associative max/min
                # across axes).
                tn = tf = None
                for a in range(3):
                    roa = oT[a][fr][:, None]
                    ria = iT[a][fr][:, None]
                    t0 = packed[2 * a][fn]
                    t0 -= roa
                    t0 *= ria
                    t1 = packed[2 * a + 1][fn]
                    t1 -= roa
                    t1 *= ria
                    near = np.minimum(t0, t1)
                    far = np.maximum(t0, t1, out=t1)
                    if tn is None:
                        tn, tf = near, far
                    else:
                        np.maximum(tn, near, out=tn)
                        np.minimum(tf, far, out=tf)
                k = kinds[fn]
                # The scalar slab's accept test (t_min = 0, no
                # shrinking t_max); empty slots masked by kind.
                hit = tn <= tf
                hit &= tf >= 0.0
                hit &= tn <= t_clip[fr, None]
                hit &= k != 0
                if log is not None:
                    log.append((fr, fn, tn, tf, hit))
                b0 = time.perf_counter()
                pair, slot = np.nonzero(hit)
                child_kind = k[pair, slot]
                child_ref = refs[fn[pair], slot]
                internal = child_kind == KIND_INTERNAL
                next_ray_parts.append(fr[pair[internal]])
                next_node_parts.append(child_ref[internal])
                leaf = ~internal
                leaf_ray_parts.append(fr[pair[leaf]])
                leaf_ref_parts.append(child_ref[leaf])
                self._bin_s += time.perf_counter() - b0
            b0 = time.perf_counter()
            f_rays = (np.concatenate(next_ray_parts)
                      if next_ray_parts else empty)
            f_nodes = (np.concatenate(next_node_parts)
                       if next_node_parts else empty)
            if f_nodes.size:
                # Bin the next frontier by node id (stable, so rays stay
                # ordered within a bin): pairs at the same node gather
                # the same child rows — cache-coherent gathers, and the
                # deterministic order the parity contract wants.
                order = np.argsort(f_nodes, kind="stable")
                f_rays = f_rays[order]
                f_nodes = f_nodes[order]
            self._bin_s += time.perf_counter() - b0
        if not leaf_ray_parts:
            return empty, empty
        b0 = time.perf_counter()
        l_rays = np.concatenate(leaf_ray_parts)
        l_refs = np.concatenate(leaf_ref_parts)
        self._bin_s += time.perf_counter() - b0
        return l_rays, l_refs

    # -- leaf stages ---------------------------------------------------

    def _wave_triangles(
        self,
        o: np.ndarray,
        d: np.ndarray,
        l_rays: np.ndarray,
        l_refs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Monolithic triangle leaves: one masked Möller–Trumbore over
        every candidate pair, reduced to the nearest entering triangle
        per (ray, gaussian): backface-culled entering hits only (the
        proxy meshes are convex, so the reduction is exact), and the
        full-key sort makes the selected values order-independent."""
        b0 = time.perf_counter()
        rp, tp = expand_pairs(self._root, l_rays, l_refs)
        self._bin_s += time.perf_counter() - b0
        if rp.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)

        sel, t = entering_hits(o[rp], d[rp], tp, self._v0, self._e1, self._e2)
        rp = rp[sel]
        gid = self._owner[tp[sel]]
        if rp.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        # Nearest entering triangle per (ray, gaussian).
        order = np.lexsort((t, gid, rp))
        rp, gid, t = rp[order], gid[order], t[order]
        first = np.ones(rp.size, dtype=bool)
        first[1:] = (rp[1:] != rp[:-1]) | (gid[1:] != gid[:-1])
        return rp[first], gid[first], t[first]

    def _wave_customs(
        self, l_rays: np.ndarray, l_refs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Custom-primitive leaves: candidates are the (ray, gaussian)
        pairs directly."""
        b0 = time.perf_counter()
        rp, pp = expand_pairs(self._root, l_rays, l_refs)
        self._bin_s += time.perf_counter() - b0
        if rp.size == 0:
            return rp, pp
        return rp, self._gids[pp]

    def _wave_instances(
        self,
        o: np.ndarray,
        d: np.ndarray,
        t_clip: np.ndarray,
        l_rays: np.ndarray,
        l_refs: np.ndarray,
    ) -> tuple:
        """TLAS leaves: transform the candidate bundle through its
        instances and intersect each shared BLAS once with its slot
        group — including the heterogeneous multi-BLAS case, where
        ``inst_blas`` partitions the bundle per template."""
        empty = np.empty(0, dtype=np.int64)
        b0 = time.perf_counter()
        rp, pp = expand_pairs(self._root, l_rays, l_refs)
        self._bin_s += time.perf_counter() - b0
        if rp.size == 0:
            return empty, empty, None, None, None
        gid = self._gids[pp]
        o2, d2 = to_object_space(
            self._inst_lin[pp], self._inst_off[pp], o[rp], d[rp])

        sub_parts: list[np.ndarray] = []
        t_parts: list[np.ndarray] = []
        mesh_hit = False
        for slot, blas in enumerate(self._blas):
            if len(self._blas) > 1:
                b0 = time.perf_counter()
                group = np.nonzero(self._inst_blas[pp] == slot)[0]
                self._bin_s += time.perf_counter() - b0
                if group.size == 0:
                    continue
                o_s, d_s = o2[group], d2[group]
                clip_s = t_clip[rp[group]]
            else:
                group = None
                o_s, d_s = o2, d2
                clip_s = t_clip[rp]
            if blas.kind == BLAS_SPHERE:
                keep = sphere_blas_hits(o_s, d_s, clip_s)
                sub = np.nonzero(keep)[0] if group is None else group[keep]
                sub_parts.append(sub)
                t_parts.append(np.full(sub.size, np.nan))
            else:
                sel, t = self._wave_mesh_blas(slot, blas, o_s, d_s, clip_s)
                sub_parts.append(sel if group is None else group[sel])
                t_parts.append(t)
                mesh_hit = True
        if not sub_parts:
            return empty, empty, None, None, None
        sub = np.concatenate(sub_parts)
        t_proxy = np.concatenate(t_parts) if mesh_hit else None
        return rp[sub], gid[sub], t_proxy, o2[sub], d2[sub]

    def _wave_mesh_blas(
        self, slot: int, blas, o2, d2, clip
    ) -> tuple[np.ndarray, np.ndarray]:
        """Traverse one shared mesh BLAS breadth-first with a whole
        instance group, then reduce to the nearest entering template
        triangle per pair — the scalar ``_traverse_blas``'s ``best``.
        Returns ``(sel, t)``: indices into the input group with a hit,
        and the proxy depths (object-space t equals world t; the
        transform is affine in the ray parameter)."""
        tn, tf, inv_d2 = box_slab(*self._blas_roots[slot], o2, d2)
        live = np.nonzero((tn <= tf) & (tf >= 0.0) & (tn <= clip))[0]
        if live.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)

        level = self._blas_levels[slot]
        o_l, d_l = o2[live], d2[live]
        l_rays, l_refs = self._traverse_wave(level, o_l, inv_d2[live],
                                             clip[live])
        b0 = time.perf_counter()
        pr, tp = expand_pairs(level, l_rays, l_refs)
        self._bin_s += time.perf_counter() - b0
        if pr.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        mesh = blas.mesh
        sel, t = entering_hits(o_l[pr], d_l[pr], tp, mesh.v0, mesh.e1, mesh.e2)
        pr = pr[sel]
        if pr.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        # Nearest entering template triangle per instance pair.
        order = np.lexsort((t, pr))
        pr, t = pr[order], t[order]
        first = np.ones(pr.size, dtype=bool)
        first[1:] = pr[1:] != pr[:-1]
        return live[pr[first]], t[first]
