"""The end-to-end Gaussian ray tracer.

Glues together camera ray generation, the batched wavefront engine
(:mod:`repro.rt.wavefront`), optional analytic objects (mirror / glass)
for secondary rays, and per-render statistics. A recorded render's
:class:`RenderResult` carries the per-ray fetch traces, which
:mod:`repro.hwsim` replays for cycle-level timing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

import numpy as np

from repro.bvh.monolithic import MonolithicBVH
from repro.bvh.two_level import TwoLevelBVH
from repro.gaussians import GaussianCloud
from repro.render.camera import PinholeCamera
from repro.render.effects import SceneObjects
from repro.render.image import ImageBuffer
from repro.rt import RayTrace, SceneShading, TraceConfig
from repro.rt.recorder import unique_fetch_counts
from repro.rt.wavefront import WavefrontTracer, check_engine

#: Secondary rays whose carried weight is below this contribute nothing
#: visible; skip them (matches shooting secondary rays only from surviving
#: primary paths).
_MIN_SECONDARY_WEIGHT = 1e-3


@dataclass
class RenderStats:
    """Aggregate functional statistics for one render."""

    n_rays: int = 0
    n_primary: int = 0
    n_secondary: int = 0
    rounds_total: int = 0
    blended_total: int = 0
    anyhit_calls: int = 0
    kbuffer_ops: int = 0
    false_positives: int = 0
    total_internal_visits: int = 0
    total_leaf_visits: int = 0
    unique_internal_visits: int = 0
    unique_leaf_visits: int = 0
    checkpoints_written: int = 0
    evictions_written: int = 0
    ckpt_high_water: int = 0
    evict_high_water: int = 0
    rays_terminated_early: int = 0

    @property
    def total_visits(self) -> int:
        return self.total_internal_visits + self.total_leaf_visits

    @property
    def unique_visits(self) -> int:
        return self.unique_internal_visits + self.unique_leaf_visits

    @property
    def redundancy(self) -> float:
        """Total / unique node visits — the gap Figure 7 quantifies."""
        unique = self.unique_visits
        return self.total_visits / unique if unique else 0.0

    #: Fields that are per-ray maxima rather than additive counters;
    #: every other field merges by summation.
    _MAX_FIELDS = ("ckpt_high_water", "evict_high_water")

    def merge(self, other: "RenderStats") -> None:
        """Fold another stats block into this one (tile reassembly).

        Counters add; the checkpoint/eviction high-water marks are maxima
        over rays, so the merged high water is the max of the parts. The
        field set is derived from the dataclass so new counters merge
        without touching this method.
        """
        for spec in fields(self):
            name = spec.name
            combine = max if name in self._MAX_FIELDS else operator.add
            setattr(self, name, combine(getattr(self, name), getattr(other, name)))

    def absorb(self, trace: RayTrace, rounds: int, blended: int,
               terminated: bool, unique) -> None:
        """Count one traced ray with its ``unique_fetch_counts`` row."""
        self.n_rays += 1
        if trace.label == "primary":
            self.n_primary += 1
        else:
            self.n_secondary += 1
        self.rounds_total += rounds
        self.blended_total += blended
        self.total_internal_visits += trace.total_internal
        self.total_leaf_visits += trace.total_leaf
        self.unique_internal_visits += int(unique[0])
        self.unique_leaf_visits += int(unique[1])
        self.ckpt_high_water = max(self.ckpt_high_water, trace.ckpt_high_water)
        self.evict_high_water = max(self.evict_high_water, trace.evict_high_water)
        if terminated:
            self.rays_terminated_early += 1
        for rt in trace.rounds:
            self.anyhit_calls += rt.anyhit_calls
            self.kbuffer_ops += rt.kbuffer_ops
            self.false_positives += rt.false_positives
            self.checkpoints_written += rt.checkpoints_written
            self.evictions_written += rt.evictions_written


@dataclass
class BundleResult:
    """Colors and bookkeeping for one traced batch of primary rays.

    ``colors`` is aligned with the input ray order; ``pixel_ids`` maps each
    ray back to its framebuffer slot, so a caller can scatter a partial
    frame (a tile) into a full :class:`ImageBuffer`.
    """

    colors: np.ndarray
    pixel_ids: np.ndarray
    stats: RenderStats
    traces: list[RayTrace] = field(repr=False, default_factory=list)


@dataclass
class RenderResult:
    """One rendered frame plus everything the evaluation needs."""

    image: np.ndarray
    stats: RenderStats
    traces: list[RayTrace] = field(repr=False, default_factory=list)
    config: TraceConfig | None = None
    structure_bytes: int = 0

    def drop_traces(self) -> None:
        """Free the (large) per-ray traces once timing replay is done."""
        self.traces = []


class GaussianRayTracer:
    """Public renderer API: scene + acceleration structure -> image.

    Parameters
    ----------
    cloud:
        The Gaussian scene.
    structure:
        A :class:`MonolithicBVH` or :class:`TwoLevelBVH` built over it,
        or an already-flattened :class:`~repro.bvh.flatten.FlatStructure`
        (what pool workers receive).
    config:
        Tracing configuration (k, multi/single round, checkpointing, ...).
    engine:
        ``"auto"`` (default) or ``"wavefront"``; both name the one
        batched engine, which covers every structure and config,
        checkpointing included.  Any other name raises ``ValueError``;
        the tracer keeps neither.
    """

    def __init__(
        self,
        cloud: GaussianCloud,
        structure: MonolithicBVH | TwoLevelBVH,
        config: TraceConfig | None = None,
        engine: str = "auto",
    ) -> None:
        check_engine(engine)
        self.cloud = cloud
        self.structure = structure
        self.config = config or TraceConfig()
        self.shading = SceneShading(cloud)
        #: The batched tracer; every consumer (tile scheduler, tests,
        #: pool workers) holds it through this attribute.
        self.packet = WavefrontTracer(structure, self.shading, self.config)

    def render(
        self,
        camera: PinholeCamera,
        objects: SceneObjects | None = None,
        keep_traces: bool = True,
    ) -> RenderResult:
        """Render one frame.

        When ``objects`` is given, primary rays hitting a mirror or glass
        object are clipped there and a single secondary ray continues
        through the Gaussian scene (the Figure 23 setup).
        """
        bundle = camera.generate_rays()
        result = self.trace_rays(
            bundle.origins, bundle.directions, bundle.pixel_ids,
            objects=objects, keep_traces=keep_traces,
        )
        framebuffer = ImageBuffer(camera.width, camera.height)
        framebuffer.scatter(result.pixel_ids, result.colors)
        return RenderResult(
            image=framebuffer.array,
            stats=result.stats,
            traces=result.traces,
            config=self.config,
            structure_bytes=self.structure.total_bytes,
        )

    def trace_rays(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        pixel_ids: np.ndarray,
        objects: SceneObjects | None = None,
        keep_traces: bool = True,
    ) -> BundleResult:
        """Trace an explicit batch of primary rays (a frame or a tile).

        ``directions`` must already be unit-length, exactly as produced by
        :meth:`PinholeCamera.generate_rays`; they are used as-is so that a
        tile sliced out of a full-frame bundle traces bit-identically to
        the untiled render.

        The whole batch is traced as one bundle, plus (when scene objects
        clip primaries) one secondary bundle.  ``keep_traces`` selects
        the *recorded* path (:meth:`WavefrontTracer.trace_packet_recorded`):
        per-ray fetch traces and every :class:`RenderStats` counter
        absorbed from them, at extra recording cost — so serving paths
        keep it off and timing runs turn it on.
        """
        origins = np.asarray(origins, dtype=np.float64)
        directions = np.asarray(directions, dtype=np.float64)
        n = origins.shape[0]
        stats = RenderStats()
        pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
        if n == 0:
            return BundleResult(np.zeros((0, 3)), pixel_ids, stats)

        t_clip = None
        objs: list | None = None
        if objects is not None:
            t_clip = np.full(n, float("inf"))
            objs = [None] * n
            for i in range(n):
                t_clip[i], objs[i] = objects.nearest(origins[i], directions[i])

        traces: list[RayTrace] = []
        if keep_traces:
            result, primary_traces = self.packet.trace_packet_recorded(
                origins, directions, t_clip, label="primary")
            traces.extend(primary_traces)
            self._absorb_recorded(stats, result, primary_traces, primary=True)
        else:
            result = self.packet.trace_packet(origins, directions, t_clip)
            self._absorb_packet(stats, result, primary=True)
        colors = result.colors

        if objs is not None:
            live = [i for i in range(n)
                    if objs[i] is not None
                    and result.transmittance[i] > _MIN_SECONDARY_WEIGHT]
            if live:
                sec_o = np.empty((len(live), 3))
                sec_d = np.empty((len(live), 3))
                tints = np.empty((len(live), 3))
                for j, i in enumerate(live):
                    sec_o[j], sec_d[j] = objs[i].scatter(
                        origins[i], directions[i], t_clip[i])
                    tints[j] = np.asarray(objs[i].tint)
                if keep_traces:
                    secondary, sec_traces = self.packet.trace_packet_recorded(
                        sec_o, sec_d, label="secondary")
                    traces.extend(sec_traces)
                    self._absorb_recorded(stats, secondary, sec_traces,
                                          primary=False)
                else:
                    secondary = self.packet.trace_packet(sec_o, sec_d)
                    self._absorb_packet(stats, secondary, primary=False)
                weight = result.transmittance[live]
                colors[live] = colors[live] + (
                    weight[:, None] * tints * secondary.colors)

        return BundleResult(colors=colors, pixel_ids=pixel_ids, stats=stats,
                            traces=traces)

    @staticmethod
    def _absorb_recorded(stats: RenderStats, result, traces, primary: bool) -> None:
        """Absorb a recorded bundle one ray at a time: every counter
        (visit totals, anyhit calls, k-buffer ops, ...) comes from the
        reconstructed traces, so the stats block equals the scalar
        oracle's exactly."""
        rounds = result.rounds
        blended = result.blended
        terminated = result.terminated
        unique = unique_fetch_counts(traces)
        for i, trace in enumerate(traces):
            trace.label = "primary" if primary else "secondary"
            stats.absorb(trace, int(rounds[i]), int(blended[i]),
                         bool(terminated[i]), unique[i])

    @staticmethod
    def _absorb_packet(stats: RenderStats, result, primary: bool) -> None:
        n = result.n_rays
        stats.n_rays += n
        if primary:
            stats.n_primary += n
        else:
            stats.n_secondary += n
        # The round rule assumes k-sized blend rounds; with checkpointing
        # a recorded ray also stops a round early when no checkpoint or
        # eviction is left, so on the plain path rounds_total is a work
        # measure of its own for those configs.
        stats.rounds_total += int(result.rounds.sum())
        stats.blended_total += int(result.blended.sum())
        stats.rays_terminated_early += int(np.count_nonzero(result.terminated))
        # One canonical evaluation per candidate pair; the recorded path
        # (and the scalar oracle) re-evaluate across rounds, so these two
        # are work measures of the plain path, not parity-matched
        # counters.
        stats.anyhit_calls += result.anyhit_calls
        stats.kbuffer_ops += result.anyhit_calls
        stats.false_positives += result.false_positives
