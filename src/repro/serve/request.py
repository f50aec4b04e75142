"""Request/job model for the render service.

A :class:`SceneRef` names a scene *declaratively* — workload name, scale,
seed — so requests are cheap to construct, hashable, and reproducible:
the same ref always regenerates the same Gaussian cloud bit-for-bit.
Caching, however, is keyed on *content*: :func:`cloud_fingerprint`
hashes the actual Gaussian arrays, so two refs that happen to generate
identical clouds share cache entries, and a scene edit can never serve a
stale structure or frame.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.gaussians import GaussianCloud, make_workload
from repro.render.renderer import ENGINES
from repro.rt import TraceConfig

#: Tracing modes understood by the service (same set as the render CLI).
MODES = ("baseline", "grtx-sw", "grtx-hw", "grtx")

#: Tracing engines understood by the service: ``ENGINES`` is imported
#: from the renderer (the single source of the valid set) and
#: re-exported here for service callers.


def cloud_fingerprint(cloud: GaussianCloud) -> str:
    """Content hash of a Gaussian cloud.

    Covers every field that can change a built structure or a rendered
    pixel: the arrays (with shape and dtype, so reshaped-but-same-bytes
    data cannot collide), the name, and the kappa ellipsoid cutoff.
    """
    digest = hashlib.sha256()
    digest.update(cloud.name.encode("utf-8"))
    digest.update(repr(float(cloud.kappa)).encode("ascii"))
    for array in (cloud.means, cloud.scales, cloud.rotations,
                  cloud.opacities, cloud.sh):
        digest.update(str((array.shape, array.dtype)).encode("ascii"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class SceneRef:
    """A reproducible reference to one synthetic workload scene."""

    name: str
    scale: float = 1.0 / 400.0
    seed: int | None = None
    sh_degree: int = 1

    @property
    def key(self) -> tuple:
        """Hashable identity of the *recipe* (not the content)."""
        return (self.name.lower(), self.scale, self.seed, self.sh_degree)

    def materialize(self) -> GaussianCloud:
        """Generate the Gaussian cloud this ref describes."""
        return make_workload(self.name, scale=self.scale,
                             sh_degree=self.sh_degree, seed=self.seed)


@dataclass(frozen=True)
class RenderRequest:
    """Everything needed to render one frame, as a hashable value.

    ``scene`` may be a workload name (resolved with ``scale``/``seed``)
    or a fully-specified :class:`SceneRef`.
    """

    scene: str | SceneRef
    proxy: str = "tlas+sphere"
    mode: str = "grtx"
    k: int = 8
    width: int = 32
    height: int = 32
    camera: str = "pinhole"
    scale: float = 1.0 / 400.0
    seed: int | None = None
    engine: str = "scalar"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.width < 1 or self.height < 1:
            raise ValueError("frame dimensions must be positive")
        if isinstance(self.scene, SceneRef):
            # The ref is authoritative; a conflicting request-level scale
            # or seed would be silently ignored — reject it instead.
            defaults = type(self)
            if self.seed is not None or self.scale != defaults.scale:
                raise ValueError(
                    "scene is a SceneRef: set scale/seed on the ref, not "
                    "on the request")

    @property
    def scene_ref(self) -> SceneRef:
        if isinstance(self.scene, SceneRef):
            return self.scene
        return SceneRef(name=self.scene, scale=self.scale, seed=self.seed)

    @property
    def checkpointing(self) -> bool:
        return self.mode in ("grtx-hw", "grtx")

    @property
    def engine_active(self) -> str:
        """The engine that will actually trace this request.

        Evaluates :func:`repro.rt.wavefront.fallback_reason`'s rule from
        request fields alone (the proxy label stands in for the
        structure family), so cache keys always carry the engine a
        render would really use — in particular ``engine="auto"`` and
        the ``"packet"`` alias resolve *before* any frame or tracer key
        is formed.
        """
        from repro.rt.wavefront import (
            WAVEFRONT_PROXIES,
            wavefront_config_supported,
        )

        if (self.engine in ("packet", "wavefront", "auto")
                and self.proxy in WAVEFRONT_PROXIES
                and wavefront_config_supported(self.trace_config())):
            return "wavefront"
        return "scalar"

    def trace_config(self) -> TraceConfig:
        return TraceConfig(k=self.k, checkpointing=self.checkpointing)

    def frame_key(self, scene_hash: str) -> tuple:
        """Frame-cache key: scene *content* + camera + trace config.

        Everything that can change a pixel is in here; nothing else is,
        so equivalent requests coalesce onto one cache entry. The
        *effective* engine is included (engines are parity-matched only
        to 1e-9 per channel, not bit-identical) — keying on the
        requested engine would re-render and double-cache fallback
        combinations whose frames are bit-identical to scalar ones.
        """
        return (scene_hash, self.proxy, self.mode, self.k,
                self.width, self.height, self.camera, self.engine_active)


@dataclass
class RenderResponse:
    """The result of one served request, with cache provenance."""

    request: RenderRequest
    image: np.ndarray
    scene_hash: str
    stats: Any = None
    frame_cache_hit: bool = False
    coalesced: bool = False
    latency_s: float = 0.0


@dataclass
class RenderJob:
    """A submitted request: a handle the caller can wait on."""

    request: RenderRequest
    future: Future = field(repr=False, default_factory=Future)
    #: Wall-clock nanoseconds at enqueue time (0 = never queued); the
    #: dispatcher turns it into the ``serve.queue_wait`` histogram and
    #: span, so queue pressure is visible per request.
    enqueued_ns: int = field(default=0, repr=False, compare=False)
    #: Called as ``on_timeout(job, cancelled)`` when :meth:`result`
    #: times out; the enqueuing server installs its accounting hook
    #: here (``requests.timed_out`` counter, flight breadcrumb).
    on_timeout: Callable | None = field(default=None, repr=False,
                                        compare=False)

    def done(self) -> bool:
        return self.future.done()

    def cancel(self) -> bool:
        """Cancel the job if it has not started rendering; returns
        whether it was cancelled (the dispatcher skips cancelled jobs)."""
        return self.future.cancel()

    def result(self, timeout: float | None = None) -> RenderResponse:
        """The response, waiting up to ``timeout`` seconds.

        A timed-out wait *abandons* the job: the job is cancelled if it
        is still queued (so the dispatcher never renders work nobody is
        waiting for), the server's timeout accounting runs, and the
        ``TimeoutError`` propagates. A job that already started
        rendering cannot be cancelled — it completes and populates the
        caches — but it is still counted as timed out for the caller.
        """
        try:
            return self.future.result(timeout=timeout)
        except TimeoutError:
            cancelled = self.future.cancel()
            if self.on_timeout is not None:
                self.on_timeout(self, cancelled)
            raise

    @property
    def status(self) -> str:
        if self.future.cancelled():
            return "cancelled"
        if not self.future.done():
            return "pending"
        return "failed" if self.future.exception() else "completed"
