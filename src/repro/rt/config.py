"""The rendering algorithm's configuration, shared by every layer that
traces, keys caches on or replays a frame."""

from __future__ import annotations

from dataclasses import dataclass


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
