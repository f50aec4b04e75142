"""Gaussian ray-tracing runtime.

Implements the paper's rendering algorithm (Section III-A / Listing 1)
on one batched engine (:mod:`repro.rt.wavefront`): multi-round k-buffer
tracing with any-hit sorting, early ray termination, and — for GRTX-HW —
traversal checkpointing and replay. Recorded bundles carry byte-accurate
node-fetch traces that :mod:`repro.hwsim` replays for timing.
"""

from repro.rt.config import TraceConfig
from repro.rt.recorder import (
    FETCH_INTERNAL,
    FETCH_LEAF,
    PRIM_CUSTOM,
    PRIM_NONE,
    PRIM_SPHERE,
    PRIM_TRANSFORM,
    PRIM_TRI,
    RayTrace,
    RoundTrace,
)
from repro.rt.kernels import PacketResult
from repro.rt.wavefront import (
    WAVEFRONT_RAY_CHUNK,
    WavefrontTracer,
)
from repro.rt.predictor import PredictorReport, RayPredictor, analyze_predictor
from repro.rt.shading import SceneShading

__all__ = [
    "FETCH_INTERNAL",
    "FETCH_LEAF",
    "PRIM_CUSTOM",
    "PRIM_NONE",
    "PRIM_SPHERE",
    "PRIM_TRANSFORM",
    "PRIM_TRI",
    "PacketResult",
    "PredictorReport",
    "RayTrace",
    "RayPredictor",
    "RoundTrace",
    "SceneShading",
    "TraceConfig",
    "WavefrontTracer",
    "WAVEFRONT_RAY_CHUNK",
    "analyze_predictor",
]
