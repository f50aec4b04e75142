"""Gaussian ray-tracing runtime.

Implements the paper's rendering algorithm (Section III-A / Listing 1):
multi-round k-buffer tracing with any-hit sorting, early ray termination,
and — for GRTX-HW — traversal checkpointing and replay. The tracer records
byte-accurate node-fetch traces that :mod:`repro.hwsim` replays for timing.
"""

from repro.rt.kbuffer import EvictionBuffer, KBuffer, KBufferEntry
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
from repro.rt.pipeline import (
    ACCEPT,
    IGNORE,
    TERMINATE,
    DepthPayload,
    Hit,
    RayTracingPipeline,
    ShadowPayload,
    depth_pipeline,
    shadow_pipeline,
)
from repro.rt.kernels import PacketResult
from repro.rt.wavefront import (
    WAVEFRONT_RAY_CHUNK,
    WavefrontTracer,
    resolve_engine,
)
from repro.rt.predictor import PredictorReport, RayPredictor, analyze_predictor
from repro.rt.shading import SceneShading
from repro.rt.tracer import RayOutcome, TraceConfig, Tracer

__all__ = [
    "ACCEPT",
    "DepthPayload",
    "EvictionBuffer",
    "FETCH_INTERNAL",
    "FETCH_LEAF",
    "Hit",
    "IGNORE",
    "KBuffer",
    "KBufferEntry",
    "PRIM_CUSTOM",
    "PRIM_NONE",
    "PRIM_SPHERE",
    "PRIM_TRANSFORM",
    "PRIM_TRI",
    "PacketResult",
    "PredictorReport",
    "RayOutcome",
    "RayTrace",
    "RayPredictor",
    "RayTracingPipeline",
    "RoundTrace",
    "SceneShading",
    "ShadowPayload",
    "TERMINATE",
    "TraceConfig",
    "Tracer",
    "WavefrontTracer",
    "WAVEFRONT_RAY_CHUNK",
    "analyze_predictor",
    "depth_pipeline",
    "resolve_engine",
    "shadow_pipeline",
]
