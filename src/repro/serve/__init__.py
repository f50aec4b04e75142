"""Batched, tile-parallel render serving with scene & frame caching.

The serving layer turns the one-shot renderer into a request-driven
service:

* :mod:`repro.serve.request` — hashable :class:`RenderRequest` values
  and content-hashed scene references;
* :mod:`repro.serve.registry` — :class:`SceneRegistry`, which builds
  each (scene, proxy, params) acceleration structure exactly once and
  can persist builds to disk;
* :mod:`repro.serve.tiles` — :class:`TileScheduler`, which fans a frame
  out over a process pool and reassembles a bit-identical image;
* :mod:`repro.serve.server` — :class:`RenderServer`, the front end with
  a frame cache, in-flight request coalescing, and sync/async/batch
  APIs.

Quickstart::

    from repro.serve import RenderRequest, RenderServer

    server = RenderServer(workers=4)
    response = server.render(RenderRequest(scene="train", width=64, height=64))
    response.image          # (64, 64, 3) float RGB
    server.stats_report()   # cache hit rates, builds, render seconds
"""

from repro.serve.cache import CacheStats, LRUCache
from repro.serve.registry import SceneRegistry
from repro.serve.request import (
    RenderJob,
    RenderRequest,
    RenderResponse,
    SceneRef,
    cloud_fingerprint,
)
from repro.serve.server import RenderServer, ServerMetrics, ServerSaturated
from repro.serve.tiles import Tile, TileScheduler, split_frame

__all__ = [
    "CacheStats",
    "LRUCache",
    "RenderJob",
    "RenderRequest",
    "RenderResponse",
    "RenderServer",
    "SceneRef",
    "SceneRegistry",
    "ServerMetrics",
    "ServerSaturated",
    "Tile",
    "TileScheduler",
    "cloud_fingerprint",
    "split_frame",
]
