"""Ray-intersection predictor analysis (Liu et al., MICRO 2021).

The paper argues the ray predictor — which hashes a ray to the primitive
it hit last time and skips upper-level traversal when the prediction
verifies — is *not applicable* to Gaussian ray tracing: "3D Gaussian ray
tracing requires finding **all** intersecting Gaussians along the ray,
making the ray predictor not directly applicable" (Section VII).

This module turns that qualitative claim into numbers. We implement the
predictor's core mechanism (a direction-quantized hash table trained on
one frame and queried on the next) and measure, per ray:

* **prediction hit rate** — how often the predicted Gaussian is among the
  next frame's blended set (the metric the MICRO paper optimizes);
* **coverage** — the fraction of *all* Gaussians that must be blended
  which a verified single prediction supplies.

For ambient occlusion (one hit suffices) a verified prediction ends the
query; for volume rendering, coverage caps the achievable benefit: a ray
that blends 20 Gaussians gains almost nothing from predicting one of
them, because the full traversal still has to run for the other 19.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid the render <-> rt import cycle at runtime
    from repro.render.camera import PinholeCamera
    from repro.render.renderer import GaussianRayTracer


@dataclass(frozen=True)
class PredictorReport:
    """Outcome of the predictor analysis across a frame pair."""

    n_rays: int
    #: Rays whose predicted Gaussian appears in their blended set.
    prediction_hits: int
    #: Mean fraction of each ray's blended set covered by the prediction.
    mean_coverage: float
    #: Mean number of Gaussians blended per ray (the "all hits" burden).
    mean_blended: float

    @property
    def hit_rate(self) -> float:
        return self.prediction_hits / self.n_rays if self.n_rays else 0.0

    @property
    def traversal_savable_fraction(self) -> float:
        """Upper bound on traversal work a verified prediction can remove.

        Even a perfect prediction replaces at most one of the
        ``mean_blended`` required intersections per ray; the remaining
        ones still need the full interval traversal.
        """
        return self.mean_coverage * self.hit_rate


class RayPredictor:
    """Direction-quantized last-hit prediction table.

    Keys quantize the ray's direction octant + angular cell and its
    origin cell, mirroring the MICRO paper's go/no-go hash. The table
    stores the first blended Gaussian (the predictor's natural target:
    the closest significant hit).
    """

    def __init__(self, angular_bins: int = 64, origin_bins: int = 16) -> None:
        if angular_bins < 1 or origin_bins < 1:
            raise ValueError("bin counts must be positive")
        self.angular_bins = angular_bins
        self.origin_bins = origin_bins
        self._table: dict[tuple[int, ...], int] = {}

    def _key(self, origin: np.ndarray, direction: np.ndarray,
             lo: np.ndarray, extent: np.ndarray) -> tuple[int, ...]:
        d = direction / max(float(np.abs(direction).max()), 1e-12)
        a = int((d[0] + 1.0) * 0.5 * (self.angular_bins - 1))
        b = int((d[1] + 1.0) * 0.5 * (self.angular_bins - 1))
        c = int((d[2] + 1.0) * 0.5 * (self.angular_bins - 1))
        cell = np.clip(((origin - lo) / extent * self.origin_bins).astype(int),
                       0, self.origin_bins - 1)
        return (a, b, c, int(cell[0]), int(cell[1]), int(cell[2]))

    def train(self, origins: np.ndarray, directions: np.ndarray,
              first_hits: list[int | None], lo: np.ndarray, extent: np.ndarray) -> None:
        """Insert one frame's first blended Gaussian per ray."""
        for i, hit in enumerate(first_hits):
            if hit is None:
                continue
            self._table[self._key(origins[i], directions[i], lo, extent)] = hit

    def predict(self, origin: np.ndarray, direction: np.ndarray,
                lo: np.ndarray, extent: np.ndarray) -> int | None:
        return self._table.get(self._key(origin, direction, lo, extent))

    @property
    def entries(self) -> int:
        return len(self._table)


def _blended_sets(renderer: GaussianRayTracer, camera: PinholeCamera
                  ) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Trace one frame with blend recording and collect each ray's
    blended Gaussians in blend order."""
    from dataclasses import replace as dc_replace

    from repro.rt.wavefront import WavefrontTracer

    config = dc_replace(renderer.config, record_blended=True)
    tracer = WavefrontTracer(renderer.structure, renderer.shading, config)
    bundle = camera.generate_rays()
    result = tracer.trace_packet(bundle.origins, bundle.directions)
    blended = [[gid for gid, _a, _t in records]
               for records in result.blend_records]
    return bundle.origins, bundle.directions, blended


def analyze_predictor(
    renderer: GaussianRayTracer,
    train_camera: PinholeCamera,
    query_camera: PinholeCamera,
    predictor: RayPredictor | None = None,
) -> PredictorReport:
    """Train on one frame, query on the next, report coverage.

    ``train_camera`` and ``query_camera`` should be nearby viewpoints
    (successive frames of a camera path), the predictor's intended
    deployment.
    """
    predictor = predictor or RayPredictor()
    lo = renderer.cloud.means.min(axis=0)
    hi = renderer.cloud.means.max(axis=0)
    extent = np.where(hi - lo > 0.0, hi - lo, 1.0)

    t_origins, t_dirs, t_blended = _blended_sets(renderer, train_camera)
    first_hits = [b[0] if b else None for b in t_blended]
    predictor.train(t_origins, t_dirs, first_hits, lo, extent)

    q_origins, q_dirs, q_blended = _blended_sets(renderer, query_camera)
    hits = 0
    coverage_sum = 0.0
    blended_sum = 0
    n = len(q_blended)
    for i in range(n):
        need = q_blended[i]
        blended_sum += len(need)
        predicted = predictor.predict(q_origins[i], q_dirs[i], lo, extent)
        if predicted is not None and need and predicted in need:
            hits += 1
            coverage_sum += 1.0 / len(need)
    return PredictorReport(
        n_rays=n,
        prediction_hits=hits,
        mean_coverage=coverage_sum / n if n else 0.0,
        mean_blended=blended_sum / n if n else 0.0,
    )
