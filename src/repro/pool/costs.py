"""Cost-aware tile splitting from per-tile render-cost feedback.

Uniform tiles tail-latency-bound skewed scenes: the few tiles covering
the dense part of the frame cost orders of magnitude more than the empty
ones, and the frame finishes when the last expensive tile does. The
:class:`TileCostModel` closes the loop: after each frame the scheduler
records what every tile actually cost, the model folds that into a
coarse per-pixel cost-density map for the scene, and the next frame of
the same scene is split into tiles of roughly *equal predicted cost*
instead of equal area.

The output is only ever a partition of the frame into rectangles, so the
bit-identity contract of tiled rendering is untouched — cost awareness
changes *where* the tile borders fall, never what any pixel computes.

Everything here is plain numpy on small grids; no processes, no locks
(the owning scheduler serializes access).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

import numpy as np

#: Rectangle as (x0, y0, width, height) in pixels.
Rect = tuple[int, int, int, int]


class TileCostModel:
    """Per-scene cost-density maps with an equal-cost frame splitter.

    Parameters
    ----------
    grid:
        Edge of the square accumulation grid. Densities are stored in
        normalized frame coordinates, so one map serves every resolution
        of the scene.
    capacity:
        Number of scenes tracked (LRU beyond that).
    blend:
        EMA weight of the newest frame's measurements (1.0 = replace).
    """

    def __init__(self, grid: int = 16, capacity: int = 32,
                 blend: float = 0.5) -> None:
        if grid < 1:
            raise ValueError("grid must be >= 1")
        if not 0.0 < blend <= 1.0:
            raise ValueError("blend must be in (0, 1]")
        self.grid = grid
        self.capacity = capacity
        self.blend = blend
        self._maps: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self.frames_recorded = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._maps

    def forget(self, key: Hashable) -> None:
        self._maps.pop(key, None)

    # -- feedback -------------------------------------------------------

    def record(self, key: Hashable, frame_width: int, frame_height: int,
               rects: list[Rect], costs: list[float]) -> None:
        """Fold one frame's measured (tile, seconds) pairs into the map.

        Each tile's cost is spread uniformly over its pixels and
        accumulated onto the grid cells it overlaps, area-weighted, so
        the stored map is cost *density* (seconds per pixel, normalized).
        """
        if len(rects) != len(costs):
            raise ValueError("rects and costs must align")
        if frame_width < 1 or frame_height < 1 or not rects:
            return
        grid = self.grid
        density = np.zeros((grid, grid))
        weight = np.zeros((grid, grid))
        sx = grid / frame_width
        sy = grid / frame_height
        for (x0, y0, w, h), cost in zip(rects, costs):
            per_pixel = max(float(cost), 0.0) / max(w * h, 1)
            gx0, gx1 = x0 * sx, (x0 + w) * sx
            gy0, gy1 = y0 * sy, (y0 + h) * sy
            for gy in range(int(gy0), min(int(np.ceil(gy1)), grid)):
                oy = min(gy + 1, gy1) - max(gy, gy0)
                if oy <= 0:
                    continue
                for gx in range(int(gx0), min(int(np.ceil(gx1)), grid)):
                    ox = min(gx + 1, gx1) - max(gx, gx0)
                    if ox <= 0:
                        continue
                    area = ox * oy
                    density[gy, gx] += per_pixel * area
                    weight[gy, gx] += area
        filled = weight > 0
        density[filled] /= weight[filled]
        previous = self._maps.pop(key, None)
        if previous is not None:
            density = self.blend * density + (1.0 - self.blend) * previous
        self._maps[key] = density
        while len(self._maps) > self.capacity:
            self._maps.popitem(last=False)
        self.frames_recorded += 1

    # -- prediction -----------------------------------------------------

    def _pixel_costs(self, key: Hashable, width: int, height: int) -> np.ndarray | None:
        density = self._maps.get(key)
        if density is None:
            return None
        self._maps.move_to_end(key)
        rows = np.minimum((np.arange(height) * self.grid) // max(height, 1),
                          self.grid - 1)
        cols = np.minimum((np.arange(width) * self.grid) // max(width, 1),
                          self.grid - 1)
        pixel = density[np.ix_(rows, cols)]
        # A strictly positive floor keeps zero-cost regions splittable
        # (and guards against a degenerate all-zero first measurement).
        floor = max(float(pixel.max()) * 1e-3, 1e-12)
        return np.maximum(pixel, floor)

    def predicted_cost(self, key: Hashable, rect: Rect,
                       frame_width: int, frame_height: int) -> float:
        """Predicted cost of one rect (testing / introspection)."""
        pixel = self._pixel_costs(key, frame_width, frame_height)
        if pixel is None:
            return 0.0
        x0, y0, w, h = rect
        return float(pixel[y0:y0 + h, x0:x0 + w].sum())

    def plan(self, key: Hashable, frame_width: int, frame_height: int,
             n_tiles: int) -> list[Rect] | None:
        """Split the frame into ``<= n_tiles`` rects of ~equal predicted
        cost, or ``None`` when the scene has no recorded history yet.

        Greedy recursive bisection: repeatedly split the most expensive
        splittable rect along its longer axis at the cost-balanced pixel
        boundary. Always returns an exact partition of the frame.
        """
        pixel = self._pixel_costs(key, frame_width, frame_height)
        if pixel is None:
            return None
        n_tiles = max(1, min(n_tiles, frame_width * frame_height))
        rects: list[Rect] = [(0, 0, frame_width, frame_height)]
        costs = [float(pixel.sum())]
        while len(rects) < n_tiles:
            order = sorted(range(len(rects)), key=lambda i: -costs[i])
            split = None
            for i in order:
                x0, y0, w, h = rects[i]
                if w > 1 or h > 1:
                    split = i
                    break
            if split is None:
                break
            x0, y0, w, h = rects.pop(split)
            costs.pop(split)
            region = pixel[y0:y0 + h, x0:x0 + w]
            if w >= h and w > 1:
                line = region.sum(axis=0)
                cut = self._balanced_cut(line)
                parts = [(x0, y0, cut, h), (x0 + cut, y0, w - cut, h)]
            else:
                line = region.sum(axis=1)
                cut = self._balanced_cut(line)
                parts = [(x0, y0, w, cut), (x0, y0 + cut, w, h - cut)]
            for part in parts:
                px, py, pw, ph = part
                rects.append(part)
                costs.append(float(pixel[py:py + ph, px:px + pw].sum()))
        return rects

    @staticmethod
    def _balanced_cut(line: np.ndarray) -> int:
        """Index splitting a 1-D cost profile into two ~equal halves,
        with at least one element on each side."""
        cum = np.cumsum(line)
        total = cum[-1]
        cut = int(np.searchsorted(cum, total / 2.0)) + 1
        return min(max(cut, 1), len(line) - 1)
