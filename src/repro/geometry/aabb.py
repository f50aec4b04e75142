"""Axis-aligned bounding boxes and the slab intersection test.

The BVH stores child boxes in struct-of-arrays form; the vectorized
``ray_aabbs`` test against all children of a 6-wide node at once is the
inner loop of traversal, so it avoids allocations where possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AABB:
    """An axis-aligned box ``[lo, hi]`` (both inclusive, shape ``(3,)``)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))

    @classmethod
    def empty(cls) -> "AABB":
        """The identity element for :meth:`union` (inverted infinite box)."""
        return cls(lo=np.full(3, np.inf), hi=np.full(3, -np.inf))

    @classmethod
    def from_points(cls, points: np.ndarray) -> "AABB":
        """Tight box around a point set ``(n, 3)``."""
        points = np.asarray(points, dtype=np.float64)
        return cls(lo=points.min(axis=0), hi=points.max(axis=0))

    def union(self, other: "AABB") -> "AABB":
        return AABB(lo=np.minimum(self.lo, other.lo), hi=np.maximum(self.hi, other.hi))

    def contains(self, other: "AABB") -> bool:
        return bool(np.all(self.lo <= other.lo + 1e-9) and np.all(self.hi >= other.hi - 1e-9))

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def surface_area(self) -> float:
        """Surface area, the SAH cost driver. Empty boxes report 0."""
        ext = self.extent
        if np.any(ext < 0.0):
            return 0.0
        return float(2.0 * (ext[0] * ext[1] + ext[1] * ext[2] + ext[2] * ext[0]))


def merge_aabbs(lo: np.ndarray, hi: np.ndarray) -> AABB:
    """Union of a batch of boxes given as ``(n, 3)`` lo/hi arrays."""
    return AABB(lo=np.min(lo, axis=0), hi=np.max(hi, axis=0))


def ray_aabb(
    origin: np.ndarray,
    inv_direction: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    t_min: float,
    t_max: float,
) -> tuple[bool, float]:
    """Slab test of one ray against one box.

    ``inv_direction`` is the precomputed component-wise reciprocal of the
    ray direction (with infinities for zero components, which the slab
    method handles via IEEE semantics). Returns ``(hit, t_entry)`` where
    ``t_entry`` is the clipped entry distance.
    """
    t0 = (lo - origin) * inv_direction
    t1 = (hi - origin) * inv_direction
    t_near = np.minimum(t0, t1)
    t_far = np.maximum(t0, t1)
    entry = max(float(np.max(t_near)), t_min)
    exit_ = min(float(np.min(t_far)), t_max)
    return entry <= exit_, entry


def ray_aabbs(
    origin: np.ndarray,
    inv_direction: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    t_min: float,
    t_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Slab test of one ray against ``n`` boxes at once.

    ``lo``/``hi`` are ``(n, 3)``. Returns ``(hit_mask, t_entry)`` arrays of
    shape ``(n,)``. This is the vectorized form used when testing all
    children of a BVH-6 node in one call.
    """
    t0 = (lo - origin) * inv_direction
    t1 = (hi - origin) * inv_direction
    t_near = np.minimum(t0, t1).max(axis=1)
    t_far = np.maximum(t0, t1).min(axis=1)
    entry = np.maximum(t_near, t_min)
    exit_ = np.minimum(t_far, t_max)
    return entry <= exit_, entry
