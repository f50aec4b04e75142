"""Size and shape statistics for acceleration structures (Table II, Fig 5b)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bvh.monolithic import MonolithicBVH
from repro.bvh.two_level import TwoLevelBVH


@dataclass(frozen=True)
class BVHStats:
    """Structural summary of one acceleration structure."""

    proxy: str
    n_gaussians: int
    n_primitives: int
    n_internal_nodes: int
    n_leaves: int
    height: int
    total_bytes: int

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)


def structure_stats(structure: MonolithicBVH | TwoLevelBVH) -> BVHStats:
    """Compute :class:`BVHStats` for either structure family."""
    if isinstance(structure, MonolithicBVH):
        bvh = structure.bvh
        return BVHStats(
            proxy=structure.proxy,
            n_gaussians=structure.n_gaussians,
            n_primitives=bvh.n_prims,
            n_internal_nodes=bvh.n_nodes,
            n_leaves=bvh.n_leaves,
            height=structure.height,
            total_bytes=structure.total_bytes,
        )
    if isinstance(structure, TwoLevelBVH):
        tlas = structure.tlas
        blas_nodes = 0 if structure.blas.bvh is None else structure.blas.bvh.n_nodes
        blas_leaves = 0 if structure.blas.bvh is None else structure.blas.bvh.n_leaves
        return BVHStats(
            proxy=structure.proxy,
            n_gaussians=structure.n_gaussians,
            n_primitives=tlas.n_prims + structure.blas.n_triangles,
            n_internal_nodes=tlas.n_nodes + blas_nodes,
            n_leaves=tlas.n_leaves + max(blas_leaves, 1),
            height=structure.height,
            total_bytes=structure.total_bytes,
        )
    raise TypeError(f"unsupported structure type {type(structure).__name__}")
