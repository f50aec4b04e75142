"""GRTX-SW: two-level acceleration structure with a single shared BLAS.

The TLAS is a BVH over per-Gaussian world AABBs whose leaves hold
*instances*: a 64-byte record with the world->object transform that maps
the Gaussian's kappa-sigma ellipsoid onto the unit sphere. Every instance
references the same BLAS — either a lone unit-sphere primitive (one
ray-AABB + one ray-sphere test per Gaussian, Blackwell-style) or a
template icosphere mesh of 20/80 triangles (ray-triangle hardware path).

Because the BLAS is shared, it is a few hundred bytes to a few KB total
and stays resident in the L1 cache, which is where the paper's >70% L1
hit rates come from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.bvh.builder import BuildParams, build_bvh
from repro.bvh.layout import (
    INSTANCE_BYTES,
    LEAF_HEADER_BYTES,
    SPHERE_PRIM_BYTES,
    TRIANGLE_BYTES,
    internal_node_bytes,
)
from repro.bvh.node import FlatBVH
from repro.gaussians import GaussianCloud, canonical_transforms, world_aabbs
from repro.geometry import unit_icosahedron_circumscribed
from repro.math3d import quat_to_rotation_matrix

#: Alignment between the TLAS region and the BLAS region.
_REGION_ALIGN = 256


@dataclass
class SharedBlas:
    """The single template BLAS shared by all Gaussian instances.

    ``kind`` is ``"sphere"`` (one unit-sphere primitive; no tree needed —
    the RT unit performs one root-box test and one sphere test) or
    ``"icosphere"`` (a small triangle BVH over the circumscribed template
    mesh in object space).
    """

    kind: str
    base_address: int
    subdivisions: int = 0
    bvh: FlatBVH | None = None
    tri_v0: np.ndarray | None = None
    tri_v1: np.ndarray | None = None
    tri_v2: np.ndarray | None = None

    @property
    def root_address(self) -> int:
        if self.kind == "sphere":
            return self.base_address
        return self.base_address + int(self.bvh.node_addr[0])

    @property
    def total_bytes(self) -> int:
        if self.kind == "sphere":
            # One root record: header + box + one sphere primitive.
            return LEAF_HEADER_BYTES + 24 + SPHERE_PRIM_BYTES
        return self.bvh.total_bytes

    @property
    def n_triangles(self) -> int:
        return 0 if self.kind == "sphere" else self.tri_v0.shape[0]


@dataclass
class TwoLevelBVH:
    """TLAS over Gaussian instances + one shared BLAS (GRTX-SW)."""

    tlas: FlatBVH
    blas: SharedBlas
    n_gaussians: int
    world_to_obj_linear: np.ndarray
    world_to_obj_offset: np.ndarray

    @property
    def proxy(self) -> str:
        if self.blas.kind == "sphere":
            return "tlas+sphere"
        return f"tlas+{20 * 4 ** self.blas.subdivisions}-tri"

    @property
    def total_bytes(self) -> int:
        """TLAS (nodes + inline instance records) + shared BLAS."""
        return self.tlas.total_bytes + self.blas.total_bytes

    @property
    def height(self) -> int:
        """Worst-case traversal depth: TLAS height plus BLAS height."""
        blas_height = 1 if self.blas.kind == "sphere" else self.blas.bvh.height
        return self.tlas.height + blas_height

    def instance_address(self, leaf_index: int, slot: int) -> int:
        """Byte address of one instance record inside a TLAS leaf."""
        return int(self.tlas.leaf_addr[leaf_index]) + LEAF_HEADER_BYTES + slot * INSTANCE_BYTES


def _build_shared_blas(blas_kind: str, subdivisions: int, base_address: int) -> SharedBlas:
    if blas_kind == "sphere":
        return SharedBlas(kind="sphere", base_address=base_address)
    if blas_kind != "icosphere":
        raise ValueError(f"unknown BLAS kind {blas_kind!r}; expected sphere or icosphere")
    verts, faces = unit_icosahedron_circumscribed(subdivisions)
    v0 = verts[faces[:, 0]]
    v1 = verts[faces[:, 1]]
    v2 = verts[faces[:, 2]]
    lo = np.minimum(np.minimum(v0, v1), v2)
    hi = np.maximum(np.maximum(v0, v1), v2)
    # The template mesh is tiny; a shallow wide tree keeps it to one or
    # two nodes of depth, as a real builder would produce.
    bvh = build_bvh(lo, hi, TRIANGLE_BYTES, BuildParams(width=6, leaf_size=4))
    return SharedBlas(
        kind="icosphere",
        base_address=base_address,
        subdivisions=subdivisions,
        bvh=bvh,
        tri_v0=v0,
        tri_v1=v1,
        tri_v2=v2,
    )


def _instance_proxy_aabbs(
    cloud: GaussianCloud, subdivisions: int
) -> tuple[np.ndarray, np.ndarray]:
    """World AABBs of each instance-transformed template icosphere.

    The circumscribed template sticks out beyond the ellipsoid, so the
    TLAS must bound the *proxy geometry* the BLAS actually reports hits
    on (exactly as a Vulkan TLAS instance box derives from the BLAS root
    box).  Bounding only the ellipsoid made interval-constrained
    multiround traversal unsound: a proxy hit beyond its leaf box exit
    was pruned by the next round's ``t_min`` and dropped forever,
    diverging from singleround.
    """
    verts, _ = unit_icosahedron_circumscribed(subdivisions)
    rot = quat_to_rotation_matrix(cloud.rotations)
    radii = cloud.kappa * cloud.scales
    scaled = verts[None, :, :] * radii[:, None, :]
    world = np.einsum("nij,nvj->nvi", rot, scaled) + cloud.means[:, None, :]
    return world.min(axis=1), world.max(axis=1)


def build_two_level(
    cloud: GaussianCloud,
    blas_kind: str = "sphere",
    subdivisions: int = 0,
    params: BuildParams | None = None,
) -> TwoLevelBVH:
    """Build the GRTX-SW structure for a scene.

    ``blas_kind="sphere"`` gives the unit-sphere BLAS (Fig 22);
    ``blas_kind="icosphere"`` with ``subdivisions`` 0/1 gives the
    TLAS+20-tri / TLAS+80-tri configurations of Fig 12.
    """
    if blas_kind == "icosphere":
        lo, hi = _instance_proxy_aabbs(cloud, subdivisions)
    else:
        lo, hi = world_aabbs(cloud)
    if params is None:
        params = BuildParams()
    # TLAS leaves hold exactly one instance: hardware instance nodes are
    # individual records the RT unit fetches (and transforms through) one
    # at a time, unlike packed triangle leaves.
    tlas_params = replace(params, leaf_size=1)
    tlas = build_bvh(lo, hi, INSTANCE_BYTES, tlas_params)
    blas_base = -(-tlas.total_bytes // _REGION_ALIGN) * _REGION_ALIGN
    blas = _build_shared_blas(blas_kind, subdivisions, blas_base)
    if blas.bvh is not None:
        blas.bvh.rebase(blas_base)
    _, world_to_obj = canonical_transforms(cloud)
    return TwoLevelBVH(
        tlas=tlas,
        blas=blas,
        n_gaussians=len(cloud),
        world_to_obj_linear=world_to_obj.linear,
        world_to_obj_offset=world_to_obj.offset,
    )
