"""One flattened SoA layout for every acceleration structure.

Both structure families — the monolithic proxy BVH and GRTX-SW's
TLAS + shared BLAS — lower to a single numpy representation,
:class:`FlatStructure`:

* a **root level** (the monolithic BVH or the TLAS) as the familiar
  struct-of-arrays wide-BVH tables of :class:`~repro.bvh.node.FlatBVH`;
* **leaf-ordered primitive tables**: the triangle soup
  (``v0``/``e1``/``e2`` + owning Gaussian) for triangle proxies, or the
  Gaussian-id permutation for custom primitives and instances — gathered
  into leaf order once at flatten time so no traverser re-permutes;
* for two-level structures, an **instance table** (leaf-ordered Gaussian
  id, world->object transform, shared-BLAS slot) and a **BLAS table**
  whose entries are either the analytic unit sphere or a template
  triangle mesh with its own flattened level.

Both tracing engines consume this one layout — the scalar
:class:`~repro.rt.tracer.Tracer` builds its plain-list hot-loop tables
from it and the vectorized :class:`~repro.rt.wavefront.WavefrontTracer`
traverses its arrays directly — so the engines cannot drift apart on
what a structure *is*.  The flattened form is also what ships to pool
workers: it is self-contained (a worker can build either engine from it
without the original structure objects) and it round-trips the byte
accounting — ``total_bytes``, ``height`` and ``instance_address`` match
the source structure exactly.

``flatten`` memoizes per structure object (identity-checked weak
registry, so recycled ids can never serve a stale layout), making the
per-frame flatten in the serving path a dictionary hit.  Like
``stable_fingerprint`` in the pool layer, it treats structures as
immutable once flattened: the layout shares the source's node tables
(in-place box refits flow through) but snapshots leaf-ordered copies of
the primitive soup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.layout import INSTANCE_BYTES, LEAF_HEADER_BYTES
from repro.bvh.monolithic import MonolithicBVH
from repro.bvh.node import FlatBVH
from repro.bvh.two_level import HeteroTwoLevelBVH, TwoLevelBVH
from repro.util import IdentityMemo

#: What a root level's leaves reference.
PRIMS_TRIANGLES = "triangles"
PRIMS_GAUSSIANS = "gaussians"
PRIMS_INSTANCES = "instances"

#: BLAS kinds in the flattened layout (``"mesh"`` covers every template
#: triangle BLAS; the source structure's ``"icosphere"`` label maps here).
BLAS_SPHERE = "sphere"
BLAS_MESH = "mesh"


@dataclass
class FlatMesh:
    """A leaf-ordered triangle soup for one level.

    ``v0`` is the anchor vertex and ``e1``/``e2`` the edge vectors — the
    precomputed Möller–Trumbore inputs both engines consume.  ``owner``
    maps each triangle to its Gaussian (monolithic proxies); the shared
    template BLAS has no owner (the instance supplies the Gaussian).
    """

    v0: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    owner: np.ndarray | None = None

    @property
    def n_triangles(self) -> int:
        return self.v0.shape[0]


@dataclass
class FlatBlas:
    """One shared-BLAS slot of a flattened two-level structure."""

    kind: str
    base_address: int
    root_address: int
    total_bytes: int
    height: int
    bvh: FlatBVH | None = None
    mesh: FlatMesh | None = None


@dataclass
class FlatStructure:
    """The single flattened layout every structure lowers to.

    ``root`` is the monolithic BVH or the TLAS; ``root_prims`` says what
    its leaves hold (one of :data:`PRIMS_TRIANGLES` /
    :data:`PRIMS_GAUSSIANS` / :data:`PRIMS_INSTANCES`).  The byte
    accounting (``total_bytes``, ``height``, ``instance_address``)
    round-trips the source structure exactly.
    """

    proxy: str
    n_gaussians: int
    two_level: bool
    root: FlatBVH
    root_prims: str
    #: Leaf-ordered triangle soup (triangle proxies only).
    mesh: FlatMesh | None = None
    #: Leaf-ordered Gaussian id per root primitive (custom primitives
    #: and instances; ``None`` for triangle proxies, whose triangles
    #: carry owners in ``mesh``).
    prim_gid: np.ndarray | None = None
    #: Per-instance shared-BLAS slot, leaf order (two-level only).
    inst_blas: np.ndarray | None = None
    #: Per-instance world->object transform, leaf order (two-level
    #: only); what the wavefront tracer transforms ray bundles with.  Equal
    #: by construction to the shading tables gathered by ``prim_gid`` —
    #: both derive from ``canonical_transforms`` over the same cloud —
    #: which the test suite guards (that equality is what keeps the two
    #: engines' object-space rays bit-identical).
    inst_w2o_linear: np.ndarray | None = None
    inst_w2o_offset: np.ndarray | None = None
    #: Shared-BLAS table indexed by ``inst_blas`` slot (empty when
    #: monolithic).
    blas: tuple[FlatBlas, ...] = ()

    @property
    def is_triangle_proxy(self) -> bool:
        return self.root_prims == PRIMS_TRIANGLES

    @property
    def total_bytes(self) -> int:
        return self.root.total_bytes + sum(b.total_bytes for b in self.blas)

    @property
    def height(self) -> int:
        blas_height = max((b.height for b in self.blas), default=0)
        return self.root.height + blas_height

    def instance_address(self, leaf_index: int, slot: int) -> int:
        """Byte address of one instance record inside a TLAS leaf."""
        if not self.two_level:
            raise ValueError("monolithic structures have no instance records")
        return (int(self.root.leaf_addr[leaf_index]) + LEAF_HEADER_BYTES
                + slot * INSTANCE_BYTES)


def _leaf_ordered_mesh(v0, v1, v2, order, owner=None) -> FlatMesh:
    """Gather a triangle soup into leaf order with precomputed edges."""
    return FlatMesh(
        v0=np.ascontiguousarray(v0[order]),
        e1=np.ascontiguousarray(v1[order] - v0[order]),
        e2=np.ascontiguousarray(v2[order] - v0[order]),
        owner=(np.ascontiguousarray(owner[order].astype(np.int64))
               if owner is not None else None),
    )


def _flatten_monolithic(structure: MonolithicBVH) -> FlatStructure:
    order = structure.bvh.prim_order
    if structure.is_triangle_proxy:
        return FlatStructure(
            proxy=structure.proxy,
            n_gaussians=structure.n_gaussians,
            two_level=False,
            root=structure.bvh,
            root_prims=PRIMS_TRIANGLES,
            mesh=_leaf_ordered_mesh(structure.tri_v0, structure.tri_v1,
                                    structure.tri_v2, order,
                                    owner=structure.tri_gaussian),
        )
    return FlatStructure(
        proxy=structure.proxy,
        n_gaussians=structure.n_gaussians,
        two_level=False,
        root=structure.bvh,
        root_prims=PRIMS_GAUSSIANS,
        prim_gid=np.ascontiguousarray(order.astype(np.int64)),
    )


def _flatten_blas(blas) -> FlatBlas:
    """Lower one :class:`~repro.bvh.two_level.SharedBlas` template."""
    if blas.kind == "sphere":
        return FlatBlas(
            kind=BLAS_SPHERE,
            base_address=blas.base_address,
            root_address=blas.root_address,
            total_bytes=blas.total_bytes,
            height=1,
        )
    blas_order = blas.bvh.prim_order
    return FlatBlas(
        kind=BLAS_MESH,
        base_address=blas.base_address,
        root_address=blas.root_address,
        total_bytes=blas.total_bytes,
        height=blas.bvh.height,
        bvh=blas.bvh,
        mesh=_leaf_ordered_mesh(blas.tri_v0, blas.tri_v1, blas.tri_v2,
                                blas_order),
    )


def _flatten_two_level(structure: TwoLevelBVH) -> FlatStructure:
    order = structure.tlas.prim_order
    return FlatStructure(
        proxy=structure.proxy,
        n_gaussians=structure.n_gaussians,
        two_level=True,
        root=structure.tlas,
        root_prims=PRIMS_INSTANCES,
        prim_gid=np.ascontiguousarray(order.astype(np.int64)),
        inst_blas=np.zeros(order.shape[0], dtype=np.int64),
        inst_w2o_linear=np.ascontiguousarray(
            structure.world_to_obj_linear[order]),
        inst_w2o_offset=np.ascontiguousarray(
            structure.world_to_obj_offset[order]),
        blas=(_flatten_blas(structure.blas),),
    )


def _flatten_hetero(structure: HeteroTwoLevelBVH) -> FlatStructure:
    """Lower a heterogeneous TLAS: same layout as the homogeneous case,
    but ``inst_blas`` carries real per-instance slots and ``blas`` one
    entry per template."""
    order = structure.tlas.prim_order
    return FlatStructure(
        proxy=structure.proxy,
        n_gaussians=structure.n_gaussians,
        two_level=True,
        root=structure.tlas,
        root_prims=PRIMS_INSTANCES,
        prim_gid=np.ascontiguousarray(order.astype(np.int64)),
        inst_blas=np.ascontiguousarray(
            structure.gaussian_blas[order].astype(np.int64)),
        inst_w2o_linear=np.ascontiguousarray(
            structure.world_to_obj_linear[order]),
        inst_w2o_offset=np.ascontiguousarray(
            structure.world_to_obj_offset[order]),
        blas=tuple(_flatten_blas(b) for b in structure.blas),
    )


def flattenable(structure) -> bool:
    """Whether :func:`flatten` understands this structure — the single
    structural support predicate both tracing engines share."""
    return isinstance(
        structure,
        (MonolithicBVH, TwoLevelBVH, HeteroTwoLevelBVH, FlatStructure),
    )


# Identity-checked memo (locked + weakref-verified, so a recycled id can
# never serve a layout built over different geometry — the failure mode
# that made the serving layer abandon bare id()-keyed caches in PR 2).
_FLAT_MEMO = IdentityMemo()


def _flatten_uncached(structure) -> FlatStructure:
    if isinstance(structure, MonolithicBVH):
        return _flatten_monolithic(structure)
    if isinstance(structure, TwoLevelBVH):
        return _flatten_two_level(structure)
    if isinstance(structure, HeteroTwoLevelBVH):
        return _flatten_hetero(structure)
    raise TypeError(
        f"cannot flatten {type(structure).__name__}; expected "
        "MonolithicBVH, TwoLevelBVH, HeteroTwoLevelBVH or FlatStructure")


def flatten(structure) -> FlatStructure:
    """Lower any acceleration structure to the one flattened layout.

    Idempotent (a :class:`FlatStructure` returns itself) and memoized
    per structure object, so repeated calls — one per served frame —
    cost a dictionary lookup.
    """
    if isinstance(structure, FlatStructure):
        return structure
    return _FLAT_MEMO.get_or_build(structure, _flatten_uncached)
