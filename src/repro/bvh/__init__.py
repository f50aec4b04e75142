"""Acceleration structures for Gaussian ray tracing.

Two families, matching the paper's comparison:

* :mod:`repro.bvh.monolithic` — the prior-work layout: one BVH over every
  proxy triangle (or custom primitive) of every Gaussian in the scene.
* :mod:`repro.bvh.two_level` — GRTX-SW: a TLAS whose leaves are
  per-Gaussian instances, all sharing a single template BLAS (unit sphere
  or icosphere).
"""

from repro.bvh.builder import BuildParams, build_bvh
from repro.bvh.layout import (
    INSTANCE_BYTES,
    LEAF_HEADER_BYTES,
    SPHERE_PRIM_BYTES,
    TRIANGLE_BYTES,
    CUSTOM_PRIM_BYTES,
    internal_node_bytes,
)
from repro.bvh.morton import morton_codes, radix_split
from repro.bvh.node import FlatBVH, KIND_EMPTY, KIND_INTERNAL, KIND_LEAF
from repro.bvh.monolithic import MonolithicBVH, build_monolithic
from repro.bvh.flatten import (
    FlatBlas,
    FlatMesh,
    FlatStructure,
    flatten,
    flattenable,
)
from repro.bvh.quality import TreeQuality, sah_cost, tree_quality
from repro.bvh.serialize import (
    FORMAT_VERSION,
    StructureFormatError,
    load_structure,
    save_structure,
)
from repro.bvh.two_level import (
    SharedBlas,
    TwoLevelBVH,
    build_two_level,
)
from repro.bvh.stats import BVHStats, structure_stats

__all__ = [
    "BVHStats",
    "BuildParams",
    "CUSTOM_PRIM_BYTES",
    "FORMAT_VERSION",
    "FlatBVH",
    "FlatBlas",
    "FlatMesh",
    "FlatStructure",
    "INSTANCE_BYTES",
    "KIND_EMPTY",
    "KIND_INTERNAL",
    "KIND_LEAF",
    "LEAF_HEADER_BYTES",
    "MonolithicBVH",
    "SPHERE_PRIM_BYTES",
    "SharedBlas",
    "StructureFormatError",
    "TRIANGLE_BYTES",
    "TreeQuality",
    "TwoLevelBVH",
    "build_bvh",
    "build_monolithic",
    "build_two_level",
    "flatten",
    "flattenable",
    "internal_node_bytes",
    "load_structure",
    "morton_codes",
    "radix_split",
    "sah_cost",
    "save_structure",
    "structure_stats",
    "tree_quality",
]
