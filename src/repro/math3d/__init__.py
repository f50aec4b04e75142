"""Batched 3D math primitives used across GRTX.

Everything in this package operates on numpy arrays. Functions accept
either a single item (shape ``(3,)``, ``(4,)``, ...) or a batch (shape
``(n, 3)`` etc.) and broadcast accordingly.
"""

from repro.math3d.quaternion import (
    quat_identity,
    quat_normalize,
    quat_random,
    quat_to_rotation_matrix,
)
from repro.math3d.transform import (
    AffineTransform,
    compose_trs,
    invert_rigid_scale,
    transform_points,
    transform_vectors,
)
from repro.math3d.vec import (
    cross,
    dot,
    norm,
    normalize,
    orthonormal_basis,
)

__all__ = [
    "AffineTransform",
    "compose_trs",
    "cross",
    "dot",
    "invert_rigid_scale",
    "norm",
    "normalize",
    "orthonormal_basis",
    "quat_identity",
    "quat_normalize",
    "quat_random",
    "quat_to_rotation_matrix",
    "transform_points",
    "transform_vectors",
]
