"""Quaternion utilities for Gaussian orientations.

3D Gaussian Splatting stores each Gaussian's rotation as a unit quaternion
``(w, x, y, z)``; the renderer needs the corresponding rotation matrix to
assemble the covariance ``Sigma = R S S^T R^T`` and the instance transform
that maps the ellipsoid onto a unit sphere. All functions are batched: a
quaternion array has shape ``(n, 4)`` (or ``(4,)`` for a single one).
"""

from __future__ import annotations

import numpy as np


def quat_identity(n: int) -> np.ndarray:
    """Return ``n`` identity quaternions, shape ``(n, 4)``."""
    q = np.zeros((n, 4), dtype=np.float64)
    q[:, 0] = 1.0
    return q


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Normalize quaternions to unit length.

    Degenerate all-zero quaternions become the identity rotation, matching
    how 3DGS training code sanitizes its rotation parameters.
    """
    q = np.asarray(q, dtype=np.float64)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    length = np.linalg.norm(q, axis=-1, keepdims=True)
    out = np.where(length > 1e-12, q / np.where(length > 1e-12, length, 1.0), 0.0)
    degenerate = (length <= 1e-12).reshape(-1)
    out[degenerate, 0] = 1.0
    return out[0] if single else out


def quat_to_rotation_matrix(q: np.ndarray) -> np.ndarray:
    """Convert unit quaternions ``(n, 4)`` to rotation matrices ``(n, 3, 3)``.

    A single quaternion ``(4,)`` yields a single ``(3, 3)`` matrix.
    """
    q = quat_normalize(q)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    rot = np.empty((q.shape[0], 3, 3), dtype=np.float64)
    rot[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    rot[:, 0, 1] = 2.0 * (x * y - w * z)
    rot[:, 0, 2] = 2.0 * (x * z + w * y)
    rot[:, 1, 0] = 2.0 * (x * y + w * z)
    rot[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    rot[:, 1, 2] = 2.0 * (y * z - w * x)
    rot[:, 2, 0] = 2.0 * (x * z - w * y)
    rot[:, 2, 1] = 2.0 * (y * z + w * x)
    rot[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return rot[0] if single else rot


def quat_random(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``n`` uniformly distributed unit quaternions (Shoemake)."""
    u1 = rng.random(n)
    u2 = rng.random(n) * 2.0 * np.pi
    u3 = rng.random(n) * 2.0 * np.pi
    a = np.sqrt(1.0 - u1)
    b = np.sqrt(u1)
    return np.stack(
        [a * np.sin(u2), a * np.cos(u2), b * np.sin(u3), b * np.cos(u3)],
        axis=-1,
    )
