"""Per-ray Gaussian shading: the canonical alpha kernel and SH colors.

All acceleration structures funnel their candidate hits through one
*canonical* any-hit evaluation so that every configuration renders the
bit-identical image (the paper's premise that "rendering quality remains
the same regardless of bounding primitives"). The kernel works in the
Gaussian's unit-sphere object space:

* ``x_obj = (kappa S)^-1 R^T (x - mu)`` maps the kappa-sigma ellipsoid to
  the unit sphere, so the exact participation test is a unit-sphere
  quadratic;
* the Mahalanobis distance is ``kappa^2 |x_obj|^2``, so the paper's
  ``alpha = o * G(r_o + t_alpha r_d)`` becomes
  ``o * exp(-0.5 kappa^2 d_min^2)`` with ``d_min`` the closest approach
  of the object-space ray to the origin;
* affine maps preserve the ray parameter, so object-space t values are
  world-space t values.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gaussians import GaussianCloud, canonical_transforms
from repro.gaussians.sh import sh_basis

#: Hits with alpha below this threshold are discarded, as in 3DGS/3DGRT
#: (1/255 — they cannot change an 8-bit pixel).
ALPHA_MIN = 1.0 / 255.0

#: Alpha is clamped below 1 so transmittance never reaches exactly zero.
ALPHA_MAX = 0.999


class SceneShading:
    """Precomputed per-Gaussian shading state for one scene."""

    def __init__(self, cloud: GaussianCloud) -> None:
        self.cloud = cloud
        _, world_to_obj = canonical_transforms(cloud)
        self.w2o_linear = np.ascontiguousarray(world_to_obj.linear)
        self.w2o_offset = np.ascontiguousarray(world_to_obj.offset)
        self.opacities = cloud.opacities
        self.kappa_sq = cloud.kappa * cloud.kappa
        self.sh = cloud.sh
        self._sh_degree = cloud.sh_degree

    def to_object(self, gaussian_id: int, origin: np.ndarray,
                  direction: np.ndarray):
        """One ray in one Gaussian's object space, as ``(o, d)`` float
        triples.

        The row-expanded 3x3 matvec of
        :func:`repro.rt.kernels.to_object_space`, term for term and in
        the same order, so the scalar parity oracle and the batched
        engine transform rays bit-identically (a BLAS ``linear @ vec`` is free to fuse or
        reorder the products, and does on some hosts).
        """
        (a, b, c), (e, f, g), (h, i, j) = self.w2o_linear[gaussian_id].tolist()
        o0, o1, o2 = self.w2o_offset[gaussian_id].tolist()
        ox, oy, oz = origin.tolist()
        dx, dy, dz = direction.tolist()
        return ((a * ox + b * oy + c * oz + o0,
                 e * ox + f * oy + g * oz + o1,
                 h * ox + i * oy + j * oz + o2),
                (a * dx + b * dy + c * dz,
                 e * dx + f * dy + g * dz,
                 h * dx + i * dy + j * dz))

    def evaluate_hit(
        self,
        gaussian_id: int,
        origin: np.ndarray,
        direction: np.ndarray,
    ) -> tuple[float, float] | None:
        """Canonical any-hit evaluation for one candidate Gaussian.

        Returns ``(t_entry, alpha)`` when the ray enters the Gaussian's
        kappa-sigma ellipsoid in front of the origin with
        ``alpha >= ALPHA_MIN``; ``None`` otherwise (false positives from
        proxy geometry land here).

        ``t_entry`` — where the ray crosses into the bounding ellipsoid —
        is the exact-primitive analogue of 3DGRT's sort key (the
        bounding-proxy entry hit reported by backface-culled traversal);
        ``alpha`` is evaluated at the point of maximum response
        (``t_alpha`` in the paper), matching Section II-B.
        """
        o, d = self.to_object(gaussian_id, origin, direction)
        dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        if dd < 1e-30:
            return None
        od = o[0] * d[0] + o[1] * d[1] + o[2] * d[2]
        oo = o[0] * o[0] + o[1] * o[1] + o[2] * o[2]
        t_peak = -od / dd
        min_sq = oo - od * od / dd
        if min_sq > 1.0:
            # Closest approach misses the bounding ellipsoid: the ray does
            # not cross the kappa-sigma surface. Proxy hit was a false
            # positive.
            return None
        t_entry = t_peak - math.sqrt(max((1.0 - min_sq) / dd, 0.0))
        if t_entry <= 0.0:
            # Entry behind the origin (or origin inside the ellipsoid):
            # backface-culled proxy traversal reports no hit either.
            return None
        alpha = self.opacities[gaussian_id] * math.exp(-0.5 * self.kappa_sq * min_sq)
        if alpha < ALPHA_MIN:
            return None
        return t_entry, min(alpha, ALPHA_MAX)

    def colors(self, gaussian_ids: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """View-dependent RGB colors for a batch of Gaussians on one ray.

        3DGRT evaluates SH per ray at blend time (unlike 3DGS, which bakes
        colors per frame); the ray direction is shared by the whole batch.
        """
        gaussian_ids = np.asarray(gaussian_ids, dtype=np.int64)
        basis = sh_basis(direction[None, :], self._sh_degree)[0]
        coeffs = self.sh[gaussian_ids]
        color = np.einsum("c,ncd->nd", basis, coeffs) + 0.5
        return np.clip(color, 0.0, None)
