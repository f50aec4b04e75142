"""Gaussian shading state: the canonical alpha kernel's tables and SH
colors.

All acceleration structures funnel their candidate hits through one
*canonical* any-hit evaluation (batched in
:func:`repro.rt.kernels.shade_and_blend`; its per-ray form is the
scalar parity oracle's, in ``tests/scalar_oracle.py``) so that every
configuration renders the bit-identical image (the paper's premise that
"rendering quality remains the same regardless of bounding
primitives"). The kernel works in the Gaussian's unit-sphere object
space:

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
