"""3D Gaussian scene representation.

A scene is a :class:`GaussianCloud`: batched means, per-axis scales, unit
quaternion rotations, opacities and spherical-harmonics color coefficients,
exactly the parametrization used by 3D Gaussian Splatting and 3DGRT.
"""

from repro.gaussians.cloud import GaussianCloud
from repro.gaussians.covariance import (
    build_covariance,
    build_inverse_covariance,
    canonical_transforms,
    world_aabbs,
)
from repro.gaussians.response import (
    gaussian_alpha_along_ray,
    gaussian_response,
    t_alpha,
)
from repro.gaussians.ply import load_ply, save_ply
from repro.gaussians.sh import eval_sh, num_sh_coeffs
from repro.gaussians.synthetic import (
    SceneSpec,
    WORKLOAD_SPECS,
    make_scene,
    make_workload,
)

__all__ = [
    "GaussianCloud",
    "SceneSpec",
    "WORKLOAD_SPECS",
    "build_covariance",
    "build_inverse_covariance",
    "canonical_transforms",
    "eval_sh",
    "gaussian_alpha_along_ray",
    "gaussian_response",
    "load_ply",
    "make_scene",
    "make_workload",
    "num_sh_coeffs",
    "save_ply",
    "t_alpha",
    "world_aabbs",
]
