"""Image-quality and view-consistency metrics.

Two metrics beyond PSNR:

* :func:`ssim` — structural similarity, the standard perceptual
  complement to PSNR in the 3DGS literature (every scene table in the
  3DGS/3DGRT papers reports PSNR + SSIM).
* :func:`popping_score` — a view-consistency measure for the paper's
  claim that "ray tracing enables per-ray sorting that eliminates visual
  artifacts during camera movement" (Section II-B). 3DGS sorts Gaussians
  *globally* by view-space depth; a small camera move can flip the order
  of overlapping Gaussians and discontinuously change pixel colors
  ("popping"). Per-ray sorting keys on exact distances along each ray, so
  colors vary smoothly. The score is the mean per-pixel color change per
  frame of a slowly moving camera, minus the change attributable to
  actual view-dependence (estimated from the smoothest renderer); higher
  means more popping.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _box_filter(image: np.ndarray, radius: int) -> np.ndarray:
    """Separable mean filter with edge clamping (pure numpy)."""
    pad = np.pad(image, [(radius, radius), (radius, radius)] + [(0, 0)] * (image.ndim - 2),
                 mode="edge")
    size = 2 * radius + 1
    csum = np.cumsum(pad, axis=0)
    csum = np.concatenate([np.zeros_like(csum[:1]), csum], axis=0)
    pad = (csum[size:] - csum[:-size]) / size
    csum = np.cumsum(pad, axis=1)
    csum = np.concatenate([np.zeros_like(csum[:, :1]), csum], axis=1)
    return (csum[:, size:] - csum[:, :-size]) / size


def ssim(a: np.ndarray, b: np.ndarray, peak: float = 1.0, radius: int = 3) -> float:
    """Mean structural similarity index over a box window.

    Uses the standard SSIM constants (k1=0.01, k2=0.03). Color images are
    converted to luma first, matching common practice.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 3:
        luma = np.array([0.299, 0.587, 0.114])
        a = a @ luma
        b = b @ luma
    if min(a.shape[:2]) < 2 * radius + 1:
        radius = max((min(a.shape[:2]) - 1) // 2, 0)
    if radius == 0:
        # Degenerate tiny image: fall back to a global SSIM.
        mu_a, mu_b = a.mean(), b.mean()
        va, vb = a.var(), b.var()
        cov = float(np.mean((a - mu_a) * (b - mu_b)))
        c1 = (0.01 * peak) ** 2
        c2 = (0.03 * peak) ** 2
        return float(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                     / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2)))

    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    mu_a = _box_filter(a, radius)
    mu_b = _box_filter(b, radius)
    mu_aa = _box_filter(a * a, radius)
    mu_bb = _box_filter(b * b, radius)
    mu_ab = _box_filter(a * b, radius)
    var_a = np.maximum(mu_aa - mu_a * mu_a, 0.0)
    var_b = np.maximum(mu_bb - mu_b * mu_b, 0.0)
    cov = mu_ab - mu_a * mu_b
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


def frame_deltas(frames: Sequence[np.ndarray]) -> np.ndarray:
    """Mean absolute per-pixel change between successive frames."""
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    deltas = []
    for prev, cur in zip(frames, frames[1:]):
        deltas.append(float(np.mean(np.abs(np.asarray(cur) - np.asarray(prev)))))
    return np.asarray(deltas)


def popping_score(frames: Sequence[np.ndarray]) -> float:
    """Temporal *roughness* of a frame sequence from a smooth camera path.

    A smoothly moving camera should change each pixel smoothly; sorting
    flips inject discontinuities. We measure the mean second difference
    of the per-frame deltas — smooth view-dependent change contributes
    little (its deltas are nearly constant), popping contributes spikes.
    """
    deltas = frame_deltas(frames)
    if len(deltas) < 2:
        return 0.0
    return float(np.mean(np.abs(np.diff(deltas))))

