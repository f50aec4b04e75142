"""Appearance optimization for Gaussian scenes (the training substrate).

The paper evaluates on models "trained for 30K iterations using the
original ray tracing-based training implementation from 3DGRT". We cannot
train on the real datasets offline, but the training *code path* — a
differentiable forward render plus gradient-based parameter updates — is
a substrate the system depends on, so this module implements it for the
appearance parameters (opacity and spherical-harmonics color), which is
exactly the part 3DGRT backpropagates through its blending equation:

    C = sum_i T_i * alpha_i * c_i,   T_i = prod_{j<i} (1 - alpha_j)

Gradients (the standard 3DGS backward pass, accumulated back-to-front):

    dC/dc_i     = T_i * alpha_i                      (SH is linear in c)
    dC/dalpha_i = T_i * c_i  -  S_i / (1 - alpha_i)

where ``S_i = sum_{j>i} T_j alpha_j c_j`` is the suffix contribution.
Opacity is parametrized through a sigmoid (as in 3DGS) so it stays in
(0, 1); geometry parameters (means/scales/rotations) are frozen — GRTX's
contribution is about *rendering* trained scenes, not geometric
densification.

The forward pass is the real multi-round ray tracer, so gradients flow
through exactly the blend lists the optimized renderer produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bvh.two_level import build_two_level
from repro.gaussians.cloud import GaussianCloud
from repro.gaussians.sh import sh_basis
from repro.render.camera import PinholeCamera
from repro.rt.shading import ALPHA_MAX, SceneShading
from repro.rt.tracer import TraceConfig, Tracer

_SIGMOID_CLIP = 12.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SIGMOID_CLIP, _SIGMOID_CLIP)))


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-5, 1.0 - 1e-5)
    return np.log(p / (1.0 - p))


class Adam:
    """Minimal Adam optimizer for numpy parameter arrays."""

    def __init__(self, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update ``params`` in place from ``grads``."""
        self._t += 1
        for name, grad in grads.items():
            if name not in self._m:
                self._m[name] = np.zeros_like(grad)
                self._v[name] = np.zeros_like(grad)
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / (1 - self.beta1 ** self._t)
            v_hat = v / (1 - self.beta2 ** self._t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainingView:
    """One target image with its camera."""

    camera: PinholeCamera
    target: np.ndarray  # (h, w, 3)


@dataclass
class TrainReport:
    """Loss trajectory of one optimization run."""

    losses: list[float] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


class GaussianTrainer:
    """Optimizes opacity + SH color of a cloud against target views.

    The forward pass renders with the multi-round k-buffer tracer
    (``record_blended`` on) so the backward pass sees exactly the
    Gaussians that contributed to each pixel, in blend order, with early
    ray termination applied.

    ``engine`` selects the forward tracer: ``"auto"`` (default) runs the
    vectorized wavefront engine — ``record_blended`` is batched, so a
    whole view's bundle is traced at once and the backward pass
    consumes :attr:`~repro.rt.kernels.PacketResult.blend_records` —
    falling back to the scalar per-ray tracer only when the wavefront
    engine cannot cover the structure.
    """

    def __init__(
        self,
        cloud: GaussianCloud,
        views: list[TrainingView],
        lr: float = 0.05,
        k: int = 8,
        engine: str = "auto",
    ) -> None:
        if not views:
            raise ValueError("need at least one training view")
        self.cloud = cloud
        self.views = views
        self.engine = engine
        self.params = {
            "opacity_logit": _logit(cloud.opacities.copy()),
            "sh": cloud.sh.copy(),
        }
        self.optimizer = Adam(lr=lr)
        self._config = TraceConfig(k=k, record_blended=True)
        self._sh_degree = cloud.sh_degree

    # -- forward/backward ------------------------------------------------

    def _current_cloud(self) -> GaussianCloud:
        return GaussianCloud(
            means=self.cloud.means,
            scales=self.cloud.scales,
            rotations=self.cloud.rotations,
            opacities=_sigmoid(self.params["opacity_logit"]),
            sh=self.params["sh"],
            kappa=self.cloud.kappa,
            name=self.cloud.name,
        )

    def _forward_view(self, tracer, engine: str, bundle):
        """Colors + per-ray blend records for one view's ray bundle."""
        if engine == "wavefront":
            result = tracer.trace_packet(bundle.origins, bundle.directions)
            return result.colors, result.blend_records
        colors = np.empty((len(bundle), 3))
        records = []
        for i in range(len(bundle)):
            outcome = tracer.trace_ray(bundle.origins[i],
                                       bundle.directions[i])
            colors[i] = outcome.color
            records.append(outcome.blend_records or [])
        return colors, records

    def loss_and_grads(self) -> tuple[float, dict[str, np.ndarray]]:
        """MSE loss over all views plus analytic parameter gradients."""
        from repro.rt.wavefront import WavefrontTracer, resolve_engine

        cloud = self._current_cloud()
        structure = build_two_level(cloud, "sphere")
        shading = SceneShading(cloud)
        engine = resolve_engine(self.engine, structure, self._config)
        if engine == "wavefront":
            tracer = WavefrontTracer(structure, shading, self._config)
        else:
            tracer = Tracer(structure, shading, self._config)

        opacities = cloud.opacities
        grad_opacity = np.zeros(len(cloud))
        grad_sh = np.zeros_like(cloud.sh)
        total_sq = 0.0
        total_px = 0

        for view in self.views:
            bundle = view.camera.generate_rays()
            target = view.target.reshape(-1, 3)
            colors, records = self._forward_view(tracer, engine, bundle)
            residuals = colors - target[bundle.pixel_ids]
            total_sq += float((residuals * residuals).sum())
            total_px += len(bundle)
            for i in range(len(bundle)):
                if not records[i]:
                    continue
                self._backward_ray(
                    records[i], residuals[i], bundle.directions[i],
                    opacities, grad_opacity, grad_sh,
                )

        n = 3.0 * total_px
        loss = total_sq / n
        grad_opacity *= 2.0 / n
        grad_sh *= 2.0 / n
        # Chain through the sigmoid reparametrization.
        sig = opacities
        grads = {
            "opacity_logit": grad_opacity * sig * (1.0 - sig),
            "sh": grad_sh,
        }
        return loss, grads

    def _backward_ray(
        self,
        records: list[tuple[int, float, float]],
        residual: np.ndarray,
        direction: np.ndarray,
        opacities: np.ndarray,
        grad_opacity: np.ndarray,
        grad_sh: np.ndarray,
    ) -> None:
        """Accumulate dL/d(opacity), dL/d(SH) for one ray.

        ``residual`` is dL/dC up to the global 2/n factor applied by the
        caller. Suffix sums run back-to-front, mirroring the 3DGS
        backward kernel.
        """
        gids = np.fromiter((r[0] for r in records), dtype=np.int64, count=len(records))
        alphas = np.fromiter((r[1] for r in records), dtype=np.float64, count=len(records))
        basis = sh_basis(direction[None, :], self._sh_degree)[0]
        colors = np.einsum("c,ncd->nd", basis, self.params["sh"][gids]) + 0.5
        colors = np.clip(colors, 0.0, None)
        positive = colors > 0.0

        # Transmittance before each blended Gaussian.
        trans = np.empty(len(records))
        t_run = 1.0
        for i, a in enumerate(alphas):
            trans[i] = t_run
            t_run *= 1.0 - a

        # dC/dc_i = T_i alpha_i ; SH gradient via the (linear) basis.
        weight = trans * alphas
        # dL/dcolor_i = residual . (clip passthrough where color > 0)
        dl_dcolor = weight[:, None] * residual[None, :] * positive
        grad_sh[gids] += basis[None, :, None] * dl_dcolor[:, None, :]

        # dC/dalpha_i = T_i c_i - S_i / (1 - alpha_i), suffix back-to-front.
        suffix = np.zeros(3)
        for i in range(len(records) - 1, -1, -1):
            a = alphas[i]
            contrib = trans[i] * a * colors[i]
            d_alpha = trans[i] * colors[i] - (suffix / max(1.0 - a, 1e-6))
            # alpha_i = clip(o_i * r_i) with r_i the Gaussian response:
            # d alpha/d o = r = alpha / o (zero where the clamp is active).
            gid = gids[i]
            if a < ALPHA_MAX:
                response = a / opacities[gid]
                grad_opacity[gid] += float(residual @ d_alpha) * response
            suffix += contrib

    # -- optimization loop ------------------------------------------------

    def fit(self, iterations: int = 20, verbose: bool = False) -> TrainReport:
        """Run the optimization; returns the loss trajectory."""
        report = TrainReport()
        for it in range(iterations):
            loss, grads = self.loss_and_grads()
            report.losses.append(loss)
            if verbose:
                print(f"iter {it:3d}  loss {loss:.6f}")
            self.optimizer.step(self.params, grads)
        report.losses.append(self.loss_and_grads()[0])
        return report

    def trained_cloud(self) -> GaussianCloud:
        """The cloud with the optimized appearance parameters."""
        return self._current_cloud()


def render_views(cloud: GaussianCloud, cameras: list[PinholeCamera],
                 k: int = 8, engine: str = "auto") -> list[TrainingView]:
    """Render ground-truth target views from a reference cloud."""
    from repro.rt.wavefront import WavefrontTracer, resolve_engine

    structure = build_two_level(cloud, "sphere")
    config = TraceConfig(k=k)
    shading = SceneShading(cloud)
    resolved = resolve_engine(engine, structure, config)
    if resolved == "wavefront":
        tracer = WavefrontTracer(structure, shading, config)
    else:
        tracer = Tracer(structure, shading, config)
    views = []
    for camera in cameras:
        bundle = camera.generate_rays()
        image = np.zeros((camera.n_pixels, 3))
        if resolved == "wavefront":
            result = tracer.trace_packet(bundle.origins, bundle.directions)
            image[bundle.pixel_ids] = result.colors
        else:
            for i in range(len(bundle)):
                outcome = tracer.trace_ray(bundle.origins[i],
                                           bundle.directions[i])
                image[int(bundle.pixel_ids[i])] = outcome.color
        views.append(TrainingView(camera=camera,
                                  target=image.reshape(camera.height, camera.width, 3)))
    return views
