"""Tests for image metrics and PLY serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import GaussianCloud, load_ply, save_ply
from repro.render.metrics import frame_deltas, popping_score, ssim


def _tiny_cloud(n=10, seed=0, sh_coeffs=4):
    rng = np.random.default_rng(seed)
    return GaussianCloud(
        means=rng.uniform(-2, 2, (n, 3)),
        scales=rng.uniform(0.05, 0.5, (n, 3)),
        rotations=rng.normal(size=(n, 4)),
        opacities=rng.uniform(0.2, 0.9, n),
        sh=rng.normal(0, 0.3, (n, sh_coeffs, 3)),
        name="tiny",
    )


class TestSsim:
    def test_identical_images_score_one(self):
        img = np.random.default_rng(0).random((24, 24, 3))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_independent_noise_scores_low(self):
        rng = np.random.default_rng(1)
        assert ssim(rng.random((32, 32, 3)), rng.random((32, 32, 3))) < 0.2

    def test_small_perturbation_scores_high(self):
        rng = np.random.default_rng(2)
        img = rng.random((32, 32, 3))
        assert ssim(img, img + 0.01) > 0.9

    def test_grayscale_supported(self):
        img = np.random.default_rng(3).random((20, 20))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_tiny_image_fallback(self):
        img = np.random.default_rng(4).random((3, 3, 3))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((5, 5)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((16, 16))
        b = rng.random((16, 16))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)


class TestPopping:
    def test_smooth_sequence_scores_zero(self):
        frames = [np.full((8, 8, 3), 0.1 * i) for i in range(6)]
        assert popping_score(frames) == pytest.approx(0.0, abs=1e-12)

    def test_spike_raises_score(self):
        frames = [np.full((8, 8, 3), 0.1 * i) for i in range(6)]
        spiked = [f.copy() for f in frames]
        spiked[3] += 0.5
        assert popping_score(spiked) > popping_score(frames)

    def test_frame_deltas_length(self):
        frames = [np.zeros((4, 4, 3))] * 5
        assert len(frame_deltas(frames)) == 4

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            frame_deltas([np.zeros((4, 4, 3))])

    def test_two_frames_score_zero(self):
        assert popping_score([np.zeros((2, 2)), np.ones((2, 2))]) == 0.0


class TestPly:
    def test_round_trip(self, tmp_path):
        cloud = _tiny_cloud(n=50, sh_coeffs=9)
        path = tmp_path / "scene.ply"
        save_ply(cloud, path)
        back = load_ply(path)
        assert len(back) == 50
        assert back.sh.shape == (50, 9, 3)
        assert np.allclose(back.means, cloud.means, atol=1e-4)
        assert np.allclose(back.scales, cloud.scales, rtol=1e-4)
        assert np.allclose(back.opacities, cloud.opacities, atol=1e-5)
        assert np.allclose(back.sh, cloud.sh, atol=1e-3)
        # Quaternions are normalized on construction; compare up to sign.
        dots = np.abs(np.sum(back.rotations * cloud.rotations, axis=1))
        assert np.allclose(dots, 1.0, atol=1e-4)

    def test_degree_zero_round_trip(self, tmp_path):
        cloud = _tiny_cloud(n=5, sh_coeffs=1)
        path = tmp_path / "dc.ply"
        save_ply(cloud, path)
        back = load_ply(path)
        assert back.sh.shape == (5, 1, 3)

    def test_header_is_3dgs_convention(self, tmp_path):
        cloud = _tiny_cloud(n=3, sh_coeffs=4)
        path = tmp_path / "hdr.ply"
        save_ply(cloud, path)
        header = path.read_bytes().split(b"end_header")[0].decode()
        for prop in ("f_dc_0", "f_rest_8", "opacity", "scale_2", "rot_3"):
            assert f"property float {prop}" in header

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"not a ply at all")
        with pytest.raises(ValueError, match="end_header"):
            load_ply(path)

    def test_rejects_truncated_body(self, tmp_path):
        cloud = _tiny_cloud(n=10)
        path = tmp_path / "trunc.ply"
        save_ply(cloud, path)
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(ValueError, match="truncated"):
            load_ply(path)

    def test_rejects_ascii_ply(self, tmp_path):
        path = tmp_path / "ascii.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 0\nend_header\n"
        )
        with pytest.raises(ValueError, match="binary_little_endian"):
            load_ply(path)

    def test_name_defaults_to_stem(self, tmp_path):
        cloud = _tiny_cloud(n=3)
        path = tmp_path / "myscene.ply"
        save_ply(cloud, path)
        assert load_ply(path).name == "myscene"

