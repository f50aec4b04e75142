"""Unit and property tests for the math3d package."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.math3d import (
    AffineTransform,
    compose_trs,
    cross,
    dot,
    invert_rigid_scale,
    norm,
    normalize,
    orthonormal_basis,
    quat_identity,
    quat_normalize,
    quat_random,
    quat_to_rotation_matrix,
)

finite_vec = arrays(
    np.float64, (3,),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


class TestVec:
    def test_dot_matches_numpy(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, -5.0, 6.0])
        assert dot(a, b) == pytest.approx(np.dot(a, b))

    def test_dot_batched(self):
        a = np.arange(12.0).reshape(4, 3)
        b = np.ones((4, 3))
        assert dot(a, b).shape == (4,)
        np.testing.assert_allclose(dot(a, b), a.sum(axis=1))

    def test_normalize_unit_length(self):
        v = normalize(np.array([3.0, 4.0, 0.0]))
        np.testing.assert_allclose(v, [0.6, 0.8, 0.0])

    def test_normalize_zero_vector_is_zero(self):
        np.testing.assert_array_equal(normalize(np.zeros(3)), np.zeros(3))

    def test_normalize_batch_mixed(self):
        vecs = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        out = normalize(vecs)
        np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(out[1], np.zeros(3))

    @given(finite_vec)
    @settings(max_examples=50)
    def test_normalize_idempotent(self, v):
        once = normalize(v)
        twice = normalize(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_cross_right_handed(self):
        np.testing.assert_allclose(
            cross(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])), [0, 0, 1.0]
        )

    def test_norm(self):
        assert norm(np.array([0.0, 3.0, 4.0])) == pytest.approx(5.0)

    def test_orthonormal_basis_properties(self):
        u, v, w = orthonormal_basis(np.array([0.3, -0.7, 0.65]))
        for a in (u, v, w):
            assert np.linalg.norm(a) == pytest.approx(1.0)
        assert abs(np.dot(u, v)) < 1e-12
        assert abs(np.dot(u, w)) < 1e-12
        np.testing.assert_allclose(np.cross(u, v), w, atol=1e-12)

    def test_orthonormal_basis_axis_aligned(self):
        # The helper-vector switch must not break for near-x directions.
        u, v, w = orthonormal_basis(np.array([1.0, 1e-3, 0.0]))
        np.testing.assert_allclose(np.cross(u, v), w, atol=1e-12)

    def test_orthonormal_basis_rejects_batch(self):
        with pytest.raises(ValueError):
            orthonormal_basis(np.ones((2, 3)))


class TestQuaternion:
    def test_identity_shape(self):
        q = quat_identity(5)
        assert q.shape == (5, 4)
        np.testing.assert_array_equal(q[:, 0], 1.0)

    def test_identity_rotation_matrix(self):
        rot = quat_to_rotation_matrix(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(rot, np.eye(3), atol=1e-15)

    def test_90deg_about_z(self):
        s = np.sin(np.pi / 4)
        rot = quat_to_rotation_matrix(np.array([np.cos(np.pi / 4), 0, 0, s]))
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_normalize_degenerate_becomes_identity(self):
        q = quat_normalize(np.zeros(4))
        np.testing.assert_array_equal(q, [1.0, 0.0, 0.0, 0.0])

    def test_rotation_matrices_are_orthogonal(self):
        rng = np.random.default_rng(1)
        q = quat_random(64, rng)
        rots = quat_to_rotation_matrix(q)
        eye = np.einsum("nij,nkj->nik", rots, rots)
        np.testing.assert_allclose(eye, np.broadcast_to(np.eye(3), eye.shape), atol=1e-12)

    def test_rotation_matrices_det_one(self):
        rng = np.random.default_rng(2)
        rots = quat_to_rotation_matrix(quat_random(32, rng))
        np.testing.assert_allclose(np.linalg.det(rots), 1.0, atol=1e-12)

    def test_random_unit_norm(self):
        rng = np.random.default_rng(4)
        q = quat_random(100, rng)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)


class TestTransforms:
    def _random_trs(self, seed: int, n: int = 16):
        rng = np.random.default_rng(seed)
        rot = quat_to_rotation_matrix(quat_random(n, rng))
        scale = np.exp(rng.uniform(-1.0, 1.0, size=(n, 3)))
        trans = rng.uniform(-5, 5, size=(n, 3))
        return trans, rot, scale

    def test_compose_invert_roundtrip(self):
        trans, rot, scale = self._random_trs(0)
        fwd = compose_trs(trans, rot, scale)
        inv = invert_rigid_scale(trans, rot, scale)
        rng = np.random.default_rng(9)
        pts = rng.uniform(-3, 3, size=(16, 3))
        np.testing.assert_allclose(inv.apply_point(fwd.apply_point(pts)), pts, atol=1e-9)

    def test_invert_matches_generic_inverse(self):
        trans, rot, scale = self._random_trs(1)
        fwd = compose_trs(trans, rot, scale)
        fast = invert_rigid_scale(trans, rot, scale)
        generic = fwd.inverse()
        np.testing.assert_allclose(fast.linear, generic.linear, atol=1e-9)
        np.testing.assert_allclose(fast.offset, generic.offset, atol=1e-9)

    def test_unit_sphere_maps_to_ellipsoid_surface(self):
        trans, rot, scale = self._random_trs(2, n=4)
        fwd = compose_trs(trans, rot, scale)
        theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        circle = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)
        for i in range(4):
            single = AffineTransform(fwd.linear[i], fwd.offset[i])
            world = single.apply_point(circle)
            back = single.inverse().apply_point(world)
            np.testing.assert_allclose(np.linalg.norm(back, axis=1), 1.0, atol=1e-9)

    def test_vectors_ignore_translation(self):
        trans, rot, scale = self._random_trs(3, n=1)
        fwd = compose_trs(trans[0], rot[0], scale[0])
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(fwd.apply_vector(v), fwd.linear @ v)

    def test_matrix4_single_only(self):
        trans, rot, scale = self._random_trs(4)
        fwd = compose_trs(trans, rot, scale)
        with pytest.raises(ValueError):
            _ = fwd.matrix4

    def test_matrix4_homogeneous(self):
        trans, rot, scale = self._random_trs(5, n=1)
        fwd = compose_trs(trans[0], rot[0], scale[0])
        mat = fwd.matrix4
        pt = np.array([0.5, -0.25, 2.0, 1.0])
        np.testing.assert_allclose((mat @ pt)[:3], fwd.apply_point(pt[:3]))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25)
    def test_ray_parameter_preserved_under_affine(self, seed):
        """Affine maps preserve the ray parametrization — the property the
        shared-BLAS design relies on to reuse object-space t values."""
        rng = np.random.default_rng(seed)
        trans, rot, scale = self._random_trs(rng.integers(1 << 30), n=1)
        w2o = invert_rigid_scale(trans[0], rot[0], scale[0])
        o = rng.uniform(-2, 2, 3)
        d = rng.uniform(-1, 1, 3)
        t = float(rng.uniform(0.1, 5.0))
        world_point = o + t * d
        obj_o = w2o.apply_point(o)
        obj_d = w2o.apply_vector(d)
        np.testing.assert_allclose(obj_o + t * obj_d, w2o.apply_point(world_point), atol=1e-9)
