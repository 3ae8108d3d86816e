import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualstream.geom3d import (
    EPS_DEPTH,
    BoundingBox3D,
    CameraModel,
    Pose,
    PoseError,
    compose,
    ego_delta,
    invert,
    project_points,
    rot2,
    transform_box,
    wrap_angle,
)

angles = st.floats(-10.0, 10.0)
coords = st.floats(-50.0, 50.0)


def random_se2(rng):
    return Pose.se2(rng.uniform(-np.pi, np.pi), *rng.uniform(-10, 10, 2))


def homogeneous_oracle(p: Pose) -> np.ndarray:
    m = np.eye(3)
    m[:2, :2] = rot2(p.rotation)
    m[:2, 2] = p.translation
    return m


class TestPose:
    def test_identity_compose(self):
        p = Pose.se2(0.7, 1.0, -2.0)
        q = compose(Pose.identity(), p)
        assert q.rotation == pytest.approx(p.rotation)
        assert q.translation == pytest.approx(p.translation)

    def test_compose_inverse_is_identity(self):
        p = Pose.se2(np.pi / 3, 1.0, 2.0)
        r = compose(p, invert(p))
        assert abs(r.rotation) <= 1e-9
        assert np.max(np.abs(r.translation)) <= 1e-9

    def test_se2_compose_example(self):
        a = Pose.se2(np.pi / 2, 1.0, 0.0)
        b = Pose.se2(0.0, 0.0, 1.0)
        c = compose(a, b)
        assert c.rotation == pytest.approx(np.pi / 2)
        assert c.translation == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_compose_matches_matrix_oracle(self, rng):
        for _ in range(50):
            a, b = random_se2(rng), random_se2(rng)
            got = homogeneous_oracle(compose(a, b))
            want = homogeneous_oracle(a) @ homogeneous_oracle(b)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_compose_associative(self, rng):
        for _ in range(50):
            a, b, c = (random_se2(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            np.testing.assert_allclose(homogeneous_oracle(left), homogeneous_oracle(right), atol=1e-9)

    def test_invert_matches_matrix_inverse(self, rng):
        for _ in range(50):
            p = random_se2(rng)
            np.testing.assert_allclose(homogeneous_oracle(invert(p)), np.linalg.inv(homogeneous_oracle(p)), atol=1e-12)

    def test_invert_pure_translation(self):
        p = Pose.se2(0.0, 2.0, 3.0)
        q = invert(p)
        assert q.translation == pytest.approx([-2.0, -3.0])

    @pytest.mark.parametrize("yaw,tx", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, -math.inf)])
    def test_non_finite_pose_rejected(self, yaw, tx):
        with pytest.raises(PoseError, match="finite"):
            Pose.se2(yaw, tx, 0.0)

    def test_non_scalar_yaw_rejected(self):
        with pytest.raises(PoseError):
            Pose(np.eye(3), np.zeros(2))


class TestWrap:
    @given(angles)
    def test_wrap_in_range(self, theta):
        w = wrap_angle(theta)
        assert -np.pi < w <= np.pi

    @given(angles)
    def test_wrap_idempotent(self, theta):
        w = wrap_angle(theta)
        assert wrap_angle(w) == pytest.approx(w, abs=1e-12)

    def test_wrap_half_open(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)


class TestEgoDelta:
    def test_equal_poses_give_identity(self):
        p = Pose.se2(0.3, 5.0, -1.0)
        d = ego_delta(p, p)
        assert abs(d.rotation) <= 1e-12
        assert np.max(np.abs(d.translation)) <= 1e-12

    def test_forward_motion(self):
        p0 = Pose.se2(0.0, 0.0, 0.0)
        p1 = Pose.se2(0.0, 2.0, 0.0)
        d = ego_delta(p0, p1)
        assert d.translation == pytest.approx([-2.0, 0.0])
        # a static world point ahead moves closer in the new frame
        assert d.apply_point([10.0, 0.0]) == pytest.approx([8.0, 0.0])

    def test_pure_rotation(self):
        p0 = Pose.se2(0.0, 1.0, 1.0)
        p1 = Pose.se2(np.pi / 2, 1.0, 1.0)
        d = ego_delta(p0, p1)
        assert d.rotation == pytest.approx(-np.pi / 2)
        # oracle: compose(invert(p1), p0)
        want = np.linalg.inv(homogeneous_oracle(p1)) @ homogeneous_oracle(p0)
        np.testing.assert_allclose(homogeneous_oracle(d), want, atol=1e-12)


class TestBox:
    def box(self, **kw):
        defaults = dict(center=np.array([0.0, 0.0, 0.0]), size=np.array([2.0, 4.0, 1.5]),
                        yaw=0.3, velocity=np.array([5.0, 0.0]), label=0, score=1.0)
        defaults.update(kw)
        return BoundingBox3D(**defaults)

    def test_identity_transform(self):
        b = self.box()
        b2 = transform_box(Pose.identity(), b)
        assert b2.center == pytest.approx(b.center)
        assert b2.yaw == pytest.approx(b.yaw)
        assert b2.velocity == pytest.approx(b.velocity)

    def test_translation_leaves_orientation(self):
        b = self.box()
        b2 = transform_box(Pose.se2(0.0, 1.0, 2.0), b)
        assert b2.center == pytest.approx([1.0, 2.0, 0.0])
        assert b2.yaw == pytest.approx(0.3)
        assert b2.velocity == pytest.approx([5.0, 0.0])

    def test_yaw_pi_rotation(self):
        b = self.box(yaw=0.1, velocity=np.array([5.0, 0.0]))
        b2 = transform_box(Pose.se2(np.pi, 0.0, 0.0), b)
        assert b2.yaw == pytest.approx(wrap_angle(0.1 + np.pi))
        assert b2.velocity == pytest.approx([-5.0, 0.0], abs=1e-12)
        # rotation-matrix oracle on the center
        R = np.array([[np.cos(np.pi), -np.sin(np.pi)], [np.sin(np.pi), np.cos(np.pi)]])
        np.testing.assert_allclose(b2.center[:2], R @ b.center[:2], atol=1e-12)

    def test_roundtrip_recovers_box(self, rng):
        for _ in range(30):
            b = self.box(center=rng.uniform(-5, 5, 3), yaw=rng.uniform(-3, 3),
                         velocity=rng.uniform(-5, 5, 2))
            t = random_se2(rng)
            back = transform_box(invert(t), transform_box(t, b))
            np.testing.assert_allclose(back.center, b.center, atol=1e-9)
            assert back.yaw == pytest.approx(b.yaw, abs=1e-9)
            np.testing.assert_allclose(back.velocity, b.velocity, atol=1e-9)

    def test_positive_sizes_enforced(self):
        with pytest.raises(ValueError):
            self.box(size=np.array([0.0, 1.0, 1.0]))


FORWARD = np.array([[0.0, -1.0, 0.0],
                    [0.0, 0.0, -1.0],
                    [1.0, 0.0, 0.0]])


def default_camera(**kw):
    defaults = dict(fx=100.0, fy=100.0, cx=64.0, cy=32.0, rotation=FORWARD, translation=np.zeros(3),
                    width=128, height=64, name="front")
    defaults.update(kw)
    return CameraModel(**defaults)


def camera_to_ego(cam: CameraModel, p_cam: np.ndarray) -> np.ndarray:
    rt = cam.rotation.T
    return rt @ p_cam + -(rt @ cam.translation)


class TestCamera:
    def test_bad_rotation_rejected(self):
        with pytest.raises(PoseError):
            default_camera(rotation=np.eye(3) * 2.0)

    def test_reflection_rejected(self):
        with pytest.raises(PoseError):
            default_camera(rotation=-np.eye(3))

    @pytest.mark.parametrize("kw", [
        dict(rotation=np.where(FORWARD == 1.0, math.nan, FORWARD)),
        dict(translation=np.array([0.0, math.inf, 0.0])),
        dict(fx=math.nan),
        dict(fy=math.inf),
    ], ids=["nan-rotation", "inf-translation", "nan-fx", "inf-fy"])
    def test_non_finite_camera_rejected(self, kw):
        with pytest.raises(ValueError):
            default_camera(**kw)


class TestProject:
    def test_principal_point(self):
        cam = default_camera()
        # optical axis of this forward camera is ego +x
        uv, depth, valid = project_points(cam, [[7.0, 0.0, 0.0]])
        assert uv[0] == pytest.approx([cam.cx, cam.cy])
        assert depth[0] == pytest.approx(7.0)
        assert valid[0]

    def test_behind_camera(self):
        cam = default_camera()
        _, depth, valid = project_points(cam, [[-1.0, 0.0, 0.0]])
        assert depth[0] <= EPS_DEPTH
        assert not valid[0]

    def test_matrix_oracle(self, rng):
        cam = default_camera()
        K = np.array([[cam.fx, 0, cam.cx], [0, cam.fy, cam.cy], [0, 0, 1.0]])
        E = np.column_stack([cam.rotation, cam.translation])  # 3x4
        P = K @ E
        for _ in range(50):
            pt = rng.uniform(-10, 10, 3)
            pt[0] = rng.uniform(1.0, 20.0)  # in front
            h = P @ np.append(pt, 1.0)
            want = h[:2] / h[2]
            uv, _, _ = project_points(cam, [pt])
            np.testing.assert_allclose(uv[0], want, atol=1e-6)

    def test_scale_consistency(self, rng):
        cam = default_camera()
        for _ in range(20):
            pt_cam = np.array([rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(1, 10)])
            pt_ego = camera_to_ego(cam, pt_cam)
            lam = rng.uniform(0.5, 3.0)
            pt_ego2 = camera_to_ego(cam, lam * pt_cam)
            uv, _, _ = project_points(cam, np.stack([pt_ego, pt_ego2]))
            np.testing.assert_allclose(uv[0], uv[1], atol=1e-8)

    def test_vectorized_matches_scalar(self, rng):
        # each row against the pinhole model worked one point at a time
        cam = default_camera()
        pts = rng.uniform(-10, 10, (40, 3))
        uv, depth, valid = project_points(cam, pts)
        for i, p in enumerate(pts):
            x, y, d = cam.rotation @ p + cam.translation
            if d <= EPS_DEPTH:
                assert not valid[i]
                continue
            u = np.array([cam.fx * x / d + cam.cx, cam.fy * y / d + cam.cy])
            inside = 0 <= u[0] < cam.width and 0 <= u[1] < cam.height
            assert valid[i] == inside
            np.testing.assert_allclose(uv[i], u, atol=1e-9)
            assert depth[i] == pytest.approx(d)
