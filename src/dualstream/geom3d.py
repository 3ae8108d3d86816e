"""Rigid-body poses, box transforms and pinhole projection.

Conventions used throughout the package:
  * ego frame: x forward, y left, z up, yaw counter-clockwise about +z
  * camera frame: x right, y down, z forward (standard CV)
  * yaw angles live in (-pi, pi], half-open at -pi
All geometry is computed in float64, whatever the model dtype; the model casts
it where it enters a tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

EPS_DEPTH = 1e-3  # m; points closer than this to the image plane are "behind"

CAMERA_SLOTS = (
    "front-left",
    "front",
    "front-right",
    "back-left",
    "back",
    "back-right",
)


class PoseError(ValueError):
    """Invalid pose or mismatched pose dimensionality."""


class BehindCamera(Exception):
    """Raised by project() when the point is at or behind the image plane."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


def rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


@dataclass(frozen=True)
class Pose:
    """SE(2) or SE(3) rigid transform.

    SE(2): ``rotation`` is a yaw angle (rad), ``translation`` has length 2.
    SE(3): ``rotation`` is a 3x3 orthonormal matrix, ``translation`` length 3.
    """

    rotation: Union[float, np.ndarray]
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64)
        if np.isscalar(self.rotation) or np.ndim(self.rotation) == 0:
            if t.shape != (2,):
                raise PoseError(f"SE(2) pose needs a length-2 translation, got {t.shape}")
            object.__setattr__(self, "rotation", wrap_angle(float(self.rotation)))
        else:
            r = np.asarray(self.rotation, dtype=np.float64)
            if r.shape != (3, 3) or t.shape != (3,):
                raise PoseError("SE(3) pose needs a 3x3 rotation and length-3 translation")
            if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-6 or np.linalg.det(r) < 0:
                raise PoseError("rotation must be orthonormal with determinant +1")
            object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def dim(self) -> int:
        return 2 if np.ndim(self.rotation) == 0 else 3

    @property
    def yaw(self) -> float:
        if self.dim == 2:
            return float(self.rotation)
        return math.atan2(self.rotation[1, 0], self.rotation[0, 0])

    @staticmethod
    def identity(dim: int = 2) -> "Pose":
        if dim == 2:
            return Pose(0.0, np.zeros(2))
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def se2(yaw: float, tx: float, ty: float) -> "Pose":
        return Pose(yaw, np.array([tx, ty], dtype=np.float64))

    @staticmethod
    def se3(rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        return Pose(np.asarray(rotation, dtype=np.float64), np.asarray(translation, dtype=np.float64))

    def matrix(self) -> np.ndarray:
        """Homogeneous matrix: 3x3 for SE(2), 4x4 for SE(3)."""
        if self.dim == 2:
            m = np.eye(3)
            m[:2, :2] = rot2(self.rotation)
            m[:2, 2] = self.translation
            return m
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply_point(self, point) -> np.ndarray:
        """Map a point from the source frame into the target frame.

        An SE(2) pose accepts 2D or 3D points; the z coordinate passes through.
        """
        p = np.asarray(point, dtype=np.float64)
        if self.dim == 2:
            xy = rot2(self.rotation) @ p[:2] + self.translation
            if p.shape[-1] == 2:
                return xy
            return np.array([xy[0], xy[1], p[2]])
        return self.rotation @ p + self.translation

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized apply_point for an (n, 2|3) array."""
        p = np.asarray(points, dtype=np.float64)
        if self.dim == 2:
            out = p.copy()
            out[:, :2] = p[:, :2] @ rot2(self.rotation).T + self.translation
            return out
        return p @ self.rotation.T + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    """Chain two transforms: the result maps b's source frame into a's target frame."""
    if a.dim != b.dim:
        raise PoseError(f"cannot compose SE({a.dim}) with SE({b.dim})")
    if a.dim == 2:
        t = rot2(a.rotation) @ b.translation + a.translation
        return Pose(wrap_angle(a.rotation + b.rotation), t)
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(p: Pose) -> Pose:
    if p.dim == 2:
        return Pose(-p.rotation, -(rot2(-p.rotation) @ p.translation))
    rt = p.rotation.T
    return Pose(rt, -(rt @ p.translation))


def ego_delta(pose_t: Pose, pose_t1: Pose) -> Pose:
    """Transform mapping frame-t coordinates into frame-(t+1) coordinates.

    Both poses must be expressed in the same world frame.
    """
    if pose_t.dim != pose_t1.dim:
        raise PoseError("ego poses must share dimensionality")
    return compose(invert(pose_t1), pose_t)


@dataclass(frozen=True)
class BoundingBox3D:
    """Upright 3D box state: center/size in m, yaw in rad, velocity in m/s."""

    center: np.ndarray          # (3,) x, y, z
    size: np.ndarray            # (3,) w, l, h, all > 0
    yaw: float                  # in (-pi, pi]
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))  # (2,) vx, vy
    label: int = 0
    score: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        object.__setattr__(self, "size", np.asarray(self.size, dtype=np.float64))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=np.float64))
        if self.center.shape != (3,) or self.size.shape != (3,) or self.velocity.shape != (2,):
            raise ValueError("box needs center (3,), size (3,), velocity (2,)")
        if np.any(self.size <= 0):
            raise ValueError("box sizes must be strictly positive")
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))


def transform_box(t: Pose, b: BoundingBox3D) -> BoundingBox3D:
    """Rigidly map a box: center transformed, yaw shifted, velocity rotated.

    Velocity is a ground-plane direction, so it rotates with the pose's yaw
    and ignores translation. Size, label and score pass through.
    """
    center = t.apply_point(b.center)
    vel = rot2(t.yaw) @ b.velocity
    return replace(b, center=center, yaw=wrap_angle(b.yaw + t.yaw), velocity=vel)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics in pixels, extrinsic maps ego frame -> camera frame."""

    fx: float
    fy: float
    cx: float
    cy: float
    extrinsic: Pose
    width: int
    height: int
    name: str = "front"

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if self.name not in CAMERA_SLOTS:
            raise ValueError(f"unknown camera slot {self.name!r}")
        if self.extrinsic.dim != 3:
            raise ValueError("camera extrinsic must be SE(3)")


def project(cam: CameraModel, point) -> tuple[np.ndarray, float]:
    """Project an ego-frame point; returns ((u, v) px, depth m).

    Depth is the camera-frame forward coordinate. Raises BehindCamera when
    depth <= EPS_DEPTH so attention gathers can skip the point.
    """
    p = cam.extrinsic.apply_point(np.asarray(point, dtype=np.float64))
    depth = float(p[2])
    if depth <= EPS_DEPTH:
        raise BehindCamera(f"depth {depth:.6f} m behind camera {cam.name}")
    u = cam.fx * p[0] / depth + cam.cx
    v = cam.fy * p[1] / depth + cam.cy
    return np.array([u, v]), depth


def project_points(cam: CameraModel, points: np.ndarray):
    """Vectorized projection of (n, 3) ego-frame points.

    Returns (uv (n, 2), depth (n,), valid (n,)) where valid requires the point
    to be in front of the camera and its pixel inside the image.
    """
    p = cam.extrinsic.apply_points(np.asarray(points, dtype=np.float64))
    depth = p[:, 2]
    front = depth > EPS_DEPTH
    safe = np.where(front, depth, 1.0)
    uv = np.stack([cam.fx * p[:, 0] / safe + cam.cx, cam.fy * p[:, 1] / safe + cam.cy], axis=1)
    inside = (uv[:, 0] >= 0) & (uv[:, 0] < cam.width) & (uv[:, 1] >= 0) & (uv[:, 1] < cam.height)
    return uv, depth, front & inside
