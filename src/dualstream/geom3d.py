"""Ground-plane poses, box transforms and pinhole projection.

Conventions used throughout the package:
  * ego frame: x forward, y left, z up, yaw counter-clockwise about +z
  * a ``Pose`` is SE(2): a yaw and an (x, y) translation; the z of a 3D
    point passes through unchanged. Ego poses, ego deltas between frames
    and object motion are all poses.
  * camera frame: x right, y down, z forward (standard CV); a camera maps
    an ego point p into its frame as ``rotation @ p + translation``
  * yaw angles live in (-pi, pi], half-open at -pi
All geometry is computed in float64, whatever the model dtype; the model casts
it where it enters a tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    """Invalid pose or camera mount: a wrong shape, a non-finite value or a
    rotation that is not proper orthonormal."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


def rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


@dataclass(frozen=True)
class Pose:
    """SE(2) rigid transform on the ground plane: ``rotation`` is a yaw angle
    (rad), ``translation`` has length 2. A 3D point's z passes through."""

    rotation: float
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64)
        if np.ndim(self.rotation) != 0 or t.shape != (2,):
            raise PoseError(f"a pose needs a scalar yaw and a length-2 translation, got shapes "
                            f"{np.shape(self.rotation)} and {t.shape}")
        yaw = wrap_angle(float(self.rotation))
        if not (math.isfinite(yaw) and np.all(np.isfinite(t))):
            raise PoseError(f"pose must be finite, got yaw {self.rotation!r}, translation {t.tolist()}")
        object.__setattr__(self, "rotation", yaw)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(0.0, np.zeros(2))

    @staticmethod
    def se2(yaw: float, tx: float, ty: float) -> "Pose":
        return Pose(yaw, np.array([tx, ty], dtype=np.float64))

    def apply_point(self, point) -> np.ndarray:
        """Map a 2D or 3D point from the source frame into the target frame."""
        p = np.asarray(point, dtype=np.float64)
        xy = rot2(self.rotation) @ p[:2] + self.translation
        if p.shape[-1] == 2:
            return xy
        return np.array([xy[0], xy[1], p[2]])

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized apply_point for an (n, 2|3) array."""
        p = np.asarray(points, dtype=np.float64)
        out = p.copy()
        out[:, :2] = p[:, :2] @ rot2(self.rotation).T + self.translation
        return out


def compose(a: Pose, b: Pose) -> Pose:
    """Chain two transforms: the result maps b's source frame into a's target frame."""
    t = rot2(a.rotation) @ b.translation + a.translation
    return Pose(wrap_angle(a.rotation + b.rotation), t)


def invert(p: Pose) -> Pose:
    return Pose(-p.rotation, -(rot2(-p.rotation) @ p.translation))


def ego_delta(pose_t: Pose, pose_t1: Pose) -> Pose:
    """Transform mapping frame-t coordinates into frame-(t+1) coordinates.

    Both poses must be expressed in the same world frame.
    """
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
    vel = rot2(t.rotation) @ b.velocity
    return replace(b, center=center, yaw=wrap_angle(b.yaw + t.rotation), velocity=vel)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics in pixels; ``rotation`` (3, 3) and
    ``translation`` (3,) map an ego point p into the camera frame as
    ``rotation @ p + translation``."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray
    width: int
    height: int
    name: str = "front"

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        # every comparison with NaN is false, so these bounds refuse it too
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError(f"focal lengths must be finite and positive, got {self.fx!r}, {self.fy!r}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if self.name not in CAMERA_SLOTS:
            raise ValueError(f"unknown camera slot {self.name!r}")
        if r.shape != (3, 3) or t.shape != (3,) or not np.all(np.isfinite(t)):
            raise PoseError("camera needs a 3x3 rotation and a finite length-3 translation")
        if not (np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-6 and np.linalg.det(r) > 0):
            raise PoseError("camera rotation must be orthonormal with determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


def project_points(cam: CameraModel, points: np.ndarray):
    """Vectorized projection of (n, 3) ego-frame points.

    Returns (uv (n, 2), depth (n,), valid (n,)) where valid requires the point
    to be in front of the camera and its pixel inside the image.
    """
    p = np.asarray(points, dtype=np.float64) @ cam.rotation.T + cam.translation
    depth = p[:, 2]
    front = depth > EPS_DEPTH
    safe = np.where(front, depth, 1.0)
    uv = np.stack([cam.fx * p[:, 0] / safe + cam.cx, cam.fy * p[:, 1] / safe + cam.cy], axis=1)
    inside = (uv[:, 0] >= 0) & (uv[:, 0] < cam.width) & (uv[:, 1] >= 0) & (uv[:, 1] < cam.height)
    return uv, depth, front & inside
