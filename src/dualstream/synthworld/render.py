"""Per-pixel ray rasterizer: ground plane with lane texture plus agents as
solid-colored cuboids under z-buffer ordering.

The depth buffer stores camera-frame forward distance (z-depth), matching
the convention of geom3d.project_points, so any rendered pixel
back-projects to its surface point via the pinhole model.

Work is spent only where it can change a pixel, and every output bit equals
that of testing every pixel against every agent and every map shape:

* An agent's slab test runs on a window of pixels. A pixel's ray parameter
  is its camera-frame depth and a hit needs it above ``_EPS_RAY``, so a box
  with every corner at depth <= 0 is skipped. When every corner lies in
  front of the camera (depth above ``EPS_DEPTH``), the box is convex and
  projects onto the convex hull of its 8 projected corners, so every pixel
  whose centre ray hits it lies in the hull's bounding box. The window is
  that box taken out to whole pixels (``floor``/``ceil``), which keeps
  half a pixel between the hull and the centre of any pixel left out, and
  one pixel more on each side against rounding in the projected corners,
  then clipped to the image. Any other box reaches the image plane, as one
  holding the camera does, and need not project onto a bounded region, so
  its test runs on the whole image.
* Ground points meet each map polygon and lane line only inside the
  shape's bounding box, padded for rounding (``map_mask``). A ``MapSpec``
  makes its shapes' boxes once, when it is built.

Arrays are coordinate planes, each one contiguous array, which numpy reads
and fills far faster than the strided columns of (n, 3) or (n, 2) arrays:
the rays and colours are (3, H·W), so the image needs no transpose, and
the ground points are one pixel index array plus x and y arrays.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from ..geom3d import EPS_DEPTH, CameraModel, rot2
from .scene import LANE_LINE_WIDTH, MapSpec, SceneSpec

COLOR_SKY = np.array([0.55, 0.75, 0.95])
COLOR_GRASS = np.array([0.25, 0.55, 0.25])
COLOR_ROAD = np.array([0.35, 0.35, 0.38])
COLOR_LANE = np.array([0.95, 0.95, 0.95])
COLOR_CROSSING = np.array([0.85, 0.75, 0.30])
_GROUND_PLANES = np.stack([COLOR_GRASS, COLOR_ROAD, COLOR_CROSSING, COLOR_LANE], axis=1)  # (3, 4)
CLASS_COLORS = {0: np.array([0.85, 0.15, 0.12]), 1: np.array([0.10, 0.20, 0.90])}

_EPS_RAY = 1e-6
_CORNERS = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)])  # unit box
_MAP_PAD = 1e-6  # m; covers the rounding of map tests at a few hundred metres from the origin


def id_brightness(agent_id: int) -> float:
    """Deterministic per-id brightness jitter in [0.72, 1.0]."""
    h = (agent_id * 2654435761) % 997
    return 0.72 + 0.28 * (h / 996.0)


def points_in_polygon(x: np.ndarray, y: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd rule point-in-polygon test of the points (``x``, ``y``).
    An edge with ``y1 == y2`` crosses no point's ray and is skipped."""
    inside = np.zeros(x.shape, dtype=bool)
    k = len(poly)
    for i in range(k):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % k]
        if y1 == y2:
            continue
        crosses = (y1 > y) != (y2 > y)
        xi = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        inside ^= crosses & (x < xi)
    return inside


def dist_to_polyline(x: np.ndarray, y: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Min distance from each point (``x``, ``y``) to a polyline."""
    best = np.full(x.shape, np.inf)
    for a, b in zip(line[:-1], line[1:]):
        ab = b - a
        denom = float(ab @ ab)
        dx, dy = x - a[0], y - a[1]
        if denom >= 1e-12:
            t = ((dx * ab[0] + dy * ab[1]) / denom).clip(0.0, 1.0)
            dx, dy = x - (a[0] + t * ab[0]), y - (a[1] + t * ab[1])
        best = np.minimum(best, np.sqrt(dx * dx + dy * dy))
    return best


def map_mask(x: np.ndarray, y: np.ndarray, m: MapSpec, group: str, reach: Optional[float] = None) -> np.ndarray:
    """Mask of the points (``x``, ``y``) inside any polygon of ``m``'s
    ``group`` (even-odd rule) or, given ``reach``, within ``reach`` of any
    of its polylines.

    Each shape tests only the points inside its bounding box grown by
    ``reach`` and ``_MAP_PAD``. That is exact: a point outside a polygon's
    box crosses an even number of its edges, all on one side of it, and a
    point farther than ``reach`` from a polyline's box is farther than that
    from the polyline; the pad covers the rounding of the tests.
    """
    grow = (reach or 0.0) + _MAP_PAD
    lo, hi = m.boxes[group][:, :2] - grow, m.boxes[group][:, 2:] + grow
    near = (x >= lo[:, :1]) & (x <= hi[:, :1]) & (y >= lo[:, 1:]) & (y <= hi[:, 1:])   # (shapes, points)
    out = np.zeros(x.shape, dtype=bool)
    for shape, row in zip(getattr(m, group), near):
        sel = np.flatnonzero(row)
        if sel.size == 0:
            continue
        if reach is None:
            out[sel] |= points_in_polygon(x[sel], y[sel], shape)
        else:
            out[sel] |= dist_to_polyline(x[sel], y[sel], shape) <= reach
    return out


def ground_color(x: np.ndarray, y: np.ndarray, m: MapSpec) -> np.ndarray:
    """(3, n) colour planes of the ground points (``x``, ``y``): crossing,
    lane line, road or grass."""
    kind = map_mask(x, y, m, "drivable").astype(np.intp)   # index into _GROUND_PLANES
    # simple zebra texture so crossings are visually distinct
    crossing = np.flatnonzero(map_mask(x, y, m, "crossings"))
    kind[crossing[(np.floor(x[crossing] / 0.5).astype(np.int64) % 2) == 0]] = 2
    lane = np.flatnonzero(map_mask(x, y, m, "lane_lines", LANE_LINE_WIDTH / 2.0))
    # dashed interior lines: 2 m dash, 2 m gap (outermost lines stay solid)
    dash = (np.floor(x[lane] / 2.0).astype(np.int64) % 2) == 0
    road_half_width = float(np.abs(m.boxes["drivable"][:, 1::2]).max())
    kind[lane[dash | (np.abs(y[lane]) > 0.9 * road_half_width)]] = 3
    return np.take(_GROUND_PLANES, kind, axis=1)


def _agent_windows(boxes, origin: np.ndarray, r: np.ndarray, cam: CameraModel) -> list:
    """Per box, the (rows, cols) slices of the pixels whose rays can hit it:
    None when none can, the whole image when the box reaches the image
    plane. ``origin`` and ``r`` place the camera in the world. See the
    module docstring."""
    if not boxes:
        return []
    lwh = np.array([[b.size[1], b.size[0], b.size[2]] for b in boxes])
    yaw = np.array([b.yaw for b in boxes])[:, None]
    c, s = np.cos(yaw), np.sin(yaw)
    lx, ly, lz = np.moveaxis(_CORNERS * lwh[:, None], -1, 0)
    world = np.stack([c * lx - s * ly, s * lx + c * ly, lz], axis=-1)
    pts = (world + np.array([b.center for b in boxes])[:, None] - origin) @ r   # (boxes, 8, 3) camera frame
    z = pts[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * pts[..., 0] / z + cam.cx
        v = cam.fy * pts[..., 1] / z + cam.cy
    wins = []
    for k in range(len(boxes)):
        if z[k].max() <= 0.0:
            wins.append(None)
        elif z[k].min() <= EPS_DEPTH:
            wins.append((slice(None), slice(None)))
        else:
            c0, c1 = max(math.floor(u[k].min()) - 1, 0), min(math.ceil(u[k].max()) + 1, cam.width - 1)
            r0, r1 = max(math.floor(v[k].min()) - 1, 0), min(math.ceil(v[k].max()) + 1, cam.height - 1)
            wins.append((slice(r0, r1 + 1), slice(c0, c1 + 1)) if c0 <= c1 and r0 <= r1 else None)
    return wins


@functools.lru_cache(maxsize=8)
def _pixel_rays(w: int, h: int, cx: float, cy: float, fx: float, fy: float) -> np.ndarray:
    """(3, H·W) camera-frame rays through the pixel centres, z = 1; read-only."""
    us, vs = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    rays = np.stack([(us - cx) / fx, (vs - cy) / fy, np.ones_like(us)]).reshape(3, h * w)
    rays.flags.writeable = False
    return rays


def _camera_rays(scene: SceneSpec, t: int, cam: CameraModel):
    """The camera's world-frame origin (3,), camera-to-world rotation and
    (3, H·W) pixel ray directions at frame ``t``; z-depth = ray parameter."""
    # the ego pose lifted to 3D, composed with the inverse of the camera's
    # mount, in the operation order of the SE(3) ``_compose`` and
    # ``_invert`` that tests/render_oracle.py keeps as its reference
    ego = scene.ego_trajectory[t]
    c, s = np.cos(ego.rotation), np.sin(ego.rotation)
    r_ego = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    r_cam = cam.rotation.T
    r = r_ego @ r_cam
    origin = r_ego @ -(r_cam @ cam.translation) + np.array([ego.translation[0], ego.translation[1], 0.0])
    return origin, r, r @ _pixel_rays(cam.width, cam.height, cam.cx, cam.cy, cam.fx, cam.fy)


def _ground_points(origin: np.ndarray, dirs: np.ndarray):
    """Indices, ray parameters and x and y planes of the rays meeting the ground."""
    ground = np.flatnonzero(dirs[2] < -_EPS_RAY)
    s = -origin[2] / dirs[2][ground]
    return ground, s, origin[0] + s * dirs[0][ground], origin[1] + s * dirs[1][ground]


def render_camera(scene: SceneSpec, t: int, cam: CameraModel):
    """Render one camera; returns (image (3,H,W) f32, depth (H,W), instance (H,W)).

    instance holds the agent id per pixel, -1 for ground/sky.
    """
    h, w = cam.height, cam.width
    origin, r, dirs = _camera_rays(scene, t, cam)
    depth = np.full((h, w), np.inf)
    color = np.empty((3, h, w))
    color[:] = COLOR_SKY[:, None, None]
    instance = np.full((h, w), -1, dtype=np.int32)

    ground, s_ground, gx, gy = _ground_points(origin, dirs)
    depth.reshape(-1)[ground] = s_ground
    for plane, value in zip(color.reshape(3, -1), ground_color(gx, gy, scene.static_map)):
        plane[ground] = value

    dirs = dirs.reshape(3, h, w)
    boxes = [track.boxes[t] for track in scene.agents]
    for track, box, win in zip(scene.agents, boxes, _agent_windows(boxes, origin, r, cam)):
        if win is None:
            continue
        r2 = rot2(box.yaw)
        o_local = np.empty(3)
        o_local[:2] = r2.T @ (origin[:2] - box.center[:2])
        o_local[2] = origin[2] - box.center[2]
        d_win = dirs[(slice(None),) + win]
        shape = d_win.shape[1:]
        d_xy = (r2.T @ d_win[:2].reshape(2, -1)).reshape(2, *shape)
        d_local = (d_xy[0], d_xy[1], d_win[2])
        half = np.array([box.size[1] / 2.0, box.size[0] / 2.0, box.size[2] / 2.0])  # l, w, h

        t_enter = np.full(shape, -np.inf)
        t_exit = np.full(shape, np.inf)
        inside_all = np.ones(shape, dtype=bool)
        for ax in range(3):
            d = d_local[ax]
            o = o_local[ax]
            parallel = np.abs(d) < 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (-half[ax] - o) / d
                t2 = (half[ax] - o) / d
            lo = np.minimum(t1, t2)
            hi = np.maximum(t1, t2)
            t_enter = np.where(parallel, t_enter, np.maximum(t_enter, lo))
            t_exit = np.where(parallel, t_exit, np.minimum(t_exit, hi))
            inside_all &= ~parallel | (np.abs(o) <= half[ax])
        hit = inside_all & (t_exit >= t_enter)
        t_hit = np.where(t_enter > _EPS_RAY, t_enter, t_exit)
        hit &= t_hit > _EPS_RAY
        depth_w, color_w, instance_w = depth[win], color[(slice(None),) + win], instance[win]
        closer = hit & (t_hit < depth_w)
        depth_w[closer] = t_hit[closer]
        color_w[:, closer] = (CLASS_COLORS[track.label] * id_brightness(track.agent_id))[:, None]
        instance_w[closer] = track.agent_id

    return color.astype(np.float32), depth, instance
