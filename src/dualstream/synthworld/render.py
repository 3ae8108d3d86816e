"""Per-pixel ray rasterizer: ground plane with lane texture plus agents as
solid-colored cuboids under z-buffer ordering.

The depth buffer stores camera-frame forward distance (z-depth), matching
the convention of geom3d.project, so any rendered pixel back-projects to its
surface point via the pinhole model.

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
  shape's bounding box, padded for rounding (``map_mask``).
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
_GROUND_COLORS = np.stack([COLOR_GRASS, COLOR_ROAD, COLOR_CROSSING, COLOR_LANE])
CLASS_COLORS = {0: np.array([0.85, 0.15, 0.12]), 1: np.array([0.10, 0.20, 0.90])}

_EPS_RAY = 1e-6
_CORNERS = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)])  # unit box
_MAP_PAD = 1e-6  # m; covers the rounding of map tests at a few hundred metres from the origin


def id_brightness(agent_id: int) -> float:
    """Deterministic per-id brightness jitter in [0.72, 1.0]."""
    h = (agent_id * 2654435761) % 997
    return 0.72 + 0.28 * (h / 996.0)


def points_in_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd rule point-in-polygon test, vectorized over points."""
    x, y = pts[..., 0], pts[..., 1]
    inside = np.zeros(x.shape, dtype=bool)
    k = len(poly)
    for i in range(k):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % k]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        inside ^= crosses & (x < xi)
    return inside


def dist_to_polyline(pts: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Min distance from each point to a polyline, vectorized."""
    best = np.full(pts.shape[:-1], np.inf)
    for a, b in zip(line[:-1], line[1:]):
        ab = b - a
        denom = float(ab @ ab)
        if denom < 1e-12:
            d = np.linalg.norm(pts - a, axis=-1)
        else:
            t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
            proj = a + t[..., None] * ab
            d = np.linalg.norm(pts - proj, axis=-1)
        best = np.minimum(best, d)
    return best


def map_mask(pts: np.ndarray, shapes: list[np.ndarray], reach: Optional[float] = None) -> np.ndarray:
    """(n,) mask of the (n, 2) points inside any of the polygons ``shapes``
    (even-odd rule) or, given ``reach``, within ``reach`` of any of the
    polylines ``shapes``.

    Each shape tests only the points inside its bounding box grown by
    ``reach`` and ``_MAP_PAD``. That is exact: a point outside a polygon's
    box crosses an even number of its edges, all on one side of it, and a
    point farther than ``reach`` from a polyline's box is farther than that
    from the polyline; the pad covers the rounding of the tests.
    """
    grow = (reach or 0.0) + _MAP_PAD
    x, y = np.ascontiguousarray(pts.T)
    out = np.zeros(pts.shape[0], dtype=bool)
    for shape in shapes:
        (x0, y0), (x1, y1) = shape.min(axis=0) - grow, shape.max(axis=0) + grow
        sel = np.flatnonzero((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))
        if sel.size == 0:
            continue
        if reach is None:
            out[sel] |= points_in_polygon(pts[sel], shape)
        else:
            out[sel] |= dist_to_polyline(pts[sel], shape) <= reach
    return out


def ground_color(points_xy: np.ndarray, m: MapSpec) -> np.ndarray:
    """Classify ground-plane points into crossing / lane line / road / grass."""
    flat = points_xy.reshape(-1, 2)
    x = flat[:, 0]
    kind = map_mask(flat, m.drivable).astype(np.intp)   # index into _GROUND_COLORS
    # simple zebra texture so crossings are visually distinct
    crossing = np.flatnonzero(map_mask(flat, m.crossings))
    kind[crossing[(np.floor(x[crossing] / 0.5).astype(np.int64) % 2) == 0]] = 2
    lane = np.flatnonzero(map_mask(flat, m.lane_lines, LANE_LINE_WIDTH / 2.0))
    # dashed interior lines: 2 m dash, 2 m gap (outermost lines stay solid)
    dash = (np.floor(x[lane] / 2.0).astype(np.int64) % 2) == 0
    kind[lane[dash | (np.abs(flat[lane, 1]) > 0.9 * _road_half_width(m))]] = 3
    return _GROUND_COLORS[kind].reshape(points_xy.shape[:-1] + (3,))


def _road_half_width(m: MapSpec) -> float:
    return float(max(np.abs(poly[:, 1]).max() for poly in m.drivable))


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
    """(H, W, 3) camera-frame rays through the pixel centres, z = 1; read-only."""
    us, vs = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    rays = np.stack([(us - cx) / fx, (vs - cy) / fy, np.ones_like(us)], axis=-1)
    rays.flags.writeable = False
    return rays


def render_camera(scene: SceneSpec, t: int, cam: CameraModel):
    """Render one camera; returns (image (3,H,W) f32, depth (H,W), instance (H,W)).

    instance holds the agent id per pixel, -1 for ground/sky.
    """
    h, w = cam.height, cam.width
    # camera to world: the ego pose lifted to SE(3), composed with the inverse
    # extrinsic, in the operation order of geom3d's compose and invert but
    # without building (and validating) the three intermediate poses
    ego = scene.ego_trajectory[t]
    c, s = np.cos(ego.rotation), np.sin(ego.rotation)
    r_ego = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    r_cam = cam.extrinsic.rotation.T
    r = r_ego @ r_cam
    origin = r_ego @ -(r_cam @ cam.extrinsic.translation) + np.array([ego.translation[0], ego.translation[1], 0.0])
    # (H, W, 3) world-frame ray directions, z-depth = ray parameter
    dirs = _pixel_rays(w, h, cam.cx, cam.cy, cam.fx, cam.fy) @ r.T

    depth = np.full((h, w), np.inf)
    color = np.empty((h, w, 3))
    color[:] = COLOR_SKY
    instance = np.full((h, w), -1, dtype=np.int32)

    ground = dirs[..., 2] < -_EPS_RAY
    d_ground = dirs[ground]
    s_ground = -origin[2] / d_ground[:, 2]
    depth[ground] = s_ground
    color[ground] = ground_color(origin[None, :2] + s_ground[:, None] * d_ground[:, :2], scene.static_map)

    boxes = [track.boxes[t] for track in scene.agents]
    for track, box, win in zip(scene.agents, boxes, _agent_windows(boxes, origin, r, cam)):
        if win is None:
            continue
        r2 = rot2(box.yaw)
        o_local = np.empty(3)
        o_local[:2] = r2.T @ (origin[:2] - box.center[:2])
        o_local[2] = origin[2] - box.center[2]
        d_win = dirs[win]
        d_local = np.empty_like(d_win)
        d_local[..., :2] = d_win[..., :2] @ r2
        d_local[..., 2] = d_win[..., 2]
        half = np.array([box.size[1] / 2.0, box.size[0] / 2.0, box.size[2] / 2.0])  # l, w, h

        shape = d_local.shape[:2]
        t_enter = np.full(shape, -np.inf)
        t_exit = np.full(shape, np.inf)
        inside_all = np.ones(shape, dtype=bool)
        for ax in range(3):
            d = d_local[..., ax]
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
        depth_w, color_w, instance_w = depth[win], color[win], instance[win]
        closer = hit & (t_hit < depth_w)
        depth_w[closer] = t_hit[closer]
        color_w[closer] = CLASS_COLORS[track.label] * id_brightness(track.agent_id)
        instance_w[closer] = track.agent_id

    image = np.transpose(color, (2, 0, 1)).astype(np.float32)
    return image, depth, instance

