"""Reference renderer and BEV rasterizer: ``render_camera``,
``ground_color`` and ``rasterize_gt_bev`` as they were before the renderer
learnt to skip pixels. Every agent's slab test runs over every pixel of the
image, and every ground point or BEV cell centre is tested against every
map polygon and lane line. The point tests ``points_in_polygon`` and
``dist_to_polyline`` are the production ones. Tests compare the production
renderer and rasterizer against these bit for bit.
"""

from __future__ import annotations

import numpy as np

from dualstream.geom3d import CameraModel, Pose, compose, invert, rot2
from dualstream.statstream import BevSpec, cell_center_grid
from dualstream.synthworld.render import (
    CLASS_COLORS,
    COLOR_CROSSING,
    COLOR_GRASS,
    COLOR_LANE,
    COLOR_ROAD,
    COLOR_SKY,
    dist_to_polyline,
    id_brightness,
    points_in_polygon,
)
from dualstream.synthworld.scene import LANE_LINE_WIDTH, MapSpec, SceneSpec

_EPS_RAY = 1e-6


def ground_color(points_xy: np.ndarray, m: MapSpec) -> np.ndarray:
    """Classify ground-plane points into crossing / lane line / road / grass."""
    flat = points_xy.reshape(-1, 2)
    color = np.tile(COLOR_GRASS, (flat.shape[0], 1))
    drivable = np.zeros(flat.shape[0], dtype=bool)
    for poly in m.drivable:
        drivable |= points_in_polygon(flat, poly)
    color[drivable] = COLOR_ROAD
    crossing = np.zeros_like(drivable)
    for poly in m.crossings:
        crossing |= points_in_polygon(flat, poly)
    # simple zebra texture so crossings are visually distinct
    stripe = (np.floor(flat[:, 0] / 0.5).astype(np.int64) % 2) == 0
    color[crossing & stripe] = COLOR_CROSSING
    lane = np.zeros_like(drivable)
    for line in m.lane_lines:
        lane |= dist_to_polyline(flat, line) <= LANE_LINE_WIDTH / 2.0
    # dashed interior lines: 2 m dash, 2 m gap (outermost lines stay solid)
    dash = (np.floor(flat[:, 0] / 2.0).astype(np.int64) % 2) == 0
    color[lane & (dash | (np.abs(flat[:, 1]) > 0.9 * _road_half_width(m)))] = COLOR_LANE
    return color.reshape(points_xy.shape[:-1] + (3,))


def _road_half_width(m: MapSpec) -> float:
    return float(max(np.abs(poly[:, 1]).max() for poly in m.drivable))


def render_camera(scene: SceneSpec, t: int, cam: CameraModel):
    """Render one camera; returns (image (3,H,W) f32, depth (H,W), instance (H,W)).

    instance holds the agent id per pixel, -1 for ground/sky.
    """
    ego = scene.ego_trajectory[t]
    h, w = cam.height, cam.width
    us, vs = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    dirs_cam = np.stack([(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy, np.ones_like(us)], axis=-1)

    cam_to_world = compose(_se2_to_se3(ego), invert(cam.extrinsic))
    r = cam_to_world.rotation
    origin = cam_to_world.translation
    dirs = dirs_cam @ r.T  # (H, W, 3) world-frame ray directions, z-depth = ray parameter

    depth = np.full((h, w), np.inf)
    color = np.tile(COLOR_SKY, (h, w, 1))
    instance = np.full((h, w), -1, dtype=np.int32)

    dz = dirs[..., 2]
    hits_ground = dz < -_EPS_RAY
    with np.errstate(divide="ignore", invalid="ignore"):
        s_ground = np.where(hits_ground, -origin[2] / dz, np.inf)
    use = s_ground < depth
    ground_pts = origin[None, :2] + s_ground[use][:, None] * dirs[use][:, :2]
    depth[use] = s_ground[use]
    color[use] = ground_color(ground_pts, scene.static_map)

    for track in scene.agents:
        box = track.boxes[t]
        r2 = rot2(box.yaw)
        o_local = np.empty(3)
        o_local[:2] = r2.T @ (origin[:2] - box.center[:2])
        o_local[2] = origin[2] - box.center[2]
        d_local = np.empty_like(dirs)
        d_local[..., :2] = dirs[..., :2] @ r2
        d_local[..., 2] = dirs[..., 2]
        half = np.array([box.size[1] / 2.0, box.size[0] / 2.0, box.size[2] / 2.0])  # l, w, h

        t_enter = np.full((h, w), -np.inf)
        t_exit = np.full((h, w), np.inf)
        inside_all = np.ones((h, w), dtype=bool)
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
        closer = hit & (t_hit < depth)
        depth[closer] = t_hit[closer]
        color[closer] = CLASS_COLORS[track.label] * id_brightness(track.agent_id)
        instance[closer] = track.agent_id

    image = np.transpose(color, (2, 0, 1)).astype(np.float32)
    return image, depth, instance


def _se2_to_se3(p: Pose) -> Pose:
    c, s = np.cos(p.rotation), np.sin(p.rotation)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose.se3(r, np.array([p.translation[0], p.translation[1], 0.0]))


def rasterize_gt_bev(scene: SceneSpec, t: int, bev_spec: BevSpec,
                     lane_width: float = 1.0) -> np.ndarray:
    """Per-class masks on the BEV lattice: a cell is 1 iff its center lies
    inside the class geometry (polylines dilated to ``lane_width``).

    The default dilation of 1 m matches the desk grid resolution; the
    rendered 0.3 m paint stripe would miss every cell center at 1 m cells.
    """
    ego = scene.ego_trajectory[t]
    centers_ego = cell_center_grid(bev_spec)
    centers_world = ego.apply_points(centers_ego)
    m = scene.static_map
    h, w = bev_spec.dims

    drivable = np.zeros(centers_world.shape[0], dtype=bool)
    for poly in m.drivable:
        drivable |= points_in_polygon(centers_world, poly)
    lanes = np.zeros_like(drivable)
    for line in m.lane_lines:
        lanes |= dist_to_polyline(centers_world, line) <= lane_width / 2.0
    crossing = np.zeros_like(drivable)
    for poly in m.crossings:
        crossing |= points_in_polygon(centers_world, poly)
    masks = np.stack([drivable, lanes, crossing]).astype(np.float32)
    return masks.reshape(3, h, w)
