"""Deterministic synthetic driving world: a straight multi-lane road with
cars and crossing pedestrians under constant-velocity motion, plus the ego
trajectory and the six-camera rig."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..geom3d import BoundingBox3D, CAMERA_SLOTS, CameraModel, Pose, rot2, wrap_angle

CLASS_CAR = 0
CLASS_PEDESTRIAN = 1
CLASS_NAMES = {CLASS_CAR: "car", CLASS_PEDESTRIAN: "pedestrian"}

CAR_SIZE = np.array([1.9, 4.5, 1.7])          # w, l, h
PEDESTRIAN_SIZE = np.array([0.7, 0.7, 1.8])

LANE_LINE_WIDTH = 0.3  # m, width of the rendered lane paint stripe; rasterize_gt_bev dilates by its own 1 m

# the one road every scene drives on (m): lanes, its extent along x, crossings
N_LANES, LANE_WIDTH = 4, 3.5
ROAD_X_MIN, ROAD_X_MAX, CROSSING_SPACING = -120.0, 240.0, 60.0
ROAD_HALF_WIDTH = N_LANES * LANE_WIDTH / 2.0


class SceneConfigError(ValueError):
    """Scene generation asked for an infeasible configuration."""


@dataclass(frozen=True)
class MapSpec:
    """Static geometry in world coordinates, kept as tuples of read-only
    float64 copies, with each group's (n, 4) bounding ``boxes`` (x min,
    y min, x max, y max) made once, at construction."""

    drivable: tuple[np.ndarray, ...]      # polygons (k, 2), k >= 3
    lane_lines: tuple[np.ndarray, ...]    # polylines (k, 2), k >= 2
    crossings: tuple[np.ndarray, ...]     # polygons (k, 2), k >= 3
    lane_centers: list[tuple[float, float]]  # (y offset, heading) spawn lanes
    boxes: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        boxes = {}
        for group, least in (("drivable", 3), ("lane_lines", 2), ("crossings", 3)):
            shapes = tuple(np.array(shape, dtype=np.float64) for shape in getattr(self, group))
            for i, a in enumerate(shapes):
                if a.ndim != 2 or a.shape[1] != 2 or len(a) < least or not np.isfinite(a).all():
                    raise ValueError(f"MapSpec {group}[{i}] must be a finite (k, 2) array with k >= {least}")
                a.flags.writeable = False
            object.__setattr__(self, group, shapes)
            boxes[group] = np.array([[*a.min(axis=0), *a.max(axis=0)] for a in shapes]).reshape(-1, 4)
        object.__setattr__(self, "boxes", boxes)


@dataclass
class AgentState:
    """Kinematic state of one agent at one timestep."""

    agent_id: int
    label: int
    center: np.ndarray   # (3,) world
    yaw: float
    speed: float
    size: np.ndarray     # (3,)

    def to_box(self) -> BoundingBox3D:
        vel = rot2(self.yaw) @ np.array([self.speed, 0.0])
        return BoundingBox3D(center=self.center.copy(), size=self.size.copy(),
                             yaw=self.yaw, velocity=vel, label=self.label, score=1.0)


@dataclass
class AgentTrack:
    """One agent's full trajectory; ids are unique within a scene."""

    agent_id: int
    label: int
    speed: float
    boxes: list[BoundingBox3D]  # world frame, one per timestep


@dataclass
class SceneSpec:
    seed: int
    static_map: MapSpec
    agents: list[AgentTrack]
    duration: int
    dt: float
    ego_trajectory: list[Pose]   # SE(2), world frame


def step_agents(states: list[AgentState], dt: float) -> list[AgentState]:
    """Advance agents by one step of constant-velocity motion along their yaw."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    out = []
    for s in states:
        delta = rot2(s.yaw) @ np.array([s.speed * dt, 0.0])
        center = s.center + np.array([delta[0], delta[1], 0.0])
        out.append(replace(s, center=center, yaw=wrap_angle(s.yaw)))
    return out


def straight_road_map() -> MapSpec:
    """Straight road along +x centered on y=0; half the lanes run each way."""
    half = ROAD_HALF_WIDTH
    drivable = [np.array([[ROAD_X_MIN, -half], [ROAD_X_MAX, -half], [ROAD_X_MAX, half], [ROAD_X_MIN, half]])]
    lane_lines = [
        np.array([[ROAD_X_MIN, y], [ROAD_X_MAX, y]])
        for y in np.linspace(-half, half, N_LANES + 1)
    ]
    crossings = []
    x = CROSSING_SPACING / 2.0
    while x < ROAD_X_MAX:
        crossings.append(np.array([[x - 2.0, -half], [x + 2.0, -half], [x + 2.0, half], [x - 2.0, half]]))
        x += CROSSING_SPACING
    lane_centers = []
    for k in range(N_LANES):
        y = -half + (k + 0.5) * LANE_WIDTH
        heading = 0.0 if y < 0 else math.pi  # right-hand traffic: y<0 lanes head +x
        lane_centers.append((y, heading))
    return MapSpec(drivable=drivable, lane_lines=lane_lines, crossings=crossings,
                   lane_centers=lane_centers)


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for scene generation, each set from its config file key but
    ``spawn_x_min`` and ``spawn_x_max``, which only callers of the API set."""

    duration: int = 14
    dt: float = 0.5
    agents_min: int = 3
    agents_max: int = 6
    speed_min: float = 2.0
    speed_max: float = 8.0
    fast_fraction: float = 0.0       # fraction drawn from the fast band
    fast_speed_min: float = 10.0
    fast_speed_max: float = 14.0
    pedestrian_fraction: float = 0.25
    ego_speed: float = 4.0
    spawn_x_min: float = -24.0
    spawn_x_max: float = 40.0

    def validate(self) -> None:
        if self.duration < 1:
            raise SceneConfigError("scene duration must be >= 1 frame")
        if self.dt <= 0:
            raise SceneConfigError("dt must be > 0")
        if self.agents_min > self.agents_max or self.agents_min < 0:
            raise SceneConfigError("bad agent count range")
        for band, low, high in (("agent speed", self.speed_min, self.speed_max),
                                ("fast speed", self.fast_speed_min, self.fast_speed_max)):
            if not 0 <= low <= high:
                raise SceneConfigError(f"bad {band} band {low!r}..{high!r}: need 0 <= min <= max")


def generate_scene(seed: int, config: WorldConfig) -> SceneSpec:
    """Deterministic scene from (seed, config): ego drives the outer right
    lane; cars follow lanes, pedestrians walk across near crossings."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CE2E]))
    m = straight_road_map()

    ego_lane_y = m.lane_centers[0][0]  # outer right lane, heading +x
    ego_traj = [
        Pose.se2(0.0, config.ego_speed * t * config.dt, ego_lane_y)
        for t in range(config.duration)
    ]

    n_agents = int(rng.integers(config.agents_min, config.agents_max + 1))
    states: list[AgentState] = []
    occupied: list[tuple[float, float]] = []
    for aid in range(n_agents):
        is_ped = rng.uniform() < config.pedestrian_fraction
        if is_ped:
            cx = float(rng.choice([c[:, 0].mean() for c in m.crossings]))
            x = cx + rng.uniform(-1.5, 1.5)
            y = rng.uniform(-ROAD_HALF_WIDTH - 2.0, ROAD_HALF_WIDTH + 2.0)
            heading = math.pi / 2 if rng.uniform() < 0.5 else -math.pi / 2
            speed = float(rng.uniform(0.8, 1.8))
            size = PEDESTRIAN_SIZE
            label = CLASS_PEDESTRIAN
        else:
            lane_y, heading = m.lane_centers[int(rng.integers(len(m.lane_centers)))]
            for _ in range(20):
                x = float(rng.uniform(config.spawn_x_min, config.spawn_x_max))
                if all(abs(x - ox) > 8.0 or abs(lane_y - oy) > 1.0 for ox, oy in occupied):
                    break
            y = lane_y
            if rng.uniform() < config.fast_fraction:
                speed = float(rng.uniform(config.fast_speed_min, config.fast_speed_max))
            else:
                speed = float(rng.uniform(config.speed_min, config.speed_max))
            size = CAR_SIZE
            label = CLASS_CAR
        occupied.append((x, y))
        states.append(AgentState(agent_id=aid, label=label,
                                 center=np.array([x, y, size[2] / 2.0]),
                                 yaw=heading, speed=speed, size=size.copy()))

    tracks = [AgentTrack(agent_id=s.agent_id, label=s.label, speed=s.speed, boxes=[s.to_box()])
              for s in states]
    for _ in range(1, config.duration):
        states = step_agents(states, config.dt)
        for tr, s in zip(tracks, states):
            tr.boxes.append(s.to_box())

    return SceneSpec(seed=seed, static_map=m, agents=tracks,
                     duration=config.duration, dt=config.dt, ego_trajectory=ego_traj)


def build_camera_rig(width: int = 128, height: int = 64, fov_deg: float = 60.0,
                     mount_height: float = 1.6) -> dict[str, CameraModel]:
    """Six-camera surround rig: 60 deg horizontal FOV at 60 deg heading
    increments, all mounted at the ego origin."""
    headings = {
        "front": 0.0,
        "front-left": 60.0,
        "back-left": 120.0,
        "back": 180.0,
        "back-right": -120.0,
        "front-right": -60.0,
    }
    fx = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    rig = {}
    for name in CAMERA_SLOTS:
        phi = math.radians(headings[name])
        fwd = np.array([math.cos(phi), math.sin(phi), 0.0])
        right = np.array([math.sin(phi), -math.cos(phi), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        r_ce = np.stack([right, down, fwd])  # rows: camera axes in ego coords
        pos = np.array([0.0, 0.0, mount_height])
        rig[name] = CameraModel(fx=fx, fy=fx, cx=width / 2.0, cy=height / 2.0, rotation=r_ce,
                                translation=-r_ce @ pos, width=width, height=height, name=name)
    return rig


FRONT_SLOTS = ("front-left", "front", "front-right")
BACK_SLOTS = ("back-left", "back", "back-right")


def full_schedule(duration: int) -> list[dict[str, bool]]:
    return [{name: True for name in CAMERA_SLOTS} for _ in range(duration)]


def alternating_schedule(duration: int) -> list[dict[str, bool]]:
    """Even frames: the three front slots; odd frames: the three back slots."""
    out = []
    for t in range(duration):
        active = FRONT_SLOTS if t % 2 == 0 else BACK_SLOTS
        out.append({name: name in active for name in CAMERA_SLOTS})
    return out
