"""Frame assembly and the on-disk dataset format.

Layout:
    index.json                        format version, config echo, BEV grid, cameras, scenes
    scene_<k>/frame_<t>.dstn          one DSTN container per frame:
        cam_<name>                    (3, H, W) f32, only the scheduled slots, in CAMERA_SLOTS order
        gt_seg                        (3, H_BEV, W_BEV) f32
        meta                          boxes (with track ids) in the ego frame, ego
                                      yaw, translation and ego_velocity, schedule
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..diffcore.dstn import atomic_directory, read_json, read_tensor, write_tensor
from ..geom3d import BoundingBox3D, CameraModel, Pose, invert, rot2, transform_box
from ..statstream import BevSpec, cell_center_grid
from .render import map_mask, render_camera
from .scene import (
    CAMERA_SLOTS,
    SceneSpec,
    WorldConfig,
    alternating_schedule,
    build_camera_rig,
    full_schedule,
    generate_scene,
)

FORMAT_VERSION = 2
SEG_CLASSES = ("drivable", "lanes", "crossing")


class DatasetError(IOError):
    """Missing or inconsistent dataset contents."""


@dataclass
class FrameSample:
    """Everything the model and the evaluator need for one timestamp."""

    index: int
    ego_pose: Pose                     # SE(2), world frame
    ego_velocity: np.ndarray           # (2,) m/s, ego frame
    images: dict[str, Optional[np.ndarray]]
    gt_boxes: list[BoundingBox3D]      # current ego frame
    gt_ids: list[int]
    gt_seg: np.ndarray                 # (3, H_BEV, W_BEV)
    availability: dict[str, bool]


def rasterize_gt_bev(scene: SceneSpec, t: int, bev_spec: BevSpec) -> np.ndarray:
    """Per-class masks on the BEV lattice: a cell is 1 iff its center lies
    inside the class geometry, lane lines dilated to 1 m, the desk grid's
    resolution (the rendered 0.3 m paint stripe would miss every cell center).
    """
    x, y = np.ascontiguousarray(scene.ego_trajectory[t].apply_points(cell_center_grid(bev_spec)).T)
    m = scene.static_map
    masks = np.stack([map_mask(x, y, m, "drivable"),
                      map_mask(x, y, m, "lane_lines", 0.5),
                      map_mask(x, y, m, "crossings")]).astype(np.float32)
    return masks.reshape(len(SEG_CLASSES), *bev_spec.dims)


def ego_frame_boxes(scene: SceneSpec, t: int, ranges: Optional[np.ndarray] = None):
    """GT boxes of frame t expressed in the ego frame, with track ids.

    ``ranges`` optionally restricts to boxes whose center lies inside the
    (2, 3) per-axis detection range.
    """
    ego_inv = invert(scene.ego_trajectory[t])
    boxes, ids = [], []
    for track in scene.agents:
        b = transform_box(ego_inv, track.boxes[t])
        if ranges is not None:
            lo, hi = ranges
            if not np.all((b.center >= lo - 1e-9) & (b.center <= hi + 1e-9)):
                continue
        boxes.append(b)
        ids.append(track.agent_id)
    return boxes, ids


def ego_velocity(scene: SceneSpec, t: int) -> np.ndarray:
    """Ego velocity at frame t in the ego frame (finite difference)."""
    traj = scene.ego_trajectory
    if len(traj) < 2:
        return np.zeros(2)
    a, b = (t, t + 1) if t + 1 < len(traj) else (t - 1, t)
    v_world = (traj[b].translation - traj[a].translation) / scene.dt
    return rot2(-traj[t].rotation) @ v_world


def render_views(scene: SceneSpec, t: int, cameras: dict[str, CameraModel],
                 schedule: dict[str, bool]) -> dict[str, Optional[np.ndarray]]:
    """The image of every camera slot in ``CAMERA_SLOTS`` order, None where
    the schedule leaves the slot unavailable."""
    return {name: render_camera(scene, t, cameras[name])[0] if schedule.get(name, False) else None
            for name in CAMERA_SLOTS}


def build_frame(
    scene: SceneSpec,
    t: int,
    cameras: dict[str, CameraModel],
    bev_spec: BevSpec,
    schedule: dict[str, bool],
    ranges: Optional[np.ndarray] = None,
) -> FrameSample:
    boxes, ids = ego_frame_boxes(scene, t, ranges)
    return FrameSample(
        index=t,
        ego_pose=scene.ego_trajectory[t],
        ego_velocity=ego_velocity(scene, t),
        images=render_views(scene, t, cameras, schedule),
        gt_boxes=boxes,
        gt_ids=ids,
        gt_seg=rasterize_gt_bev(scene, t, bev_spec),
        availability=dict(schedule),
    )


def _box_to_json(box: BoundingBox3D, track_id: int) -> dict:
    return {
        "center": list(map(float, box.center)),
        "size": list(map(float, box.size)),
        "yaw": float(box.yaw),
        "velocity": list(map(float, box.velocity)),
        "label": int(box.label),
        "track_id": int(track_id),
    }


def _finite(doc: dict, key: str) -> np.ndarray:
    """``doc[key]`` as an array; JSON reads NaN and Infinity, a frame refuses them."""
    value = np.array(doc[key])
    if not np.all(np.isfinite(value)):
        raise ValueError(f"non-finite {key} {doc[key]}")
    return value


def _box_from_json(doc: dict) -> tuple[BoundingBox3D, int]:
    box = BoundingBox3D(
        center=_finite(doc, "center"),
        size=_finite(doc, "size"),
        yaw=_finite(doc, "yaw"),
        velocity=_finite(doc, "velocity"),
        label=doc["label"],
        score=1.0,
    )
    return box, doc["track_id"]


def _camera_to_json(cam: CameraModel) -> dict:
    return {
        "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
        "width": cam.width, "height": cam.height, "name": cam.name,
        "rotation": [list(map(float, row)) for row in cam.rotation],
        "translation": list(map(float, cam.translation)),
    }


def _camera_from_json(doc: dict) -> CameraModel:
    return CameraModel(
        fx=doc["fx"], fy=doc["fy"], cx=doc["cx"], cy=doc["cy"],
        rotation=np.array(doc["rotation"]), translation=np.array(doc["translation"]),
        width=doc["width"], height=doc["height"], name=doc["name"],
    )


def _dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def write_frame(path: Path, frame: FrameSample) -> None:
    """Write ``frame`` as one DSTN container (layout at module top)."""
    tensors = {f"cam_{name}": img for name, img in frame.images.items() if img is not None}
    tensors["gt_seg"] = frame.gt_seg
    write_tensor(path, tensors, {
        "boxes": [_box_to_json(b, i) for b, i in zip(frame.gt_boxes, frame.gt_ids)],
        "yaw": float(frame.ego_pose.rotation),
        "translation": list(map(float, frame.ego_pose.translation)),
        "ego_velocity": list(map(float, frame.ego_velocity)),
        "schedule": frame.availability,
    })


def read_frame(path: Path, index: int) -> FrameSample:
    """The frame ``write_frame`` wrote at ``path``, as frame ``index``. A
    missing file or incomplete meta raises ``DatasetError``, a corrupt
    container ``DstnError``, each naming the file."""
    if not path.is_file():
        raise DatasetError(f"{path}: missing frame file")
    tensors, meta = read_tensor(path)
    try:
        availability = dict(meta["schedule"])
        pairs = [_box_from_json(d) for d in meta["boxes"]]
        return FrameSample(
            index=index,
            ego_pose=Pose.se2(meta["yaw"], *meta["translation"]),
            ego_velocity=_finite(meta, "ego_velocity"),
            images={name: tensors[f"cam_{name}"].astype(np.float32, copy=False)
                    if availability.get(name, False) else None for name in CAMERA_SLOTS},
            gt_boxes=[b for b, _ in pairs],
            gt_ids=[i for _, i in pairs],
            gt_seg=tensors["gt_seg"],
            availability=availability,
        )
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as e:
        raise DatasetError(f"{path}: corrupt or incomplete frame ({type(e).__name__}: {e})") from None


def make_schedules(kind: str, duration: int) -> list[dict[str, bool]]:
    if kind == "full":
        return full_schedule(duration)
    if kind == "alternating":
        return alternating_schedule(duration)
    raise ValueError(f"unknown schedule kind {kind!r}")


class Dataset:
    """Read-side view of a dataset directory with lazy frame loading."""

    def __init__(self, root):
        self.root = Path(root)
        self.index = read_json(self.root / "index.json", DatasetError, self._read_index, FORMAT_VERSION)

    def _read_index(self, index: dict) -> dict:
        self.dt: float = float(index["dt"])
        self.bev_spec = BevSpec(dims=tuple(index["bev"]["dims"]), extent=tuple(index["bev"]["extent"]))
        self.cameras = {name: _camera_from_json(doc) for name, doc in index["cameras"].items()}
        self.scenes = [{"id": int(s["id"]), "n_frames": int(s["n_frames"]), "seed": int(s["seed"])}
                       for s in index["scenes"]]
        if not self.scenes:
            raise DatasetError(f"{self.root / 'index.json'}: the dataset has no scenes")
        empty = [s["id"] for s in self.scenes if s["n_frames"] < 1]
        if empty:
            raise DatasetError(f"{self.root / 'index.json'}: scene {empty[0]} has no frames")
        return index

    def n_scenes(self) -> int:
        return len(self.scenes)

    def load_frame(self, scene_id: int, t: int) -> FrameSample:
        return read_frame(self.root / f"scene_{scene_id}" / f"frame_{t}.dstn", t)


def generate_and_write(
    seeds: list[int],
    path,
    world: WorldConfig,
    bev_spec: BevSpec,
    config_echo: Optional[dict] = None,
    ranges: Optional[np.ndarray] = None,
    schedule_kind: str = "full",
    image_size: tuple[int, int] = (64, 128),
    workers: int = 1,
) -> None:
    """Generate the scenes of ``seeds``, then render and persist them one
    after another; layout documented at module top. The dataset is written
    into a sibling temp directory and renamed into place, so an interrupted
    write leaves no partial dataset at ``path``. ``workers`` must be 1: it
    is kept only because ``perfbench/workloads.py`` still passes it."""
    if workers != 1:
        raise ValueError(f"gen-data runs on one thread, got workers={workers}")
    cams = build_camera_rig(width=image_size[1], height=image_size[0])
    scenes = [generate_scene(seed, world) for seed in seeds]
    with atomic_directory(path) as root:
        for k, scene in enumerate(scenes):
            schedules = make_schedules(schedule_kind, scene.duration)
            sdir = root / f"scene_{k}"
            sdir.mkdir()
            for t in range(scene.duration):
                write_frame(sdir / f"frame_{t}.dstn", build_frame(scene, t, cams, bev_spec, schedules[t], ranges))
        index = {
            "format_version": FORMAT_VERSION,
            "config": config_echo or {},
            "dt": scenes[0].dt if scenes else 0.0,
            "bev": {"dims": list(bev_spec.dims), "extent": list(bev_spec.extent)},
            "cameras": {name: _camera_to_json(cam) for name, cam in cams.items()},
            "scenes": [{"id": k, "n_frames": s.duration, "seed": s.seed} for k, s in enumerate(scenes)],
        }
        _dump_json(root / "index.json", index)
