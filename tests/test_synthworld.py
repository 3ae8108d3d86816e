import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dualstream.statstream import BevSpec, cell_to_metric
from dualstream.synthworld import (
    CLASS_CAR,
    CLASS_PEDESTRIAN,
    AgentState,
    Dataset,
    DatasetError,
    WorldConfig,
    alternating_schedule,
    build_camera_rig,
    build_frame,
    ego_frame_boxes,
    generate_and_write,
    generate_scene,
    rasterize_gt_bev,
    render_camera,
    render_views,
    step_agents,
)
from dualstream.synthworld.render import CLASS_COLORS, id_brightness
from dualstream.synthworld.scene import CAR_SIZE, SceneConfigError

BEV = BevSpec(dims=(32, 32), extent=(-16.0, 16.0, -16.0, 16.0))
RANGES = np.array([[-16.0, -16.0, -3.0], [16.0, 16.0, 3.0]])


def agent(x=0.0, y=0.0, yaw=0.0, speed=5.0):
    return AgentState(agent_id=0, label=CLASS_CAR, center=np.array([x, y, 0.85]),
                      yaw=yaw, speed=speed, size=CAR_SIZE.copy())


class TestStepAgents:
    def test_zero_dt_unchanged(self):
        s = agent()
        out = step_agents([s], 0.0)[0]
        np.testing.assert_array_equal(out.center, s.center)
        assert out.yaw == s.yaw

    def test_linear_motion(self):
        out = step_agents([agent(speed=5.0)], 0.5)[0]
        np.testing.assert_allclose(out.center[:2], [2.5, 0.0], atol=1e-12)

    def test_velocity_field_follows_heading(self):
        out = step_agents([agent(yaw=1.0, speed=2.0)], 0.3)[0]
        box = out.to_box()
        want = 2.0 * np.array([math.cos(out.yaw), math.sin(out.yaw)])
        np.testing.assert_allclose(box.velocity, want, atol=1e-12)


class TestGenerateScene:
    def test_deterministic_byte_for_byte(self):
        cfg = WorldConfig(duration=5)

        def scene_fields(scene):
            ego = [(p.rotation, p.translation.tobytes()) for p in scene.ego_trajectory]
            agents = [(tr.agent_id, tr.label, tr.speed,
                       [(box.yaw, box.label, box.center.tobytes(), box.size.tobytes(), box.velocity.tobytes())
                        for box in tr.boxes])
                      for tr in scene.agents]
            return ego, agents

        a = scene_fields(generate_scene(7, cfg))
        assert a[1] and a == scene_fields(generate_scene(7, cfg))

    def test_exact_agent_count(self):
        cfg = WorldConfig(duration=3, agents_min=3, agents_max=3)
        scene = generate_scene(1, cfg)
        assert len(scene.agents) == 3

    def test_speed_band_respected_over_100_seeds(self):
        cfg = WorldConfig(duration=2, agents_min=2, agents_max=4,
                          speed_min=10.0, speed_max=15.0,
                          pedestrian_fraction=0.0, fast_fraction=0.0)
        speeds = []
        for seed in range(100):
            for tr in generate_scene(seed, cfg).agents:
                speeds.append(tr.speed)
        speeds = np.array(speeds)
        assert np.all((speeds >= 10.0) & (speeds <= 15.0))
        # histogram oracle: band actually covered, not a constant
        assert speeds.min() < 11.0 and speeds.max() > 14.0

    def test_fast_band_present(self):
        cfg = WorldConfig(duration=2, fast_fraction=0.5, pedestrian_fraction=0.0,
                          agents_min=6, agents_max=6)
        fast = [tr.speed for s in range(20) for tr in generate_scene(s, cfg).agents
                if tr.speed >= 10.0]
        assert len(fast) > 0

    def test_gt_velocity_matches_finite_difference(self):
        cfg = WorldConfig(duration=8, pedestrian_fraction=0.0)
        scene = generate_scene(3, cfg)
        for tr in scene.agents:
            for b0, b1 in zip(tr.boxes[:-1], tr.boxes[1:]):
                fd = (b1.center[:2] - b0.center[:2]) / scene.dt
                np.testing.assert_allclose(b0.velocity, fd, atol=1e-6)

    def test_ids_unique(self):
        scene = generate_scene(5, WorldConfig(duration=2))
        ids = [tr.agent_id for tr in scene.agents]
        assert len(ids) == len(set(ids))

    def test_infeasible_config_rejected(self):
        for bad in ({"duration": 0},
                    {"speed_min": 8.0, "speed_max": 2.0},
                    {"speed_min": -1.0},
                    {"fast_fraction": 1.0, "fast_speed_min": 14.0, "fast_speed_max": 10.0},
                    {"fast_speed_min": -1.0}):
            with pytest.raises(SceneConfigError):
                generate_scene(0, WorldConfig(**bad))


class TestRender:
    def scene_with_agent_ahead(self, dist=10.0, label=CLASS_CAR):
        cfg = WorldConfig(duration=2, agents_min=0, agents_max=0)
        scene = generate_scene(0, cfg)
        from dualstream.synthworld.scene import AgentTrack

        ego = scene.ego_trajectory[0]
        center_world = ego.apply_point(np.array([dist, 0.0, 0.85]))
        st = AgentState(agent_id=10, label=label, center=center_world, yaw=0.0,
                        speed=0.0, size=CAR_SIZE.copy())
        scene.agents.append(AgentTrack(agent_id=10, label=label, speed=0.0,
                                       boxes=[st.to_box() for _ in range(scene.duration)]))
        return scene

    def test_agent_ahead_visible_in_front_camera(self):
        scene = self.scene_with_agent_ahead(10.0)
        rig = build_camera_rig()
        img, depth, inst = render_camera(scene, 0, rig["front"])
        hit = inst == 10
        assert hit.sum() >= 1
        want = CLASS_COLORS[CLASS_CAR] * id_brightness(10)
        got = img[:, hit].mean(axis=1)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_agent_behind_all_frustums_invisible(self):
        # below every camera's view: far away and fully outside the ranges
        scene = self.scene_with_agent_ahead(10.0)
        track = scene.agents[-1]
        for b in track.boxes:
            object.__setattr__(b, "center", np.array([0.0, 0.0, 500.0]))
        rig = build_camera_rig()
        for cam in rig.values():
            _, _, inst = render_camera(scene, 0, cam)
            assert not np.any(inst == 10)

    def test_nearer_agent_wins_on_shared_ray(self):
        scene = self.scene_with_agent_ahead(10.0)
        from dualstream.synthworld.scene import AgentTrack

        ego = scene.ego_trajectory[0]
        far_center = ego.apply_point(np.array([20.0, 0.0, 0.85]))
        st = AgentState(agent_id=11, label=CLASS_CAR, center=far_center, yaw=0.0,
                        speed=0.0, size=CAR_SIZE.copy())
        scene.agents.append(AgentTrack(agent_id=11, label=CLASS_CAR, speed=0.0,
                                       boxes=[st.to_box() for _ in range(scene.duration)]))
        rig = build_camera_rig()
        _, depth, inst = render_camera(scene, 0, rig["front"])
        # the single-ray depth oracle: center pixel sees the nearer agent
        cy, cx = int(rig["front"].cy), int(rig["front"].cx)
        assert inst[cy, cx] == 10
        assert depth[cy, cx] < 20.0

    def test_rendered_pixels_backproject_into_cuboid(self, rng):
        scene = self.scene_with_agent_ahead(8.0)
        rig = build_camera_rig()
        cam = rig["front"]
        _, depth, inst = render_camera(scene, 0, cam)
        ys, xs = np.nonzero(inst == 10)
        pick = rng.choice(len(ys), size=min(100, len(ys)), replace=False)
        ego = scene.ego_trajectory[0]
        box = scene.agents[-1].boxes[0]
        from dualstream.geom3d import rot2

        for k in pick:
            v, u = ys[k] + 0.5, xs[k] + 0.5
            z = depth[ys[k], xs[k]]
            p_cam = np.array([(u - cam.cx) / cam.fx * z, (v - cam.cy) / cam.fy * z, z])
            p_ego = cam.rotation.T @ p_cam + -(cam.rotation.T @ cam.translation)
            p_world = ego.apply_point(p_ego)
            local_xy = rot2(box.yaw).T @ (p_world[:2] - box.center[:2])
            assert abs(local_xy[0]) <= box.size[1] / 2 + 1e-6
            assert abs(local_xy[1]) <= box.size[0] / 2 + 1e-6
            assert abs(p_world[2] - box.center[2]) <= box.size[2] / 2 + 1e-6

    def test_render_views_respects_schedule(self):
        scene = self.scene_with_agent_ahead()
        rig = build_camera_rig()
        sched = {name: name == "front" for name in rig}
        views = render_views(scene, 0, rig, sched)
        assert views["front"] is not None
        assert all(views[n] is None for n in rig if n != "front")


class TestRasterizeGtBev:
    def test_cell_inside_drivable_is_one(self):
        scene = generate_scene(0, WorldConfig(duration=2, agents_min=0, agents_max=0))
        seg = rasterize_gt_bev(scene, 0, BEV)
        # ego sits on the road: the cell at the ego origin is drivable
        ij = np.array([15.5, 15.5])  # metric (0, 0) cell corner; use exact center cell
        assert seg[0, 15, 15] == 1.0

    def test_cell_outside_everything_is_zero(self):
        scene = generate_scene(0, WorldConfig(duration=2, agents_min=0, agents_max=0))
        seg = rasterize_gt_bev(scene, 0, BEV)
        # far left of the road: y_world ~ -21 is grass
        assert seg[0, 15, 0] == 0.0
        assert seg[1, 15, 0] == 0.0
        assert seg[2, 15, 0] == 0.0

    def test_matches_point_in_polygon_oracle_rotated(self):
        # rotated-rectangle oracle on every cell, brute force per cell
        scene = generate_scene(0, WorldConfig(duration=2, agents_min=0, agents_max=0))
        th = 0.4
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rect = (np.array([[-4, -2], [4, -2], [4, 2], [-4, 2]]) @ R.T) + np.array([3.0, -4.0])
        scene.static_map = replace(scene.static_map, crossings=[rect])
        seg = rasterize_gt_bev(scene, 0, BEV)
        ego = scene.ego_trajectory[0]
        h, w = BEV.dims
        for i in range(h):
            for j in range(w):
                c_world = ego.apply_point(cell_to_metric(BEV, np.array([i, j], dtype=float)))
                # scalar even-odd oracle
                inside = False
                k = len(rect)
                for e in range(k):
                    x1, y1 = rect[e]
                    x2, y2 = rect[(e + 1) % k]
                    if (y1 > c_world[1]) != (y2 > c_world[1]):
                        xi = (x2 - x1) * (c_world[1] - y1) / (y2 - y1) + x1
                        if c_world[0] < xi:
                            inside = not inside
                assert seg[2, i, j] == float(inside), (i, j)


class TestSchedules:
    def test_alternating_exactly_front_or_back(self):
        sched = alternating_schedule(6)
        front = {"front-left", "front", "front-right"}
        back = {"back-left", "back", "back-right"}
        for t, row in enumerate(sched):
            active = {n for n, v in row.items() if v}
            assert active == (front if t % 2 == 0 else back)


class TestDataset:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = WorldConfig(duration=3, agents_min=2, agents_max=2)
        generate_and_write([0], tmp_path / "d", cfg, BEV, config_echo={"k": "v"}, ranges=RANGES)
        ds = Dataset(tmp_path / "d")
        assert ds.n_scenes() == 1
        scene = generate_scene(0, cfg)
        rig = build_camera_rig()
        for t in range(3):
            frame = ds.load_frame(0, t)
            fresh = build_frame(scene, t, rig, BEV, {n: True for n in rig}, RANGES)
            for name, img in fresh.images.items():
                np.testing.assert_array_equal(frame.images[name], img)
            np.testing.assert_array_equal(frame.gt_seg, fresh.gt_seg)
            assert frame.gt_ids == fresh.gt_ids
            for a, b in zip(frame.gt_boxes, fresh.gt_boxes):
                np.testing.assert_array_equal(a.center, b.center)
                np.testing.assert_array_equal(a.velocity, b.velocity)
                assert a.yaw == b.yaw

    def test_write_deterministic_bytes(self, tmp_path):
        cfg = WorldConfig(duration=2, agents_min=1, agents_max=1)
        for name in ("a", "b"):
            generate_and_write([3], tmp_path / name, cfg, BEV, config_echo={}, ranges=RANGES)
        for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_more_than_one_worker_is_refused_and_writes_nothing(self, tmp_path):
        cfg = WorldConfig(duration=2, agents_min=1, agents_max=1)
        with pytest.raises(ValueError, match="one thread, got workers=2"):
            generate_and_write([3], tmp_path / "d", cfg, BEV, config_echo={}, ranges=RANGES, workers=2)
        assert not any(tmp_path.iterdir())

    def test_three_scene_tree_matches_its_pinned_digest(self, tmp_path):
        # a pinned digest: a change to gen-data's bytes must be deliberate
        cfg = WorldConfig(duration=2, agents_min=2, agents_max=3)
        root = tmp_path / "d"
        generate_and_write([3, 4, 5], root, cfg, BEV, config_echo={"k": "v"}, ranges=RANGES)
        files = sorted(p for p in root.rglob("*") if p.is_file())
        assert len(files) == 7   # three scenes of two frames, and the index
        h = hashlib.sha256()
        for p in files:
            for chunk in (p.relative_to(root).as_posix().encode(), p.read_bytes()):
                h.update(len(chunk).to_bytes(8, "little"))
                h.update(chunk)
        assert h.hexdigest() == "74ccd24a06753765aa767bfbcfaa7ba95664c3ce84be5b5e9070db5b22f323b8"

    def test_interrupted_write_leaves_no_partial_dataset(self, tmp_path, monkeypatch):
        from dualstream.synthworld import dataset

        cfg = WorldConfig(duration=2, agents_min=1, agents_max=1)
        generate_and_write([3], tmp_path / "d", cfg, BEV, config_echo={}, ranges=RANGES)
        before = {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        written, real_write = [], dataset.write_tensor

        def failing_write(path, tensors, meta):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(path)
            real_write(path, tensors, meta)

        monkeypatch.setattr(dataset, "write_tensor", failing_write)
        for target in ("d", "fresh"):   # over a previous dataset, and into a new path
            written.clear()
            with pytest.raises(OSError, match="disk full"):
                generate_and_write([4, 5], tmp_path / target, cfg, BEV, config_echo={}, ranges=RANGES)
            assert [p.name for p in written] == ["frame_0.dstn", "frame_1.dstn", "frame_0.dstn"]
        after = {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == before
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_truncated_tensor_names_path(self, tmp_path):
        cfg = WorldConfig(duration=2, agents_min=1, agents_max=1)
        generate_and_write([0], tmp_path / "d", cfg, BEV, config_echo={}, ranges=RANGES)
        victim = tmp_path / "d" / "scene_0" / "frame_0.dstn"
        victim.write_bytes(victim.read_bytes()[:-10])
        ds = Dataset(tmp_path / "d")
        from dualstream.diffcore import DstnError

        with pytest.raises(DstnError, match="frame_0.dstn"):
            ds.load_frame(0, 0)

    def test_missing_frame_errors(self, tmp_path):
        cfg = WorldConfig(duration=2, agents_min=1, agents_max=1)
        generate_and_write([0], tmp_path / "d", cfg, BEV, config_echo={}, ranges=RANGES)
        (tmp_path / "d" / "scene_0" / "frame_1.dstn").unlink()
        with pytest.raises(DatasetError, match="frame_1.dstn: missing frame file"):
            Dataset(tmp_path / "d")

    def test_frame_is_one_container(self, tmp_path):
        cfg = WorldConfig(duration=2, agents_min=2, agents_max=2)
        generate_and_write([0], tmp_path / "d", cfg, BEV, config_echo={}, ranges=RANGES, schedule_kind="alternating")
        assert sorted(p.name for p in (tmp_path / "d" / "scene_0").iterdir()) == ["frame_0.dstn", "frame_1.dstn"]
        from dualstream.diffcore import read_tensor
        from dualstream.geom3d import CAMERA_SLOTS

        tensors, meta = read_tensor(tmp_path / "d" / "scene_0" / "frame_0.dstn")
        scheduled = [name for name in CAMERA_SLOTS if alternating_schedule(2)[0][name]]
        assert list(tensors) == [f"cam_{name}" for name in scheduled] + ["gt_seg"]
        assert sorted(meta) == ["boxes", "ego_velocity", "schedule", "translation", "yaw"]
        assert [box["track_id"] for box in meta["boxes"]] == Dataset(tmp_path / "d").load_frame(0, 0).gt_ids

    def test_version_1_dataset_is_refused(self, tmp_path):
        cfg = WorldConfig(duration=2, agents_min=1, agents_max=1)
        generate_and_write([0], tmp_path / "d", cfg, BEV, config_echo={}, ranges=RANGES)
        index = json.loads((tmp_path / "d" / "index.json").read_text())
        index["format_version"] = 1
        (tmp_path / "d" / "index.json").write_text(json.dumps(index))
        with pytest.raises(DatasetError, match=r"index\.json: format version 1, expected 2"):
            Dataset(tmp_path / "d")

    def test_version_mismatch(self, tmp_path):
        cfg = WorldConfig(duration=2, agents_min=1, agents_max=1)
        generate_and_write([0], tmp_path / "d", cfg, BEV, config_echo={}, ranges=RANGES)
        index = json.loads((tmp_path / "d" / "index.json").read_text())
        index["format_version"] = 99
        (tmp_path / "d" / "index.json").write_text(json.dumps(index))
        with pytest.raises(DatasetError, match="version"):
            Dataset(tmp_path / "d")

    def test_alternating_written_schedule(self, tmp_path):
        cfg = WorldConfig(duration=4, agents_min=1, agents_max=1)
        generate_and_write([0], tmp_path / "d", cfg, BEV, config_echo={},
                           ranges=RANGES, schedule_kind="alternating")
        ds = Dataset(tmp_path / "d")
        f0, f1 = ds.load_frame(0, 0), ds.load_frame(0, 1)
        assert f0.images["front"] is not None and f0.images["back"] is None
        assert f1.images["front"] is None and f1.images["back"] is not None


class TestEgoFrameBoxes:
    def test_velocity_rotated_into_ego_frame(self):
        cfg = WorldConfig(duration=4, agents_min=0, agents_max=0)
        scene = generate_scene(0, cfg)
        from dualstream.synthworld.scene import AgentTrack

        st = AgentState(agent_id=0, label=CLASS_CAR, center=np.array([10.0, -5.25, 0.85]),
                        yaw=math.pi, speed=6.0, size=CAR_SIZE.copy())
        scene.agents.append(AgentTrack(agent_id=0, label=CLASS_CAR, speed=6.0,
                                       boxes=[st.to_box() for _ in range(4)]))
        boxes, ids = ego_frame_boxes(scene, 0)
        # ego yaw is 0, so the oncoming agent's velocity stays (-6, 0)
        np.testing.assert_allclose(boxes[0].velocity, [-6.0, 0.0], atol=1e-12)

    def test_propagation_consistency_with_world(self):
        # exact-velocity propagation lands on the GT next-frame center
        from dualstream.dynstream import QuerySet, propagate
        from dualstream.geom3d import ego_delta
        from dualstream.diffcore import MlpParams, Tensor

        cfg = WorldConfig(duration=6, agents_min=3, agents_max=3, pedestrian_fraction=0.0)
        scene = generate_scene(2, cfg)
        zeros_mlp = MlpParams(
            w1=Tensor(np.zeros((64 + 7, 8))), b1=Tensor(np.zeros(8)),
            w2=Tensor(np.zeros((8, 64))), b2=Tensor(np.zeros(64)),
        )
        for t in range(scene.duration - 1):
            boxes_t, ids_t = ego_frame_boxes(scene, t)
            boxes_t1, ids_t1 = ego_frame_boxes(scene, t + 1)
            n = len(boxes_t)
            mem = QuerySet(latents=Tensor(np.zeros((n, 64))),
                           anchors=Tensor(np.stack([b.center for b in boxes_t])),
                           velocities=np.stack([b.velocity for b in boxes_t]),
                           scores=np.ones(n), ids=ids_t)
            delta = ego_delta(scene.ego_trajectory[t], scene.ego_trajectory[t + 1])
            moved = propagate(mem, delta, scene.dt, zeros_mlp)
            for anchor, tid in zip(moved.anchor_xyz, moved.ids):
                want = boxes_t1[ids_t1.index(tid)].center
                np.testing.assert_allclose(anchor, want, atol=1e-6)
