"""The renderer and the BEV rasterizer against their brute-force oracles
(``render_oracle``): every image, depth and instance map, and every BEV
mask, must be bitwise equal, on generated scenes, on hand-placed boxes at
the edges of the pixel-window cull and on map points at the edges of the
bounding-box prefilter."""

import math

import numpy as np
import pytest
import render_oracle as oracle
from hypothesis import given
from hypothesis import strategies as st

from dualstream.geom3d import CAMERA_SLOTS, BoundingBox3D
from dualstream.statstream import BevSpec
from dualstream.synthworld import WorldConfig, build_camera_rig, generate_scene, rasterize_gt_bev, render_camera
from dualstream.synthworld.render import ground_color, map_mask
from dualstream.synthworld.scene import CAR_SIZE, CLASS_CAR, LANE_LINE_WIDTH, AgentTrack, MapSpec

RIGS = {
    "default": build_camera_rig(),
    "wide": build_camera_rig(fov_deg=100.0),            # neighbouring cameras overlap
    "low": build_camera_rig(width=64, height=32, mount_height=0.5),
}
BEV = BevSpec(dims=(32, 32), extent=(-16.0, 16.0, -16.0, 16.0))
BUSY = WorldConfig(agents_min=8, agents_max=12, fast_fraction=0.5)
FRAMES = (0, 7, 13)


def assert_same_render(scene, t, cam):
    got, want = render_camera(scene, t, cam), oracle.render_camera(scene, t, cam)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    return got


def skew_map(scene):
    """The scene's map plus a rotated crossing and a diagonal two-segment
    lane line, so the map tests meet non-axis-aligned edges."""
    th = 0.4
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    rect = np.array([[-4.0, -2.0], [4.0, -2.0], [4.0, 2.0], [-4.0, 2.0]]) @ rot.T + np.array([12.0, -3.0])
    line = np.array([[-5.0, -9.0], [20.0, 4.0], [45.0, -2.0]])
    m = scene.static_map
    scene.static_map = MapSpec(drivable=m.drivable, lane_lines=[*m.lane_lines, line],
                               crossings=[*m.crossings, rect], lane_centers=m.lane_centers)
    return scene


@pytest.mark.parametrize("rig", RIGS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_busy_scenes_render_like_the_oracle(rig, seed):
    scene = generate_scene(seed, BUSY)
    assert any(track.speed >= BUSY.fast_speed_min for track in scene.agents)
    for t in FRAMES:
        for cam in RIGS[rig].values():
            assert_same_render(scene, t, cam)


@pytest.mark.parametrize("rig", RIGS)
def test_skewed_map_renders_like_the_oracle(rig):
    scene = skew_map(generate_scene(3, BUSY))
    for cam in RIGS[rig].values():
        assert_same_render(scene, 0, cam)


@pytest.mark.parametrize("seed", [0, 1])
def test_gt_bev_matches_the_oracle(seed):
    for scene in (generate_scene(seed, BUSY), skew_map(generate_scene(seed, BUSY))):
        for t in FRAMES:
            got, want = rasterize_gt_bev(scene, t, BEV), oracle.rasterize_gt_bev(scene, t, BEV)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def scene_with_box(center, size=CAR_SIZE, yaw=0.0):
    """An agent-free scene plus one box at the ego-frame ``center``."""
    scene = generate_scene(0, WorldConfig(duration=1, agents_min=0, agents_max=0))
    ego = scene.ego_trajectory[0]
    box = BoundingBox3D(center=ego.apply_point(np.asarray(center, dtype=np.float64)),
                        size=np.asarray(size, dtype=np.float64), yaw=yaw + ego.rotation, label=CLASS_CAR)
    scene.agents.append(AgentTrack(agent_id=7, label=CLASS_CAR, speed=0.0, boxes=[box]))
    return scene


def hits(scene, cam):
    return np.count_nonzero(assert_same_render(scene, 0, cam)[2] == 7)


def test_camera_inside_a_box_sees_it_everywhere():
    scene = scene_with_box([0.0, 0.0, 1.6], size=[3.0, 3.0, 3.0])
    for cam in RIGS["default"].values():
        assert hits(scene, cam) == cam.width * cam.height


def test_box_straddling_the_image_plane():
    # a low box below the cameras: its rear corners lie behind the front
    # camera's image plane, its nose in front of it
    scene = scene_with_box([1.0, 0.5, 0.5], size=[1.9, 4.5, 1.0])
    assert hits(scene, RIGS["default"]["front"]) > 0


def test_box_fully_behind_the_camera():
    scene = scene_with_box([-10.0, 0.0, 0.85])
    assert hits(scene, RIGS["default"]["front"]) == 0
    assert hits(scene, RIGS["default"]["back"]) > 0


def test_box_in_front_but_off_the_image_to_the_side():
    # 70 degrees left of the front camera's axis, outside its 60 degree view
    scene = scene_with_box([5.0, 14.0, 0.85])
    assert hits(scene, RIGS["default"]["front"]) == 0
    assert hits(scene, RIGS["default"]["front-left"]) > 0


@pytest.mark.parametrize("rig", ["default", "low"])
def test_box_cut_by_the_image_border(rig):
    # near the front camera's left edge, so the border cuts the projected box
    scene = scene_with_box([10.0, 5.5, 0.85], yaw=0.3)
    cam = RIGS[rig]["front"]
    inst = assert_same_render(scene, 0, cam)[2]
    assert np.any(inst[:, 0] == 7) and not np.all(inst == 7)


@given(x=st.floats(-8.0, 8.0), y=st.floats(-8.0, 8.0), z=st.floats(-1.0, 3.0),
       size=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
       yaw=st.floats(-math.pi, math.pi), cam=st.sampled_from(CAMERA_SLOTS), rig=st.sampled_from(sorted(RIGS)))
def test_random_box_near_the_camera_renders_like_the_oracle(x, y, z, size, yaw, cam, rig):
    assert_same_render(scene_with_box([x, y, z], size=size, yaw=yaw), 0, RIGS[rig][cam])


def test_map_points_on_bounding_box_edges():
    crossing = np.array([[28.0, -7.0], [32.0, -7.0], [32.0, 7.0], [28.0, 7.0]])
    skewed = np.array([[0.0, 0.0], [4.0, 1.0], [3.0, 5.0]])
    line = np.array([[-10.0, 3.5], [40.0, 3.5]])
    reach = LANE_LINE_WIDTH / 2.0

    def up(v):
        return np.nextafter(v, np.inf)

    def down(v):
        return np.nextafter(v, -np.inf)

    edge = [(28.0, 0.0), (32.0, 0.0), (30.0, -7.0), (30.0, 7.0), (28.0, -7.0), (32.0, 7.0),
            (down(28.0), 0.0), (up(32.0), 0.0), (30.0, up(7.0)), (30.0, down(-7.0)),
            (0.0, 0.0), (4.0, 1.0), (3.0, 5.0), (4.0, 3.0), (up(4.0), 1.0), (3.0, up(5.0)), (3.5, 3.0)]
    near = [(5.0, 3.5 + reach), (5.0, 3.5 - reach), (40.0 + reach, 3.5), (-10.0 - reach, 3.5),
            (up(40.0 + reach), 3.5), (down(-10.0 - reach), 3.5), (5.0, up(3.5 + reach)), (5.0, down(3.5 - reach)),
            (40.0 + reach * math.cos(0.7), 3.5 + reach * math.sin(0.7))]
    pts = np.array(edge + near)
    x, y = pts.T.copy()

    road = np.array([[-10.0, -7.0], [40.0, -7.0], [40.0, 7.0], [-10.0, 7.0]])
    m = MapSpec(drivable=[road], lane_lines=[line], crossings=[crossing, skewed], lane_centers=[])
    brute = oracle_polygons(pts, m.crossings)
    np.testing.assert_array_equal(map_mask(x, y, m, "crossings"), brute)
    assert brute.sum() >= 3
    brute = oracle.dist_to_polyline(pts, line) <= reach
    np.testing.assert_array_equal(map_mask(x, y, m, "lane_lines", reach), brute)
    assert brute.sum() >= 3
    got, want = ground_color(x, y, m), oracle.ground_color(pts, m)
    assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()

    # just outside this line's box grown by ``reach``, yet near it by the
    # distance test's rounding: the prefilter's rounding pad keeps it
    skew_line = np.array([[-226.12673324074663, -92.8396480356439], [30.801983835985936, 15.194419530864081]])
    rounded = np.array([[30.951983835985942, 15.194419526117017]])
    assert rounded[0, 0] > skew_line[:, 0].max() + reach
    assert oracle.dist_to_polyline(rounded, skew_line)[0] <= reach
    m = MapSpec(drivable=[road], lane_lines=[skew_line], crossings=[], lane_centers=[])
    assert map_mask(rounded[:, 0], rounded[:, 1], m, "lane_lines", reach)[0]


def oracle_polygons(pts, polys):
    inside = np.zeros(len(pts), dtype=bool)
    for poly in polys:
        inside |= oracle.points_in_polygon(pts, poly)
    return inside


# vertices from a coarse lattice repeat and line up, which gives horizontal
# and vertical edges, repeated vertices and zero-length segments
COORD = st.one_of(st.integers(-6, 6).map(float), st.floats(-6.0, 6.0))
VERTEX = st.tuples(COORD, COORD)


def ulp_neighbours(values):
    v = np.asarray(values, dtype=np.float64).ravel()
    return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


@given(polys=st.lists(st.lists(VERTEX, min_size=3, max_size=7), min_size=1, max_size=3),
       line=st.lists(VERTEX, min_size=2, max_size=5), loose=st.lists(VERTEX, max_size=20),
       reach=st.sampled_from([0.15, 0.5, 1.0]), data=st.data())
def test_map_mask_on_random_shapes_matches_the_oracle(polys, line, loose, reach, data):
    polys = [np.array(p) for p in polys]
    i = data.draw(st.integers(0, len(line) - 1))
    line = np.array(line[:i] + line[i:i + 1] + line[i:])   # one zero-length segment
    m = MapSpec(drivable=polys, lane_lines=[line], crossings=[], lane_centers=[])
    # points on every vertex y and 1 ulp either side of every box edge, at
    # lattice, box-edge and free x values
    verts = np.concatenate(polys + [line])
    boxes = np.concatenate([m.boxes["drivable"], m.boxes["lane_lines"]])
    xs = np.concatenate([ulp_neighbours(boxes[:, 0::2]), verts[:, 0], np.arange(-7.0, 7.5, 0.5)])
    ys = np.concatenate([ulp_neighbours(boxes[:, 1::2]), verts[:, 1]])
    gx, gy = np.meshgrid(xs, ys)
    pts = np.concatenate([np.stack([gx.ravel(), gy.ravel()], axis=1), np.array(loose).reshape(-1, 2)])
    x, y = pts.T.copy()
    with np.errstate(over="ignore"):   # an edge a few ulps tall puts its crossings at +-inf, in both
        np.testing.assert_array_equal(map_mask(x, y, m, "drivable"), oracle_polygons(pts, polys))
    np.testing.assert_array_equal(map_mask(x, y, m, "lane_lines", reach), oracle.dist_to_polyline(pts, line) <= reach)


@pytest.mark.parametrize("group, shape", [
    ("drivable", [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [np.nan, 4.0]]),
    ("crossings", [[0.0, 0.0], [4.0, np.inf], [4.0, 4.0]]),
    ("lane_lines", [[0.0, np.nan], [4.0, 0.0]]),
    ("drivable", [[0.0, 0.0], [4.0, 0.0]]),
    ("lane_lines", [[0.0, 0.0]]),
    ("crossings", [0.0, 1.0, 2.0]),
])
def test_map_spec_refuses_a_non_finite_or_too_short_shape(group, shape):
    groups = {"drivable": [], "lane_lines": [], "crossings": []}
    groups[group] = [np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), np.array(shape)]
    with pytest.raises(ValueError, match=rf"{group}\[1\]"):
        MapSpec(lane_centers=[], **groups)
