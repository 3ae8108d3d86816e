"""Microbenchmarks of the synthetic world's renderer and BEV rasterizer
(pytest-benchmark).

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench/test_render_bench.py

The shapes are those of the ``gen_data`` benchmark workload: one frame of
the default six-camera rig at 64 x 128 pixels with 5 agents, the ground
classification of the front camera's ground points in that frame, and the
ground truth BEV masks of that frame at the default config's 32 x 32 grid.
"""

from dualstream.cli import bev_from_config, world_from_config
from dualstream.configio import Config
from dualstream.synthworld import build_camera_rig, generate_scene, rasterize_gt_bev, render_camera
from dualstream.synthworld.render import _camera_rays, _ground_points, ground_color

CFG = Config(seed=1, agents_min=5, agents_max=5)
FRAME = 7   # mid-scene: the agents have spread out around the ego


def _scene():
    return generate_scene(CFG.seed, world_from_config(CFG))


def test_render_frame(benchmark):
    scene = _scene()
    rig = build_camera_rig(width=CFG.image_width, height=CFG.image_height)

    def frame():
        return [render_camera(scene, FRAME, cam) for cam in rig.values()]

    views = benchmark(frame)
    assert len(views) == 6 and views[0][0].shape == (3, CFG.image_height, CFG.image_width)


def test_ground_classification(benchmark):
    # ground_color's three map_mask calls: drivable, crossings, lane lines
    scene = _scene()
    cam = build_camera_rig(width=CFG.image_width, height=CFG.image_height)["front"]
    origin, _, dirs = _camera_rays(scene, FRAME, cam)
    _, _, x, y = _ground_points(origin, dirs)
    assert benchmark(ground_color, x, y, scene.static_map).shape == (3, x.size)


def test_rasterize_gt_bev(benchmark):
    scene = _scene()
    spec = bev_from_config(CFG)
    assert benchmark(rasterize_gt_bev, scene, FRAME, spec).shape == (3, *spec.dims)
