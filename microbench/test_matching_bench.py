"""Microbenchmarks of the set matching (pytest-benchmark): ``hungarian_match``
on a default training frame's cost matrix, and on a 52 x 6 random one.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench/test_matching_bench.py

The training frame is frame 3 of the default world's scene 3, which holds
three boxes within the detection range; its cost matrix is
``detection_cost_matrix`` of a fresh default model's 40 decoded queries
(``n_queries``) against them, the (queries, boxes) matrix training matches
once per scene-frame. The random matrix is taller and wider than any a
default frame makes.
"""

import numpy as np

from dualstream.cli import bev_from_config, world_from_config
from dualstream.configio import Config
from dualstream.diffcore import no_grad
from dualstream.heads import detection_cost_matrix, hungarian_match
from dualstream.model import DualStreamModel
from dualstream.synthworld import build_camera_rig, full_schedule, generate_scene
from dualstream.synthworld.dataset import build_frame

CFG = Config(seed=1)


def _training_cost() -> np.ndarray:
    model = DualStreamModel(CFG)
    cams = build_camera_rig(width=CFG.image_width, height=CFG.image_height)
    scene = generate_scene(3, world_from_config(CFG))
    frame = build_frame(scene, 3, cams, bev_from_config(CFG), full_schedule(1)[0], CFG.detection_ranges())
    with no_grad():
        res = model.forward_frame(frame, cams, model.initial_state(), scene.dt)
    return detection_cost_matrix(res.outputs, frame.gt_boxes, model.ranges, CFG, model.decode.size_prior)


def test_match_default_training_frame(benchmark):
    cost = _training_cost()
    assignment = benchmark(hungarian_match, cost)
    assert cost.shape == (CFG.n_queries, 3)
    assert sorted(j for _, j in assignment.pairs) == [0, 1, 2]


def test_match_random_52x6(benchmark):
    cost = np.random.default_rng(0).uniform(size=(52, 6))
    assignment = benchmark(hungarian_match, cost)
    assert len({i for i, _ in assignment.pairs}) == 6
    assert sorted(j for _, j in assignment.pairs) == list(range(6))
