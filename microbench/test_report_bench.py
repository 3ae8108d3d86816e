"""Microbenchmark of the eval report (pytest-benchmark): ``assemble_report``
over both slices, then ``to_json`` and ``to_csv``, on an inference output
of fixed size.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench/test_report_bench.py

The output is seeded and synthetic: 6 scenes of 14 frames (a default
scene's length), each frame with 5 ground-truth boxes moving at constant
velocity (three of them fast enough for the high-velocity slice) and 40
predictions (``n_queries``). The first 5 predictions are noisy detections
of the ground truth, the other 35 clutter; 24 of the 40 (60%), drawn per
frame, carry a track id, which is the prediction's index and so follows its
ground truth from frame to frame.
"""

import numpy as np

from dualstream.configio import Config
from dualstream.evalkit import FrameRecord, SceneRecord
from dualstream.geom3d import BoundingBox3D
from dualstream.runner import InferenceOutput, assemble_report

CFG = Config(seed=1)
SCENES, FRAMES, PREDICTIONS, TRACKED = 6, 14, 40, 24
GT_VELOCITIES = np.array([[12.0, 0.0], [-11.0, 1.0], [14.0, -1.0], [3.0, 0.0], [0.0, 1.5]])
EGO_VELOCITY = np.array([CFG.ego_speed, 0.0])
SIZE = np.array([1.9, 4.5, 1.7])


def _box(center, velocity, label, score=1.0):
    return BoundingBox3D(center=[*center, 0.85], size=SIZE, yaw=0.0, velocity=velocity, label=label, score=score)


def _scene(rng):
    n_gt = len(GT_VELOCITIES)
    start = rng.uniform(-CFG.bev_extent / 2, CFG.bev_extent / 2, (n_gt, 2))
    labels = rng.integers(0, 2, n_gt)
    frames = []
    for t in range(FRAMES):
        gt = start + (GT_VELOCITIES - EGO_VELOCITY) * CFG.scene_dt * t
        centers = np.concatenate([gt + rng.normal(0.0, 0.4, gt.shape),
                                  rng.uniform(-CFG.bev_extent, CFG.bev_extent, (PREDICTIONS - n_gt, 2))])
        velocities = np.concatenate([GT_VELOCITIES + rng.normal(0.0, 0.5, GT_VELOCITIES.shape),
                                     rng.normal(0.0, 3.0, (PREDICTIONS - n_gt, 2))])
        pred_labels = np.concatenate([labels, rng.integers(0, 2, PREDICTIONS - n_gt)])
        scores = np.concatenate([rng.uniform(0.5, 1.0, n_gt), rng.uniform(0.0, 0.7, PREDICTIONS - n_gt)])
        tracked = set(rng.choice(PREDICTIONS, TRACKED, replace=False).tolist())
        frames.append(FrameRecord(
            pred_boxes=[_box(c, v, int(k), float(s)) for c, v, k, s in zip(centers, velocities, pred_labels, scores)],
            track_ids=[i if i in tracked else None for i in range(PREDICTIONS)],
            gt_boxes=[_box(c, v, int(k)) for c, v, k in zip(gt, GT_VELOCITIES, labels)],
            gt_ids=list(range(n_gt)),
            ego_velocity=EGO_VELOCITY,
        ))
    return SceneRecord(frames=frames)


def test_report_both_slices(benchmark):
    rng = np.random.default_rng(0)
    out = InferenceOutput(records=[_scene(rng) for _ in range(SCENES)],
                          seg_intersection=np.array([10.0, 5.0, 1.0]), seg_union=np.array([20.0, 10.0, 4.0]))

    def report():
        rep = assemble_report(out, CFG, run_id="bench", code_version="0", slices=("all", "high-velocity"))
        return rep, rep.to_json(), rep.to_csv()

    rep, _, _ = benchmark.pedantic(report, rounds=10, warmup_rounds=1)
    assert not rep.slices["high_velocity"].empty
    assert rep.slices["all"].mAP > 0 and rep.slices["all"].AMOTA > 0
