"""Microbenchmark of the greedy tracker (pytest-benchmark): one
``TrackerState.step`` at the shape of a default eval frame.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench/test_tracker_bench.py

A default eval frame decodes 40 queries (``n_queries``), so the tracker sees
40 detections; the 12 carried into memory (``topk``) come back with prior
ids. The tracker is first stepped through three frames of 40 objects moving
at constant velocity under a moving, turning ego, which leaves about 40 live
tracks. Each timed round steps a copy of that state through the next frame.
"""

import copy

import numpy as np

from dualstream.configio import Config
from dualstream.geom3d import BoundingBox3D, Pose, invert
from dualstream.heads import TrackerState

CFG = Config(seed=1)
WARM_FRAMES = 3


def _frame(rng, objects, velocities, t, last):
    """The detections and prior ids of frame ``t``, with the ego pose they are seen from."""
    pose = Pose.se2(0.05 * t, CFG.ego_speed * CFG.scene_dt * t, 0.0)
    world = objects + velocities * CFG.scene_dt * t + rng.normal(0.0, 0.2, objects.shape)
    ego = invert(pose).apply_points(world)
    scores = rng.uniform(0.2, 1.0, len(ego))
    dets = [BoundingBox3D(center=[x, y, 0.5], size=[1.8, 4.5, 1.6], yaw=0.0, velocity=v, score=float(s))
            for (x, y), v, s in zip(ego, velocities, scores)]
    carried = rng.choice(len(dets), CFG.topk, replace=False)
    priors = [last.get(int(i)) if i in carried else None for i in range(len(dets))]
    return dets, priors, pose


def test_tracker_step_default_eval_frame(benchmark):
    rng = np.random.default_rng(0)
    objects = rng.uniform(-CFG.bev_extent, CFG.bev_extent, (CFG.n_queries, 2))
    velocities = rng.normal(0.0, 3.0, (CFG.n_queries, 2))
    tracker = TrackerState(CFG.track_max_dist, CFG.track_score_thresh, CFG.track_max_age)
    last = {}
    for t in range(WARM_FRAMES):
        last = dict(tracker.step(*_frame(rng, objects, velocities, t, last), CFG.scene_dt))
    dets, priors, pose = _frame(rng, objects, velocities, WARM_FRAMES, last)

    def fresh():
        return (copy.deepcopy(tracker), dets, priors, pose, CFG.scene_dt), {}

    assigned = benchmark.pedantic(TrackerState.step, setup=fresh, rounds=200, warmup_rounds=5)
    assert len(dets) == CFG.n_queries and sum(p is not None for p in priors) > 0
    assert 30 <= tracker.next_id and len(assigned) > 30
