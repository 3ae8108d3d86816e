"""Microbenchmarks of the two on-disk artifacts, each one DSTN container
(pytest-benchmark): a dataset frame and a checkpoint's state.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench/test_artifact_bench.py

The frame is that of the ``gen_data`` benchmark workload: the default
six-camera rig at 64 x 128 pixels with 5 agents and the default 32 x 32 BEV
masks. The checkpoint is the default model's parameters and AdamW moments.
"""

import numpy as np
import pytest

from dualstream.cli import bev_from_config, world_from_config
from dualstream.configio import Config
from dualstream.model import DualStreamModel
from dualstream.synthworld import build_camera_rig, build_frame, full_schedule, generate_scene
from dualstream.synthworld.dataset import read_frame, write_frame
from dualstream.trainkit import OptimizerState, load_checkpoint, save_checkpoint

CFG = Config(seed=1, agents_min=5, agents_max=5)
FRAME = 7   # mid-scene: the agents have spread out around the ego


@pytest.fixture(scope="module")
def frame():
    scene = generate_scene(CFG.seed, world_from_config(CFG))
    rig = build_camera_rig(width=CFG.image_width, height=CFG.image_height)
    return build_frame(scene, FRAME, rig, bev_from_config(CFG), full_schedule(scene.duration)[FRAME],
                       CFG.detection_ranges())


@pytest.fixture(scope="module")
def model():
    return DualStreamModel(CFG)


def test_frame_write(benchmark, frame, tmp_path):
    path = tmp_path / "frame_7.dstn"
    benchmark(write_frame, path, frame)
    assert path.stat().st_size > sum(img.nbytes for img in frame.images.values())


def test_frame_read(benchmark, frame, tmp_path):
    path = tmp_path / "frame_7.dstn"
    write_frame(path, frame)
    back = benchmark(read_frame, path, FRAME)
    assert back.gt_ids == frame.gt_ids and np.array_equal(back.gt_seg, frame.gt_seg)


def test_checkpoint_save(benchmark, model, tmp_path):
    opt = OptimizerState.fresh(model.store)
    benchmark(save_checkpoint, tmp_path / "ckpt", model, opt, CFG, 0)
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == ["meta.json", "state.dstn"]


def test_checkpoint_load(benchmark, model, tmp_path):
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), CFG, 0)
    _, params, _, _ = benchmark(load_checkpoint, tmp_path / "ckpt")
    assert set(params) == set(model.store.names())
