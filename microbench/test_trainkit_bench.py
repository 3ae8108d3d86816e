"""Microbenchmarks of training (pytest-benchmark): the AdamW step over the
default model, and one training step of a frame-batch of two scenes.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench/test_trainkit_bench.py

The store is the default float32 model's 357,351 parameters with a gradient
on every one, as after a training frame's backward; the moments are float64.
The training step is ``streaming_train`` over a dataset of two one-frame
scenes at the default config: both scenes' forward and losses, backward,
clip and AdamW. The scenes run on ``worker_count(2)`` runners: on a machine
with two CPUs, this process and one worker process that each call forks and
joins, so the fork is part of the time; run under ``taskset -c 0``, it runs
both scenes in this process, in turn, and forks nothing.
"""

from dataclasses import replace

import numpy as np

from dualstream.cli import bev_from_config, world_from_config
from dualstream.configio import Config, config_to_dict
from dualstream.model import DualStreamModel
from dualstream.synthworld.dataset import Dataset, generate_and_write
from dualstream.trainkit import OptimizerState, optimizer_step, streaming_train

CFG = Config(seed=1)


def test_optimizer_step_default_model(benchmark):
    model = DualStreamModel(CFG)
    rng = np.random.default_rng(0)
    for _, t in model.store.items():
        t.grad = rng.normal(scale=1e-3, size=t.data.shape).astype(t.data.dtype)
    opt = OptimizerState.fresh(model.store)

    benchmark(optimizer_step, model.store, opt, 2e-4, CFG.weight_decay)
    assert sum(t.data.size for _, t in model.store.items()) == 357_351
    assert all(np.all(np.isfinite(t.data)) for _, t in model.store.items())


def test_training_step_two_scenes(benchmark, tmp_path):
    cfg = replace(CFG, scene_frames=1, epochs=1)
    generate_and_write([1000, 1001], tmp_path, world_from_config(cfg), bev_from_config(cfg),
                       config_echo=config_to_dict(cfg), ranges=cfg.detection_ranges(),
                       image_size=(cfg.image_height, cfg.image_width))
    data = Dataset(tmp_path)
    model = DualStreamModel(cfg)
    opt = OptimizerState.fresh(model.store)

    result, _ = benchmark(streaming_train, data, model, cfg, opt=opt)
    assert cfg.batch_scenes == data.n_scenes() == 2
    assert len(result.rows) == 1 and np.isfinite(result.rows[0].loss)
