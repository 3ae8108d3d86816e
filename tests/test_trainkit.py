import json
import re
from dataclasses import replace

import numpy as np
import pytest

from dualstream import trainkit
from dualstream.cli import bev_from_config, world_from_config
from dualstream.configio import Config, config_to_dict
from dualstream.diffcore import backward, use_dtype
from dualstream.diffcore.dstn import write_tensor
from dualstream.model import DualStreamModel
from dualstream.synthworld.dataset import Dataset, generate_and_write
from dualstream.trainkit import (
    NumericError,
    OptimizerState,
    load_checkpoint,
    save_checkpoint,
    streaming_train,
)

# bidirectional interaction puts the static-to-dynamic set attention on the trained path
CFG = Config(seed=7, scene_frames=3, epochs=15, learning_rate=2e-3, n_layers=1, latent_dim=16, n_queries=16,
             topk=4, decode_hidden=16, bev_cells=16, image_height=32, image_width=64,
             interaction="bidirectional")


def test_micro_overfit_loss_falls(tmp_path):
    generate_and_write([7], tmp_path, world_from_config(CFG), bev_from_config(CFG),
                       config_echo=config_to_dict(CFG), ranges=CFG.detection_ranges(),
                       image_size=(CFG.image_height, CFG.image_width))
    with use_dtype(CFG.np_dtype()):
        model = DualStreamModel(CFG)
    result, _ = streaming_train(Dataset(tmp_path), model, CFG)
    per_epoch = result.losses().reshape(CFG.epochs, -1).mean(axis=1)
    assert per_epoch[-1] <= 0.85 * per_epoch[0], per_epoch


def _tiny(tmp_path):
    cfg = replace(CFG, epochs=1, interaction="full")
    generate_and_write([7], tmp_path / "data", world_from_config(cfg), bev_from_config(cfg),
                       config_echo=config_to_dict(cfg), ranges=cfg.detection_ranges(),
                       image_size=(cfg.image_height, cfg.image_width))
    with use_dtype(cfg.np_dtype()):
        model = DualStreamModel(cfg)
    return cfg, Dataset(tmp_path / "data"), model


def test_non_finite_gradient_raises_naming_the_parameter(tmp_path, monkeypatch):
    cfg, data, model = _tiny(tmp_path)
    victim = model.store.names()[5]
    params = dict(model.store.items())

    def poisoned_backward(loss):
        backward(loss)
        params[victim].grad.reshape(-1)[0] = np.nan

    monkeypatch.setattr(trainkit, "backward", poisoned_backward)
    before = {name: t.data.copy() for name, t in model.store.items()}
    with pytest.raises(NumericError, match=rf"step 0; first non-finite gradient: {re.escape(victim)}$"):
        streaming_train(data, model, cfg)
    # the optimizer never ran, so no parameter took the NaN
    for name, t in model.store.items():
        np.testing.assert_array_equal(t.data, before[name])


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    cfg, _, model = _tiny(tmp_path)
    opt = OptimizerState.fresh(model.store)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, model, opt, cfg, step=3, epoch=1)
    _, want_params, want_opt, _ = load_checkpoint(ckpt)

    for t in dict(model.store.items()).values():
        t.data = t.data + 1.0
    opt.m = {name: m + 2.0 for name, m in opt.m.items()}
    written = []

    def failing_write(path, arr):
        if len(written) == 7:
            raise OSError("disk full")
        written.append(path)
        write_tensor(path, arr)

    monkeypatch.setattr(trainkit, "write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, model, opt, cfg, step=4, epoch=2)

    _, params, got_opt, step = load_checkpoint(ckpt)
    assert step == 3 and json.loads((ckpt / "meta.json").read_text())["epoch"] == 1
    for name in want_params:
        np.testing.assert_array_equal(params[name], want_params[name])
        np.testing.assert_array_equal(got_opt.m[name], want_opt.m[name])
        np.testing.assert_array_equal(got_opt.v[name], want_opt.v[name])
    # nothing else is left beside the checkpoint and the dataset
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "data"]

    monkeypatch.undo()
    save_checkpoint(ckpt, model, opt, cfg, step=4, epoch=2)
    _, params, _, step = load_checkpoint(ckpt)
    assert step == 4 and sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "data"]
    name = model.store.names()[0]
    np.testing.assert_array_equal(params[name], dict(model.store.items())[name].data)
