"""The configured dtype reaches every parameter, tape entry, gradient and
model output; AdamW moments and decoded boxes stay float64."""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from dualstream.cli import ABLATION_GRID, bev_from_config, world_from_config
from dualstream.configio import Config, config_to_dict
from dualstream.diffcore import Tape, fresh_tape, no_grad
from dualstream.model import DualStreamModel
from dualstream.params import ParamStore
from dualstream.synthworld.dataset import Dataset, generate_and_write
from dualstream.trainkit import OptimizerState, streaming_train

CFG = Config(seed=7, scene_frames=3, epochs=1, n_layers=1, latent_dim=16, n_queries=16, topk=4,
             decode_hidden=16, bev_cells=16, image_height=32, image_width=64)
DTYPES = {"f32": np.float32, "f64": np.float64}


class _Stop(Exception):
    pass


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("dtype") / "data"
    generate_and_write([7], out, world_from_config(CFG), bev_from_config(CFG),
                       config_echo=config_to_dict(CFG), ranges=CFG.detection_ranges(),
                       image_size=(CFG.image_height, CFG.image_width))
    return Dataset(out)


def _train(data, cfg, steps, on_step=lambda row, model, opt: None):
    """Losses of the first ``steps`` training steps; ``on_step`` sees each
    step before the tape of its window is dropped."""
    model = DualStreamModel(cfg)
    opt = OptimizerState.fresh(model.store)
    losses = []

    def hook(row):
        losses.append(row.loss)
        on_step(row, model, opt)
        if len(losses) == steps:
            raise _Stop

    with fresh_tape(), pytest.raises(_Stop):
        streaming_train(data, model, cfg, opt=opt, on_step=hook)
    return losses


@pytest.mark.parametrize("name", DTYPES)
def test_training_step_computes_in_the_configured_dtype(data, name, monkeypatch):
    want = np.dtype(DTYPES[name])
    seen = {"tape": set()}
    record = Tape.record

    def recorded(tape, out, fn):
        seen["tape"].add(out.data.dtype)
        record(tape, out, fn)

    def check(row, model, opt):
        seen["params"] = {t.data.dtype for _, t in model.store.items()}
        seen["grads"] = {t.grad.dtype for _, t in model.store.items() if t.grad is not None}
        seen["moments"] = {m.dtype for m in [*opt.m.values(), *opt.v.values()]}

    # one runner, so that every entry is recorded in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(Tape, "record", recorded)
    _train(data, replace(CFG, dtype=name), 1, check)
    assert seen["tape"] == {want}
    assert seen["params"] == {want}
    assert seen["grads"] == {want}
    assert seen["moments"] == {np.dtype(np.float64)}


def test_param_store_needs_a_dtype():
    with pytest.raises(TypeError):
        ParamStore()
    assert ParamStore(np.float32).tensor("w", np.ones(2)).dtype == np.float32


@pytest.mark.parametrize("name", DTYPES)
def test_inference_frames_compute_in_the_configured_dtype(data, name):
    want = np.dtype(DTYPES[name])
    model = DualStreamModel(replace(CFG, dtype=name))
    state = model.initial_state()
    assert state.memory.latents.dtype == state.memory.anchors.dtype == want
    with no_grad():
        for t in range(2):   # the second frame propagates memory and warps the grid
            res = model.forward_frame(data.load_frame(data.scenes[0]["id"], t), data.cameras, state, data.dt)
            state = res.state
            out = res.outputs
            tensors = [out.class_logits, out.center, out.log_size, out.sincos, out.velocity,
                       res.seg_logits, state.memory.latents, state.memory.anchors, state.cells]
            assert {x.data.dtype for x in tensors} == {want}
            assert out.scores.dtype == np.float64
            box = res.detections[0].box
            assert box.center.dtype == box.size.dtype == box.velocity.dtype == np.float64


def test_f32_losses_track_f64(data):
    f64 = np.array(_train(data, replace(CFG, dtype="f64"), 3))
    f32 = np.array(_train(data, CFG, 3))
    assert CFG.dtype == "f32" and not np.array_equal(f32, f64)
    np.testing.assert_allclose(f32, f64, rtol=1e-4)


# Three f32 and f64 training steps of CFG: each step's loss as ``float.hex``
# and a sha256 of the trained parameters (name, shape and bytes in store
# order). The pins hold for one numpy/BLAS build; another build may round a
# product differently and move them without any change to the program.
TRAIN_CANARY = {
    "f32": (["0x1.97f2d60000000p+2", "0x1.7823240000000p+2", "0x1.6d36300000000p+2"],
            "a3e4b85c4bff0c1f585f872f4e8fe64c470b806db761c6a9a70d940bb4e872f4"),
    "f64": (["0x1.97f2d6c508c3bp+2", "0x1.7823255a57a1fp+2", "0x1.6d3631be50390p+2"],
            "71293c743c03a952b0b478a359fe9d61276d1dfb5f8fd8ab9dae8d799927a33d"),
}


@pytest.mark.parametrize("name", DTYPES)
def test_training_is_bitwise_pinned(data, name):
    digest = {}

    def fingerprint(row, model, opt):
        h = hashlib.sha256()
        for pname, t in model.store.items():
            h.update(pname.encode())
            h.update(str(t.data.shape).encode())
            h.update(t.data.tobytes())
        digest["params"] = h.hexdigest()

    losses = _train(data, replace(CFG, dtype=name), 3, fingerprint)
    assert ([x.hex() for x in losses], digest["params"]) == TRAIN_CANARY[name]


# Each ablation variant of CFG (``cli.ABLATION_GRID``): its first two
# training steps' losses as ``float.hex``, and a sha256 of an untrained
# model's second inference frame (seg logits, then the decoded centers,
# velocities and scores); the second frame warps the first's grid and
# propagates its memory. The pins hold for one numpy/BLAS build.
VARIANT_CANARY = {
    "full_temporal": (["0x1.97f2d60000000p+2", "0x1.7823240000000p+2"],
                      "b45adfefbfe2182ce3fdf2c57054e81602ae513bb148ccb991fab678de66a506"),
    "full_static": (["0x1.97f2d60000000p+2", "0x1.8460420000000p+2"],
                    "a3eabee4375c296d0168d00cb8c2e3a7fdd3f316e227e2c003a8f6742df43745"),
    "none_temporal": (["0x1.8e19ec0000000p+2", "0x1.7efb400000000p+2"],
                      "1c2ddd5874632682c00828d4b0a2a7cf5d301308f9e364241f2a8396971737fb"),
    "none_static": (["0x1.8e19ec0000000p+2", "0x1.80d9280000000p+2"],
                    "085f7752fdebe72add77418a78c11f27c2490b1851c292aac3b737954ef79079"),
    "bidir_temporal": (["0x1.8c87680000000p+2", "0x1.848b780000000p+2"],
                       "4819dfb02d7747c4f9bcc4f9145e1deee818df140027889ac3a0c40ed02d42eb"),
    "bidir_static": (["0x1.8c87680000000p+2", "0x1.7eb3600000000p+2"],
                     "b26b20bc1aa06228034bb79fc3211c2e286e7d98e314d388f5b6677259958ec4"),
}


@pytest.mark.parametrize("variant", [name for name, _, _ in ABLATION_GRID])
def test_every_ablation_variant_is_bitwise_pinned(data, variant):
    _, interaction, temporal = next(row for row in ABLATION_GRID if row[0] == variant)
    cfg = replace(CFG, interaction=interaction, temporal_bev=temporal)
    losses = [x.hex() for x in _train(data, cfg, 2)]
    model = DualStreamModel(cfg)
    state = model.initial_state()
    with no_grad():
        for t in range(2):
            res = model.forward_frame(data.load_frame(data.scenes[0]["id"], t), data.cameras, state, data.dt)
            state = res.state
    h = hashlib.sha256()
    for a in (res.seg_logits.data, res.outputs.center.data, res.outputs.velocity.data, res.outputs.scores):
        h.update(a.tobytes())
    assert (losses, h.hexdigest()) == VARIANT_CANARY[variant]
