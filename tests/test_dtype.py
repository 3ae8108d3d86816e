"""The configured dtype reaches every parameter, tape entry, gradient and
model output; AdamW moments and decoded boxes stay float64."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from dualstream.cli import bev_from_config, world_from_config
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
    monkeypatch.setenv("DUALSTREAM_THREADS", "1")
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
                       res.seg_logits, state.memory.latents, state.memory.anchors, state.grid.cells]
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
