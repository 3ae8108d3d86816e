import hashlib
import json
import multiprocessing
import os
import re
import signal
import time
from dataclasses import replace

import numpy as np
import pytest
from util import poison_anchors

from dualstream import trainkit
from dualstream.cli import bev_from_config, world_from_config
from dualstream.configio import Config, config_to_dict
from dualstream.diffcore import Tape, fresh_tape
from dualstream.diffcore.dstn import DstnError, read_tensor, write_tensor
from dualstream.model import DualStreamModel
from dualstream.params import ParamStore
from dualstream.runner import assemble_report, run_inference
from dualstream.scenepool import WorkerDied, WorkerTraceback
from dualstream.synthworld.dataset import Dataset, generate_and_write
from dualstream.trainkit import (
    NumericError,
    OptimizerState,
    load_checkpoint,
    model_from_checkpoint,
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
    model = DualStreamModel(CFG)
    result, _ = streaming_train(Dataset(tmp_path), model, CFG)
    per_epoch = np.array([row.loss for row in result.rows]).reshape(CFG.epochs, -1).mean(axis=1)
    assert per_epoch[-1] <= 0.85 * per_epoch[0], per_epoch


@pytest.mark.slow
def test_overfit_raises_detection_and_segmentation_quality(tmp_path):
    # opt-in (pytest -m slow): the 1-scene overfit must raise the evaluated
    # mAP and seg mIoU above the untrained model's, not only lower the loss
    cfg = replace(CFG, epochs=100)
    generate_and_write([7], tmp_path, world_from_config(cfg), bev_from_config(cfg),
                       config_echo=config_to_dict(cfg), ranges=cfg.detection_ranges(),
                       image_size=(cfg.image_height, cfg.image_width))
    data = Dataset(tmp_path)
    model = DualStreamModel(cfg)

    def quality():
        report = assemble_report(run_inference(data, model, cfg), cfg, run_id="overfit", code_version="test")
        return report.slices["all"].mAP, report.seg["miou"]

    untrained = quality()
    streaming_train(data, model, cfg)
    trained = quality()
    assert trained[0] > untrained[0] and trained[1] > untrained[1], (untrained, trained)


def _tiny(tmp_path):
    cfg = replace(CFG, epochs=1, interaction="full")
    generate_and_write([7], tmp_path / "data", world_from_config(cfg), bev_from_config(cfg),
                       config_echo=config_to_dict(cfg), ranges=cfg.detection_ranges(),
                       image_size=(cfg.image_height, cfg.image_width))
    model = DualStreamModel(cfg)
    return cfg, Dataset(tmp_path / "data"), model


def test_non_finite_gradient_raises_naming_the_parameter(tmp_path, monkeypatch):
    cfg, data, model = _tiny(tmp_path)
    victim = model.store.names()[5]
    params = dict(model.store.items())
    merge = trainkit.backward

    def poisoned_backward(*args):
        merge(*args)
        params[victim].grad.reshape(-1)[0] = np.nan

    monkeypatch.setattr(trainkit, "backward", poisoned_backward)
    before = {name: t.data.copy() for name, t in model.store.items()}
    with pytest.raises(NumericError, match=rf"step 0; first non-finite gradient: {re.escape(victim)}$"):
        streaming_train(data, model, cfg)
    # the optimizer never ran, so no parameter took the NaN
    for name, t in model.store.items():
        np.testing.assert_array_equal(t.data, before[name])


# three scenes of five frames: two truncation windows, then a sequence reset at frame 4
SCENES_CFG = replace(CFG, epochs=1, interaction="full", scene_frames=5, truncation_horizon=2, sequence_length=4)


@pytest.fixture(scope="module")
def three_scenes(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes") / "data"
    cfg = SCENES_CFG
    generate_and_write([7, 8, 9], out, world_from_config(cfg), bev_from_config(cfg),
                       config_echo=config_to_dict(cfg), ranges=cfg.detection_ranges(),
                       image_size=(cfg.image_height, cfg.image_width))
    return Dataset(out)


def _scene_workers(monkeypatch, n):
    """Let training run ``n`` scene runners whatever this machine's CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


# sha256 of each run of the three scenes (its losses as ``float.hex``, then
# each parameter's name, values and AdamW moments in store order). Each step's
# gradient is 0 + G_0 + G_1 + ... in scene order, where G_k is scene k's
# window replayed alone, each parameter's starting from zero: an order that
# does not depend on the number of runners. The pins hold for one numpy/BLAS
# build, as TRAIN_CANARY's in test_dtype.py do.
SCENES_CANARY = {
    ("f32", 2): "09369a572f1be76a5ca9ded296700094c11a344696a29c86ccbac052be7ad3ee",
    ("f32", 3): "dd14f030a5cd93b7dd8e58e3c601fe7492c1dbb36627e13472249664ecbaff25",
    ("f64", 2): "6064b638ed3540168e1aaff4533ed9d47d6662305883b9170453d36ace000148",
    ("f64", 3): "0085501865357a3619206a7a1cb1b43f0ba88459745c5e63b540d81530afadce",
}


@pytest.mark.parametrize("batch", [2, 3])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_concurrent_scenes_train_bitwise_as_one_thread(three_scenes, monkeypatch, dtype, batch):
    cfg = replace(SCENES_CFG, dtype=dtype, batch_scenes=batch)

    def train():
        model = DualStreamModel(cfg)
        workers = []
        result, opt = streaming_train(three_scenes, model, cfg,
                                      on_step=lambda row: workers.append(len(multiprocessing.active_children())))
        state = {name: (t.data, opt.m[name], opt.v[name]) for name, t in model.store.items()}
        return [row.loss.hex() for row in result.rows], state, workers

    _scene_workers(monkeypatch, batch)   # one runner per scene: at batch 3, two workers
    losses, state, workers = train()
    assert len(losses) == {2: 10, 3: 5}[batch]   # five steps per scene group
    assert workers == [batch - 1] * len(losses)
    digest = hashlib.sha256(" ".join(losses).encode())
    for name, arrays in state.items():
        digest.update(name.encode())
        for a in arrays:
            digest.update(a.tobytes())
    assert digest.hexdigest() == SCENES_CANARY[dtype, batch]
    assert not multiprocessing.active_children()
    _scene_workers(monkeypatch, 1)
    want_losses, want_state, workers = train()
    assert not any(workers)
    assert losses == want_losses
    for name, arrays in want_state.items():
        for got, want in zip(state[name], arrays):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_nan_anchor_in_scene_1_raises_numeric_error_leaving_no_thread_or_branch(three_scenes, monkeypatch):
    _scene_workers(monkeypatch, 2)
    poison_anchors(monkeypatch, three_scenes.scenes[1]["id"], 1)
    with fresh_tape() as tape:
        with pytest.raises(NumericError, match="query anchors must be finite"):
            streaming_train(three_scenes, DualStreamModel(SCENES_CFG), SCENES_CFG)
        assert len(tape) == 0
    assert not multiprocessing.active_children()


def test_on_step_exception_propagates_leaving_no_thread_or_branch(three_scenes, monkeypatch):
    class Stop(Exception):
        pass

    stop = Stop()

    def on_step(row):
        assert multiprocessing.active_children()
        raise stop

    _scene_workers(monkeypatch, 2)
    with fresh_tape() as tape:
        with pytest.raises(Stop) as caught:
            streaming_train(three_scenes, DualStreamModel(SCENES_CFG), SCENES_CFG, on_step=on_step)
        assert caught.value is stop and len(tape) == 0
    assert not multiprocessing.active_children()


def _fail_scenes(monkeypatch, data, failures, frame=1):
    """Make frame ``frame`` of the scenes at the batch indices ``failures``
    call ``failures[k]`` instead of running."""
    run = trainkit._scene_frame
    index = {meta["id"]: k for k, meta in enumerate(data.scenes)}

    def failing(model, dataset, cfg, meta, t, state):
        if t == frame and index[meta["id"]] in failures:
            failures[index[meta["id"]]]()
        return run(model, dataset, cfg, meta, t, state)

    monkeypatch.setattr(trainkit, "_scene_frame", failing)


def test_a_dying_worker_raises_naming_its_scene_and_status(three_scenes, monkeypatch):
    parent = os.getpid()

    def die():
        assert os.getpid() != parent, "scene 1 must run in a worker"
        os._exit(3)

    def timeout(signum, frame):
        raise TimeoutError("training did not notice its worker dying")

    _scene_workers(monkeypatch, 2)
    _fail_scenes(monkeypatch, three_scenes, {1: die})
    cfg = replace(SCENES_CFG, batch_scenes=3)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    start = time.monotonic()
    try:
        with pytest.raises(WorkerDied, match=r"exit status 3 while running scene 1 \(id 1\) "):
            streaming_train(three_scenes, DualStreamModel(cfg), cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("failing, want", [((1, 2), 1), ((0, 1), 0)])
def test_of_two_failing_scenes_the_lower_index_raises(three_scenes, monkeypatch, failing, want):
    def fail(k):
        def raise_():
            raise KeyError(f"scene {k}")
        return raise_

    _scene_workers(monkeypatch, 2)
    _fail_scenes(monkeypatch, three_scenes, {k: fail(k) for k in failing})
    cfg = replace(SCENES_CFG, batch_scenes=3)
    with fresh_tape() as tape:
        with pytest.raises(KeyError, match=f"scene {want}") as caught:
            streaming_train(three_scenes, DualStreamModel(cfg), cfg)
        assert len(tape) == 0
    # scene 1 runs in the worker, whose traceback comes along as the cause
    assert isinstance(caught.value.__cause__, WorkerTraceback) == (want == 1)
    assert not multiprocessing.active_children()


def test_a_worker_exception_that_cannot_be_pickled_arrives_as_its_type_and_message(three_scenes, monkeypatch):
    class LocalError(Exception):   # a local class: pickle cannot find it by name
        pass

    def fail():
        raise LocalError("bad frame")

    _scene_workers(monkeypatch, 2)
    _fail_scenes(monkeypatch, three_scenes, {1: fail})
    with pytest.raises(RuntimeError, match=r"LocalError: bad frame$"):
        streaming_train(three_scenes, DualStreamModel(SCENES_CFG), SCENES_CFG)
    assert not multiprocessing.active_children()


def test_optimizer_update_overflow_raises_naming_the_parameter(tmp_path):
    cfg, data, model = _tiny(tmp_path)
    # finite gradients, but a learning rate at the top of the float range
    # times a decayed unit weight overflows the update
    cfg = replace(cfg, learning_rate=1e308, weight_decay=100.0)
    with pytest.raises(NumericError, match=r"update at step 0 made a parameter non-finite") as err:
        streaming_train(data, model, cfg)
    bad = [name for name, t in model.store.items() if not np.all(np.isfinite(t.data))]
    assert bad and str(err.value).endswith(f": {bad[0]}")


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

    def failing_write(path, tensors, meta):
        # the state file is cut off part-way, as by a full disk
        write_tensor(path, tensors, meta)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        written.append(path)
        raise OSError("disk full")

    monkeypatch.setattr(trainkit, "write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, model, opt, cfg, step=4, epoch=2)
    assert [p.name for p in written] == ["state.dstn"] and written[0].parent != ckpt

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


def test_checkpoint_state_missing_an_entry_is_refused(tmp_path):
    model = DualStreamModel(CFG)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, model, OptimizerState.fresh(model.store), CFG, step=0)
    state, meta = read_tensor(ckpt / "state.dstn")
    last = f"opt_v/{model.store.names()[-1]}"
    del state[last]
    write_tensor(ckpt / "state.dstn", state, meta)
    with pytest.raises(DstnError, match=rf"state\.dstn: entries do not match .*\(missing \['{re.escape(last)}'\], extra \[\]\)"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("change", ["dtype", "shape"])
def test_checkpoint_moment_unlike_its_parameter_is_refused(tmp_path, change):
    model = DualStreamModel(CFG)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, model, OptimizerState.fresh(model.store), CFG, step=0)
    state, meta = read_tensor(ckpt / "state.dstn")
    key = f"opt_m/{model.store.names()[0]}"
    state[key] = state[key].astype(np.float32) if change == "dtype" else state[key].ravel()[:1]
    write_tensor(ckpt / "state.dstn", state, meta)
    with pytest.raises(DstnError, match=rf"state\.dstn: {re.escape(key)} is .*not float64 in its parameter's shape"):
        load_checkpoint(ckpt)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def test_f32_checkpoint_reloads_in_its_own_dtype(tmp_path):
    cfg, data, model = _tiny(tmp_path)
    assert cfg.dtype == "f32"
    _, opt = streaming_train(data, model, cfg)
    save_checkpoint(tmp_path / "ckpt", model, opt, cfg, step=opt.step, epoch=1)
    loaded, got_opt, got_cfg, step = model_from_checkpoint(tmp_path / "ckpt")
    assert got_cfg == cfg and step == opt.step == got_opt.step
    got = dict(loaded.store.items())
    for name, t in model.store.items():
        assert t.data.dtype == np.float32 and opt.m[name].dtype == opt.v[name].dtype == np.float64
        assert _bits(got[name].data) == _bits(t.data), name
        assert _bits(got_opt.m[name]) == _bits(opt.m[name]), name
        assert _bits(got_opt.v[name]) == _bits(opt.v[name]), name


def test_checkpoint_of_another_dtype_is_refused(tmp_path):
    cfg, _, model = _tiny(tmp_path)
    # float64 parameters under an f32 config, as written before parameters carried the dtype
    for t in dict(model.store.items()).values():
        t.data = t.data.astype(np.float64)
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), cfg, step=0)
    first = model.store.names()[0]
    with pytest.raises(DstnError, match=rf"dtype mismatch for {re.escape(first)}: stored float64, model float32"):
        model_from_checkpoint(tmp_path / "ckpt")


def test_checkpoint_of_another_parameter_set_is_refused(tmp_path):
    cfg = replace(CFG, interaction="full")
    model = DualStreamModel(cfg)
    # the object-to-image camera logits of an older model, which this one no longer has
    model.store.tensor("layer0.obj_img.cam_w", np.zeros((cfg.latent_dim, 6)))
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), cfg, step=0)
    refused = r"parameter set mismatch: missing \[\], extra \['layer0\.obj_img\.cam_w'\]"
    with pytest.raises(DstnError, match=refused):
        model_from_checkpoint(tmp_path / "ckpt")


def test_checkpoint_of_another_bev_layout_is_refused(tmp_path):
    model = DualStreamModel(CFG)
    init = model.store["bev.init"]
    h, w = model.bev_spec.dims
    L = CFG.latent_dim
    # the channel-first (L, H, W) initial grid an older model stored
    init.data = np.ascontiguousarray(init.data.T.reshape(L, h, w))
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), CFG, step=0)
    refused = rf"shape mismatch for bev\.init: \({L}, {h}, {w}\) vs \({h * w}, {L}\)"
    with pytest.raises(DstnError, match=refused):
        model_from_checkpoint(tmp_path / "ckpt")


# the names of a one-layer bidirectional model, in registration order: the
# checkpoint's ``param_names`` and the order of the initialiser's draws
PINNED_NAMES = """
    backbone.ln1.g backbone.ln1.b backbone.ln2.g backbone.ln2.b backbone.w_proj backbone.b_proj
    backbone.mlp1.w1 backbone.mlp1.b1 backbone.mlp1.w2 backbone.mlp1.b2 backbone.mlp2.w1 backbone.mlp2.b1
    backbone.mlp2.w2 backbone.mlp2.b2 spawn.embeddings spawn.anchors motion.w1 motion.b1 motion.w2 motion.b2
    bev.init bev.fresh layer0.obj_self.pe.w layer0.obj_self.pe.b layer0.obj_self.ln.g layer0.obj_self.ln.b
    layer0.obj_self.attn.wq layer0.obj_self.attn.wq_b layer0.obj_self.attn.wk layer0.obj_self.attn.wk_b
    layer0.obj_self.attn.wv layer0.obj_self.attn.wv_b layer0.obj_self.attn.wo layer0.obj_self.attn.wo_b
    layer0.obj_img.pe.w layer0.obj_img.pe.b layer0.obj_img.ln.g layer0.obj_img.ln.b
    layer0.obj_img.deform.w_off layer0.obj_img.deform.b_off layer0.obj_img.deform.w_wgt
    layer0.obj_img.deform.b_wgt layer0.obj_img.deform.w_val layer0.obj_img.deform.w_out
    layer0.obj_img.deform.b_out layer0.bev_temporal.ln.g layer0.bev_temporal.ln.b
    layer0.bev_temporal.deform.w_off layer0.bev_temporal.deform.b_off layer0.bev_temporal.deform.w_wgt
    layer0.bev_temporal.deform.b_wgt layer0.bev_temporal.deform.w_val layer0.bev_temporal.deform.w_out
    layer0.bev_temporal.deform.b_out layer0.bev_img.pe.w layer0.bev_img.pe.b layer0.bev_img.ln.g
    layer0.bev_img.ln.b layer0.bev_img.deform.w_off layer0.bev_img.deform.b_off layer0.bev_img.deform.w_wgt
    layer0.bev_img.deform.b_wgt layer0.bev_img.deform.w_val layer0.bev_img.deform.w_out
    layer0.bev_img.deform.b_out layer0.dyn_static.ln.g layer0.dyn_static.ln.b layer0.dyn_static.deform.w_off
    layer0.dyn_static.deform.b_off layer0.dyn_static.deform.w_wgt layer0.dyn_static.deform.b_wgt
    layer0.dyn_static.deform.w_val layer0.dyn_static.deform.w_out layer0.dyn_static.deform.b_out
    layer0.static_dyn.pe.w layer0.static_dyn.pe.b layer0.static_dyn.ln.g layer0.static_dyn.ln.b
    layer0.static_dyn.attn.wq layer0.static_dyn.attn.wq_b layer0.static_dyn.attn.wk
    layer0.static_dyn.attn.wk_b layer0.static_dyn.attn.wv layer0.static_dyn.attn.wv_b
    layer0.static_dyn.attn.wo layer0.static_dyn.attn.wo_b layer0.obj_ffn.ln.g layer0.obj_ffn.ln.b
    layer0.obj_ffn.mlp.w1 layer0.obj_ffn.mlp.b1 layer0.obj_ffn.mlp.w2 layer0.obj_ffn.mlp.b2
    layer0.bev_ffn.ln.g layer0.bev_ffn.ln.b layer0.bev_ffn.mlp.w1 layer0.bev_ffn.mlp.b1
    layer0.bev_ffn.mlp.w2 layer0.bev_ffn.mlp.b2 decode.w_hidden decode.b_hidden decode.w_center
    decode.b_center decode.w_size decode.b_size decode.w_yaw decode.b_yaw decode.w_vel decode.b_vel
    decode.w_cls decode.b_cls seg.w1 seg.b1 seg.w2 seg.b2
""".split()


def test_parameter_names_and_initial_values_are_pinned():
    cfg = Config(dtype="f64", interaction="bidirectional", n_layers=1, latent_dim=8, heads=2, n_queries=6,
                 topk=3, n_points=2, n_freqs=2, bev_cells=4, bev_extent=2.0, patch=8, image_height=16,
                 image_width=32, decode_hidden=8)
    model = DualStreamModel(cfg)
    assert model.store.names() == PINNED_NAMES
    h = hashlib.sha256()
    for name, t in model.store.items():
        h.update(name.encode())
        h.update(str(t.data.shape).encode())
        h.update(t.data.tobytes())
    assert h.hexdigest() == "0c37aba0ea59fc9e3f55b3a5853ca9728e019fe8318543df957c52b09af46511"


def test_cosine_lr_endpoints():
    base, floor = 2e-4, 0.05
    assert trainkit.cosine_lr(base, floor, 0, 5) == base
    assert trainkit.cosine_lr(base, floor, 4, 5) == base * floor
    assert trainkit.cosine_lr(base, floor, 9, 5) == base * floor   # past the end it stays at the floor
    assert trainkit.cosine_lr(base, floor, 2, 5) == pytest.approx(base * (1 + floor) / 2, rel=1e-12)
    for total in (1, 0):
        assert trainkit.cosine_lr(base, floor, 0, total) == base
        assert trainkit.cosine_lr(base, floor, 3, total) == base


def _store(**grads):
    store = ParamStore(dtype=np.float64)
    for name, (value, grad) in grads.items():
        store.tensor(name, np.array(value)).grad = None if grad is None else np.array(grad, dtype=np.float64)
    return store


def test_clip_gradients_norm_and_scaling():
    store = _store(a=([1.0], [3.0]), b=([1.0, 1.0], [0.0, 4.0]), c=([1.0], None))
    assert trainkit.clip_gradients(store, 10.0) == 5.0
    np.testing.assert_array_equal(store["b"].grad, [0.0, 4.0])   # under the cap: untouched
    assert trainkit.clip_gradients(store, 0.0) == 5.0            # a zero cap never clips
    np.testing.assert_array_equal(store["a"].grad, [3.0])
    assert trainkit.clip_gradients(store, 1.0) == 5.0
    np.testing.assert_allclose(store["a"].grad, [0.6], rtol=1e-15)
    np.testing.assert_allclose(store["b"].grad, [0.0, 0.8], rtol=1e-15)
    assert store["c"].grad is None
    assert trainkit.clip_gradients(store, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_optimizer_step_matches_hand_adamw():
    store = _store(**{"enc.w": ([2.0, -1.0], [0.5, -2.0]), "enc.b": ([3.0], None)})
    opt = OptimizerState.fresh(store)
    lr, wd, eps = 0.1, 0.01, 1e-8
    trainkit.optimizer_step(store, opt, lr, wd)
    # first step: m = 0.1 g and v = 0.001 g^2, so the bias-corrected ratio is g / (|g| + eps)
    assert opt.step == 1
    np.testing.assert_allclose(opt.m["enc.w"], [0.05, -0.2], rtol=1e-15)
    np.testing.assert_allclose(opt.v["enc.w"], [0.00025, 0.004], rtol=1e-15)
    np.testing.assert_allclose(store["enc.w"].data,
                               [2.0 - lr * (0.5 / (0.5 + eps) + wd * 2.0), -1.0 - lr * (-2.0 / (2.0 + eps) - wd)],
                               rtol=1e-15)
    # no gradient: only the weight decay moves it
    np.testing.assert_allclose(store["enc.b"].data, [3.0 - lr * wd * 3.0], rtol=1e-15)


def reference_adamw_step(store, opt, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place AdamW formula: every moment and parameter a new array."""
    opt.step += 1
    bc1, bc2 = 1.0 - beta1 ** opt.step, 1.0 - beta2 ** opt.step
    for name, t in store.items():
        g = (t.grad if t.grad is not None else np.zeros_like(t.data)).astype(np.float64)
        m = opt.m[name] = beta1 * opt.m[name] + (1.0 - beta1) * g
        v = opt.v[name] = beta2 * opt.v[name] + (1.0 - beta2) * g * g
        p = t.data.astype(np.float64)
        t.data = (p - lr * ((m / bc1) / (np.sqrt(v / bc2) + eps) + wd * p)).astype(t.data.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_optimizer_step_is_bitwise_the_reference(dtype):
    rng = np.random.default_rng(4)
    shapes = {"enc.w": (5, 3), "enc.b": (3,), "head.w": (3, 2)}

    def store_of():
        store = ParamStore(dtype=dtype)
        for name, shape in shapes.items():
            store.tensor(name, np.random.default_rng(5).normal(size=shape))
        return store

    got, want = store_of(), store_of()
    got_opt, want_opt = OptimizerState.fresh(got), OptimizerState.fresh(want)
    for step in range(5):
        grads = {name: rng.normal(scale=10.0 ** -step, size=shape).astype(dtype) for name, shape in shapes.items()}
        grads["enc.b"] = None if step % 2 else grads["enc.b"]   # a parameter the loss did not reach
        for store in (got, want):
            for name, t in store.items():
                t.grad = None if grads[name] is None else grads[name].copy()
        before = {name: (t.data, t.data.copy()) for name, t in got.items()}
        trainkit.optimizer_step(got, got_opt, 1e-2, 0.05)
        reference_adamw_step(want, want_opt, 1e-2, 0.05)
        assert got_opt.step == want_opt.step == step + 1
        for name, t in got.items():
            assert _bits(t.data) == _bits(want[name].data), (step, name)
            assert _bits(got_opt.m[name]) == _bits(want_opt.m[name]), (step, name)
            assert _bits(got_opt.v[name]) == _bits(want_opt.v[name]), (step, name)
            old, copy = before[name]
            # a kept tape may still hold the old parameter array: it must be left as it was
            assert _bits(old) == _bits(copy), (step, name)
            assert t.data is not old, (step, name)


def test_train_result_csv_content():
    rows = [trainkit.TrainLogRow(step=1, epoch=0, frame=0, loss=0.1, det_loss=1 / 3, seg_loss=2.0,
                                 lr=2e-4, grad_norm=1e-20),
            trainkit.TrainLogRow(step=2, epoch=1, frame=3, loss=0.5, det_loss=0.25, seg_loss=0.25,
                                 lr=1.5e-5, grad_norm=12.5)]
    assert trainkit.TrainResult(rows).to_csv() == (
        "step,epoch,frame,loss,det_loss,seg_loss,lr,grad_norm\n"
        "1,0,0,0.1,0.3333333333333333,2.0,0.0002,1e-20\n"
        "2,1,3,0.5,0.25,0.25,1.5e-05,12.5\n"
    )
    assert trainkit.TrainResult().to_csv() == "step,epoch,frame,loss,det_loss,seg_loss,lr,grad_norm\n"


def test_default_training_frames_record_a_pinned_number_of_tape_entries(tmp_path, monkeypatch):
    # the fused deformable read and attention are one entry each: a default
    # model's first frame (no carried memory), then two frames carrying it,
    # each with its loss, on one runner; the step's loss, summed in numpy,
    # records none
    cfg = Config(scene_frames=3, epochs=1, batch_scenes=1)
    generate_and_write([1000], tmp_path, world_from_config(cfg), bev_from_config(cfg),
                       config_echo=config_to_dict(cfg), ranges=cfg.detection_ranges(),
                       image_size=(cfg.image_height, cfg.image_width))
    _scene_workers(monkeypatch, 1)
    entries, record = [0], Tape.record

    def counted(tape, out, fn):
        entries[0] += 1
        record(tape, out, fn)

    monkeypatch.setattr(Tape, "record", counted)
    totals = []
    streaming_train(Dataset(tmp_path), DualStreamModel(cfg), cfg, on_step=lambda row: totals.append(entries[0]))
    assert np.diff(totals, prepend=0).tolist() == [131, 160, 157]
