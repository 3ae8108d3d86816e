"""Streaming temporal training: frame-synchronous scene batches with carried
belief state, truncated gradient history, AdamW with cosine annealing, and
bitwise-reproducible checkpoints."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .configio import Config, config_from_dict, config_to_dict, worker_count
from .diffcore import NumericError
from .diffcore.dstn import DstnError, atomic_directory, read_json, read_tensor, write_tensor
from .heads import detection_cost_matrix, detection_loss, hungarian_match, segmentation_loss
from .model import DualStreamModel, StreamState
from .scenepool import DETACH, RESET, ScenePool
from .synthworld.dataset import Dataset
from .synthworld.scene import CLASS_NAMES

CHECKPOINT_VERSION = 3


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @staticmethod
    def fresh(store) -> "OptimizerState":
        # moments kept in float64 whatever the parameter dtype (the mixed-
        # precision split): v sums squared gradients, which leave float32's
        # range first, and both moments accumulate small terms over many steps
        return OptimizerState(
            m={name: np.zeros(t.data.shape, dtype=np.float64) for name, t in store.items()},
            v={name: np.zeros(t.data.shape, dtype=np.float64) for name, t in store.items()},
            step=0,
        )


def cosine_lr(base: float, floor_fraction: float, step: int, total_steps: int) -> float:
    """Cosine annealing from ``base`` at step 0 to ``floor_fraction * base``
    at the final step."""
    floor = base * floor_fraction
    if total_steps <= 1:
        return base
    t = min(step, total_steps - 1) / (total_steps - 1)
    return floor + 0.5 * (base - floor) * (1.0 + math.cos(math.pi * t))


def clip_gradients(store, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most ``max_norm``."""
    total = 0.0
    for _, t in store.items():
        if t.grad is not None:
            # squared and summed in float64, where float32 would overflow on
            # large gradients and round away the small ones
            total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for _, t in store.items():
            if t.grad is not None:
                t.grad *= factor
    return norm


def optimizer_step(
    store,
    opt: OptimizerState,
    lr: float,
    weight_decay: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Decoupled-weight-decay adaptive moment update.

    The update is computed in float64 against the float64 moments and
    rounded once into the parameter's own dtype. The moments are updated in
    place, each expression in the operation order of its textbook form (for
    example ``((1 - beta2) * g) * g``), so the result is bitwise that of the
    out-of-place formula. Each parameter gets a fresh array, never its old
    one written over: the tape kept across a truncation window still holds
    the old values for its backward.
    """
    opt.step += 1
    bc1 = 1.0 - beta1 ** opt.step
    bc2 = 1.0 - beta2 ** opt.step
    for name, t in store.items():
        m, v = opt.m[name], opt.v[name]
        g = t.grad.astype(np.float64) if t.grad is not None else np.zeros(t.data.shape)
        buf = g * (1.0 - beta2)
        buf *= g
        v *= beta2
        v += buf                                    # v = beta2 v + ((1 - beta2) g) g
        g *= 1.0 - beta1
        m *= beta1
        m += g                                      # m = beta1 m + (1 - beta1) g
        np.divide(v, bc2, out=buf)
        np.sqrt(buf, out=buf)
        buf += eps
        np.divide(m, bc1, out=g)
        g /= buf
        p = t.data.astype(np.float64)
        np.multiply(p, weight_decay, out=buf)
        g += buf                                    # update = (m / bc1) / (sqrt(v / bc2) + eps) + wd p
        g *= lr
        p -= g
        t.data = p.astype(t.data.dtype, copy=False)


@dataclass
class TrainLogRow:
    step: int
    epoch: int
    frame: int
    loss: float
    det_loss: float
    seg_loss: float
    lr: float
    grad_norm: float


@dataclass
class TrainResult:
    rows: list[TrainLogRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["step,epoch,frame,loss,det_loss,seg_loss,lr,grad_norm"]
        for r in self.rows:
            lines.append(
                f"{r.step},{r.epoch},{r.frame},{r.loss!r},{r.det_loss!r},{r.seg_loss!r},{r.lr!r},{r.grad_norm!r}"
            )
        return "\n".join(lines) + "\n"


def frame_loss(model: DualStreamModel, result, frame, cfg: Config):
    """Detection + weighted segmentation loss for one frame result."""
    cost = detection_cost_matrix(result.outputs, frame.gt_boxes, model.ranges, cfg, model.decode.size_prior)
    assignment = hungarian_match(cost)
    det = detection_loss(result.outputs, frame.gt_boxes, assignment, model.ranges, cfg,
                         model.decode.size_prior, n_classes=len(CLASS_NAMES))
    seg = segmentation_loss(result.seg_logits, frame.gt_seg)
    return det, seg


def _scene_frame(model: DualStreamModel, dataset: Dataset, cfg: Config, meta: dict, t: int,
                 state: StreamState):
    """One scene's frame ``t`` from its carried ``state``: the new state and
    the frame's detection and segmentation losses."""
    frame = dataset.load_frame(meta["id"], t)
    res = model.forward_frame(frame, dataset.cameras, state, dataset.dt)
    det, seg = frame_loss(model, res, frame, cfg)
    return res.state, det, seg


def total_optimizer_steps(dataset: Dataset, cfg: Config) -> int:
    groups = _scene_groups(dataset, cfg)
    per_epoch = sum(min(meta["n_frames"] for meta in group) for group in groups)
    return cfg.epochs * per_epoch


def _scene_groups(dataset: Dataset, cfg: Config) -> list[list[dict]]:
    metas, size = list(dataset.scenes), cfg.batch_scenes
    return [metas[i:i + size] for i in range(0, len(metas), size)]


def step_loss(losses: list[tuple[np.ndarray, np.ndarray]], seg_weight: float):
    """The step's loss from each scene's (det, seg) loss values, as
    (total, det mean, seg mean): ``((d_0 + d_1) + ...) * (1/n)`` for the det
    mean, the same for the seg mean, then ``det_mean + seg_mean *
    seg_weight``. ``backward`` seeds the scenes with its derivatives."""
    det_sum, seg_sum = losses[0]
    for det, seg in losses[1:]:
        det_sum, seg_sum = det_sum + det, seg_sum + seg
    det_mean, seg_mean = det_sum * (1.0 / len(losses)), seg_sum * (1.0 / len(losses))
    return det_mean + seg_mean * seg_weight, det_mean, seg_mean


def backward(loss: np.ndarray, n: int, seg_weight: float, scenes: ScenePool) -> None:
    """Take the ``step_loss`` ``loss`` of ``n`` scenes to the parameters'
    ``grad``. Every scene's seeds are the derivatives of ``loss`` by its det
    and seg losses, ``one * (1/n)`` and ``(one * seg_weight) * (1/n)``: the
    products, in their order, that replaying the formula from ``one`` would
    make. Then every scene's replay (here and in the workers) and the sum of
    the scenes' gradients in scene order."""
    one = np.ones_like(loss)
    scenes.backward([(one * (1.0 / n), (one * seg_weight) * (1.0 / n))] * n)


def streaming_train(
    dataset: Dataset,
    model: DualStreamModel,
    cfg: Config,
    opt: Optional[OptimizerState] = None,
    epochs: Optional[range] = None,
    on_step: Optional[Callable[[TrainLogRow], None]] = None,
) -> tuple[TrainResult, OptimizerState]:
    """Iterate scenes frame by frame carrying the top-k query memory and the BEV grid,
    detaching state every ``truncation_horizon`` frames, with one optimizer
    step per frame-batch. Honors the per-frame sensor schedules stored in
    the dataset.

    A frame-batch's scenes run on ``worker_count`` runners (a
    ``scenepool.ScenePool``): scene k on runner k mod runners. Runner 0 is
    the calling process; the others are processes forked when the call
    starts and joined when it ends, however it ends. Each runner keeps its
    scenes' carried state and their tapes, one per frame of the current
    truncation window, and runs their frame loads, forwards and losses. This
    process combines the scenes' loss values in numpy (``step_loss``) and
    checks them; ``backward`` gives each scene its det and seg seeds. Every
    runner replays each of its scenes' windows alone from them: scene k's
    gradient ``G_k`` sums its contributions in replay order (frames newest
    first), each parameter's starting from zero. ``backward`` then sets each
    parameter's ``grad`` to ``0 + G_0 + G_1 + ...``, the scenes in index
    order. That order does not depend on the number of runners, so every
    loss, parameter and AdamW moment is bitwise that of a one-runner run.
    Then this process clips, runs AdamW and calls ``on_step`` (where a
    caller may save a checkpoint).

    Parameters reach the workers, and the scenes' gradients come back,
    through one shared mapping made before the fork: the parameters, written
    before each frame, and one gradient slot per scene. A worker copies the
    parameters out into new arrays, never views, as ``optimizer_step`` makes
    new ones here, so a window's older tapes keep the values their frames
    ran with.

    The training step is the optimizer's: a run goes on from ``opt.step``,
    and the cosine schedule always spans the config's
    ``total_optimizer_steps``. ``epochs`` (by default all of the config's)
    are the epochs run, so a run split into epoch ranges, as a resumed one
    is, retraces the uninterrupted run exactly. This process records
    nothing on a tape of its own: no tape joins the scenes.
    """
    opt = opt or OptimizerState.fresh(model.store)
    result = TrainResult()
    total_steps = total_optimizer_steps(dataset, cfg)
    horizon = cfg.truncation_horizon
    groups = _scene_groups(dataset, cfg)
    workers = worker_count(max(len(group) for group in groups))
    with ScenePool(model.store, groups, workers, model.initial_state,
                   partial(_scene_frame, model, dataset, cfg)) as scenes:
        for epoch, (index, group) in product(range(cfg.epochs) if epochs is None else epochs, enumerate(groups)):
            n_frames = min(meta["n_frames"] for meta in group)
            for t in range(n_frames):
                if t == 0 or (cfg.sequence_length > 0 and t % cfg.sequence_length == 0):
                    cut = RESET
                else:
                    cut = DETACH if t % horizon == 0 else None
                loss, det_mean, seg_mean = step_loss(scenes.forward(index, t, cut), cfg.loss_weight_seg)
                step = opt.step
                loss_val, det_val, seg_val = float(loss), float(det_mean), float(seg_mean)
                if not math.isfinite(loss_val):
                    raise NumericError(
                        f"non-finite loss at step {step}: total={loss_val} "
                        f"det={det_val} seg={seg_val}"
                    )

                backward(loss, len(group), cfg.loss_weight_seg, scenes)
                norm = clip_gradients(model.store, cfg.grad_clip)
                if not math.isfinite(norm):
                    bad = next((name for name, t in model.store.items()
                                if t.grad is not None and not np.all(np.isfinite(t.grad))),
                               "none (the squared norm overflowed)")
                    raise NumericError(f"non-finite gradient norm {norm} at step {step}; "
                                       f"first non-finite gradient: {bad}")
                lr = cosine_lr(cfg.learning_rate, cfg.cosine_floor, step, total_steps)
                optimizer_step(model.store, opt, lr, cfg.weight_decay)
                bad = next((name for name, t in model.store.items() if not np.all(np.isfinite(t.data))), None)
                if bad is not None:
                    raise NumericError(f"optimizer update at step {step} made a parameter non-finite: {bad}")

                row = TrainLogRow(step=opt.step, epoch=epoch, frame=t, loss=loss_val,
                                  det_loss=det_val, seg_loss=seg_val, lr=lr, grad_norm=norm)
                result.rows.append(row)
                if on_step:
                    on_step(row)
    return result, opt


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, model: DualStreamModel, opt: OptimizerState, cfg: Config, step: int,
                    epoch: Optional[int] = None) -> None:
    """Write ``meta.json`` and ``state.dstn`` (entries ``params/<name>``,
    ``opt_m/<name>``, ``opt_v/<name>``) into a sibling temp directory, then
    rename it into place, so an interrupted save leaves the previous
    checkpoint untouched. ``epoch``, when given, is recorded in the metadata
    for ``--resume``."""
    with atomic_directory(path) as tmp:
        names = model.store.names()
        state = {f"params/{name}": t.data for name, t in model.store.items()}
        state.update((f"opt_m/{name}", opt.m[name]) for name in names)
        state.update((f"opt_v/{name}", opt.v[name]) for name in names)
        write_tensor(tmp / "state.dstn", state, {})
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "step": step,
            "opt_step": opt.step,
            "config": config_to_dict(cfg),
            "param_names": names,
        }
        if epoch is not None:
            meta["epoch"] = epoch
        (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def load_checkpoint(path) -> tuple[Config, dict, OptimizerState, int]:
    """Returns (config, param arrays, optimizer state, step)."""
    root = Path(path)
    # a config error in meta.json is a ValueError, which read_json reports naming the file
    cfg, names, opt_step, step = read_json(root / "meta.json", DstnError, lambda meta: (
        config_from_dict(dict(meta["config"])), [str(name) for name in meta["param_names"]], int(meta["opt_step"]),
        int(meta["step"])
    ), CHECKPOINT_VERSION)
    state, _ = read_tensor(root / "state.dstn")
    want = {f"{group}/{name}" for group in ("params", "opt_m", "opt_v") for name in names}
    if state.keys() != want:
        raise DstnError(f"{root / 'state.dstn'}: entries do not match the param_names of meta.json "
                        f"(missing {sorted(want - state.keys())[:3]}, extra {sorted(state.keys() - want)[:3]})")
    params = {name: state[f"params/{name}"] for name in names}
    # the optimizer updates the moments in place, so each must already be float64 in its parameter's shape
    for name in names:
        for key in (f"opt_m/{name}", f"opt_v/{name}"):
            if state[key].dtype != np.float64 or state[key].shape != params[name].shape:
                raise DstnError(f"{root / 'state.dstn'}: {key} is {state[key].dtype} {state[key].shape}, "
                                f"not float64 in its parameter's shape")
    opt = OptimizerState(m={name: state[f"opt_m/{name}"] for name in names},
                         v={name: state[f"opt_v/{name}"] for name in names}, step=opt_step)
    return cfg, params, opt, step


def model_from_checkpoint(path) -> tuple[DualStreamModel, OptimizerState, Config, int]:
    cfg, params, opt, step = load_checkpoint(path)
    model = DualStreamModel(cfg)
    try:
        model.store.load_arrays(params)
    except ValueError as e:
        raise DstnError(f"{path}: {e}") from None
    return model, opt, cfg, step
