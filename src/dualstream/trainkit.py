"""Streaming temporal training: frame-synchronous scene batches with carried
belief state, truncated gradient history, AdamW with cosine annealing, and
bitwise-reproducible checkpoints."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .configio import Config, config_from_dict, config_to_dict
from .diffcore import active_tape, backward
from .diffcore.dstn import DstnError, atomic_directory, read_json, read_tensor, write_tensor
from .diffcore.tensor import add, scale
from .heads import LossWeights, detection_cost_matrix, detection_loss, hungarian_match, segmentation_loss
from .model import DualStreamModel, StreamState
from .synthworld.dataset import Dataset

CHECKPOINT_VERSION = 1


class NumericError(RuntimeError):
    """Training hit a non-finite loss or gradient; carries the step diagnostics."""


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
    skip_prefixes: tuple[str, ...] = (),
) -> None:
    """Decoupled-weight-decay adaptive moment update, in place.

    The update is computed in float64 against the float64 moments and
    rounded once into the parameter's own dtype.
    """
    opt.step += 1
    bc1 = 1.0 - beta1 ** opt.step
    bc2 = 1.0 - beta2 ** opt.step
    for name, t in store.items():
        if any(name.startswith(p) for p in skip_prefixes):
            continue
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        g = g.astype(np.float64)
        m = opt.m[name] = beta1 * opt.m[name] + (1.0 - beta1) * g
        v = opt.v[name] = beta2 * opt.v[name] + (1.0 - beta2) * g * g
        p = t.data.astype(np.float64)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps) + weight_decay * p
        t.data = (p - lr * update).astype(t.data.dtype)


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

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.rows])

    def to_csv(self) -> str:
        lines = ["step,epoch,frame,loss,det_loss,seg_loss,lr,grad_norm"]
        for r in self.rows:
            lines.append(
                f"{r.step},{r.epoch},{r.frame},{r.loss!r},{r.det_loss!r},{r.seg_loss!r},{r.lr!r},{r.grad_norm!r}"
            )
        return "\n".join(lines) + "\n"


def frame_loss(model: DualStreamModel, result, frame, cfg: Config):
    """Detection + weighted segmentation loss for one frame result."""
    weights = LossWeights(
        cls=cfg.loss_weight_cls, center=cfg.loss_weight_center, box=cfg.loss_weight_box,
        focal_alpha=cfg.focal_alpha, focal_gamma=cfg.focal_gamma, velocity_norm=cfg.velocity_norm,
    )
    cost = detection_cost_matrix(result.outputs, frame.gt_boxes, model.ranges, weights,
                                 model.decode.size_prior)
    assignment = hungarian_match(cost)
    det = detection_loss(result.outputs, frame.gt_boxes, assignment, model.ranges, weights,
                         model.decode.size_prior, n_classes=2)
    seg = segmentation_loss(result.seg_logits, frame.gt_seg)
    return det, seg


def total_optimizer_steps(dataset: Dataset, cfg: Config) -> int:
    groups = _scene_groups(dataset, cfg)
    per_epoch = sum(min(meta["n_frames"] for meta in group) for group in groups)
    return cfg.epochs * per_epoch


def _scene_groups(dataset: Dataset, cfg: Config) -> list[list[dict]]:
    metas, size = list(dataset.scenes), cfg.batch_scenes
    return [metas[i:i + size] for i in range(0, len(metas), size)]


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

    The training step is the optimizer's: a run goes on from ``opt.step``,
    and the cosine schedule always spans the config's
    ``total_optimizer_steps``. ``epochs`` (by default all of the config's)
    are the epochs run, so a run split into epoch ranges, as a resumed one
    is, retraces the uninterrupted run exactly.
    """
    if dataset.n_scenes() == 0:
        raise ValueError("dataset is empty")
    opt = opt or OptimizerState.fresh(model.store)
    result = TrainResult()
    total_steps = total_optimizer_steps(dataset, cfg)
    skip = ("backbone.",) if cfg.freeze_backbone else ()
    horizon = cfg.truncation_horizon
    tape = active_tape()

    for epoch in range(cfg.epochs) if epochs is None else epochs:
        for group in _scene_groups(dataset, cfg):
            n_frames = min(meta["n_frames"] for meta in group)
            states: list[StreamState] = [model.initial_state() for _ in group]
            for t in range(n_frames):
                if cfg.sequence_length > 0 and t > 0 and t % cfg.sequence_length == 0:
                    states = [model.initial_state() for _ in group]
                    tape.drop_before(tape.position())
                det_sum = seg_sum = None
                for si, meta in enumerate(group):
                    frame = dataset.load_frame(meta["id"], t)
                    res = model.forward_frame(frame, dataset.cameras, states[si], dataset.dt)
                    det, seg = frame_loss(model, res, frame, cfg)
                    det_sum = det if det_sum is None else add(det_sum, det)
                    seg_sum = seg if seg_sum is None else add(seg_sum, seg)
                    states[si] = res.state
                det_mean = scale(det_sum, 1.0 / len(group))
                seg_mean = scale(seg_sum, 1.0 / len(group))
                loss = add(det_mean, scale(seg_mean, cfg.loss_weight_seg))

                step = opt.step
                loss_val = float(loss.data)
                det_val, seg_val = float(det_mean.data), float(seg_mean.data)
                if not math.isfinite(loss_val):
                    raise NumericError(
                        f"non-finite loss at step {step}: total={loss_val} "
                        f"det={det_val} seg={seg_val}"
                    )

                model.store.zero_grads()
                backward(loss)
                norm = clip_gradients(model.store, cfg.grad_clip)
                if not math.isfinite(norm):
                    bad = next((name for name, t in model.store.items()
                                if t.grad is not None and not np.all(np.isfinite(t.grad))),
                               "none (the squared norm overflowed)")
                    raise NumericError(f"non-finite gradient norm {norm} at step {step}; "
                                       f"first non-finite gradient: {bad}")
                lr = cosine_lr(cfg.learning_rate, cfg.cosine_floor, step, total_steps)
                optimizer_step(model.store, opt, lr, cfg.weight_decay, skip_prefixes=skip)
                bad = next((name for name, t in model.store.items() if not np.all(np.isfinite(t.data))), None)
                if bad is not None:
                    raise NumericError(f"optimizer update at step {step} made a parameter non-finite: {bad}")

                row = TrainLogRow(step=opt.step, epoch=epoch, frame=t, loss=loss_val,
                                  det_loss=det_val, seg_loss=seg_val, lr=lr, grad_norm=norm)
                result.rows.append(row)
                if on_step:
                    on_step(row)

                if (t + 1) % horizon == 0:
                    states = [s.detached() for s in states]
                    tape.drop_before(tape.position())
            # scene group finished: drop the whole streaming history
            tape.drop_before(tape.position())
    return result, opt


# ---------------------------------------------------------------------------
# checkpoints

def _safe_name(name: str) -> str:
    return name.replace("/", "_")


def save_checkpoint(path, model: DualStreamModel, opt: OptimizerState, cfg: Config, step: int,
                    epoch: Optional[int] = None) -> None:
    """Write the checkpoint into a sibling temp directory, then rename it into
    place, so an interrupted save leaves the previous checkpoint untouched.
    ``epoch``, when given, is recorded in the metadata for ``--resume``."""
    with atomic_directory(path) as tmp:
        for sub in ("params", "opt_m", "opt_v"):
            (tmp / sub).mkdir()
        names = model.store.names()
        for name, t in model.store.items():
            write_tensor(tmp / "params" / f"{_safe_name(name)}.dstn", t.data)
            write_tensor(tmp / "opt_m" / f"{_safe_name(name)}.dstn", opt.m[name])
            write_tensor(tmp / "opt_v" / f"{_safe_name(name)}.dstn", opt.v[name])
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
    config, names, opt_step, step = read_json(root / "meta.json", DstnError, lambda meta: (
        dict(meta["config"]), [str(name) for name in meta["param_names"]], int(meta["opt_step"]), int(meta["step"])
    ), CHECKPOINT_VERSION)
    cfg = config_from_dict(config)
    params = {}
    m, v = {}, {}
    for name in names:
        params[name] = read_tensor(root / "params" / f"{_safe_name(name)}.dstn")
        m[name] = read_tensor(root / "opt_m" / f"{_safe_name(name)}.dstn")
        v[name] = read_tensor(root / "opt_v" / f"{_safe_name(name)}.dstn")
    opt = OptimizerState(m=m, v=v, step=opt_step)
    return cfg, params, opt, step


def model_from_checkpoint(path) -> tuple[DualStreamModel, OptimizerState, Config, int]:
    cfg, params, opt, step = load_checkpoint(path)
    model = DualStreamModel(cfg)
    try:
        model.store.load_arrays(params)
    except ValueError as e:
        raise DstnError(f"{path}: {e}") from None
    return model, opt, cfg, step
