"""Flat run configuration and the line-oriented ``key = value`` file format.

Unknown keys are errors (reported with their line number); the file is
authoritative and CLI flags override individual fields afterwards.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Bad configuration file or values."""


INTERACTION_MODES = ("full", "none", "bidirectional")
# the least value of each integer setting
_MINIMUMS = {
    **dict.fromkeys(("latent_dim", "heads", "n_layers", "patch", "n_points", "n_queries", "n_freqs", "decode_hidden",
                     "image_height", "image_width", "batch_scenes"), 1),
    "seed": 0, "topk": 0, "sequence_length": 0, "bev_cells": 2, "track_max_age": 0,
}


@dataclass(frozen=True)
class Config:
    # run
    seed: int = 0
    # f32 | f64: the dtype of parameters, activations, the tape and gradients;
    # AdamW moments, geometry and decoded boxes and scores stay f64
    dtype: str = "f32"
    # the training runner count is not configuration: it comes from the
    # machine (``worker_count``); gen-data runs on one thread
    # world generation
    scene_frames: int = 14
    scene_dt: float = 0.5
    agents_min: int = 3
    agents_max: int = 6
    agent_speed_min: float = 2.0
    agent_speed_max: float = 8.0
    fast_fraction: float = 0.0
    fast_speed_min: float = 10.0
    fast_speed_max: float = 14.0
    pedestrian_fraction: float = 0.25
    ego_speed: float = 4.0
    image_height: int = 64
    image_width: int = 128
    schedule: str = "full"             # full | alternating
    # BEV grid / detection range
    bev_cells: int = 32
    bev_extent: float = 16.0           # half-range, meters; square grid
    range_z: float = 3.0
    # model
    latent_dim: int = 64
    heads: int = 2
    n_layers: int = 2
    n_queries: int = 40
    topk: int = 12
    n_points: int = 4
    n_freqs: int = 8
    patch: int = 16
    decode_hidden: int = 64
    pillar_heights: str = "-1,0,1,2"
    interaction: str = "full"          # full | none | bidirectional
    temporal_bev: bool = True
    propagate_queries: bool = True
    compensate_object_motion: bool = True
    # training
    epochs: int = 3
    sequence_length: int = 0           # frames per streaming chunk; 0 = whole scene
    batch_scenes: int = 2
    learning_rate: float = 2e-4
    weight_decay: float = 1e-4
    cosine_floor: float = 0.05
    truncation_horizon: int = 2
    grad_clip: float = 10.0
    loss_weight_seg: float = 1.0
    loss_weight_cls: float = 1.0
    loss_weight_center: float = 5.0
    loss_weight_box: float = 1.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    velocity_norm: float = 10.0
    freeze_backbone: bool = False
    # tracking / evaluation
    track_max_dist: float = 2.0
    track_score_thresh: float = 0.3
    track_max_age: int = 3
    ap_threshold_scale: float = 0.3125  # desk world-size factor: 16 m / 51.2 m
    highspeed_vmin: float = 10.0

    def validate(self) -> None:
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be f32 or f64, got {self.dtype!r}")
        if self.interaction not in INTERACTION_MODES:
            raise ConfigError(f"bad interaction mode {self.interaction!r}")
        if self.schedule not in ("full", "alternating"):
            raise ConfigError(f"bad schedule {self.schedule!r}")
        if self.truncation_horizon < 1:
            raise ConfigError("truncation_horizon must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not self.grad_clip >= 0:
            raise ConfigError(f"grad_clip must be >= 0 (0 or inf: no clipping), got {self.grad_clip!r}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        for name, least in _MINIMUMS.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        if not 0 < self.bev_extent < math.inf:
            raise ConfigError(f"bev_extent must be finite and > 0, got {self.bev_extent!r}")
        # grad_clip's bound above refuses NaN and -inf; its inf means no clipping
        for name, kind in _FIELD_TYPES.items():
            if kind == "float" and name != "grad_clip" and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        # the ranges of the float settings, once each is known to be finite
        for name in ("scene_dt", "velocity_norm", "range_z", "ap_threshold_scale", "track_max_dist"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("focal_gamma", "highspeed_vmin", "loss_weight_seg", "loss_weight_cls", "loss_weight_center",
                     "loss_weight_box"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("cosine_floor", "track_score_thresh", "focal_alpha", "fast_fraction", "pedestrian_fraction"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be >= 0 and <= 1, got {getattr(self, name)!r}")
        if self.latent_dim % self.heads != 0:
            raise ConfigError("latent_dim must be divisible by heads")
        if self.image_height % self.patch or self.image_width % self.patch:
            raise ConfigError("image size must be divisible by patch")
        try:
            heights = self.pillar_height_list()
        except ValueError as e:
            raise ConfigError(f"bad pillar_heights: {e}") from None
        if not heights:
            raise ConfigError("pillar_heights must not be empty")
        if not all(map(math.isfinite, heights)):
            raise ConfigError(f"pillar_heights must be finite, got {self.pillar_heights!r}")

    def pillar_height_list(self) -> list[float]:
        return [float(tok) for tok in self.pillar_heights.split(",") if tok.strip()]

    def np_dtype(self):
        return np.float64 if self.dtype == "f64" else np.float32

    def detection_ranges(self) -> np.ndarray:
        e, z = self.bev_extent, self.range_z
        return np.array([[-e, -e, -z], [e, e, z]])


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _parse_value(name: str, raw: str, line_no: int):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    try:
        if kind == "bool":
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"line {line_no}: bad value for {name!r}: {e}") from None


def parse_config(text: str, base: Config | None = None) -> Config:
    """Parse ``key = value`` lines with ``#`` comments over a base config."""
    cfg = base or Config()
    updates = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        updates[key] = _parse_value(key, raw, line_no)
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def load_config(path) -> Config:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{p}: config file not found")
    return parse_config(p.read_text(encoding="utf-8"))


def serialize_config(cfg: Config) -> str:
    """Canonical text form (sorted keys); reparsing reproduces the config."""
    lines = [f"{name} = {_format_value(getattr(cfg, name))}" for name in sorted(_FIELD_TYPES)]
    return "\n".join(lines) + "\n"


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_to_dict(cfg: Config) -> dict:
    return asdict(cfg)


def config_from_dict(doc: dict) -> Config:
    unknown = set(doc) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    cfg = replace(Config(), **doc)
    cfg.validate()
    return cfg


def worker_count(jobs: int) -> int:
    """Runners for a training frame-batch of ``jobs`` scenes (the calling
    process and forked worker processes): one per scene, at most one per CPU
    the process may run on, capped by the environment's
    ``DUALSTREAM_THREADS``; at least 1."""
    workers = min(jobs, len(os.sched_getaffinity(0)))
    cap = os.environ.get("DUALSTREAM_THREADS")
    if cap is not None:
        try:
            workers = min(workers, int(cap))
        except ValueError:
            raise ConfigError(f"DUALSTREAM_THREADS must be an integer, got {cap!r}") from None
    return max(1, workers)


def content_hash(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()
