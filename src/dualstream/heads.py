"""Task heads: box decoding, Hungarian set matching, detection and
segmentation losses, and greedy tracking-by-detection.

The tracker associates in the world frame in the style of AB3DMOT (Weng et
al., arXiv:1907.03961), by center distance and without a motion filter. It
keeps its live tracks as arrays sorted by id (``TrackerState``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .configio import Config
from .diffcore import ShapeError, Tensor, gelu, matmul, no_grad, sigmoid, softplus
from .diffcore.tensor import (
    absolute,
    add,
    concat,
    div,
    getitem,
    mean,
    mul,
    power,
    scale,
    sub,
    sum_,
    take_rows,
    tanh,
)
from .dynstream import QuerySet
from .geom3d import BoundingBox3D, Pose, rot2


@dataclass
class DecodeParams:
    """Shared hidden layer plus per-target linear heads.

    The yaw head emits (sin, cos); its cos bias starts at 1 so a zero head
    decodes to yaw 0.
    """

    w_hidden: Tensor
    b_hidden: Tensor
    w_center: Tensor   # (hidden, 3) tanh-bounded residual
    b_center: Tensor
    w_size: Tensor     # (hidden, 3) log-scale on the size prior
    b_size: Tensor
    w_yaw: Tensor      # (hidden, 2) sin / cos
    b_yaw: Tensor
    w_vel: Tensor      # (hidden, 2)
    b_vel: Tensor
    w_cls: Tensor      # (hidden, n_classes)
    b_cls: Tensor
    size_prior: np.ndarray = field(default_factory=lambda: np.array([1.5, 2.5, 1.5]))
    offset_scale: np.ndarray = field(default_factory=lambda: np.array([4.0, 4.0, 1.0]))


@dataclass
class HeadOutputs:
    """Batched decode outputs, one row per query: the tensors the loss
    differentiates through and the detection scores."""

    class_logits: Tensor   # (n, n_classes)
    center: Tensor         # (n, 3)
    log_size: Tensor       # (n, 3)
    sincos: Tensor         # (n, 2)
    velocity: Tensor       # (n, 2)
    scores: np.ndarray     # (n,) float64 sigmoid of the max class logit

    def __len__(self) -> int:
        return self.class_logits.data.shape[0]


@dataclass
class Detection:
    """One decoded box and the track identity its query carried in."""

    box: BoundingBox3D
    prior_identity: Optional[int] = None


def decode_boxes(queries: QuerySet, latents: Tensor, params: DecodeParams) -> tuple[HeadOutputs, list[Detection]]:
    """Decode every query latent into a box: center = anchor + bounded
    offset, sizes = exp(logits) * class-free prior, yaw = atan2(sin, cos).
    Returns the batched head outputs and one detection per query."""
    hidden = gelu(matmul(latents, params.w_hidden, params.b_hidden))
    center = add(queries.anchors, mul(tanh(matmul(hidden, params.w_center, params.b_center)),
                                      params.offset_scale))
    log_size = matmul(hidden, params.w_size, params.b_size)
    sincos = matmul(hidden, params.w_yaw, params.b_yaw)
    vel = matmul(hidden, params.w_vel, params.b_vel)
    logits = matmul(hidden, params.w_cls, params.b_cls)
    # scores and boxes leave the model in float64, the dtype of the geometry,
    # tracker and metrics that consume them
    scores = 1.0 / (1.0 + np.exp(-logits.data.max(axis=1).astype(np.float64)))
    out = HeadOutputs(class_logits=logits, center=center, log_size=log_size, sincos=sincos,
                      velocity=vel, scores=scores)

    centers = center.data.astype(np.float64)
    sizes = np.exp(log_size.data) * params.size_prior
    yaws = np.arctan2(sincos.data[:, 0], sincos.data[:, 1]).tolist()
    vels = vel.data.astype(np.float64)
    labels = logits.data.argmax(axis=1).tolist()
    detections = [
        Detection(box=BoundingBox3D(center=centers[i], size=sizes[i], yaw=yaws[i], velocity=vels[i],
                                    label=labels[i], score=float(scores[i])),
                  prior_identity=None if queries.ids[i] < 0 else int(queries.ids[i]))
        for i in range(len(out))
    ]
    return out, detections


@dataclass
class Assignment:
    """Bipartite matching result: (prediction, ground-truth) index pairs."""

    pairs: list[tuple[int, int]]


def hungarian_match(cost_matrix: np.ndarray) -> Assignment:
    """Minimum-cost assignment on an (n_pred, n_gt) cost matrix."""
    cost = np.asarray(cost_matrix, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2D")
    if np.isnan(cost).any():
        raise ValueError("NaN in matching costs")
    if cost.size == 0:
        return Assignment([])
    rows, cols = linear_sum_assignment(cost)
    return Assignment(sorted(zip(rows.tolist(), cols.tolist())))


def center_distances(a, b) -> np.ndarray:
    """(n, m) ground-plane distances between the xy rows of ``a`` (n, 2) and
    ``b`` (m, 2). Each entry reduces through the same BLAS dot as
    ``np.linalg.norm`` of its one difference vector, so both give equal floats."""
    d = np.reshape(a, (-1, 1, 2)) - np.reshape(b, (1, -1, 2))
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def greedy_match(dist: np.ndarray, order: Sequence[int], max_dist: float,
                 free: Optional[np.ndarray] = None) -> list[tuple[int, int, float]]:
    """Greedy assignment on an (n_rows, n_cols) distance matrix.

    Rows are visited in ``order``; each takes the nearest still-free column
    within ``max_dist``, ties to the lower column index. ``free`` marks the
    columns open at the start (default all). Returns the (row, col,
    distance) triples in the order they were made.
    """
    free = np.ones(dist.shape[1], dtype=bool) if free is None else free.copy()
    pairs = []
    for i in order:
        row = dist[i]
        cand = np.flatnonzero(free & (row <= max_dist))
        if cand.size:
            j = int(cand[np.argmin(row[cand])])
            free[j] = False
            pairs.append((int(i), j, float(row[j])))
    return pairs


def _normalized_gt(box: BoundingBox3D, ranges: np.ndarray, cfg: Config, size_prior: np.ndarray) -> np.ndarray:
    lo, hi = np.asarray(ranges[0]), np.asarray(ranges[1])
    center = (box.center - lo) / (hi - lo)
    log_size = np.log(box.size / size_prior)
    sc = np.array([math.sin(box.yaw), math.cos(box.yaw)])
    vel = box.velocity / cfg.velocity_norm
    return np.concatenate([center, log_size, sc, vel])


def _normalized_pred(out: HeadOutputs, ranges: np.ndarray, cfg: Config) -> Tensor:
    """(n, 10) box parameters in the units of ``_normalized_gt``."""
    lo, hi = np.asarray(ranges[0]), np.asarray(ranges[1])
    center = div(sub(out.center, lo), hi - lo)
    return concat([center, out.log_size, out.sincos,
                   mul(out.velocity, 1.0 / cfg.velocity_norm)], axis=1)


def detection_cost_matrix(
    out: HeadOutputs,
    gt_boxes: Sequence[BoundingBox3D],
    ranges: np.ndarray,
    cfg: Config,
    size_prior: np.ndarray,
) -> np.ndarray:
    """Matching cost with the same terms as the loss: negative class
    probability plus L1 on the normalized box parameters, weighted by
    ``cfg``'s ``loss_weight_*``. Nothing is recorded on the tape."""
    n, m = len(out), len(gt_boxes)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    with no_grad():
        pred = _normalized_pred(out, ranges, cfg).data
    probs = 1.0 / (1.0 + np.exp(-out.class_logits.data))
    gt = np.stack([_normalized_gt(b, ranges, cfg, size_prior) for b in gt_boxes])
    l1 = np.abs(pred[:, None, :] - gt[None, :, :])
    cls_term = -probs[:, [b.label for b in gt_boxes]]
    return (cfg.loss_weight_cls * cls_term + cfg.loss_weight_center * l1[:, :, :3].sum(axis=2)
            + cfg.loss_weight_box * l1[:, :, 3:].sum(axis=2))


def detection_loss(
    out: HeadOutputs,
    gt_boxes: Sequence[BoundingBox3D],
    assignment: Assignment,
    ranges: np.ndarray,
    cfg: Config,
    size_prior: np.ndarray,
    n_classes: int,
) -> Tensor:
    """Focal classification over all queries (unmatched -> background) plus
    L1 on the matched normalized box parameters, with ``cfg``'s loss weights
    and focal settings."""
    if not len(out):
        raise ValueError("detection_loss needs at least one detection")
    logits = out.class_logits
    targets = np.zeros((len(out), n_classes))
    for p, g in assignment.pairs:
        targets[p, gt_boxes[g].label] = 1.0

    p = sigmoid(logits)
    a, gamma = cfg.focal_alpha, cfg.focal_gamma
    # log p = -softplus(-x), log(1-p) = -softplus(x): stable in both tails
    pos = mul(mul(power(1.0 - p, gamma), softplus(scale(logits, -1.0))), a)
    neg = mul(mul(power(p, gamma), softplus(logits)), 1.0 - a)
    focal = add(mul(pos, targets), mul(neg, 1.0 - targets))
    denom = max(len(assignment.pairs), 1)
    loss = mul(sum_(focal), cfg.loss_weight_cls / denom)

    if assignment.pairs:
        pred = take_rows(_normalized_pred(out, ranges, cfg), [pi for pi, _ in assignment.pairs])
        gt = np.stack([_normalized_gt(gt_boxes[gi], ranges, cfg, size_prior)
                       for _, gi in assignment.pairs])
        l1 = absolute(sub(pred, gt.astype(pred.dtype)))
        center_l1 = sum_(getitem(l1, (slice(None), slice(0, 3))))
        box_l1 = sum_(getitem(l1, (slice(None), slice(3, None))))
        loss = add(loss, mul(center_l1, cfg.loss_weight_center / denom))
        loss = add(loss, mul(box_l1, cfg.loss_weight_box / denom))
    return loss


def segmentation_loss(logits: Tensor, gt_masks: np.ndarray, eps: float = 1e-6) -> Tensor:
    """Mean over classes of binary cross-entropy plus (1 - Dice)."""
    if logits.data.shape != gt_masks.shape:
        raise ShapeError(f"logit shape {logits.data.shape} != mask shape {gt_masks.shape}")
    y = gt_masks.astype(logits.dtype)
    bce = mean(sub(softplus(logits), mul(logits, y)))
    p = sigmoid(logits)
    inter = sum_(mul(p, y), axis=(1, 2))
    denom = add(sum_(p, axis=(1, 2)), y.sum(axis=(1, 2)) + eps)
    dice = div(add(mul(inter, 2.0), eps), denom)
    return add(bce, 1.0 - mean(dice))


class TrackerState:
    """Greedy tracking-by-detection across one scene, in the world frame.

    The live tracks are four arrays whose rows are in increasing id order:
    ``ids`` (k,); world-frame ground-plane ``centers`` and ``velocities``
    (k, 2); and ``ages`` (k,), the frames since each track was last matched.
    """

    def __init__(self, max_dist: float, score_thresh: float, max_age: int):
        self.max_dist = max_dist
        self.score_thresh = score_thresh
        self.max_age = max_age
        self.ids = np.zeros(0, dtype=np.int64)
        self.centers = np.zeros((0, 2))
        self.velocities = np.zeros((0, 2))
        self.ages = np.zeros(0, dtype=np.int64)
        self.next_id = 0

    def step(
        self,
        detections: Sequence[BoundingBox3D],
        prior_ids: Sequence[Optional[int]],
        ego_pose: Pose,
        dt: float,
    ) -> list[tuple[int, int]]:
        """Associate ego-frame detections; returns the (det_index, track_id)
        pairs sorted by detection.

        Mapped into the world frame, detections are visited by descending
        score (ties to the lower index) against each track's prediction
        ``center + velocity * dt``. First a detection carrying a live track's
        id claims it within ``max_dist``. Then ``greedy_match`` gives each of
        the rest the nearest free track within ``max_dist``, distance ties to
        the lower id, as the tracks are in id order. Last, each detection still
        unmatched that scores at least ``score_thresh`` starts a track under
        the next id. A matched track takes its detection's center and
        velocity; an unmatched one moves to its prediction and ages, and is
        dropped once its age exceeds ``max_age``.
        """
        n = len(detections)
        rot = rot2(ego_pose.rotation)
        # stacked matrix-vector products, bitwise equal to transform_box's
        ego_xy = np.array([d.center[:2] for d in detections]).reshape(n, 2, 1)
        ego_vel = np.array([d.velocity for d in detections]).reshape(n, 2, 1)
        world_xy = (rot @ ego_xy)[..., 0] + ego_pose.translation
        world_vel = (rot @ ego_vel)[..., 0]
        scores = np.array([d.score for d in detections])
        predicted = self.centers + self.velocities * dt
        dist = center_distances(world_xy, predicted)
        order = np.argsort(-scores, kind="stable")
        col_of = {tid: c for c, tid in enumerate(self.ids.tolist())}
        col = np.full(n, -1)   # each detection's matched track, as a column of dist
        free = np.ones(len(self.ids), dtype=bool)
        for i in order.tolist():
            c = col_of.get(prior_ids[i])
            if c is not None and free[c] and dist[i, c] <= self.max_dist:
                free[c] = False
                col[i] = c
        for i, c, _ in greedy_match(dist, order[col[order] < 0], self.max_dist, free):
            col[i] = c
        spawn = order[(col[order] < 0) & (scores[order] >= self.score_thresh)]
        spawn_ids = self.next_id + np.arange(len(spawn))
        self.next_id += len(spawn)

        matched = np.flatnonzero(col >= 0)
        hit = col[matched]
        pairs = sorted(zip(np.concatenate([matched, spawn]).tolist(),
                           np.concatenate([self.ids[hit], spawn_ids]).tolist()))
        centers, velocities, ages = predicted, self.velocities.copy(), self.ages + 1
        centers[hit], velocities[hit], ages[hit] = world_xy[matched], world_vel[matched], 0
        keep = ages <= self.max_age
        self.ids = np.concatenate([self.ids[keep], spawn_ids])
        self.centers = np.concatenate([centers[keep], world_xy[spawn]])
        self.velocities = np.concatenate([velocities[keep], world_vel[spawn]])
        self.ages = np.concatenate([ages[keep], np.zeros(len(spawn), dtype=np.int64)])
        return pairs
