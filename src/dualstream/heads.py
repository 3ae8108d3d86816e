"""Task heads: box decoding, Hungarian set matching, detection and
segmentation losses, and greedy tracking-by-detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

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
from .geom3d import BoundingBox3D, Pose, transform_box


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
    unmatched_preds: list[int]
    unmatched_gts: list[int]


def hungarian_match(cost_matrix: np.ndarray) -> Assignment:
    """Minimum-cost assignment on an (n_pred, n_gt) cost matrix."""
    cost = np.asarray(cost_matrix, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2D")
    if np.isnan(cost).any():
        raise ValueError("NaN in matching costs")
    if cost.size == 0:
        return Assignment([], list(range(cost.shape[0])), list(range(cost.shape[1])))
    rows, cols = linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    matched_p = {p for p, _ in pairs}
    matched_g = {g for _, g in pairs}
    return Assignment(
        pairs=pairs,
        unmatched_preds=[i for i in range(cost.shape[0]) if i not in matched_p],
        unmatched_gts=[j for j in range(cost.shape[1]) if j not in matched_g],
    )


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


@dataclass
class LossWeights:
    cls: float = 1.0
    center: float = 5.0
    box: float = 1.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    velocity_norm: float = 10.0


def _normalized_gt(box: BoundingBox3D, ranges: np.ndarray, weights: LossWeights,
                   size_prior: np.ndarray) -> np.ndarray:
    lo, hi = np.asarray(ranges[0]), np.asarray(ranges[1])
    center = (box.center - lo) / (hi - lo)
    log_size = np.log(box.size / size_prior)
    sc = np.array([math.sin(box.yaw), math.cos(box.yaw)])
    vel = box.velocity / weights.velocity_norm
    return np.concatenate([center, log_size, sc, vel])


def _normalized_pred(out: HeadOutputs, ranges: np.ndarray, weights: LossWeights) -> Tensor:
    """(n, 10) box parameters in the units of ``_normalized_gt``."""
    lo, hi = np.asarray(ranges[0]), np.asarray(ranges[1])
    center = div(sub(out.center, lo), hi - lo)
    return concat([center, out.log_size, out.sincos,
                   mul(out.velocity, 1.0 / weights.velocity_norm)], axis=1)


def detection_cost_matrix(
    out: HeadOutputs,
    gt_boxes: Sequence[BoundingBox3D],
    ranges: np.ndarray,
    weights: LossWeights,
    size_prior: np.ndarray,
) -> np.ndarray:
    """Matching cost with the same terms as the loss: negative class
    probability plus weighted L1 on the normalized box parameters. Nothing
    is recorded on the tape."""
    n, m = len(out), len(gt_boxes)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    with no_grad():
        pred = _normalized_pred(out, ranges, weights).data
    probs = 1.0 / (1.0 + np.exp(-out.class_logits.data))
    gt = np.stack([_normalized_gt(b, ranges, weights, size_prior) for b in gt_boxes])
    l1 = np.abs(pred[:, None, :] - gt[None, :, :])
    cls_term = -probs[:, [b.label for b in gt_boxes]]
    return (weights.cls * cls_term + weights.center * l1[:, :, :3].sum(axis=2)
            + weights.box * l1[:, :, 3:].sum(axis=2))


def detection_loss(
    out: HeadOutputs,
    gt_boxes: Sequence[BoundingBox3D],
    assignment: Assignment,
    ranges: np.ndarray,
    weights: LossWeights,
    size_prior: np.ndarray,
    n_classes: int,
) -> Tensor:
    """Focal classification over all queries (unmatched -> background) plus
    L1 on the matched normalized box parameters."""
    if not len(out):
        raise ValueError("detection_loss needs at least one detection")
    logits = out.class_logits
    targets = np.zeros((len(out), n_classes))
    for p, g in assignment.pairs:
        targets[p, gt_boxes[g].label] = 1.0

    p = sigmoid(logits)
    a, gamma = weights.focal_alpha, weights.focal_gamma
    # log p = -softplus(-x), log(1-p) = -softplus(x): stable in both tails
    pos = mul(mul(power(1.0 - p, gamma), softplus(scale(logits, -1.0))), a)
    neg = mul(mul(power(p, gamma), softplus(logits)), 1.0 - a)
    focal = add(mul(pos, targets), mul(neg, 1.0 - targets))
    denom = max(len(assignment.pairs), 1)
    loss = mul(sum_(focal), weights.cls / denom)

    if assignment.pairs:
        pred = take_rows(_normalized_pred(out, ranges, weights), [pi for pi, _ in assignment.pairs])
        gt = np.stack([_normalized_gt(gt_boxes[gi], ranges, weights, size_prior)
                       for _, gi in assignment.pairs])
        l1 = absolute(sub(pred, gt.astype(pred.dtype)))
        center_l1 = sum_(getitem(l1, (slice(None), slice(0, 3))))
        box_l1 = sum_(getitem(l1, (slice(None), slice(3, None))))
        loss = add(loss, mul(center_l1, weights.center / denom))
        loss = add(loss, mul(box_l1, weights.box / denom))
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


@dataclass
class Track:
    track_id: int
    center: np.ndarray            # world frame
    velocity: np.ndarray          # world frame
    label: int
    score: float
    frames_since_update: int = 0


def greedy_track(
    detections: Sequence[BoundingBox3D],
    prior_ids: Sequence[Optional[int]],
    tracks: list[Track],
    dt: float,
    next_id: int,
    max_dist: float = 2.0,
    score_thresh: float = 0.3,
    max_age: int = 3,
) -> tuple[list[tuple[int, int]], list[Track], int]:
    """Greedy center-distance association in a common frame.

    Detections and tracks must already live in the same frame. A detection
    carrying a prior identity claims that track first (within ``max_dist``);
    the rest match greedily by descending score to the nearest velocity-
    forward-predicted track. Unmatched detections above ``score_thresh``
    spawn strictly increasing ids; unmatched tracks persist ``max_age``
    frames. Returns (det_index, track_id) pairs, surviving tracks, next_id.
    """
    by_id = {t.track_id: t for t in tracks}
    tids = sorted(by_id)   # columns in id order, so distance ties go to the lower id
    col_of = {tid: c for c, tid in enumerate(tids)}
    predicted = [by_id[tid].center[:2] + by_id[tid].velocity[:2] * dt for tid in tids]
    dist = center_distances([d.center[:2] for d in detections], predicted)
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    free = np.ones(len(tids), dtype=bool)
    assigned: list[tuple[int, int]] = []

    # pass 1: carried identities act as matching priors
    for i in order:
        c = col_of.get(prior_ids[i])
        if c is not None and free[c] and dist[i, c] <= max_dist:
            free[c] = False
            assigned.append((i, tids[c]))
    matched_dets = {i for i, _ in assigned}

    # pass 2: greedy nearest-center for the rest
    pairs = greedy_match(dist, [i for i in order if i not in matched_dets], max_dist, free)
    assigned += [(i, tids[c]) for i, c, _ in pairs]
    matched_dets.update(i for i, _, _ in pairs)

    # pass 3: spawn new tracks
    for i in order:
        if i in matched_dets or detections[i].score < score_thresh:
            continue
        assigned.append((i, next_id))
        next_id += 1

    new_tracks: list[Track] = []
    assigned_ids = {tid for _, tid in assigned}
    for i, tid in assigned:
        det = detections[i]
        new_tracks.append(Track(track_id=tid, center=det.center.copy(),
                                velocity=det.velocity.copy(), label=det.label,
                                score=det.score, frames_since_update=0))
    for t in tracks:
        if t.track_id in assigned_ids:
            continue
        if t.frames_since_update + 1 <= max_age:
            new_tracks.append(Track(track_id=t.track_id,
                                    center=t.center + np.append(t.velocity[:2] * dt, 0.0),
                                    velocity=t.velocity, label=t.label, score=t.score,
                                    frames_since_update=t.frames_since_update + 1))
    assigned.sort()
    return assigned, new_tracks, next_id


class TrackerState:
    """Tracking-by-detection across a scene, associating in the world frame."""

    def __init__(self, max_dist: float = 2.0, score_thresh: float = 0.3, max_age: int = 3):
        self.max_dist = max_dist
        self.score_thresh = score_thresh
        self.max_age = max_age
        self.tracks: list[Track] = []
        self.next_id = 0

    def step(
        self,
        detections: Sequence[BoundingBox3D],
        prior_ids: Sequence[Optional[int]],
        ego_pose: Pose,
        dt: float,
    ) -> list[tuple[int, int]]:
        """Associate ego-frame detections; returns (det_index, track_id)."""
        world = [transform_box(ego_pose, d) for d in detections]
        assigned, self.tracks, self.next_id = greedy_track(
            world, prior_ids, self.tracks, dt, self.next_id,
            max_dist=self.max_dist, score_thresh=self.score_thresh, max_age=self.max_age,
        )
        return assigned
