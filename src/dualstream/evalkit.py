"""Detection and tracking metrics, the velocity slice and the report that
carries them (the runner pools segmentation IoU itself).

Conventions (echoed into every report):
  * every metric matches with ``heads.greedy_match`` on 2D center distance,
    once per frame: predictions in descending score order (equal scores in
    index order) each take the nearest unmatched ground truth within the
    threshold, ties to the lower ground-truth index. A score cut keeps a
    prefix of that order, so the pairs at any cut are the first pairs of
    the uncut match;
  * AP integrates the right-envelope precision over recall in [0.1, 1],
    normalized by 0.9;
  * TP errors are computed at the third distance threshold (the scaled 2 m);
  * the composite detection score weighs mAP by 5 and each TP term by 1
    with normalizers of 1.0 (raw errors clamped at 1); undefined TP terms
    drop out of both the numerator and the weight total;
  * AMOTA follows the recall-sweep convention over 10 evenly spaced recall
    targets; the headline IDS counts id changes of matched GT tracks on the
    raw tracker output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geom3d import BoundingBox3D, wrap_angle
from .heads import center_distances, greedy_match

BASE_AP_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
TP_THRESHOLD_INDEX = 2  # the scaled 2 m entry
NDS_MAP_WEIGHT = 5.0
NDS_NORMALIZERS = {"mATE": 1.0, "mAOE": 1.0, "mAVE": 1.0}
RECALL_POINTS = tuple(np.round(np.linspace(0.1, 1.0, 10), 10))


@dataclass
class FrameRecord:
    """Per-frame evaluation payload, everything in the current ego frame."""

    pred_boxes: list[BoundingBox3D]
    track_ids: list[Optional[int]]      # per prediction; None = not tracked
    gt_boxes: list[BoundingBox3D]
    gt_ids: list[int]
    ego_velocity: np.ndarray


@dataclass
class SceneRecord:
    frames: list[FrameRecord]


def _match_frame(preds: Sequence[BoundingBox3D], gts: Sequence[BoundingBox3D], threshold: float):
    """One frame's greedy match: (pred index, gt index, distance) triples in
    the order made, that is by descending prediction score."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    dist = center_distances([p.center[:2] for p in preds], [g.center[:2] for g in gts])
    return greedy_match(dist, order, threshold)


@dataclass
class ClassDetectionResult:
    ap: float
    n_gt: int
    matches: list[tuple[BoundingBox3D, BoundingBox3D, float]]  # (pred, gt, distance)


def detection_ap(scenes: Sequence[SceneRecord], label: int, dist_threshold: float) -> ClassDetectionResult:
    """Average precision for one class at one center-distance threshold.

    Predictions are pooled over all frames and swept by descending score;
    matching is greedy within each frame, one GT per prediction. AP is the
    area under the right-envelope precision over recall in [0.1, 1],
    normalized by 0.9.
    """
    entries = []  # (score, frame key, pred index, pred, (gt, distance) or None)
    n_gt = 0
    for s_idx, scene in enumerate(scenes):
        for f_idx, fr in enumerate(scene.frames):
            preds = [(i, p) for i, p in enumerate(fr.pred_boxes) if p.label == label]
            gts = [g for g in fr.gt_boxes if g.label == label]
            n_gt += len(gts)
            pairs = _match_frame([p for _, p in preds], gts, dist_threshold)
            hit = {r: (gts[j], d) for r, j, d in pairs}
            entries += [(p.score, (s_idx, f_idx), i, p, hit.get(r)) for r, (i, p) in enumerate(preds)]
    result = ClassDetectionResult(ap=0.0, n_gt=n_gt, matches=[])
    if n_gt == 0:
        return result
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    result.matches = [(p, *m) for *_, p, m in entries if m is not None]
    tp = np.cumsum([m is not None for *_, m in entries], dtype=np.int64)
    result.ap = _envelope_ap(tp / n_gt, tp / np.arange(1, len(entries) + 1))
    return result


def _envelope_ap(recalls: np.ndarray, precisions: np.ndarray, min_recall: float = 0.1) -> float:
    """Exact area under the max-to-the-right precision envelope."""
    if recalls.size == 0:
        return 0.0
    env = np.maximum.accumulate(precisions[::-1])[::-1]
    area = 0.0
    prev_r = 0.0
    for r, p in zip(recalls, env):
        lo = max(prev_r, min_recall)
        if r > lo:
            area += (r - lo) * p
        prev_r = max(prev_r, r)
    return area / (1.0 - min_recall)


def tp_errors(matches: Sequence[tuple[BoundingBox3D, BoundingBox3D, float]]):
    """mATE, mAOE and mAVE over matched (pred, gt, distance) triples, None
    each when no matches, keyed by their ``SliceMetrics`` field names."""
    if not matches:
        return {"mATE": None, "mAOE": None, "mAVE": None}
    ate = float(np.mean([d for _, _, d in matches]))
    aoe = float(np.mean([abs(wrap_angle(p.yaw - g.yaw)) for p, g, _ in matches]))
    ave = float(np.mean([np.linalg.norm(p.velocity - g.velocity) for p, g, _ in matches]))
    return {"mATE": ate, "mAOE": aoe, "mAVE": ave}


def nds(mean_ap: float, errors: dict) -> float:
    """Composite detection score; undefined error terms are excluded from
    the numerator and the weight total."""
    num = NDS_MAP_WEIGHT * mean_ap
    weight = NDS_MAP_WEIGHT
    for name, norm in NDS_NORMALIZERS.items():
        err = errors.get(name)
        if err is None:
            continue
        num += 1.0 - min(1.0, err / norm)
        weight += 1.0
    return num / weight


# ---------------------------------------------------------------------------
# tracking

def _match_tracked(fr: FrameRecord, threshold: float):
    """Match one frame's tracked predictions with no score cut. Returns their
    scores, the frame's GT count and the (score, track id, gt id, distance)
    of each pair in the order made, so the pairs at a cut are a prefix."""
    tracked = [(p, tid) for p, tid in zip(fr.pred_boxes, fr.track_ids) if tid is not None]
    pairs = _match_frame([p for p, _ in tracked], fr.gt_boxes, threshold)
    return ([p.score for p, _ in tracked], len(fr.gt_boxes),
            [(tracked[i][0].score, tracked[i][1], fr.gt_ids[j], d) for i, j, d in pairs])


def _tracking_counts(matched: Sequence[Sequence[tuple]], min_score: float):
    """(TP, FP, IDS, mean matched distance) at one score cut, read from the
    per-scene lists of ``_match_tracked`` results."""
    tp = fp = ids = 0
    dists = []
    for frames in matched:
        last_match: dict[int, int] = {}  # gt id -> last matched track id
        for scores, n_gt, pairs in frames:
            kept = sum(s >= min_score for s in scores)
            made = pairs[:sum(p[0] >= min_score for p in pairs)]
            tp += len(made)
            fp += kept - len(made)
            for _, tid, gid, d in made:
                dists.append(d)
                if gid in last_match and last_match[gid] != tid:
                    ids += 1
                last_match[gid] = tid
    motp = float(np.mean(dists)) if dists else None
    return tp, fp, ids, motp


def amota(scenes: Sequence[SceneRecord], threshold: float):
    """Recall-swept tracking metrics.

    Returns AMOTA, AMOTP, recall (max achieved) and IDS (headline, at no
    score cut), keyed by their ``SliceMetrics`` field names. Each frame is
    matched once; every cut reads a prefix.
    At each recall target the first cut reaching it scores the nuScenes
    devkit's MOTAR at its achieved recall, ``max(0, 1 - (IDS + FP) / TP)``.
    """
    n_gt = sum(len(fr.gt_boxes) for s in scenes for fr in s.frames)
    scores = sorted(
        {p.score for s in scenes for fr in s.frames
         for p, tid in zip(fr.pred_boxes, fr.track_ids) if tid is not None},
        reverse=True,
    )
    matched = [[_match_tracked(fr, threshold) for fr in s.frames] for s in scenes]
    ids_headline = _tracking_counts(matched, min_score=0.0)[2]
    if n_gt == 0 or not scores:
        return {"AMOTA": 0.0, "AMOTP": None, "recall": 0.0, "IDS": ids_headline}

    # recall achieved at candidate score thresholds (descending); large score
    # lists are subsampled evenly to bound the sweep cost
    if len(scores) > 64:
        idx = np.unique(np.linspace(0, len(scores) - 1, 64).astype(np.int64))
        scores = [scores[i] for i in idx]
    curve = []
    for s in scores:
        tp, fp, ids_r, motp = _tracking_counts(matched, min_score=s)
        curve.append((tp / n_gt, tp, fp, ids_r, motp))
    max_recall = max(c[0] for c in curve)

    motar_terms, motp_terms = [], []
    for r in RECALL_POINTS:
        hit = next((c for c in curve if c[0] >= r), None)
        if hit is None:
            motar_terms.append(0.0)
            continue
        _, tp, fp, ids_r, motp = hit
        motar_terms.append(max(0.0, 1.0 - (ids_r + fp) / tp))
        if motp is not None:
            motp_terms.append(motp)
    return {
        "AMOTA": float(np.mean(motar_terms)),
        "AMOTP": float(np.mean(motp_terms)) if motp_terms else None,
        "recall": float(max_recall),
        "IDS": int(ids_headline),
    }


# ---------------------------------------------------------------------------
# slicing and the full report

def _speed(box: BoundingBox3D) -> float:
    return float(np.linalg.norm(box.velocity))


def _in_velocity_slice(box: BoundingBox3D, ego_velocity: np.ndarray, v_min: float) -> bool:
    return _speed(box) > v_min and float(np.linalg.norm(box.velocity - ego_velocity)) > v_min


def velocity_slice_records(scenes: Sequence[SceneRecord], v_min: float,
                           match_threshold: float) -> list[SceneRecord]:
    """Restrict GT to agents whose absolute and ego-relative speed both
    exceed ``v_min``; predictions whose best full-set match is an
    out-of-slice GT are dropped."""
    out = []
    for scene in scenes:
        frames = []
        for fr in scene.frames:
            keep_gt = [_in_velocity_slice(g, fr.ego_velocity, v_min) for g in fr.gt_boxes]
            pairs = _match_frame(fr.pred_boxes, fr.gt_boxes, match_threshold)
            drop_pred = {i for i, j, _ in pairs if not keep_gt[j]}
            keep_idx = [i for i in range(len(fr.pred_boxes)) if i not in drop_pred]
            frames.append(FrameRecord(
                pred_boxes=[fr.pred_boxes[i] for i in keep_idx],
                track_ids=[fr.track_ids[i] for i in keep_idx],
                gt_boxes=[g for g, k in zip(fr.gt_boxes, keep_gt) if k],
                gt_ids=[i for i, k in zip(fr.gt_ids, keep_gt) if k],
                ego_velocity=fr.ego_velocity,
            ))
        out.append(SceneRecord(frames=frames))
    return out


@dataclass
class SliceMetrics:
    mAP: float
    per_class_ap: dict
    mATE: Optional[float]
    mAOE: Optional[float]
    mAVE: Optional[float]
    NDS: float
    AMOTA: float
    AMOTP: Optional[float]
    recall: float
    IDS: int
    empty: bool = False


def evaluate_detection_slice(scenes: Sequence[SceneRecord], labels: Sequence[int],
                             thresholds: Sequence[float]) -> SliceMetrics:
    n_gt_total = sum(len(fr.gt_boxes) for s in scenes for fr in s.frames)
    per_class = {}
    aps = []
    matches_tp = []
    for label in labels:
        per_thr = {}
        for k, thr in enumerate(thresholds):
            res = detection_ap(scenes, label, thr)
            if res.n_gt > 0:
                per_thr[f"{thr:.5g}"] = res.ap
                aps.append(res.ap)
                if k == TP_THRESHOLD_INDEX:
                    matches_tp.extend(res.matches)
        if per_thr:
            per_class[str(label)] = per_thr
    mean_ap = float(np.mean(aps)) if aps else 0.0
    errs = tp_errors(matches_tp)
    return SliceMetrics(mAP=mean_ap, per_class_ap=per_class, **errs, NDS=nds(mean_ap, errs),
                        **amota(scenes, thresholds[TP_THRESHOLD_INDEX]), empty=(n_gt_total == 0))


@dataclass
class EvalReport:
    run_id: str
    code_version: str
    config: dict
    conventions: dict
    slices: dict[str, SliceMetrics]
    seg: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1) + "\n"

    def to_csv(self) -> str:
        lines = ["slice,metric,value"]
        for name, m in sorted(self.slices.items()):
            for key, val in sorted(asdict(m).items()):
                if key == "per_class_ap":
                    for cls, thr_map in sorted(val.items()):
                        for thr, ap in sorted(thr_map.items()):
                            lines.append(f"{name},ap_class{cls}_thr{thr},{ap!r}")
                elif not isinstance(val, dict):
                    lines.append(f"{name},{key},{'' if val is None else repr(val)}")
        for key, val in sorted(self.seg.items()):
            lines.append(f"all,seg_{key},{val!r}")
        return "\n".join(lines) + "\n"
