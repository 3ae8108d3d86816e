"""Streaming inference: model + tracker over a dataset, producing the
records the metrics consume plus pooled segmentation counts."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .configio import Config, config_to_dict
from .diffcore import NumericError, Tensor, no_grad
from .evalkit import (
    BASE_AP_THRESHOLDS,
    EvalReport,
    FrameRecord,
    NDS_MAP_WEIGHT,
    NDS_NORMALIZERS,
    RECALL_POINTS,
    SceneRecord,
    evaluate_detection_slice,
    velocity_slice_records,
)
from .heads import TrackerState
from .model import DualStreamModel, StepResult
from .synthworld.dataset import SEG_CLASSES, Dataset
from .synthworld.scene import CLASS_NAMES, alternating_schedule


@dataclass
class InferenceOutput:
    records: list[SceneRecord]
    seg_intersection: np.ndarray   # (len(SEG_CLASSES),) pooled over frames
    seg_union: np.ndarray


def run_inference(
    dataset: Dataset,
    model: DualStreamModel,
    cfg: Config,
    schedule_override: Optional[str] = None,
) -> InferenceOutput:
    """Stream every scene with carried belief state and greedy tracking.

    ``schedule_override="alternating"`` masks cameras at load time (front
    three on even frames, back three on odd), regardless of the stored
    schedule.

    A frame whose forward pass reaches a non-finite query anchor or score,
    or whose seg logits or head outputs hold a non-finite value, raises
    ``NumericError`` naming the scene, the frame and the first such output.
    """
    records = []
    inter = np.zeros(len(SEG_CLASSES), dtype=np.int64)
    union = np.zeros(len(SEG_CLASSES), dtype=np.int64)
    with no_grad():
        for meta in dataset.scenes:
            sid = meta["id"]
            n_frames = meta["n_frames"]
            override = alternating_schedule(n_frames) if schedule_override == "alternating" else None
            state = model.initial_state()
            tracker = TrackerState(max_dist=cfg.track_max_dist,
                                   score_thresh=cfg.track_score_thresh,
                                   max_age=cfg.track_max_age)
            frames = []
            for t in range(n_frames):
                frame = dataset.load_frame(sid, t)
                if override is not None:
                    frame.images = {name: (img if override[t].get(name, False) else None)
                                    for name, img in frame.images.items()}
                    frame.availability = dict(override[t])
                try:
                    res = model.forward_frame(frame, dataset.cameras, state, dataset.dt)
                except NumericError as e:
                    raise NumericError(f"scene {sid} frame {t}: {e}") from None
                bad = _first_non_finite(res)
                if bad is not None:
                    raise NumericError(f"scene {sid} frame {t}: non-finite {bad}")
                state = res.state

                boxes = [d.box for d in res.detections]
                prior_ids = [d.prior_identity for d in res.detections]
                assigned = tracker.step(boxes, prior_ids, frame.ego_pose, dataset.dt)
                track_id_of_det = np.full(len(boxes), -1, dtype=np.int64)
                for det_idx, tid in assigned:
                    track_id_of_det[det_idx] = tid
                # memory slots inherit the track id given to their source detection
                carried = track_id_of_det[res.memory_source_indices]
                state.memory.ids = np.where(carried >= 0, carried, state.memory.ids)

                pred = res.seg_logits.data >= 0.0
                gt = frame.gt_seg >= 0.5
                inter += np.logical_and(pred, gt).sum(axis=(1, 2))
                union += np.logical_or(pred, gt).sum(axis=(1, 2))
                frames.append(FrameRecord(
                    pred_boxes=boxes,
                    track_ids=[None if tid < 0 else tid for tid in track_id_of_det.tolist()],
                    gt_boxes=frame.gt_boxes,
                    gt_ids=frame.gt_ids,
                    ego_velocity=frame.ego_velocity,
                ))
            records.append(SceneRecord(frames=frames))
    return InferenceOutput(records=records, seg_intersection=inter, seg_union=union)


def _first_non_finite(res: StepResult) -> Optional[str]:
    """The name of the first of a frame's seg logits and head outputs that
    holds a non-finite value, or None. The memory anchors need no pass of
    their own: they are rows of the decoded query set, whose construction
    in the forward pass already refuses a non-finite anchor."""
    named = [("seg logits", res.seg_logits.data)]
    for f in fields(res.outputs):
        value = getattr(res.outputs, f.name)
        named.append((f"head output {f.name}", value.data if isinstance(value, Tensor) else value))
    return next((name for name, arr in named if not np.all(np.isfinite(arr))), None)


def assemble_report(
    out: InferenceOutput,
    cfg: Config,
    run_id: str,
    code_version: str,
    slices: tuple[str, ...] = ("all",),
) -> EvalReport:
    thresholds = [t * cfg.ap_threshold_scale for t in BASE_AP_THRESHOLDS]
    labels = tuple(CLASS_NAMES)
    slice_metrics = {"all": evaluate_detection_slice(out.records, labels, thresholds)}
    if "high-velocity" in slices:
        sliced = velocity_slice_records(out.records, cfg.highspeed_vmin, thresholds[2])
        slice_metrics["high_velocity"] = evaluate_detection_slice(sliced, labels, thresholds)

    seg = {}
    for c, name in enumerate(SEG_CLASSES):
        u = out.seg_union[c]
        seg[name] = 1.0 if u == 0 else float(out.seg_intersection[c] / u)
    seg["miou"] = float(np.mean([seg[n] for n in SEG_CLASSES]))

    conventions = {
        "ap_thresholds_m": thresholds,
        "tp_threshold_m": thresholds[2],
        "world_size_factor": cfg.ap_threshold_scale,
        "nds_map_weight": NDS_MAP_WEIGHT,
        "nds_normalizers": NDS_NORMALIZERS,
        "recall_points": list(RECALL_POINTS),
        "velocity_slice": "gt restricted to abs and ego-relative speed > v_min; "
                          "predictions matched to out-of-slice gt dropped",
        "highspeed_vmin": cfg.highspeed_vmin,
        "seg_iou": "pooled intersection/union over all frames",
    }
    return EvalReport(run_id=run_id, code_version=code_version,
                      config=config_to_dict(cfg), conventions=conventions,
                      slices=slice_metrics, seg=seg)
