import numpy as np
import pytest

from dualstream import evalkit, runner
from dualstream.configio import Config
from dualstream.evalkit import (
    ClassDetectionResult,
    FrameRecord,
    SceneRecord,
    amota,
    detection_ap,
    nds,
    velocity_slice_records,
)
from dualstream.geom3d import BoundingBox3D

SIZE = np.array([1.5, 2.5, 1.5])


def box(x, y, score=1.0, label=0, vel=(0.0, 0.0), yaw=0.0):
    return BoundingBox3D(center=np.array([x, y, 0.0]), size=SIZE, yaw=yaw,
                         velocity=np.array(vel, dtype=float), label=label, score=score)


def frame(preds, track_ids, gts, gt_ids, ego_velocity=(0.0, 0.0)):
    return FrameRecord(pred_boxes=preds, track_ids=track_ids, gt_boxes=gts, gt_ids=gt_ids,
                       ego_velocity=np.array(ego_velocity, dtype=float))


# ---------------------------------------------------------------------------
# oracles on hand-computed scenes

def test_envelope_ap_on_a_two_frame_scene():
    g0, g1, g2 = box(0, 0), box(10, 0), box(0, 0)
    p0, p1 = box(0.5, 0, score=0.9), box(20, 0, score=0.6)
    p2, p3 = box(0, 0.5, score=0.8), box(0, 0.25, score=0.7)   # p3 is nearer, but p2 comes first
    other = box(10, 0, score=0.95, label=1)                     # another class: ignored
    scene = SceneRecord(frames=[frame([p0, p1, other], [None] * 3, [g0, g1], [0, 1]),
                                frame([p2, p3], [None] * 2, [g2], [2])])
    res = detection_ap([scene], label=0, dist_threshold=1.0)
    # pooled by score: TP, TP, FP, FP over 3 GT -> recall 1/3, 2/3, 2/3, 2/3,
    # precision 1, 1, 2/3, 1/2; envelope area over recall in [0.1, 1] is
    # (1/3 - 0.1) * 1 + (2/3 - 1/3) * 1, normalized by 0.9
    assert res.n_gt == 3
    assert res.ap == pytest.approx((2 / 3 - 0.1) / 0.9, abs=1e-12)
    assert [(p, g, d) for p, g, d in res.matches] == [(p0, g0, 0.5), (p2, g2, 0.5)]


def test_ap_is_zero_without_ground_truth():
    scene = SceneRecord(frames=[frame([box(0, 0, score=0.5)], [None], [], [])])
    assert detection_ap([scene], 0, 1.0) == ClassDetectionResult(ap=0.0, n_gt=0, matches=[])


def test_nds_drops_an_undefined_tp_term():
    # 5 * 0.5 + (1 - 0.25) + (1 - min(1, 2)) over weights 5 + 1 + 1
    assert nds(0.5, {"mATE": 0.25, "mAOE": None, "mAVE": 2.0}) == pytest.approx(3.25 / 7, abs=1e-15)
    assert nds(0.5, {"mATE": None, "mAOE": None, "mAVE": None}) == 0.5


def _tracking_scene():
    """Three frames of static objects A, B, C (x = 0, 10, 20) and D (x = 30,
    last frame only): 10 GT. Each GT has one tracked prediction 0.5 m off,
    C's last one 1.5 m off and under a new track id (the one id switch).
    Scores fall in time order, so the k-th score cut keeps k true positives;
    a far false positive sits between the 4th and 5th, and an untracked
    prediction with the top score is ignored."""
    def preds(xs, scores, offsets):
        return [box(x, off, score=s) for x, s, off in zip(xs, scores, offsets)]
    f0 = frame(preds([0, 10, 20], [0.99, 0.98, 0.97], [0.5] * 3) + [box(0, 0, score=0.999)],
               [1, 2, 3, None], [box(0, 0), box(10, 0), box(20, 0)], [10, 11, 12])
    f1 = frame(preds([0, 10, 20], [0.96, 0.95, 0.94], [0.5] * 3) + [box(50, 50, score=0.955)],
               [1, 2, 3, 6], [box(0, 0), box(10, 0), box(20, 0)], [10, 11, 12])
    f2 = frame(preds([0, 10, 20, 30], [0.93, 0.92, 0.91, 0.90], [0.5, 0.5, 1.5, 0.5]),
               [1, 2, 4, 5], [box(0, 0), box(10, 0), box(20, 0), box(30, 0)], [10, 11, 12, 13])
    return SceneRecord(frames=[f0, f1, f2])


def test_amota_amotp_and_ids_with_one_id_switch():
    got = amota([_tracking_scene()], threshold=2.0)
    # recall target r = k/10 is met exactly at the cut keeping k true
    # positives, where MOTAR = 1 - (IDS + FP) / k: no FP below k = 5, the
    # switch from k = 9 on
    motar = [1.0] * 4 + [1 - 1 / 5, 1 - 1 / 6, 1 - 1 / 7, 1 - 1 / 8, 1 - 2 / 9, 1 - 2 / 10]
    # matched distance is 0.5 except C's 1.5 m pair, kept from k = 9 on
    motp = [0.5] * 8 + [5.5 / 9, 6.0 / 10]
    assert got["AMOTA"] == pytest.approx(np.mean(motar), abs=1e-12)
    assert got["AMOTP"] == pytest.approx(np.mean(motp), abs=1e-12)
    assert got["recall"] == 1.0
    assert got["IDS"] == 1


def test_perfect_track_scores_amota_one():
    # one object, one tracked prediction 0.5 m off per frame: every cut that
    # reaches a recall target has TP > 0 and no FP or IDS, so MOTAR is 1
    scene = SceneRecord(frames=[frame([box(5.0 * t, 0.5, score=0.9 - 0.1 * t)], [7], [box(5.0 * t, 0)], [3])
                                for t in range(3)])
    got = amota([scene], threshold=2.0)
    assert got["AMOTA"] == 1.0
    assert got["AMOTP"] == 0.5
    assert got["recall"] == 1.0
    assert got["IDS"] == 0


def test_velocity_slice_drop_rule():
    fast = box(0, 0, vel=(10.0, 0.0))        # |v| = 10, |v - ego| = 5: in the slice
    slow = box(10, 0, vel=(1.0, 0.0))        # |v| = 1: out
    with_ego = box(20, 0, vel=(5.5, 0.0))    # |v - ego| = 0.5: out
    p_fast, p_slow, p_ego = box(0, 0.5, score=0.9), box(10, 0.5, score=0.8), box(20, 0.5, score=0.7)
    p_far = box(40, 0, score=0.6)            # unmatched: kept
    p_second = box(0, -0.5, score=0.5)       # the fast GT is taken, so unmatched: kept
    fr = frame([p_fast, p_slow, p_ego, p_far, p_second], [1, 2, None, 4, 5],
               [fast, slow, with_ego], [7, 8, 9], ego_velocity=(5.0, 0.0))
    (scene,) = velocity_slice_records([SceneRecord(frames=[fr])], v_min=2.0, match_threshold=1.0)
    (out,) = scene.frames
    assert out.pred_boxes == [p_fast, p_far, p_second]
    assert out.track_ids == [1, 4, 5]
    assert out.gt_boxes == [fast]
    assert out.gt_ids == [7]
    assert out.ego_velocity is fr.ego_velocity


# ---------------------------------------------------------------------------
# one match per frame

@pytest.mark.parametrize("n_scores", [3, 200])
def test_amota_matches_each_frame_once(monkeypatch, n_scores):
    rng = np.random.default_rng(n_scores)
    frames = []
    for _ in range(4):
        n = n_scores // 4 + 1
        preds = [box(*rng.uniform(-5, 5, 2), score=float(rng.uniform())) for _ in range(n)]
        frames.append(frame(preds, list(range(n)), [box(0, 0), box(2, 0)], [0, 1]))
    calls = []
    match = evalkit.greedy_match
    monkeypatch.setattr(evalkit, "greedy_match", lambda *a, **k: calls.append(1) or match(*a, **k))
    amota([SceneRecord(frames=frames[:3]), SceneRecord(frames=frames[3:])], threshold=2.0)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# property: the reports equal those of the per-threshold reference

def _ref_center_distance(a, b):
    return float(np.linalg.norm(a.center[:2] - b.center[:2]))


def _ref_greedy_match_frame(preds, gts, threshold):
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    taken, pairs, unmatched = set(), [], []
    for i in order:
        best_j, best_d = None, threshold
        for j, gt in enumerate(gts):
            if j in taken:
                continue
            d = _ref_center_distance(preds[i], gt)
            if d <= best_d and (best_j is None or d < best_d):
                best_j, best_d = j, d
        if best_j is None:
            unmatched.append(i)
        else:
            taken.add(best_j)
            pairs.append((i, best_j))
    return pairs, unmatched


def _ref_detection_ap(scenes, label, dist_threshold):
    """Pooled sweep with the matching inline; matches carry their distance
    because ``tp_errors`` reads it from the triple."""
    entries, n_gt, frame_gts = [], 0, {}
    for s_idx, scene in enumerate(scenes):
        for f_idx, fr in enumerate(scene.frames):
            key = (s_idx, f_idx)
            gts = [g for g in fr.gt_boxes if g.label == label]
            frame_gts[key] = gts
            n_gt += len(gts)
            entries += [(p.score, key, i, p) for i, p in enumerate(fr.pred_boxes) if p.label == label]
    result = ClassDetectionResult(ap=0.0, n_gt=n_gt, matches=[])
    if n_gt == 0:
        return result
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    taken = {k: set() for k in frame_gts}
    tp = fp = 0
    recalls, precisions = [], []
    for _, key, _, pred in entries:
        gts = frame_gts[key]
        best_j, best_d = None, dist_threshold
        for j, gt in enumerate(gts):
            if j in taken[key]:
                continue
            d = _ref_center_distance(pred, gt)
            if (best_j is None or d < best_d) and d <= dist_threshold:
                best_j, best_d = j, d
        if best_j is None:
            fp += 1
        else:
            taken[key].add(best_j)
            tp += 1
            result.matches.append((pred, gts[best_j], _ref_center_distance(pred, gts[best_j])))
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
    result.ap = evalkit._envelope_ap(np.array(recalls), np.array(precisions))
    return result


def _ref_tracking_counts(scenes, threshold, min_score):
    tp = fp = fn = ids = 0
    dists = []
    for scene in scenes:
        last_match = {}
        for fr in scene.frames:
            kept = [(p, tid) for p, tid in zip(fr.pred_boxes, fr.track_ids)
                    if tid is not None and p.score >= min_score]
            pairs, unmatched = _ref_greedy_match_frame([p for p, _ in kept], fr.gt_boxes, threshold)
            tp += len(pairs)
            fp += len(unmatched)
            fn += len(fr.gt_boxes) - len(pairs)
            for i, j in pairs:
                dists.append(_ref_center_distance(kept[i][0], fr.gt_boxes[j]))
                tid, gid = kept[i][1], fr.gt_ids[j]
                if gid in last_match and last_match[gid] != tid:
                    ids += 1
                last_match[gid] = tid
    return tp, fp, fn, ids, float(np.mean(dists)) if dists else None


def _ref_amota(scenes, threshold):
    """Re-matches every frame at each score cut."""
    n_gt = sum(len(fr.gt_boxes) for s in scenes for fr in s.frames)
    scores = sorted({p.score for s in scenes for fr in s.frames
                     for p, tid in zip(fr.pred_boxes, fr.track_ids) if tid is not None}, reverse=True)
    ids_headline = _ref_tracking_counts(scenes, threshold, 0.0)[3]
    if n_gt == 0 or not scores:
        return {"AMOTA": 0.0, "AMOTP": None, "recall": 0.0, "IDS": ids_headline}
    if len(scores) > 64:
        scores = [scores[i] for i in np.unique(np.linspace(0, len(scores) - 1, 64).astype(np.int64))]
    curve = [(c[0] / n_gt,) + c for c in (_ref_tracking_counts(scenes, threshold, s) for s in scores)]
    motar_terms, motp_terms = [], []
    for r in evalkit.RECALL_POINTS:
        hit = next((c for c in curve if c[0] >= r), None)
        if hit is None:
            motar_terms.append(0.0)
            continue
        _, tp, fp, fn, ids_r, motp = hit
        motar_terms.append(max(0.0, 1.0 - (ids_r + fp) / tp))
        if motp is not None:
            motp_terms.append(motp)
    return {"AMOTA": float(np.mean(motar_terms)),
            "AMOTP": float(np.mean(motp_terms)) if motp_terms else None,
            "recall": float(max(c[0] for c in curve)), "IDS": int(ids_headline)}


def _ref_velocity_slice_records(scenes, v_min, match_threshold):
    out = []
    for scene in scenes:
        frames = []
        for fr in scene.frames:
            keep_gt = [evalkit._in_velocity_slice(g, fr.ego_velocity, v_min) for g in fr.gt_boxes]
            pairs, _ = _ref_greedy_match_frame(fr.pred_boxes, fr.gt_boxes, match_threshold)
            drop = {i for i, j in pairs if not keep_gt[j]}
            keep = [i for i in range(len(fr.pred_boxes)) if i not in drop]
            frames.append(frame([fr.pred_boxes[i] for i in keep], [fr.track_ids[i] for i in keep],
                                [g for g, k in zip(fr.gt_boxes, keep_gt) if k],
                                [i for i, k in zip(fr.gt_ids, keep_gt) if k], fr.ego_velocity))
        out.append(SceneRecord(frames=frames))
    return out


def _random_records(seed):
    """Scenes on a 0.5 m lattice (so distances tie), scores 30% from four
    repeated values and the rest continuous, a quarter of the predictions
    untracked, GT ids drawn from a small pool (so ids switch)."""
    rng = np.random.default_rng(seed)
    repeated = [0.3, 0.5, 0.7, 0.9]
    scenes = []
    for _ in range(3):
        frames = []
        for _ in range(5):
            gts = [box(*(rng.integers(-6, 7, 2) * 0.5), label=int(rng.integers(2)),
                       vel=rng.integers(-8, 9, 2) * 0.5, yaw=float(rng.uniform(-3, 3)))
                   for _ in range(rng.integers(0, 6))]
            preds, tids = [], []
            for _ in range(rng.integers(6, 20)):
                score = float(rng.choice(repeated)) if rng.uniform() < 0.3 else float(rng.uniform())
                preds.append(box(*(rng.integers(-6, 7, 2) * 0.5), score=score, label=int(rng.integers(2)),
                                 vel=rng.integers(-8, 9, 2) * 0.5, yaw=float(rng.uniform(-3, 3))))
                tids.append(None if rng.uniform() < 0.25 else int(rng.integers(6)))
            frames.append(frame(preds, tids, gts, [int(i) for i in rng.integers(0, 5, len(gts))],
                                ego_velocity=rng.integers(-4, 5, 2) * 0.5))
        scenes.append(SceneRecord(frames=frames))
    return scenes


def _report(records):
    out = runner.InferenceOutput(records=records, seg_intersection=np.zeros(3, dtype=np.int64),
                                 seg_union=np.zeros(3, dtype=np.int64))
    return runner.assemble_report(out, Config(ap_threshold_scale=0.5, highspeed_vmin=2.0), run_id="p",
                                  code_version="0", slices=("all", "high-velocity")).to_json()


@pytest.mark.parametrize("seed", range(6))
def test_report_equals_the_per_threshold_reference(seed, monkeypatch):
    records = _random_records(seed)
    tracked = [p.score for s in records for fr in s.frames
               for p, t in zip(fr.pred_boxes, fr.track_ids) if t is not None]
    assert len(set(tracked)) > 64 and len(set(tracked)) < len(tracked)
    assert any(t is None for s in records for fr in s.frames for t in fr.track_ids)
    got = _report(records)
    monkeypatch.setattr(evalkit, "detection_ap", _ref_detection_ap)
    monkeypatch.setattr(evalkit, "amota", _ref_amota)
    monkeypatch.setattr(runner, "velocity_slice_records", _ref_velocity_slice_records)
    assert got == _report(records)


def test_eval_report_csv_content():
    m = evalkit.SliceMetrics(mAP=0.5, per_class_ap={"0": {"1": 0.75, "0.5": 0.25}}, mATE=None, mAOE=0.1,
                             mAVE=None, NDS=1 / 3, AMOTA=0.0, AMOTP=None, recall=0.2, IDS=3)
    report = evalkit.EvalReport(run_id="r", code_version="v", config={}, conventions={}, slices={"all": m},
                                seg={"miou": 0.625, "iou_lane": 1e-17})
    assert report.to_csv() == (
        "slice,metric,value\n"
        "all,AMOTA,0.0\n"
        "all,AMOTP,\n"
        "all,IDS,3\n"
        "all,NDS,0.3333333333333333\n"
        "all,empty,False\n"
        "all,mAOE,0.1\n"
        "all,mAP,0.5\n"
        "all,mATE,\n"
        "all,mAVE,\n"
        "all,ap_class0_thr0.5,0.25\n"
        "all,ap_class0_thr1,0.75\n"
        "all,recall,0.2\n"
        "all,seg_iou_lane,1e-17\n"
        "all,seg_miou,0.625\n"
    )
