"""Reference tracker: ``Track``, ``greedy_track`` and ``TrackerState`` as
they were before the tracker kept its tracks as arrays. Each live track is
one ``Track`` object, the list is rebuilt every frame, and every detection
is mapped into the world frame as a whole box by ``transform_box``. Tests
step this and ``heads.TrackerState`` through the same frames and compare
the assignments and the track state bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from dualstream.geom3d import BoundingBox3D, Pose, transform_box
from dualstream.heads import center_distances, greedy_match


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
