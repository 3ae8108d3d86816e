import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import tracker_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from check import finite_diff_check
from util import t64

from dualstream.configio import Config
from dualstream.diffcore import Tensor, active_tape
from dualstream.diffcore.tensor import ShapeError
from dualstream.dynstream import QuerySet, propagate
from dualstream.geom3d import BoundingBox3D, Pose, invert, transform_box
from dualstream.heads import (
    Assignment,
    HeadOutputs,
    TrackerState,
    center_distances,
    decode_boxes,
    detection_cost_matrix,
    detection_loss,
    greedy_match,
    hungarian_match,
    segmentation_loss,
)
from dualstream.model import build_decode_params
from dualstream.params import ParamStore

RANGES = np.array([[-16.0, -16.0, -3.0], [16.0, 16.0, 3.0]])
L = 8


def decode_params(seed=0, zero=False, dtype=np.float64):
    store = ParamStore(dtype)
    cfg = Config(latent_dim=L, decode_hidden=6)
    p = build_decode_params(store, "decode", np.random.default_rng(seed), cfg)
    if zero:
        for name, t in store.items():
            if name.startswith("decode.") and not name.endswith("b_yaw"):
                t.data = np.zeros_like(t.data)
    return p


def queries(rng, n=1, anchors=None):
    return QuerySet(latents=t64(rng.normal(size=(n, L))),
                    anchors=t64(anchors if anchors is not None else rng.uniform(-5, 5, (n, 3))),
                    velocities=np.zeros((n, 2)), scores=np.full(n, 0.5), ids=np.full(n, -1))


class TestDecodeBoxes:
    def test_zero_head_decodes_anchor_prior_zero_yaw(self, rng):
        p = decode_params(zero=True)
        qs = queries(rng, anchors=[[2.0, -1.0, 0.3]])
        _, dets = decode_boxes(qs, qs.latents, p)
        d = dets[0]
        np.testing.assert_allclose(d.box.center, [2.0, -1.0, 0.3], atol=1e-12)
        np.testing.assert_allclose(d.box.size, p.size_prior, atol=1e-12)
        assert d.box.yaw == pytest.approx(math.atan2(0.0, 1.0), abs=1e-12)

    def test_yaw_head_sin_one_gives_half_pi(self, rng):
        p = decode_params(zero=True)
        p.b_yaw.data = np.array([1.0, 0.0])
        qs = queries(rng)
        _, dets = decode_boxes(qs, qs.latents, p)
        assert dets[0].box.yaw == pytest.approx(math.pi / 2, abs=1e-12)

    def test_decoded_velocity_feeds_propagate_roundtrip(self, rng):
        p = decode_params()
        qs = queries(rng, anchors=[[1.0, 2.0, 0.0]])
        out, dets = decode_boxes(qs, qs.latents, p)
        vel = dets[0].box.velocity
        mem = QuerySet(latents=qs.latents, anchors=t64(out.center.data),
                       velocities=out.velocity.data, scores=out.scores, ids=qs.ids)
        from util import make_mlp_params

        zero_mlp = make_mlp_params(np.random.default_rng(0), L + 7, 4, L, zero=True)
        moved = propagate(mem, Pose.identity(), 0.5, zero_mlp)
        want = dets[0].box.center.copy()
        want[:2] += vel * 0.5
        np.testing.assert_allclose(moved.anchor_xyz[0], want, atol=1e-12)

    def test_score_is_sigmoid_of_max_logit(self, rng):
        p = decode_params()
        qs = queries(rng, 3)
        out, dets = decode_boxes(qs, qs.latents, p)
        for i, d in enumerate(dets):
            want = 1.0 / (1.0 + math.exp(-float(np.max(out.class_logits.data[i]))))
            assert d.box.score == pytest.approx(want, abs=1e-12)
            assert d.box.score == out.scores[i]
            assert 0.0 <= d.box.score <= 1.0
            assert d.box.label == int(np.argmax(out.class_logits.data[i]))

    def test_prior_identity_from_query_ids(self, rng):
        p = decode_params()
        qs = queries(rng, 3)
        qs.ids = np.array([4, -1, 0])
        _, dets = decode_boxes(qs, qs.latents, p)
        assert [d.prior_identity for d in dets] == [4, None, 0]


def brute_force_min_cost(cost):
    n, m = cost.shape
    k = min(n, m)
    best = math.inf
    if n <= m:
        for cols in itertools.permutations(range(m), k):
            best = min(best, sum(cost[i, c] for i, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n), k):
            best = min(best, sum(cost[r, j] for j, r in enumerate(rows)))
    return best


class TestHungarian:
    def test_single_pair(self):
        a = hungarian_match(np.array([[3.0]]))
        assert a.pairs == [(0, 0)]

    def test_two_by_two_diagonal(self):
        a = hungarian_match(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert a.pairs == [(0, 0), (1, 1)]

    def test_matches_brute_force_5x7(self, rng):
        for _ in range(30):
            cost = rng.normal(size=(5, 7))
            a = hungarian_match(cost)
            total = sum(cost[i, j] for i, j in a.pairs)
            assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)
            assert len(a.pairs) == 5

    def test_total_beats_random_permutations(self, rng):
        cost = rng.normal(size=(6, 6))
        a = hungarian_match(cost)
        total = sum(cost[i, j] for i, j in a.pairs)
        for _ in range(1000):
            perm = rng.permutation(6)
            assert total <= sum(cost[i, perm[i]] for i in range(6)) + 1e-12

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            hungarian_match(np.array([[np.nan]]))

    def test_empty_sides(self):
        a = hungarian_match(np.zeros((0, 3)))
        assert a.pairs == []


@st.composite
def assignment_costs(draw):
    """A cost matrix of shape 0-8 x 0-8: floats, small integers (many ties),
    a constant, or small integers with +inf entries and perhaps one -inf."""
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["float", "int", "constant", "inf"]))
    if kind == "float":
        cells = st.floats(-10.0, 10.0, allow_nan=False)
    elif kind == "constant":
        cells = st.just(draw(st.sampled_from([-1.0, 0.0, 2.5])))
    else:
        cells = st.integers(0, 3).map(float)
        if kind == "inf":
            cells = st.one_of(cells, st.just(math.inf))
    cost = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m)), dtype=np.float64).reshape(n, m)
    if kind == "inf" and cost.size and draw(st.integers(0, 9)) == 0:
        cost[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = -math.inf
    return cost


def pairs_or_error(match, cost):
    """The (row, col) pairs ``match`` returns for ``cost``, or its ValueError's message."""
    try:
        return match(cost)
    except ValueError as e:
        return f"ValueError: {e}"


class TestHungarianIsScipys:
    """``hungarian_match`` picks the pairs ``scipy.optimize.linear_sum_assignment``
    picks, ties included, and raises its errors."""

    @staticmethod
    def scipy_pairs(cost):
        return sorted(zip(*(a.tolist() for a in linear_sum_assignment(cost))))

    @settings(max_examples=400)
    @given(assignment_costs())
    def test_same_pairs_and_errors(self, cost):
        assert pairs_or_error(lambda c: hungarian_match(c).pairs, cost) == pairs_or_error(self.scipy_pairs, cost)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 5), (5, 2)])
    def test_constant_matrix_gives_the_identity(self, shape):
        cost = np.ones(shape)
        assert hungarian_match(cost).pairs == self.scipy_pairs(cost) == [(k, k) for k in range(min(shape))]

    @pytest.mark.parametrize("cost, message", [
        ([[1.0, -math.inf], [0.0, 2.0]], "invalid numeric entries"),
        ([[1.0], [-math.inf], [0.0]], "invalid numeric entries"),
        ([[math.inf, math.inf], [1.0, 2.0]], "infeasible"),
        ([[math.inf], [math.inf]], "infeasible"),
        ([[1.0, math.inf], [2.0, math.inf], [math.inf, math.inf]], "infeasible"),
    ])
    def test_scipys_errors(self, cost, message):
        cost = np.array(cost)
        for match in (hungarian_match, linear_sum_assignment):
            with pytest.raises(ValueError, match=message):
                match(cost)


def test_program_does_not_load_scipy_optimize():
    # importing scipy.optimize costs every process about 27 MB and 250 ms;
    # the program solves its matching in ``heads`` instead
    code = ("import sys\n"
            "import dualstream.cli, dualstream.trainkit, dualstream.runner, dualstream.model, "
            "dualstream.dualformer, dualstream.heads\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def gt_box(center, yaw=0.0, vel=(0.0, 0.0), label=0, size=(1.5, 2.5, 1.5)):
    return BoundingBox3D(center=np.array(center, dtype=float), size=np.array(size, dtype=float),
                         yaw=yaw, velocity=np.array(vel, dtype=float), label=label, score=1.0)


def perfect_detections(gts, p, confident=10.0):
    """Head outputs that exactly reproduce the GT boxes, one row per box."""
    logits = np.full((len(gts), 2), -confident)
    logits[np.arange(len(gts)), [g.label for g in gts]] = confident
    return HeadOutputs(
        class_logits=t64(logits),
        center=t64([g.center for g in gts]),
        log_size=t64([np.log(g.size / p.size_prior) for g in gts]),
        sincos=t64([[math.sin(g.yaw), math.cos(g.yaw)] for g in gts]),
        velocity=t64([g.velocity for g in gts]),
        scores=1.0 / (1.0 + np.exp(-logits.max(axis=1))),
    )


def take(out, rows):
    """The head-output rows ``rows`` in that order."""
    return HeadOutputs(*(t64(t.data[rows]) for t in (out.class_logits, out.center, out.log_size,
                                                     out.sincos, out.velocity)),
                       scores=out.scores[rows])


class TestDetectionLoss:
    def test_perfect_predictions_near_zero(self, rng):
        p = decode_params()
        gts = [gt_box([1.0, 2.0, 0.0]), gt_box([-3.0, 0.5, 0.2], label=1)]
        dets = perfect_detections(gts, p, confident=20.0)
        w = Config()
        cost = detection_cost_matrix(dets, gts, RANGES, w, p.size_prior)
        a = hungarian_match(cost)
        loss = detection_loss(dets, gts, a, RANGES, w, p.size_prior, n_classes=2)
        assert float(loss.data) <= 1e-3

    def test_empty_gt_pure_background_focal(self, rng):
        p = decode_params()
        qs = queries(rng, 4)
        out, _ = decode_boxes(qs, qs.latents, p)
        a = Assignment(pairs=[])
        w = Config()
        loss = detection_loss(out, [], a, RANGES, w, p.size_prior, n_classes=2)
        # hand-computed background focal
        logits = out.class_logits.data
        pr = 1.0 / (1.0 + np.exp(-logits))
        want = ((1 - w.focal_alpha) * pr ** w.focal_gamma * np.log1p(np.exp(logits))).sum()
        assert float(loss.data) == pytest.approx(want, rel=1e-9)

    def test_gradients_pass_finite_diff(self, rng):
        p = decode_params()
        gts = [gt_box([1.0, 2.0, 0.0]), gt_box([-3.0, 0.5, 0.2], label=1)]
        qs = queries(rng, 3)
        latents = Tensor(qs.latents.data.copy(), requires_grad=True)
        w = Config()

        def fn(lat):
            out, _ = decode_boxes(qs, lat, p)
            cost = detection_cost_matrix(out, gts, RANGES, w, p.size_prior)
            a = hungarian_match(cost)
            return detection_loss(out, gts, a, RANGES, w, p.size_prior, n_classes=2)

        assert finite_diff_check(fn, [latents], eps=1e-6) <= 1e-4

    def test_permutation_invariance(self, rng):
        p = decode_params()
        gts = [gt_box([1.0, 2.0, 0.0]), gt_box([-3.0, 0.5, 0.2], label=1),
               gt_box([4.0, -2.0, 0.1])]
        qs = queries(rng, 5)
        dets, _ = decode_boxes(qs, qs.latents, p)
        w = Config()

        def full_loss(dets_, gts_):
            cost = detection_cost_matrix(dets_, gts_, RANGES, w, p.size_prior)
            return float(detection_loss(dets_, gts_, hungarian_match(cost), RANGES, w,
                                        p.size_prior, n_classes=2).data)

        base = full_loss(dets, gts)
        assert full_loss(dets, [gts[2], gts[0], gts[1]]) == pytest.approx(base, rel=1e-12)
        assert full_loss(take(dets, [3, 1, 4, 0, 2]), gts) == pytest.approx(base, rel=1e-12)

    def test_cost_matrix_records_nothing(self, rng):
        p = decode_params(dtype=np.float32)
        gts = [gt_box([1.0, 2.0, 0.0]), gt_box([-3.0, 0.5, 0.2], label=1)]
        qs = queries(rng, 4)
        latents = Tensor(qs.latents.data.copy(), requires_grad=True)
        out, _ = decode_boxes(qs, latents, p)
        tape = active_tape()
        before = tape.position()
        cost = detection_cost_matrix(out, gts, RANGES, Config(), p.size_prior)
        assert tape.position() == before
        assert cost.shape == (4, 2) and np.all(np.isfinite(cost))
        tape.drop_before(tape.position())


class TestSegmentationLoss:
    def test_saturated_logits_near_zero(self):
        gt = (np.arange(48).reshape(3, 4, 4) % 3 == 0).astype(np.float64)
        logits = t64(np.where(gt > 0, 20.0, -20.0))
        loss = segmentation_loss(logits, gt)
        assert float(loss.data) <= 1e-6

    def test_uniform_zero_logits_bce_ln2(self):
        gt = np.zeros((2, 4, 4))
        gt[:, :2, :] = 1.0  # half filled
        logits = t64(np.zeros((2, 4, 4)))
        loss = segmentation_loss(logits, gt)
        # BCE term is exactly ln 2 per cell; dice of p=0.5 vs half mask
        p = 0.5
        inter = p * gt.sum() / 2
        dice = (2 * inter + 1e-6) / (p * 16 + gt.sum() / 2 + 1e-6)
        want = math.log(2.0) + 1.0 - dice
        assert float(loss.data) == pytest.approx(want, rel=1e-9)

    def test_gradcheck(self, rng):
        gt = (rng.uniform(size=(2, 3, 3)) > 0.5).astype(np.float64)
        logits = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        assert finite_diff_check(lambda x: segmentation_loss(x, gt), [logits], eps=1e-6) <= 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            segmentation_loss(t64(np.zeros((2, 3, 3))), np.zeros((2, 4, 4)))


def det(center, score, vel=(0.0, 0.0), label=0):
    return BoundingBox3D(center=np.array(center, dtype=float), size=np.array([1.5, 2.5, 1.5]),
                         yaw=0.0, velocity=np.array(vel, dtype=float), label=label, score=score)


def tracker(ids=(), centers=(), velocities=None, next_id=0, max_dist=2.0, score_thresh=0.3, max_age=3):
    """A tracker whose live tracks (rows in id order, all just matched) are seeded directly."""
    t = TrackerState(max_dist=max_dist, score_thresh=score_thresh, max_age=max_age)
    t.ids = np.array(ids, dtype=np.int64)
    t.centers = np.array(centers, dtype=float).reshape(-1, 2)
    t.velocities = np.zeros_like(t.centers) if velocities is None else np.array(velocities, dtype=float)
    t.ages = np.zeros(len(t.ids), dtype=np.int64)
    t.next_id = next_id
    return t


class TestGreedyTrack:
    def test_id_carried_within_range(self):
        t = tracker([7], [[1.0, 0.0]], [[2.0, 0.0]], next_id=10)
        assigned = t.step([det([2.0, 0.1, 0.0], 0.8)], [None], Pose.identity(), dt=0.5)
        assert assigned == [(0, 7)]
        assert t.next_id == 10

    def test_far_detection_spawns_new_id(self):
        t = tracker([7], [[0.0, 0.0]], next_id=10)
        assigned = t.step([det([10.0, 10.0, 0.0], 0.8)], [None], Pose.identity(), dt=0.5)
        assert assigned == [(0, 10)]
        assert t.next_id == 11

    def test_below_threshold_not_spawned(self):
        t = tracker()
        assigned = t.step([det([0.0, 0.0, 0.0], 0.1)], [None], Pose.identity(), dt=0.5)
        assert assigned == []
        assert t.ids.size == 0

    def test_crossing_tracks_match_exhaustive_oracle(self):
        # two tracks cross; greedy picks the globally nearest pairs in score
        # order, verified against the exhaustive 2x2 minimum
        t = tracker([0, 1], [[0.0, 1.0], [0.0, -1.0]], [[2.0, 0.0], [2.0, 0.0]], next_id=5)
        d0 = det([1.0, 0.8, 0.0], 0.9)
        d1 = det([1.0, -0.8, 0.0], 0.8)
        assigned = t.step([d0, d1], [None, None], Pose.identity(), dt=0.5)
        pred = {0: np.array([1.0, 1.0]), 1: np.array([1.0, -1.0])}
        dets = {0: d0.center[:2], 1: d1.center[:2]}
        best_perm, best_cost = None, math.inf
        for perm in itertools.permutations([0, 1]):
            cost = sum(np.linalg.norm(dets[i] - pred[perm[i]]) for i in range(2))
            if cost < best_cost:
                best_cost, best_perm = cost, perm
        want = sorted((i, best_perm[i]) for i in range(2))
        assert assigned == want

    def test_equal_distances_go_to_the_lower_track_id(self):
        # both tracks are exactly 1 m away; the higher id lies on the +x side
        t = tracker([4, 9], [[-1.0, 0.0], [1.0, 0.0]], next_id=10)
        assigned = t.step([det([0.0, 0.0, 0.0], 0.8)], [None], Pose.identity(), dt=0.5)
        assert assigned == [(0, 4)]

    def test_prior_identity_claims_track_first(self):
        t = tracker([0, 1], [[0.0, 0.0], [0.5, 0.0]], next_id=5)
        # the detection is nearest to track 1 but carries identity 0
        assigned = t.step([det([0.4, 0.0, 0.0], 0.9)], [0], Pose.identity(), dt=0.0)
        assert assigned == [(0, 0)]

    def test_no_duplicate_ids_and_increasing_spawns(self, rng):
        t = tracker()
        spawned = []
        for frame in range(5):
            dets = [det([rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0], float(rng.uniform(0.4, 1.0)))
                    for _ in range(4)]
            assigned = t.step(dets, [None] * 4, Pose.identity(), dt=0.5)
            ids = [tid for _, tid in assigned]
            assert len(ids) == len(set(ids))
            spawned.extend(tid for _, tid in assigned)
        next_id = t.next_id
        assert all(b >= a for a, b in zip(spawned, spawned[1:]) if b >= next_id - 1 and a >= next_id - 1)

    def test_track_ages_out(self):
        t = tracker([3], [[0.0, 0.0]], next_id=10, max_age=3)
        for k in range(3):
            t.step([], [], Pose.identity(), dt=0.5)
            assert len(t.ids) == 1
        t.step([], [], Pose.identity(), dt=0.5)
        assert t.ids.size == 0


def bits(rows):
    return np.asarray(rows, dtype=np.float64).tobytes()


def random_frame(rng, ref, grid, max_dist, dt):
    """One frame's ego pose and detections for ``ref``'s live tracks.

    A grid frame has the identity pose, half-metre positions and velocities
    and a few distinct scores, so equal scores and equal distances to two
    tracks happen. Otherwise the pose is rotated and translated, and about
    half the detections lie near a track's prediction, as seen from the ego.
    """
    n = int(rng.choice([0, 1, 3, 6, 10]))
    if grid:
        pose = Pose.identity()
        centers = np.c_[rng.integers(-4, 5, (n, 2)) * 0.5, np.zeros(n)]
        vels = rng.integers(-2, 3, (n, 2)) * 0.5
        scores = rng.choice([0.3, 0.5, 0.8, 1.0], n)
    else:
        pose = Pose.se2(rng.uniform(-np.pi, np.pi), *rng.uniform(-20.0, 20.0, 2))
        world = rng.uniform(-8.0, 8.0, (n, 2))
        near = [t.center[:2] + t.velocity * dt for t in ref.tracks]
        for i in range(n):
            if near and rng.random() < 0.5:
                world[i] = near[rng.integers(len(near))] + rng.normal(0.0, 0.5 * max_dist, 2)
        centers = np.c_[invert(pose).apply_points(world), rng.normal(0.0, 0.5, n)]
        vels = rng.normal(0.0, 3.0, (n, 2))
        scores = np.where(rng.random(n) < 0.2, 0.5, rng.uniform(0.0, 1.0, n))
    dets = [det(c, float(sc), v, label=int(rng.integers(2)))
            for c, v, sc in zip(centers, vels, scores)]
    priors = [None if rng.random() < 0.5 else int(rng.integers(ref.next_id + 3)) for _ in range(n)]
    return pose, dets, priors


def frame_cases(ref, pose, dets, priors, dt):
    """Which of the cases the randomized test must cover this frame shows."""
    live = {t.track_id: t for t in ref.tracks}
    tids = sorted(live)
    world = [transform_box(pose, d).center[:2] for d in dets]
    pred = [live[tid].center[:2] + live[tid].velocity * dt for tid in tids]
    dist = center_distances(world, pred)
    cases = set()
    if not dets:
        cases.add("empty frame")
    if len({d.score for d in dets}) < len(dets):
        cases.add("equal scores")
    if any((row <= ref.max_dist).any() and (row == row.min()).sum() > 1 for row in dist):
        cases.add("equal distances")
    for i, prior in enumerate(priors):
        if prior is not None and prior < ref.next_id and prior not in live:
            cases.add("stale prior")
        if prior in live and dist[i, tids.index(prior)] > ref.max_dist:
            cases.add("prior beyond max_dist")
    if pose.rotation != 0.0 and pose.translation.any():
        cases.add("rotated and translated ego")
    return cases


class TestTrackerMatchesOracle:
    def test_random_scenes_match_the_oracle_bit_for_bit(self):
        rng = np.random.default_rng(28)
        seen = set()
        for scene in range(240):
            settings = dict(max_dist=float(rng.choice([0.5, 1.0, 2.0, 4.0])),
                            score_thresh=float(rng.choice([0.0, 0.3, 0.6, 1.0])),
                            max_age=int(rng.choice([0, 1, 3])))
            dt = float(rng.choice([0.0, 0.5, rng.uniform(0.1, 1.0)]))
            seen |= {f"{k} = {v:g}" for k, v in dict(settings, dt=dt).items()}
            ref, got = oracle.TrackerState(**settings), TrackerState(**settings)
            for frame in range(int(rng.integers(2, 8))):
                pose, dets, priors = random_frame(rng, ref, scene % 2 == 0, settings["max_dist"], dt)
                seen |= frame_cases(ref, pose, dets, priors, dt)
                assigned = got.step(dets, priors, pose, dt)
                assert assigned == ref.step(dets, priors, pose, dt), (scene, frame)
                assert all(type(i) is int and type(tid) is int for i, tid in assigned)
                assert got.next_id == ref.next_id
                tracks = sorted(ref.tracks, key=lambda t: t.track_id)
                assert got.ids.tolist() == [t.track_id for t in tracks]
                assert got.ages.tolist() == [t.frames_since_update for t in tracks]
                assert got.centers.dtype == got.velocities.dtype == np.float64
                assert bits(got.centers) == bits([t.center[:2] for t in tracks]), (scene, frame)
                assert bits(got.velocities) == bits([t.velocity for t in tracks]), (scene, frame)
        assert {"empty frame", "equal scores", "equal distances", "stale prior", "prior beyond max_dist",
                "rotated and translated ego", "max_age = 0", "dt = 0", "score_thresh = 0",
                "score_thresh = 1"} <= seen


class TestGreedyMatch:
    def test_score_order_then_nearest_free_column(self):
        dist = np.array([[0.5, 0.2, 3.0],
                         [0.1, 0.3, 0.4]])
        # row 1 goes first and takes column 0; row 0 then takes its nearest, column 1
        assert greedy_match(dist, [1, 0], max_dist=1.0) == [(1, 0, 0.1), (0, 1, 0.2)]
        # row 0 first takes column 1; row 1 still takes column 0
        assert greedy_match(dist, [0, 1], max_dist=1.0) == [(0, 1, 0.2), (1, 0, 0.1)]

    def test_ties_go_to_the_lower_column_and_max_dist_is_inclusive(self):
        dist = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert greedy_match(dist, [0, 1], max_dist=1.0) == [(0, 1, 1.0), (1, 0, 1.0)]
        assert greedy_match(dist, [0, 1], max_dist=0.999) == []

    def test_free_mask_and_skipped_rows(self):
        dist = np.array([[0.1, 0.2], [0.3, 0.1], [0.0, 0.0]])
        free = np.array([False, True])
        assert greedy_match(dist, [0, 1], max_dist=1.0, free=free) == [(0, 1, 0.2)]
        assert free.tolist() == [False, True]   # the caller's mask is not modified
        assert greedy_match(np.zeros((0, 3)), [], 1.0) == []
        assert greedy_match(np.zeros((2, 0)), [0, 1], 1.0) == []

    def test_nan_distance_never_matches(self):
        assert greedy_match(np.array([[np.nan, 0.5]]), [0], max_dist=1.0) == [(0, 1, 0.5)]

    def test_center_distances_equal_per_pair_norm(self, rng):
        a = rng.normal(scale=20.0, size=(40, 2)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
        b = rng.normal(scale=20.0, size=(30, 2))
        want = np.array([[np.linalg.norm(x - y) for y in b] for x in a])
        assert np.array_equal(center_distances(a, b), want)
        assert center_distances(np.zeros((0, 2)), b).shape == (0, 30)
        assert center_distances([], []).shape == (0, 0)
