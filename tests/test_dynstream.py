import math

import numpy as np
import pytest
from util import (
    anchor_reads,
    make_attention_params,
    make_deformable_params,
    make_ln,
    make_mlp_params,
    rows,
    stack_maps,
    t64,
)

from dualstream.configio import Config
from dualstream.diffcore import FeatureMap, active_tape, layernorm
from dualstream.dynstream import (
    QuerySet,
    SetAttnParams,
    SpawnParams,
    _obj_image_cross_attention,
    _obj_self_attention,
    propagate,
    select_topk,
    spawn_queries,
)
from dualstream.geom3d import CameraModel, Pose
from dualstream.heads import decode_boxes
from dualstream.model import build_decode_params
from dualstream.params import ParamStore
from dualstream.statstream import CameraReadParams

RANGES = np.array([[-16.0, -16.0, -3.0], [16.0, 16.0, 3.0]])
L = 8


def make_queries(rng, n=1, anchors=None, vels=None, scores=None, ids=None, grad=False):
    """n queries with random latents; unset anchors are drawn in [-10, 10]^3."""
    return QuerySet(
        latents=t64(rng.normal(size=(n, L)), grad=grad),
        anchors=t64(anchors if anchors is not None else rng.uniform(-10, 10, (n, 3))),
        velocities=np.zeros((n, 2)) if vels is None else vels,
        scores=np.full(n, 0.5) if scores is None else scores,
        ids=np.arange(n) if ids is None else ids,
    )


def spawn_params(rng, n=6):
    return SpawnParams(
        embeddings=t64(rng.normal(size=(n, L)), grad=True),
        anchor_logits=t64(rng.normal(size=(n, 3)), grad=True),
    )


class TestSpawn:
    def test_zero_gives_empty(self, rng):
        assert len(spawn_queries(0, spawn_params(rng), RANGES)) == 0

    def test_anchors_inside_detection_range(self, rng):
        qs = spawn_queries(6, spawn_params(rng), RANGES)
        assert len(qs) == 6
        assert np.all(qs.anchor_xyz >= RANGES[0]) and np.all(qs.anchor_xyz <= RANGES[1])
        assert np.all(qs.ids == -1) and np.all(qs.scores == 0.0)

    def test_two_calls_identical(self, rng):
        p = spawn_params(rng)
        a = spawn_queries(4, p, RANGES)
        b = spawn_queries(4, p, RANGES)
        np.testing.assert_array_equal(a.latents.data, b.latents.data)
        np.testing.assert_array_equal(a.anchors.data, b.anchors.data)


def zero_motion_params():
    return make_mlp_params(np.random.default_rng(0), L + 7, 4, L, zero=True)


class TestPropagate:
    def test_stationary_anchors_unchanged(self, rng):
        mem = make_queries(rng, 3)
        out = propagate(mem, Pose.identity(), 0.7, zero_motion_params())
        np.testing.assert_allclose(out.anchor_xyz, mem.anchor_xyz, atol=1e-12)

    def test_ego_advance_pose_compose_oracle(self, rng):
        mem = make_queries(rng, anchors=[[10.0, 0.0, 0.0]])
        delta = Pose.se2(0.0, -2.0, 0.0)  # ego advanced +2 m in x
        out = propagate(mem, delta, 0.5, zero_motion_params())
        np.testing.assert_allclose(out.anchor_xyz, [[8.0, 0.0, 0.0]], atol=1e-12)

    def test_kinematics_oracle(self, rng):
        mem = make_queries(rng, anchors=[[1.0, 2.0, 0.5]], vels=[[5.0, 0.0]])
        out = propagate(mem, Pose.identity(), 0.5, zero_motion_params())
        np.testing.assert_allclose(out.anchor_xyz, [[3.5, 2.0, 0.5]], atol=1e-12)

    def test_velocity_rotated_by_delta(self, rng):
        mem = make_queries(rng, anchors=[[0.0, 0.0, 0.0]], vels=[[3.0, 0.0]])
        delta = Pose.se2(math.pi / 2, 0.0, 0.0)
        out = propagate(mem, delta, 0.0, zero_motion_params())
        np.testing.assert_allclose(out.velocities, [[0.0, 3.0]], atol=1e-12)

    def test_compensation_flag_skips_object_motion(self, rng):
        mem = make_queries(rng, anchors=[[1.0, 1.0, 0.0]], vels=[[4.0, 0.0]])
        out = propagate(mem, Pose.identity(), 0.5, zero_motion_params(),
                        compensate_object_motion=False)
        np.testing.assert_allclose(out.anchor_xyz, [[1.0, 1.0, 0.0]], atol=1e-12)

    def test_latent_gets_motion_mlp_residual(self, rng):
        params = make_mlp_params(rng, L + 7, 6, L)
        mem = make_queries(rng)
        out = propagate(mem, Pose.se2(0.1, 1.0, -0.5), 0.5, params)
        assert not np.allclose(out.latents.data, mem.latents.data)


class TestSelectTopk:
    def test_k_at_least_n_keeps_all_sorted(self, rng):
        qs = make_queries(rng, 3, scores=[0.2, 0.9, 0.5])
        mem, order = select_topk(qs, 5)
        assert mem.scores.tolist() == [0.9, 0.5, 0.2]
        assert order.tolist() == [1, 2, 0]

    def test_k_zero_empty(self, rng):
        mem, order = select_topk(make_queries(rng), 0)
        assert len(mem) == 0 and len(order) == 0

    def test_tie_break_lower_index(self, rng):
        qs = make_queries(rng, 4, scores=[0.1, 0.9, 0.9, 0.3])
        mem, _ = select_topk(qs, 2)
        assert mem.ids.tolist() == [1, 2]

    def test_deterministic(self, rng):
        qs = make_queries(rng, 6, scores=rng.uniform(size=6))
        a, _ = select_topk(qs, 3)
        b, _ = select_topk(qs, 3)
        assert a.ids.tolist() == b.ids.tolist()
        assert a.scores.tolist() == b.scores.tolist()

    def test_rows_follow_the_order(self, rng):
        qs = make_queries(rng, 5, scores=rng.uniform(size=5))
        mem, order = select_topk(qs, 3)
        np.testing.assert_array_equal(mem.latents.data, qs.latents.data[order])
        np.testing.assert_array_equal(mem.anchors.data, qs.anchors.data[order])
        np.testing.assert_array_equal(mem.ids, qs.ids[order])


class TestQuerySetInvariants:
    def test_non_finite_anchor_rejected(self, rng):
        anchors = rng.uniform(-1, 1, (3, 3))
        anchors[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            make_queries(rng, 3, anchors=anchors)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_score_outside_unit_interval_rejected(self, rng, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_queries(rng, 2, scores=[0.5, bad])

    def test_row_count_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="one row per query"):
            make_queries(rng, 2, ids=[0, 1, 2])

    def test_concat_keeps_row_order(self, rng):
        a, b = make_queries(rng, 2), make_queries(rng, 3, ids=[7, 8, 9])
        both = a + b
        np.testing.assert_array_equal(both.latents.data, np.concatenate([a.latents.data, b.latents.data]))
        assert both.ids.tolist() == [0, 1, 7, 8, 9]
        assert (a + QuerySet.empty(L, np.float64)) is a and (QuerySet.empty(L, np.float64) + b) is b


class TestTapeCountIndependentOfQueryCount:
    """Each per-frame query step records a fixed number of tape entries."""

    @staticmethod
    def entries(fn):
        tape = active_tape()
        before = tape.position()
        fn()
        n = tape.position() - before
        tape.drop_before(tape.position())
        return n

    def counts(self, n):
        rng = np.random.default_rng(n)
        mem = make_queries(rng, n, grad=True)
        params = make_mlp_params(rng, L + 7, 6, L)
        spawn = spawn_params(rng, n=n)
        decode = build_decode_params(ParamStore(np.float32), "decode", rng, Config(latent_dim=L, decode_hidden=6))
        return (
            self.entries(lambda: spawn_queries(n, spawn, RANGES)),
            self.entries(lambda: propagate(mem, Pose.se2(0.1, 1.0, -0.5), 0.5, params)),
            self.entries(lambda: select_topk(mem, n // 2)),
            self.entries(lambda: decode_boxes(mem, mem.latents, decode)),
        )

    def test_same_at_8_and_16_queries(self):
        small, large = self.counts(8), self.counts(16)
        assert all(c > 0 for c in small)
        assert small == large


def self_attn_params(rng, identity=False):
    g, b = make_ln(L)
    return SetAttnParams(
        heads=2,
        attn=make_attention_params(rng, L, identity=identity),
        pe_w=t64(np.zeros((3 * 16, L)), grad=True),
        pe_b=t64(np.zeros(L), grad=True),
        ln_g=g, ln_b=b,
    )


class TestObjSelfAttention:
    def test_single_query_residual_form(self, rng):
        p = self_attn_params(rng)
        q = make_queries(rng)
        out = _obj_self_attention(q.latents, q.anchor_xyz, p, RANGES)
        v = q.latents.data[0] @ p.attn.wv.data + p.attn.bv.data
        proj = v @ p.attn.wo.data + p.attn.bo.data
        want = layernorm(t64((q.latents.data[0] + proj)[None, :]), p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_permutation_equivariance_bitwise(self, rng):
        p = self_attn_params(rng)
        p.pe_w.data = rng.normal(size=p.pe_w.data.shape) * 0.1
        qs = make_queries(rng, 6)
        perm = rng.permutation(6)
        moved = qs.take(perm)
        out1 = _obj_self_attention(qs.latents, qs.anchor_xyz, p, RANGES).data
        out2 = _obj_self_attention(moved.latents, moved.anchor_xyz, p, RANGES).data
        np.testing.assert_array_equal(out1[perm], out2)

    def test_two_query_hand_unrolled_oracle(self, rng):
        p = self_attn_params(rng)
        qs = make_queries(rng, 2)
        got = _obj_self_attention(qs.latents, qs.anchor_xyz, p, RANGES).data

        from dualstream.diffcore.ops import sincos_encoding
        from dualstream.dynstream import normalize_anchors

        lat = qs.latents.data
        anch = qs.anchor_xyz
        pe = sincos_encoding(normalize_anchors(anch, RANGES), 8) @ p.pe_w.data + p.pe_b.data
        qk = lat + pe
        dh = L // 2
        ctx = np.zeros((2, L))
        qq = qk @ p.attn.wq.data + p.attn.bq.data
        kk = qk @ p.attn.wk.data + p.attn.bk.data
        vv = lat @ p.attn.wv.data + p.attn.bv.data
        for h in range(2):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(2):
                s = np.array([qq[i, sl] @ kk[j, sl] for j in range(2)]) / math.sqrt(dh)
                w = np.exp(s - s.max())
                w /= w.sum()
                ctx[i, sl] = w[0] * vv[0, sl] + w[1] * vv[1, sl]
        attn_out = ctx @ p.attn.wo.data + p.attn.bo.data
        want = layernorm(t64(lat + attn_out), p.ln_g, p.ln_b).data
        np.testing.assert_allclose(got, want, atol=1e-5)


def front_camera():
    return CameraModel(
        fx=100.0, fy=100.0, cx=32.0, cy=16.0,
        rotation=np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]), translation=np.zeros(3),
        width=64, height=32, name="front",
    )


def back_camera():
    return CameraModel(
        fx=100.0, fy=100.0, cx=32.0, cy=16.0,
        rotation=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]]), translation=np.zeros(3),
        width=64, height=32, name="back",
    )


def img_attn_params(rng, degenerate=False):
    g, b = make_ln(L)
    return CameraReadParams(
        deform=make_deformable_params(rng, L, L, 1 if degenerate else 3, degenerate=degenerate),
        pe_w=t64(np.zeros((2 * 16, L)), grad=True),
        pe_b=t64(np.zeros(L), grad=True),
        ln_g=g, ln_b=b,
    )


def feature_map(rng, cam, stride=8):
    hf, wf = cam.height // stride, cam.width // stride
    return FeatureMap(data=t64(rows(rng.normal(size=(L, hf, wf)))), dims=(hf, wf), stride=stride, names=(cam.name,))


class TestObjImageCrossAttention:
    def test_invisible_everywhere_residual_path(self, rng):
        p = img_attn_params(rng)
        cam = front_camera()
        fm = feature_map(rng, cam)
        q = make_queries(rng, anchors=[[-5.0, 0.0, 0.0]])  # behind the front camera
        out = _obj_image_cross_attention(q.latents, anchor_reads(q.anchor_xyz, fm, {"front": cam}, p), fm, p)
        want = layernorm(q.latents, p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_degenerate_equals_bilinear_sample(self, rng):
        p = img_attn_params(rng, degenerate=True)
        cam = front_camera()
        fm = feature_map(rng, cam)
        q = make_queries(rng, anchors=[[8.0, 0.3, 0.2]])
        out = _obj_image_cross_attention(q.latents, anchor_reads(q.anchor_xyz, fm, {"front": cam}, p), fm, p)

        from dualstream.diffcore import bilinear_sample
        from dualstream.geom3d import project_points

        (uv,), _, _ = project_points(cam, q.anchor_xyz[:1])
        coords = np.array([[uv[1] / fm.stride - 0.5, uv[0] / fm.stride - 0.5]])
        sample = bilinear_sample(fm.data, fm.dims, t64(coords)).data[0]
        want = layernorm(t64(q.latents.data + sample), p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.data, want, atol=1e-10)

    def test_two_cameras_equal_weights_mean(self, rng):
        p = img_attn_params(rng, degenerate=True)
        cam_f, cam_b = front_camera(), back_camera()
        fm_f, fm_b = feature_map(rng, cam_f), feature_map(rng, cam_b)
        # anchor visible in both: impossible for opposing cameras, so use
        # two queries and verify against the per-camera bilinear samples
        # aggregated by the (uniform) softmax over visible cameras.
        q = make_queries(rng, anchors=[[8.0, 0.0, 0.5]])
        cams = {"front": cam_f, "back": cam_b}
        fms = stack_maps(fm_f, fm_b)
        out = _obj_image_cross_attention(q.latents, anchor_reads(q.anchor_xyz, fms, cams, p), fms, p)

        from dualstream.diffcore import bilinear_sample
        from dualstream.geom3d import project_points

        (uv,), _, _ = project_points(cam_f, q.anchor_xyz[:1])
        coords = np.array([[uv[1] / fm_f.stride - 0.5, uv[0] / fm_f.stride - 0.5]])
        sample = bilinear_sample(fm_f.data, fm_f.dims, t64(coords)).data[0]
        want = layernorm(t64(q.latents.data + sample), p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.data, want, atol=1e-10)

    def test_forced_equal_weights_mean_of_two_cameras(self, rng):
        # two side-by-side cameras with identical geometry see the anchor at
        # the same pixel; uniform camera weights must average their features
        p = img_attn_params(rng, degenerate=True)
        cam_a = front_camera()
        cam_b = CameraModel(fx=cam_a.fx, fy=cam_a.fy, cx=cam_a.cx, cy=cam_a.cy,
                            rotation=cam_a.rotation, translation=cam_a.translation, width=cam_a.width,
                            height=cam_a.height, name="front-left")
        fm_a, fm_b = feature_map(rng, cam_a), feature_map(rng, cam_b)
        fms = stack_maps(fm_a, fm_b)
        q = make_queries(rng, anchors=[[8.0, 0.3, 0.2]])
        out = _obj_image_cross_attention(
            q.latents, anchor_reads(q.anchor_xyz, fms, {"front": cam_a, "front-left": cam_b}, p), fms, p)

        from dualstream.diffcore import bilinear_sample
        from dualstream.geom3d import project_points

        (uv,), _, _ = project_points(cam_a, q.anchor_xyz[:1])
        coords = np.array([[uv[1] / fm_a.stride - 0.5, uv[0] / fm_a.stride - 0.5]])
        sa = bilinear_sample(fm_a.data, fm_a.dims, t64(coords)).data[0]
        sb = bilinear_sample(fm_b.data, fm_b.dims, t64(coords)).data[0]
        want = layernorm(t64(q.latents.data + 0.5 * (sa + sb)), p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.data, want, atol=1e-10)

    def test_permutation_equivariance_bitwise(self, rng):
        p = img_attn_params(rng)
        cam = front_camera()
        fm = feature_map(rng, cam)
        anchors = np.stack([rng.uniform(4, 12, 5), rng.uniform(-2, 2, 5), np.zeros(5)], axis=1)
        qs = make_queries(rng, 5, anchors=anchors)
        perm = rng.permutation(5)
        moved = qs.take(perm)
        out1 = _obj_image_cross_attention(qs.latents, anchor_reads(qs.anchor_xyz, fm, {"front": cam}, p),
                                          fm, p).data
        out2 = _obj_image_cross_attention(moved.latents, anchor_reads(moved.anchor_xyz, fm, {"front": cam}, p),
                                          fm, p).data
        np.testing.assert_array_equal(out1[perm], out2)
