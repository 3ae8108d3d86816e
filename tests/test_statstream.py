import math
from dataclasses import replace

import numpy as np
import pytest
from util import chw, feature_map, make_deformable_params, make_ln, make_mlp_params, pillar_reads, rows, stack_maps, t64

from dualstream.diffcore import FeatureMap, Tensor, backward, fresh_tape, layernorm
from dualstream.diffcore.tensor import ShapeError, sum_
from dualstream.geom3d import Pose, invert
from dualstream.statstream import (
    BevSpec,
    CameraReadParams,
    GridReadParams,
    PillarReads,
    bev_image_cross_attention,
    cell_to_metric,
    grid_coords,
    metric_to_cell,
    segmentation_head,
    temporal_grid_attention,
    warp_bev,
)

L = 6
SPEC = BevSpec(dims=(8, 8), extent=(-4.0, 4.0, -4.0, 4.0))


def make_cells(rng, spec=SPEC, grad=False):
    """Random (H*W, L) BEV cells of ``spec``'s grid."""
    return Tensor(rows(rng.normal(size=(L,) + spec.dims)), requires_grad=grad)


class TestBevSpec:
    def test_center_cell_of_odd_grid(self):
        spec = BevSpec(dims=(5, 5), extent=(-2.5, 2.5, -2.5, 2.5))
        xy = cell_to_metric(spec, np.array([2.0, 2.0]))
        np.testing.assert_allclose(xy, [0.0, 0.0], atol=1e-12)

    def test_roundtrip_exact(self, rng):
        for _ in range(20):
            ij = rng.uniform(0, 7, size=2)
            back = metric_to_cell(SPEC, cell_to_metric(SPEC, ij))
            np.testing.assert_allclose(back, ij, atol=1e-12)

    def test_paper_scale_resolution(self):
        # 200x200 cells over +-51.2 m
        spec = BevSpec(dims=(200, 200), extent=(-51.2, 51.2, -51.2, 51.2))
        assert spec.resolution == pytest.approx(0.512, abs=1e-12)

    def test_anisotropic_rejected(self):
        with pytest.raises(ValueError):
            BevSpec(dims=(8, 4), extent=(-4.0, 4.0, -4.0, 4.0))

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            BevSpec(dims=(1, 1), extent=(-1.0, 1.0, -1.0, 1.0))


def fresh_embedding(rng, grad=True):
    return Tensor(rng.normal(size=L), requires_grad=grad)


class TestWarp:
    def test_identity_delta_identity_grid(self, rng):
        g = make_cells(rng)
        out, valid = warp_bev(g, SPEC, Pose.identity(), fresh_embedding(rng))
        np.testing.assert_allclose(out.data, g.data, atol=1e-12)
        assert valid.shape == (SPEC.dims[0] * SPEC.dims[1],) and valid.all()

    def test_one_cell_shift_oracle(self, rng):
        g = make_cells(rng)
        fresh = fresh_embedding(rng)
        res = SPEC.resolution
        delta = Pose.se2(0.0, -res, 0.0)  # ego advanced one cell forward
        out, valid = warp_bev(g, SPEC, delta, fresh)
        h, w = SPEC.dims
        valid = valid.reshape(h, w)
        # integer index-shift oracle: new row i holds previous row i+1
        got, prev = chw(out.data, SPEC.dims), chw(g.data, SPEC.dims)
        np.testing.assert_allclose(got[:, : h - 1, :], prev[:, 1:, :], atol=1e-12)
        for j in range(w):
            np.testing.assert_allclose(got[:, h - 1, j], fresh.data, atol=1e-12)
        assert valid[: h - 1].all() and not valid[h - 1].any()

    def test_180_rotation_point_reflection(self, rng):
        h, w = SPEC.dims
        cells = np.zeros((L, h, w))
        hot = np.arange(1, L + 1, dtype=np.float64)
        cells[:, 2, 5] = hot
        out, valid = warp_bev(Tensor(rows(cells)), SPEC, Pose.se2(math.pi, 0.0, 0.0), fresh_embedding(rng))
        # coordinate-reflection oracle
        np.testing.assert_allclose(chw(out.data, SPEC.dims)[:, h - 1 - 2, w - 1 - 5], hot, atol=1e-9)
        assert valid.all()

    def test_roundtrip_lattice_aligned(self, rng):
        g = make_cells(rng)
        fresh = fresh_embedding(rng)
        res = SPEC.resolution
        for delta in (Pose.se2(0.0, -2 * res, res), Pose.se2(math.pi / 2, 0.0, 0.0),
                      Pose.se2(math.pi, res, 0.0)):
            fwd, fwd_valid = warp_bev(g, SPEC, delta, fresh)
            back, back_valid = warp_bev(fwd, SPEC, invert(delta), fresh)
            both = (fwd_valid & back_valid).reshape(SPEC.dims)
            diff = np.abs(chw(back.data, SPEC.dims) - chw(g.data, SPEC.dims)).max(axis=0)
            assert diff[both].max() <= 1e-9

    def test_constant_grid_stays_constant(self, rng):
        h, w = SPEC.dims
        delta = Pose.se2(0.37, 0.83, -0.41)  # deliberately off-lattice
        out, valid = warp_bev(Tensor(rows(np.full((L, h, w), 2.5))), SPEC, delta, fresh_embedding(rng))
        vals = chw(out.data, SPEC.dims)[:, valid.reshape(h, w)]
        np.testing.assert_allclose(vals, 2.5, atol=1e-9)

    def test_validity_matches_geometric_oracle(self, rng):
        delta = Pose.se2(0.3, -1.2, 0.7)
        _, valid = warp_bev(make_cells(rng), SPEC, delta, fresh_embedding(rng))
        from dualstream.statstream import cell_center_grid

        centers = cell_center_grid(SPEC)
        src = invert(delta).apply_points(centers)
        h, w = SPEC.dims
        res = SPEC.resolution
        x_min, x_max, y_min, y_max = SPEC.extent
        # inside the cell-center hull: half a cell in from the extent
        want = (
            (src[:, 0] >= x_min + res / 2) & (src[:, 0] <= x_max - res / 2)
            & (src[:, 1] >= y_min + res / 2) & (src[:, 1] <= y_max - res / 2)
        )
        np.testing.assert_array_equal(valid, want)

    def test_gradients_flow_into_previous_cells(self, rng):
        with fresh_tape():
            g = make_cells(rng, grad=True)
            fresh = fresh_embedding(rng)
            out, _ = warp_bev(g, SPEC, Pose.se2(0.05, -0.3, 0.2), fresh)
            backward(sum_(out))
            assert g.grad is not None
            interior = chw(g.grad, SPEC.dims)[:, 2:-2, 2:-2]
            assert np.abs(interior).sum() > 0

    def test_fresh_embedding_receives_gradient(self, rng):
        with fresh_tape():
            g = make_cells(rng, grad=False)
            fresh = fresh_embedding(rng)
            out, _ = warp_bev(g, SPEC, Pose.se2(0.0, -3.9, 0.0), fresh)  # shifts most rows out
            backward(sum_(out))
            assert fresh.grad is not None and np.abs(fresh.grad).sum() > 0


def temporal_params(rng, degenerate=False, n_points=2):
    g, b = make_ln(L)
    return GridReadParams(
        deform=make_deformable_params(rng, L, L, 1 if degenerate else n_points, degenerate=degenerate),
        ln_g=g, ln_b=b,
    )


class TestTemporalGridAttention:
    def test_all_invalid_prev_reduces_to_self_only(self, rng):
        p = temporal_params(rng)
        curr = make_cells(rng)
        h, w = SPEC.dims
        prev = (make_cells(rng), np.zeros(h * w, bool))
        with_prev = temporal_grid_attention(curr, SPEC, prev, p).data
        self_only = temporal_grid_attention(curr, SPEC, None, p).data
        np.testing.assert_allclose(with_prev, self_only, atol=1e-12)

    def test_degenerate_fixed_point_structure(self, rng):
        p = temporal_params(rng, degenerate=True)
        curr = make_cells(rng)
        prev = (Tensor(curr.data.copy()), np.ones(SPEC.dims[0] * SPEC.dims[1], bool))
        out = temporal_grid_attention(curr, SPEC, prev, p).data
        flat = curr.data
        want = layernorm(t64(flat + flat), p.ln_g, p.ln_b).data  # proj is identity
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_matches_enumeration_oracle(self, rng):
        spec = BevSpec(dims=(4, 4), extent=(-2.0, 2.0, -2.0, 2.0))
        p = temporal_params(rng, n_points=2)
        h, w = spec.dims
        q = make_cells(rng, spec)
        prev_validity = rng.uniform(size=h * w) > 0.3
        prev_cells = make_cells(rng, spec)
        got = temporal_grid_attention(q, spec, (prev_cells, prev_validity), p).data

        # explicit enumeration: run the dense deformable oracle per target
        from dualstream.diffcore.ops import _deformable_core

        refs = grid_coords(spec)
        o1, v1 = _deformable_core(q, refs, q, spec.dims, p.deform)
        o2, v2 = _deformable_core(q, refs, prev_cells, spec.dims, p.deform, valid_mask=prev_validity)
        counts = np.maximum(v1 + v2, 1.0)
        want_flat = layernorm(
            t64(q.data + (o1.data + o2.data) / counts[:, None]), p.ln_g, p.ln_b
        ).data
        np.testing.assert_allclose(got, want_flat, atol=1e-5)


def bev_img_params(rng, degenerate=False):
    g, b = make_ln(L)
    return CameraReadParams(
        deform=make_deformable_params(rng, L, L, 1 if degenerate else 2, degenerate=degenerate),
        pe_w=t64(np.zeros((2 * 16, L)), grad=True),
        pe_b=t64(np.zeros(L), grad=True),
        ln_g=g, ln_b=b,
    )


def tiny_camera(name="front", backwards=False):
    from dualstream.geom3d import CameraModel

    r = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    if backwards:
        r = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])
    return CameraModel(fx=60.0, fy=60.0, cx=32.0, cy=16.0, rotation=r, translation=np.array([0.0, 0.0, -1.0 * 0]),
                       width=64, height=32, name=name)


class TestBevImageCrossAttention:
    def test_no_cameras_residual_path(self, rng):
        p = bev_img_params(rng)
        cells = make_cells(rng)
        none = FeatureMap(data=t64(np.zeros((0, L))), dims=(4, 8), stride=8, names=())
        out = bev_image_cross_attention(cells, pillar_reads(SPEC, none, {}, p), none, p)
        want = layernorm(cells, p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_cells_behind_camera_residual(self, rng):
        p = bev_img_params(rng)
        cam = tiny_camera()
        fm = feature_map(rng.normal(size=(L, 4, 8)), stride=8)
        cells = make_cells(rng)
        out = bev_image_cross_attention(cells, pillar_reads(replace(SPEC, pillar_heights=(0.0,)), fm, {"front": cam}, p),
                                        fm, p)
        # rows with x < 0 sit behind the forward camera: pure residual
        flat = layernorm(cells, p.ln_g, p.ln_b).data
        got = out.data
        behind = np.array([cell_to_metric(SPEC, ij)[0] < -0.5 for ij in grid_coords(SPEC)])
        np.testing.assert_allclose(got[behind], flat[behind], atol=1e-12)

    def test_single_visible_pillar_degenerate_bilinear(self, rng):
        p = bev_img_params(rng, degenerate=True)
        cam = tiny_camera()
        from dualstream.diffcore import bilinear_sample
        from dualstream.geom3d import project_points

        fm = feature_map(rng.normal(size=(L, 4, 8)), stride=8)
        cells = make_cells(rng)
        out = bev_image_cross_attention(cells, pillar_reads(replace(SPEC, pillar_heights=(0.5,)), fm, {"front": cam}, p),
                                        fm, p)
        got = out.data
        centers = cell_to_metric(SPEC, grid_coords(SPEC))
        flat = cells.data
        hf, wf = fm.dims
        for n, (x, y) in enumerate(centers):
            (uv,), _, (valid,) = project_points(cam, [[x, y, 0.5]])
            if not valid:   # behind the camera or outside the image
                continue
            coords = np.array([[uv[1] / fm.stride - 0.5, uv[0] / fm.stride - 0.5]])
            # points outside the feature cell-center hull are dropped
            if not (0 <= coords[0, 0] <= hf - 1 and 0 <= coords[0, 1] <= wf - 1):
                continue
            sample = bilinear_sample(fm.data, fm.dims, t64(coords)).data[0]
            want = layernorm(t64((flat[n] + sample)[None, :]), p.ln_g, p.ln_b).data[0]
            np.testing.assert_allclose(got[n], want, atol=1e-10)

    def test_two_pillar_points_mean(self, rng):
        p = bev_img_params(rng, degenerate=True)
        cam = tiny_camera()
        from dualstream.diffcore import bilinear_sample
        from dualstream.geom3d import project_points

        fm = feature_map(rng.normal(size=(L, 8, 16)), stride=4)
        heights = (-0.3, 0.3)
        cells = make_cells(rng)
        out = bev_image_cross_attention(cells, pillar_reads(replace(SPEC, pillar_heights=heights), fm,
                                                            {"front": cam}, p), fm, p)
        got = out.data
        centers = cell_to_metric(SPEC, grid_coords(SPEC))
        flat = cells.data
        checked = 0
        hf, wf = fm.dims
        for n, (x, y) in enumerate(centers):
            samples = []
            for z in heights:
                (uv,), _, (valid,) = project_points(cam, [[x, y, z]])
                if not valid:   # behind the camera or outside the image
                    continue
                coords = np.array([[uv[1] / fm.stride - 0.5, uv[0] / fm.stride - 0.5]])
                if not (0 <= coords[0, 0] <= hf - 1 and 0 <= coords[0, 1] <= wf - 1):
                    continue
                samples.append(bilinear_sample(fm.data, fm.dims, t64(coords)).data[0])
            if len(samples) == 2:
                want = layernorm(t64((flat[n] + 0.5 * (samples[0] + samples[1]))[None, :]),
                                 p.ln_g, p.ln_b).data[0]
                np.testing.assert_allclose(got[n], want, atol=1e-10)
                checked += 1
        assert checked > 0


def test_pillar_reads_are_reused_by_value_and_bounded(rng):
    from dualstream.synthworld import build_camera_rig

    p = bev_img_params(rng)
    fms = stack_maps(*(feature_map(np.zeros((L, 4, 8)), stride=8, name=name) for name in ("front", "back")))
    pillars = PillarReads()
    first = pillars.reads(SPEC, fms, build_camera_rig(width=64, height=32), p)
    assert not first.enc.flags.writeable and not first.refs.flags.writeable
    # equal values in new objects reuse the plan
    assert pillars.reads(SPEC, replace(fms), build_camera_rig(width=64, height=32), p) is first
    for fov in (50.0, 70.0, 80.0, 90.0, 100.0):
        assert pillars.reads(SPEC, fms, build_camera_rig(width=64, height=32, fov_deg=fov), p) is not first
    assert len(pillars._plans) == PillarReads.KEPT
    again = pillars.reads(SPEC, fms, build_camera_rig(width=64, height=32), p)   # planned anew, equal
    assert again is not first and again.enc.tobytes() == first.enc.tobytes()


def test_camera_reads_planned_for_other_queries_are_refused(rng):
    p = bev_img_params(rng)
    none = FeatureMap(data=t64(np.zeros((0, L))), dims=(4, 8), stride=8, names=())
    reads = pillar_reads(SPEC, none, {}, p)
    small = make_cells(rng, BevSpec(dims=(4, 4), extent=(-2.0, 2.0, -2.0, 2.0)))
    with pytest.raises(ShapeError, match="planned for 64 queries, got 16"):
        bev_image_cross_attention(small, reads, none, p)


def test_camera_reads_planned_for_other_cameras_are_refused(rng):
    p = bev_img_params(rng)
    cells = make_cells(rng)
    both = stack_maps(*(feature_map(rng.normal(size=(L, 4, 8)), stride=8, name=name) for name in ("front", "back")))
    reads = pillar_reads(SPEC, both, {"front": tiny_camera(), "back": tiny_camera("back", backwards=True)}, p)
    swapped = FeatureMap(data=both.data, dims=both.dims, stride=both.stride, names=("back", "front"))
    for table in (feature_map(rng.normal(size=(L, 4, 8)), stride=8), swapped):
        with pytest.raises(ShapeError, match=r"planned for cameras \('front', 'back'\)"):
            bev_image_cross_attention(cells, reads, table, p)

class TestSegmentationHead:
    def test_zero_grid_zero_init_gives_half_sigmoid(self):
        rng = np.random.default_rng(0)
        params = make_mlp_params(rng, L, 4, 3, zero=True)
        h, w = SPEC.dims
        logits = segmentation_head(Tensor(np.zeros((h * w, L))), SPEC.dims, params)
        np.testing.assert_allclose(logits.data, 0.0, atol=1e-12)
        sig = 1.0 / (1.0 + np.exp(-logits.data))
        np.testing.assert_allclose(sig, 0.5, atol=1e-12)

    def test_shape_contract(self, rng):
        params = make_mlp_params(rng, L, 4, 3)
        assert segmentation_head(make_cells(rng), SPEC.dims, params).data.shape == (3,) + SPEC.dims

    def test_bce_gradient_through_cells(self, rng):
        from check import finite_diff_check
        from dualstream.heads import segmentation_loss

        params = make_mlp_params(rng, L, 4, 3)
        gt = (rng.uniform(size=(3, 3, 3)) > 0.5).astype(np.float64)
        cells = Tensor(rows(rng.normal(size=(L, 3, 3))), requires_grad=True)

        def fn(c):
            return segmentation_loss(segmentation_head(c, (3, 3), params), gt)

        assert finite_diff_check(fn, [cells], eps=1e-6) <= 1e-4
