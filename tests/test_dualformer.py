import numpy as np
import pytest
from check import finite_diff_check
from util import anchor_reads, encode, pillar_reads, rows, t64

from dualstream.configio import Config
from dualstream.diffcore import Tensor, backward, fresh_tape, layernorm
from dualstream.diffcore.tensor import mul, sum_
from dualstream.dualformer import (
    VariantFlags,
    _dynamic_static_core,
    _static_dynamic_core,
    forward_layer,
    forward_stack,
)
from dualstream.dynstream import QuerySet
from dualstream.model import DualStreamModel, build_layer_params
from dualstream.params import ParamStore
from dualstream.statstream import BevGrid, BevSpec, metric_to_cell

# float64 models, so the finite-difference and per-camera checks keep tight tolerances
CFG = Config(dtype="f64", latent_dim=8, heads=2, n_layers=1, n_queries=6, topk=3, n_points=2,
             bev_cells=6, bev_extent=3.0, patch=8, image_height=16, image_width=32,
             decode_hidden=8)
RANGES = CFG.detection_ranges()
L = CFG.latent_dim
SPEC = BevSpec(dims=(6, 6), extent=(-3.0, 3.0, -3.0, 3.0))


def layer_params(rng_seed=0, cfg=CFG):
    store = ParamStore(np.float64)
    rng = np.random.default_rng(rng_seed)
    return build_layer_params(store, "layer0", rng, cfg), store


def make_queries(rng, n=1, anchors=None):
    """n queries with random latents; unset anchors are drawn in [-2.5, 2.5]^3."""
    return QuerySet(
        latents=t64(rng.normal(size=(n, L))),
        anchors=t64(anchors if anchors is not None else rng.uniform(-2.5, 2.5, (n, 3))),
        velocities=np.zeros((n, 2)), scores=np.full(n, 0.5), ids=np.full(n, -1),
    )


def make_grid(rng, spec=SPEC):
    h, w = spec.dims
    return BevGrid(spec=spec, cells=Tensor(rows(rng.normal(size=(L, h, w)))),
                   validity=np.ones((h, w), dtype=bool))


class TestDynamicStatic:
    def test_anchor_outside_extent_residual(self, rng):
        params, _ = layer_params()
        p = params.dyn_static
        grid = make_grid(rng)
        q = make_queries(rng, anchors=[[10.0, 0.0, 0.0]])
        out = _dynamic_static_core(q.latents, q.anchor_xyz, grid, p)
        want = layernorm(q.latents, p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_degenerate_equals_grid_bilinear(self, rng):
        from util import make_deformable_params, make_ln
        from dualstream.statstream import GridReadParams
        from dualstream.diffcore import bilinear_sample

        g_, b_ = make_ln(L)
        p = GridReadParams(deform=make_deformable_params(rng, L, L, 1, degenerate=True),
                           ln_g=g_, ln_b=b_)
        grid = make_grid(rng)
        q = make_queries(rng, anchors=[[0.7, -1.2, 0.0]])
        out = _dynamic_static_core(q.latents, q.anchor_xyz, grid, p)
        ref = metric_to_cell(SPEC, np.array([0.7, -1.2]))
        sample = bilinear_sample(grid.cells, SPEC.dims, t64(ref[None, :])).data[0]
        want = layernorm(t64(q.latents.data + sample), p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.data, want, atol=1e-10)

    def test_batch_matches_per_query_loop(self, rng):
        params, _ = layer_params()
        p = params.dyn_static
        grid = make_grid(rng)
        qs = make_queries(rng, 3)
        batch = _dynamic_static_core(qs.latents, qs.anchor_xyz, grid, p).data
        for i in range(3):
            q = qs.take([i])
            solo = _dynamic_static_core(q.latents, q.anchor_xyz, grid, p).data[0]
            np.testing.assert_allclose(batch[i], solo, atol=1e-5)


class TestStaticDynamic:
    def bidir_params(self, seed=0):
        cfg = Config(latent_dim=L, heads=2, n_points=2, interaction="bidirectional",
                     bev_cells=6, bev_extent=3.0, patch=8, image_height=16, image_width=32,
                     decode_hidden=8)
        store = ParamStore(np.float64)
        return build_layer_params(store, "layer0", np.random.default_rng(seed), cfg)

    def test_zero_queries_identity_path(self, rng):
        params = self.bidir_params()
        p = params.static_dyn
        grid = make_grid(rng)
        out = _static_dynamic_core(grid, t64(np.zeros((0, L))), np.zeros((0, 3)), p, RANGES)
        want = layernorm(grid.cells, p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.cells.data, want, atol=1e-12)

    def test_single_query_single_key_oracle(self, rng):
        params = self.bidir_params()
        p = params.static_dyn
        grid = make_grid(rng)
        q = make_queries(rng)
        out = _static_dynamic_core(grid, q.latents, q.anchor_xyz, p, RANGES)
        # single-key attention: every cell receives proj(v)
        v = q.latents.data[0] @ p.attn.wv.data + p.attn.bv.data
        proj = v @ p.attn.wo.data + p.attn.bo.data
        flat = grid.cells.data
        want = layernorm(t64(flat + proj[None, :]), p.ln_g, p.ln_b).data
        np.testing.assert_allclose(out.cells.data, want, atol=1e-10)

    def test_permutation_invariance_over_keys(self, rng):
        params = self.bidir_params()
        p = params.static_dyn
        grid = make_grid(rng)
        qs = make_queries(rng, 5)
        moved = qs.take(rng.permutation(5))
        out1 = _static_dynamic_core(grid, qs.latents, qs.anchor_xyz, p, RANGES)
        out2 = _static_dynamic_core(grid, moved.latents, moved.anchor_xyz, p, RANGES)
        np.testing.assert_array_equal(out1.cells.data, out2.cells.data)


def micro_model(interaction="full", temporal=True, seed=0):
    from dataclasses import replace

    cfg = replace(CFG, interaction=interaction, temporal_bev=temporal, seed=seed)
    return DualStreamModel(cfg)


def micro_frame(model, rng_seed=0, n_agents=2):
    from dualstream.synthworld import WorldConfig, generate_scene, build_frame, build_camera_rig

    world = WorldConfig(duration=3, agents_min=n_agents, agents_max=n_agents,
                        spawn_x_min=-2.0, spawn_x_max=2.5, pedestrian_fraction=0.0)
    scene = generate_scene(rng_seed, world)
    rig = build_camera_rig(width=model.cfg.image_width, height=model.cfg.image_height)
    frames = [build_frame(scene, t, rig, model.bev_spec, {n: True for n in rig}, model.ranges)
              for t in range(3)]
    return frames, rig, world.dt


def layer_reads(queries, grid, features, rig, model):
    """The anchors' and the pillars' camera reads, as ``forward_stack`` plans them."""
    layer = model.layers[0]
    return (anchor_reads(queries.anchor_xyz, features, rig, layer.obj_image),
            pillar_reads(grid, features, rig, layer.bev_image))


class TestForwardLayerAblations:
    def test_interaction_none_object_stream_ignores_grid(self, rng):
        model = micro_model(interaction="none")
        frames, rig, dt = micro_frame(model)
        features = model.encode_images(frames[0].images)
        queries = make_queries(rng, 4)
        grid_a = make_grid(rng, model.bev_spec)
        grid_b = make_grid(rng, model.bev_spec)  # arbitrary other grid
        flags = VariantFlags(interaction="none", temporal_bev=False)
        out_a, _ = forward_stack(queries, grid_a, None, features, rig, flags,
                                 model.layers, model.ranges, model.pillar_reads)
        out_b, _ = forward_stack(queries, grid_b, None, features, rig, flags,
                                 model.layers, model.ranges, model.pillar_reads)
        np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_bev_stream_independent_of_queries_under_full(self, rng):
        model = micro_model(interaction="full")
        frames, rig, dt = micro_frame(model)
        features = model.encode_images(frames[0].images)
        grid = make_grid(rng, model.bev_spec)
        flags = VariantFlags(interaction="full", temporal_bev=True)
        qs_a = make_queries(rng, 4)
        qs_b = make_queries(rng, 4)
        _, grid_a = forward_stack(qs_a, grid, None, features, rig, flags,
                                  model.layers, model.ranges, model.pillar_reads)
        _, grid_b = forward_stack(qs_b, grid, None, features, rig, flags,
                                  model.layers, model.ranges, model.pillar_reads)
        np.testing.assert_array_equal(grid_a.cells.data, grid_b.cells.data)

    def test_interaction_liveness_grid_perturbation_reaches_queries(self, rng):
        model = micro_model(interaction="full")
        frames, rig, dt = micro_frame(model)
        features = model.encode_images(frames[0].images)
        flags = VariantFlags(interaction="full", temporal_bev=False)
        queries = make_queries(rng, 2, anchors=np.tile([0.5, 0.5, 0.0], (2, 1)))
        grid = make_grid(rng, model.bev_spec)
        out1, _ = forward_stack(queries, grid, None, features, rig, flags,
                                model.layers, model.ranges, model.pillar_reads)
        cells2 = grid.cells.data.copy()
        ref = metric_to_cell(model.bev_spec, np.array([0.5, 0.5]))
        cells2[int(round(ref[0])) * model.bev_spec.dims[1] + int(round(ref[1]))] += 1.0
        grid2 = BevGrid(spec=grid.spec, cells=Tensor(cells2), validity=grid.validity)
        out2, _ = forward_stack(queries, grid2, None, features, rig, flags,
                                model.layers, model.ranges, model.pillar_reads)
        assert np.abs(out1.data - out2.data).max() > 1e-9

    def test_shapes_preserved(self, rng):
        model = micro_model()
        frames, rig, dt = micro_frame(model)
        features = model.encode_images(frames[0].images)
        flags = model.flags
        queries = make_queries(rng, 5)
        grid = make_grid(rng, model.bev_spec)
        latents, grid_out = forward_layer(
            queries.latents, queries.anchor_xyz, grid, None, features,
            *layer_reads(queries, grid, features, rig, model),
            flags, model.layers[0], model.ranges)
        assert latents.data.shape == (5, L)
        assert grid_out.cells.data.shape == grid.cells.data.shape

    def test_permutation_equivariance_all_flag_combinations(self, rng):
        for interaction in ("full", "none", "bidirectional"):
            for temporal in (True, False):
                model = micro_model(interaction=interaction, temporal=temporal)
                frames, rig, dt = micro_frame(model)
                features = model.encode_images(frames[0].images)
                flags = VariantFlags(interaction=interaction, temporal_bev=temporal)
                qs = make_queries(rng, 4)
                perm = rng.permutation(4)
                grid = make_grid(rng, model.bev_spec)
                out1, _ = forward_stack(qs, grid, None, features, rig, flags,
                                        model.layers, model.ranges, model.pillar_reads)
                out2, _ = forward_stack(qs.take(perm), grid, None, features, rig,
                                        flags, model.layers, model.ranges, model.pillar_reads)
                np.testing.assert_array_equal(out1.data[perm], out2.data)


class TestForwardStack:
    def test_single_layer_equals_forward_layer(self, rng):
        model = micro_model()
        frames, rig, dt = micro_frame(model)
        features = model.encode_images(frames[0].images)
        queries = make_queries(rng, 4)
        grid = make_grid(rng, model.bev_spec)
        stacked, grid_s = forward_stack(queries, grid, None, features, rig, model.flags,
                                        model.layers[:1], model.ranges, model.pillar_reads)
        single, grid_l = forward_layer(
            queries.latents, queries.anchor_xyz, grid, None, features,
            *layer_reads(queries, grid, features, rig, model),
            model.flags, model.layers[0], model.ranges)
        np.testing.assert_array_equal(stacked.data, single.data)
        np.testing.assert_array_equal(grid_s.cells.data, grid_l.cells.data)

    def test_deterministic_given_seed(self, rng):
        runs = []
        for _ in range(2):
            model = micro_model(seed=3)
            frames, rig, dt = micro_frame(model)
            features = model.encode_images(frames[0].images)
            queries = make_queries(np.random.default_rng(1), 4)
            grid = make_grid(np.random.default_rng(2), model.bev_spec)
            out, _ = forward_stack(queries, grid, None, features, rig, model.flags,
                                   model.layers, model.ranges, model.pillar_reads)
            runs.append(out.data.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_gradient_reaches_layer0_through_two_layer_stack(self, rng):
        from dataclasses import replace

        cfg = replace(CFG, n_layers=2)
        model = DualStreamModel(cfg)
        frames, rig, dt = micro_frame(model)
        features = model.encode_images(frames[0].images)
        queries = make_queries(rng, 3)
        grid = BevGrid(spec=model.bev_spec, cells=model.bev_init,
                       validity=np.ones(model.bev_spec.dims, bool))

        # a plain sum over a layernorm output with unit gamma is
        # identically constant, so mix rows with fixed random weights
        mix = rng.normal(size=(3, L))
        probe = model.layers[0].obj_self.attn.wq
        with fresh_tape():
            latents, grid_out = forward_stack(queries, grid, None, features, rig,
                                              model.flags, model.layers, model.ranges, model.pillar_reads)
            loss = sum_(mul(latents, mix))
            model.store.zero_grads()
            backward(loss)
        assert probe.grad is not None and np.abs(probe.grad).sum() > 0

        # finite differences directly on the layer-0 parameter object;
        # fn re-reads the probe tensor each evaluation
        def fn(w):
            out, _ = forward_stack(queries, grid, None, features, rig,
                                   model.flags, model.layers, model.ranges, model.pillar_reads)
            return sum_(mul(out, mix))

        err = finite_diff_check(fn, [probe], eps=1e-5, coord_limit=12)
        assert err <= 1e-4



def step_frames(frames, rigs, dt, fresh):
    """Step frames through one micro model, or through a fresh model (with
    no pillar plan kept) per frame; returns each frame's output bytes."""
    from dualstream.diffcore import no_grad

    model = micro_model()
    state, outs = model.initial_state(), []
    for frame, rig in zip(frames, rigs):
        if fresh:
            model = micro_model()
        with no_grad():
            res = model.forward_frame(frame, rig, state, dt)
        state = res.state
        outs.append([res.seg_logits.data.tobytes(), state.memory.latents.data.tobytes(),
                     state.grid.cells.data.tobytes()])
    return outs


class TestPlannedCameraReads:
    """The pillars' camera reads are planned once per camera set and reused
    across frames; the reuse must not change a bit of any frame."""

    def test_alternating_camera_sets_equal_a_fresh_model_per_frame(self, monkeypatch):
        from dualstream import statstream
        from dualstream.synthworld import WorldConfig, alternating_schedule, build_camera_rig, build_frame
        from dualstream.synthworld import generate_scene

        model = micro_model()
        world = WorldConfig(duration=4, agents_min=2, agents_max=2, spawn_x_min=-2.0, spawn_x_max=2.5,
                            pedestrian_fraction=0.0)
        scene = generate_scene(0, world)
        # a new rig object per frame: the plans are reused by value
        rigs = [build_camera_rig(width=model.cfg.image_width, height=model.cfg.image_height) for _ in range(4)]
        frames = [build_frame(scene, t, rigs[t], model.bev_spec, on, model.ranges)
                  for t, on in enumerate(alternating_schedule(4))]
        plans = []
        plan = statstream.plan_camera_reads
        monkeypatch.setattr(statstream, "plan_camera_reads", lambda *a: plans.append(a) or plan(*a))
        stepped = step_frames(frames, rigs, world.dt, fresh=False)
        assert len(plans) == 2   # one plan per camera set
        assert step_frames(frames, rigs, world.dt, fresh=True) == stepped
        assert stepped[0] != stepped[2]

    def test_a_rig_change_is_planned_anew(self):
        from dualstream.synthworld import build_camera_rig

        model = micro_model()
        frames, rig, dt = micro_frame(model)
        wide = build_camera_rig(width=model.cfg.image_width, height=model.cfg.image_height, fov_deg=100.0)
        stepped = step_frames(frames[:2], [rig, wide], dt, fresh=False)
        fresh = step_frames(frames[:2], [rig, wide], dt, fresh=True)
        assert stepped == fresh
        assert step_frames(frames[:2], [rig, rig], dt, fresh=True)[1] != fresh[1]   # the rig matters

class TestOneFeatureTable:
    """A frame's cameras are one backbone pass and one stacked table; each
    camera's block is what the backbone gives that camera alone."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_each_block_is_its_camera_alone_bitwise(self, rng, dtype, k):
        from dualstream.geom3d import CAMERA_SLOTS

        cfg = Config(dtype=dtype)
        model = DualStreamModel(cfg)
        names = tuple(rng.permutation(CAMERA_SLOTS)[:k])
        images = {name: rng.uniform(size=(3, cfg.image_height, cfg.image_width)).astype(np.float32)
                  for name in names}
        table = model.encode_images(images)
        assert table.names == tuple(name for name in CAMERA_SLOTS if name in names)
        size = table.dims[0] * table.dims[1]
        for i, name in enumerate(table.names):
            alone = model.encode_images({name: images[name]}).data.data
            assert alone.dtype == cfg.np_dtype()
            assert table.data.data[i * size:(i + 1) * size].tobytes() == alone.tobytes(), name

    def test_images_of_different_sizes_are_refused(self, rng):
        from dualstream.diffcore import ShapeError

        model = micro_model()
        h, w = CFG.image_height, CFG.image_width
        images = {"front": np.zeros((3, h, w), np.float32), "back": np.zeros((3, h, 2 * w), np.float32)}
        with pytest.raises(ShapeError, match="differ in size"):
            model.encode_images(images)

    def test_no_cameras_make_an_empty_table(self):
        from dataclasses import replace

        model = micro_model()
        frames, rig, dt = micro_frame(model)
        table = model.encode_images(dict.fromkeys(frames[0].images))
        assert table.names == () and table.data.data.shape == (0, L)
        res = model.forward_frame(replace(frames[0], images=dict.fromkeys(frames[0].images)), rig,
                                  model.initial_state(), dt)
        assert np.isfinite(res.seg_logits.data).all()


class TestConfigReachesBlocks:
    def test_pillar_heights_change_bev_output(self):
        from dataclasses import replace

        grids = []
        for heights in ("-1,0,1,2", "0"):
            model = DualStreamModel(replace(CFG, pillar_heights=heights))
            assert model.bev_spec.pillar_heights == tuple(
                float(z) for z in heights.split(","))
            frames, rig, dt = micro_frame(model)
            res = model.forward_frame(frames[0], rig, model.initial_state(), dt)
            grids.append(res.state.grid.cells.data)
        assert np.abs(grids[0] - grids[1]).max() > 1e-6


def per_camera_bev_image(grid, features, cameras, p):
    """BEV-to-image attention as one deformable call per camera, each camera's
    pillar hits summed, then the cameras added in name order."""
    from dualstream.diffcore import linear, sincos_encoding
    from deformable_oracle import deformable_core as _deformable_core
    from deformable_oracle import camera_table, grid_of_table, scatter_rows
    from dualstream.diffcore.tensor import add, concat, reshape
    from dualstream.geom3d import project_points
    from dualstream.statstream import cell_center_grid

    n = grid.spec.dims[0] * grid.spec.dims[1]
    q = grid.cells
    nz = len(grid.spec.pillar_heights)
    centers = cell_center_grid(grid.spec)
    pts = np.concatenate([np.concatenate([centers, np.full((n, 1), z)], axis=1) for z in grid.spec.pillar_heights])
    q_rep = concat([q] * nz)
    total, counts = None, np.zeros(n)
    for name in sorted(features.names):
        cam, stride = cameras[name], features.stride
        uv, _, valid = project_points(cam, pts)
        fcoords = np.stack([uv[:, 1] / stride - 0.5, uv[:, 0] / stride - 0.5], axis=1)
        out, anyv = _deformable_core(q_rep, fcoords, grid_of_table(camera_table(features, name), features.dims),
                                     p.deform, query_valid=valid)
        aidx = np.nonzero(anyv)[0]
        if aidx.size:
            pix = sincos_encoding(np.stack([uv[aidx, 0] / cam.width, uv[aidx, 1] / cam.height], axis=1),
                                  p.pe_w.data.shape[0] // 4)
            out = add(out, scatter_rows(linear(Tensor(pix), p.pe_w, p.pe_b), aidx, nz * n))
        cam_sum = sum_(reshape(out, (nz, n, -1)), axis=0)
        total = cam_sum if total is None else add(total, cam_sum)
        counts += anyv.reshape(nz, n).sum(axis=0)
    combined = mul(q, 0.0) if total is None else mul(total, (1.0 / np.maximum(counts, 1.0))[:, None])
    return layernorm(add(q, combined), p.ln_g, p.ln_b)


def per_camera_obj_image(latents, anchors, features, cameras, p):
    """Object-to-image attention as one deformable call per camera, the
    cameras added in slot order and averaged over those that see each query."""
    from dualstream.diffcore import linear, sincos_encoding
    from deformable_oracle import deformable_core as _deformable_core
    from deformable_oracle import camera_table, grid_of_table
    from dualstream.diffcore.tensor import add
    from dualstream.geom3d import CAMERA_SLOTS, project_points

    total, counts = None, np.zeros(latents.data.shape[0])
    for name in CAMERA_SLOTS:
        if name not in features.names:
            continue
        cam, stride = cameras[name], features.stride
        uv, _, valid = project_points(cam, anchors)
        fcoords = np.stack([uv[:, 1] / stride - 0.5, uv[:, 0] / stride - 0.5], axis=1)
        out, anyv = _deformable_core(latents, fcoords, grid_of_table(camera_table(features, name), features.dims),
                                     p.deform, query_valid=valid)
        enc = sincos_encoding(np.stack([uv[:, 0] / cam.width, uv[:, 1] / cam.height], axis=1),
                              p.pe_w.data.shape[0] // 4)
        out = add(out, mul(linear(Tensor(enc), p.pe_w, p.pe_b), anyv.astype(np.float64)[:, None]))
        total = out if total is None else add(total, out)
        counts += anyv
    combined = mul(total, (1.0 / np.maximum(counts, 1.0))[:, None])
    return layernorm(add(latents, combined), p.ln_g, p.ln_b)


def seen_anchors(rng, rig, n):
    """n anchors, each projecting well inside the feature map of some camera."""
    from dualstream.geom3d import project_points

    pts = rng.uniform([-6.0, -6.0, -0.5], [6.0, 6.0, 1.5], size=(4000, 3))
    seen = np.zeros(len(pts), dtype=bool)
    for cam in rig.values():
        uv, _, valid = project_points(cam, pts)
        seen |= valid & (np.abs(uv[:, 0] / cam.width - 0.5) < 0.3) & (np.abs(uv[:, 1] / cam.height - 0.5) < 0.2)
    return pts[seen][:n]


CAMERA_SUBSETS = [None, ("front", "back-left", "front-right"), ("front",)]


class TestCameraBlocksMatchPerCameraLoop:
    """The camera blocks stack the cameras into one value table and make one
    deformable call; values and gradients match one call per camera."""

    def run(self, block, leaf, model, rng):
        from dualstream.diffcore import tanh

        with fresh_tape():
            model.store.zero_grads()
            leaf.grad = None
            out = block()
            backward(sum_(tanh(out)))
        grads = {name: t.grad.copy() for name, t in model.store.items() if t.grad is not None}
        return out.data, leaf.grad.copy(), grads

    def check(self, got, want):
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
        assert got[2].keys() == want[2].keys()
        for name in want[2]:
            np.testing.assert_allclose(got[2][name], want[2][name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("cams", CAMERA_SUBSETS, ids=["all", "three", "one"])
    def test_bev_image(self, rng, cams):
        from dualstream.statstream import bev_image_cross_attention

        model = micro_model()
        frames, rig, _ = micro_frame(model)
        p = model.layers[0].bev_image
        grid = make_grid(rng, model.bev_spec)
        grid.cells.requires_grad = True
        feats = encode(model, frames[0].images, cams)
        got = self.run(lambda: bev_image_cross_attention(grid, pillar_reads(grid, feats, rig, p), feats, p).cells,
                       grid.cells, model, rng)
        want = self.run(lambda: per_camera_bev_image(grid, feats, rig, p), grid.cells, model, rng)
        assert np.abs(got[0] - grid.cells.data).max() > 1e-3   # the cameras contribute
        self.check(got, want)

    @pytest.mark.parametrize("cams", CAMERA_SUBSETS, ids=["all", "three", "one"])
    def test_obj_image(self, rng, cams):
        from dualstream.dynstream import _obj_image_cross_attention

        model = micro_model()
        frames, rig, _ = micro_frame(model)
        p = model.layers[0].obj_image
        q = make_queries(rng, 24, anchors=seen_anchors(rng, rig, 24))
        q.latents.requires_grad = True
        feats = encode(model, frames[0].images, cams)
        got = self.run(lambda: _obj_image_cross_attention(q.latents, anchor_reads(q.anchor_xyz, feats, rig, p),
                                                          feats, p),
                       q.latents, model, rng)
        want = self.run(lambda: per_camera_obj_image(q.latents, q.anchor_xyz, feats, rig, p),
                        q.latents, model, rng)
        alone = layernorm(q.latents, p.ln_g, p.ln_b).data
        assert np.abs(got[0] - alone).max() > 1e-3   # the cameras contribute
        self.check(got, want)
