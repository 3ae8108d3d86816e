"""The deformable blocks fold each query's mean over its reads into one
weighted read of the sampling plan. Against the per-read oracle in
``deformable_oracle`` they give the same outputs and gradients to 1e-12 in
float64; the weighted read itself is checked against its definition."""

from dataclasses import fields, replace

import numpy as np
import pytest
from check import finite_diff_check
from deformable_oracle import (
    bev_image_cross_attention as oracle_bev_image,
    deformable_core as oracle_core,
    dynamic_static_core as oracle_dyn_static,
    obj_image_cross_attention as oracle_obj_image,
    temporal_grid_attention as oracle_temporal,
)
from test_dualformer import CAMERA_SUBSETS, make_queries, micro_frame, micro_model, seen_anchors
from test_sampling_plan import points, reference_bilinear
from util import anchor_reads, encode, make_deformable_params, pillar_reads, rows, t64

from dualstream.diffcore import Tensor, backward, fresh_tape, sum_, tanh
from dualstream.diffcore.ops import _bilinear_flat, _deformable_core, sampling_plan
from dualstream.diffcore.tensor import ShapeError, mul
from dualstream.dualformer import _dynamic_static_core
from dualstream.dynstream import _obj_image_cross_attention
from dualstream.statstream import bev_image_cross_attention, temporal_grid_attention


def perturbed_model(rng):
    """The micro model with every parameter, biases included, moved off its
    initial value, so each term of the blocks carries weight."""
    model = micro_model()
    for _, t in model.store.items():
        t.data = t.data + rng.normal(scale=0.2, size=t.data.shape)
    return model


def run(block, leaves, store, mix):
    """Output, leaf gradients and parameter gradients of sum(tanh(out) * mix);
    a parameter the block does not reach counts as a zero gradient."""
    with fresh_tape():
        store.zero_grads()
        for leaf in leaves:
            leaf.grad = None
        out = block()
        backward(sum_(mul(tanh(out), mix)))
    zero = [np.zeros_like(leaf.data) for leaf in leaves]
    return (out.data, [z if leaf.grad is None else leaf.grad.copy() for z, leaf in zip(zero, leaves)],
            {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy() for name, t in store.items()})


def assert_match(got, want):
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    for g, w in zip(got[1], want[1]):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    for name in want[2]:
        np.testing.assert_allclose(got[2][name], want[2][name], rtol=0, atol=1e-12, err_msg=name)


def random_cells(rng, spec):
    """Random (H*W, 8) BEV cells of ``spec``'s grid, as a gradient leaf."""
    return Tensor(rows(rng.normal(size=(8,) + spec.dims)), requires_grad=True)


@pytest.mark.parametrize("with_prev", [True, False], ids=["prev", "no-prev"])
def test_temporal_matches_oracle(rng, with_prev):
    model = perturbed_model(rng)
    p = model.layers[0].bev_temporal
    spec = model.bev_spec
    curr = random_cells(rng, spec)
    prev = (random_cells(rng, spec), rng.uniform(size=spec.dims).ravel() > 0.4) if with_prev else None
    leaves = [curr] + ([prev[0]] if with_prev else [])
    mix = rows(rng.normal(size=(8,) + spec.dims))
    got = run(lambda: temporal_grid_attention(curr, spec, prev, p), leaves, model.store, mix)
    want = run(lambda: oracle_temporal(curr, spec, prev, p), leaves, model.store, mix)
    assert np.abs(got[0] - curr.data).max() > 1e-3
    assert_match(got, want)


@pytest.mark.parametrize("cams", CAMERA_SUBSETS, ids=["all", "three", "one"])
def test_bev_image_matches_oracle(rng, cams):
    model = perturbed_model(rng)
    frames, rig, _ = micro_frame(model)
    p = model.layers[0].bev_image
    spec = model.bev_spec
    cells = random_cells(rng, spec)
    feats = encode(model, frames[0].images, cams)
    mix = rng.normal(size=cells.data.shape)
    got = run(lambda: bev_image_cross_attention(cells, pillar_reads(spec, feats, rig, p), feats, p),
              [cells], model.store, mix)
    want = run(lambda: oracle_bev_image(cells, spec, feats, rig, p), [cells], model.store, mix)
    assert_match(got, want)


@pytest.mark.parametrize("cams", CAMERA_SUBSETS, ids=["all", "three", "one"])
def test_obj_image_matches_oracle(rng, cams):
    model = perturbed_model(rng)
    frames, rig, _ = micro_frame(model)
    p = model.layers[0].obj_image
    # anchors every camera sees, plus random ones, some behind every camera
    anchors = np.concatenate([seen_anchors(rng, rig, 16), rng.uniform(-8.0, 8.0, (8, 3))])
    q = make_queries(rng, 24, anchors=anchors)
    q.latents.requires_grad = True
    feats = encode(model, frames[0].images, cams)
    mix = rng.normal(size=q.latents.data.shape)
    got = run(lambda: _obj_image_cross_attention(q.latents, anchor_reads(q.anchor_xyz, feats, rig, p), feats, p),
              [q.latents], model.store, mix)
    want = run(lambda: oracle_obj_image(q.latents, q.anchor_xyz, feats, rig, p), [q.latents], model.store, mix)
    assert_match(got, want)


@pytest.mark.parametrize("cams", CAMERA_SUBSETS[:2], ids=["all", "three"])
def test_obj_image_overlapping_cameras_match_oracle(rng, cams):
    # 100 degree cameras at 60 degree headings overlap, so queries seen by two
    # cameras pool both reads by their mean; the default 60 degree rig never
    # shows one anchor to two cameras
    from dualstream.geom3d import project_points
    from dualstream.synthworld import build_camera_rig

    model = perturbed_model(rng)
    frames, _, _ = micro_frame(model)
    rig = build_camera_rig(width=model.cfg.image_width, height=model.cfg.image_height, fov_deg=100.0)
    p = model.layers[0].obj_image
    feats = encode(model, frames[0].images, cams)
    pts = seen_anchors(rng, rig, 400)
    twice = sum(project_points(rig[k], pts)[2].astype(int) for k in feats.names) >= 2
    anchors = np.concatenate([pts[twice][:16], pts[~twice][:4], rng.uniform(-8.0, 8.0, (4, 3))])
    q = make_queries(rng, 24, anchors=anchors)
    q.latents.requires_grad = True
    mix = rng.normal(size=q.latents.data.shape)
    got = run(lambda: _obj_image_cross_attention(q.latents, anchor_reads(q.anchor_xyz, feats, rig, p), feats, p),
              [q.latents], model.store, mix)
    want = run(lambda: oracle_obj_image(q.latents, q.anchor_xyz, feats, rig, p), [q.latents], model.store, mix)
    assert_match(got, want)


@pytest.mark.parametrize("span", [2.5, 6.0, 50.0], ids=["inside", "mixed", "outside"])
def test_dyn_static_matches_oracle(rng, span):
    model = perturbed_model(rng)
    p = model.layers[0].dyn_static
    spec = model.bev_spec
    cells = random_cells(rng, spec)
    q = make_queries(rng, 12, anchors=rng.uniform(-span, span, (12, 3)))
    q.latents.requires_grad = True
    mix = rng.normal(size=q.latents.data.shape)
    leaves = [q.latents, cells]
    got = run(lambda: _dynamic_static_core(q.latents, q.anchor_xyz, cells, spec, p), leaves, model.store, mix)
    want = run(lambda: oracle_dyn_static(q.latents, q.anchor_xyz, cells, spec, p), leaves, model.store, mix)
    assert_match(got, want)


def test_blocks_bitwise_reproducible(rng):
    model = perturbed_model(rng)
    frames, rig, _ = micro_frame(model)
    p = model.layers[0].bev_image
    spec = model.bev_spec
    cells = random_cells(rng, spec)
    feats = model.encode_images(frames[0].images)
    mix = rng.normal(size=cells.data.shape)
    first, second = (run(lambda: bev_image_cross_attention(cells, pillar_reads(spec, feats, rig, p), feats, p),
                         [cells], model.store, mix) for _ in range(2))
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1][0], second[1][0])
    for name in first[2]:
        np.testing.assert_array_equal(first[2][name], second[2][name])


def test_core_shares_and_mean_over_reads(rng):
    # query 0 reads twice (both hit), query 1 has no read, query 2 reads once
    # in range and once far outside (a miss)
    L = 3
    params = make_deformable_params(rng, L, L, 2)
    params.b_out.data[:] = rng.normal(size=L)
    grid = t64(rng.normal(size=(L, 5, 5)))
    queries = t64(rng.normal(size=(3, L)))
    refs = np.array([[1.0, 1.0], [3.0, 2.5], [2.0, 2.0], [40.0, 40.0]])
    owner = np.array([0, 0, 2, 2])
    out, share = _deformable_core(queries, refs, t64(rows(grid.data)), (5, 5), params, owner=owner)
    np.testing.assert_array_equal(share, [0.5, 0.5, 1.0, 0.0])
    per_read, hit = oracle_core(Tensor(queries.data[owner]), refs, grid, params)
    np.testing.assert_array_equal(hit, [True, True, True, False])
    np.testing.assert_allclose(out.data[0], per_read.data[:2].mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out.data[1], np.zeros(L))
    np.testing.assert_allclose(out.data[2], per_read.data[2], rtol=0, atol=1e-12)


def test_core_shares_are_the_mean_bitwise(rng):
    # up to 4 reads for each of 6 queries, hits in range and misses far out:
    # a hit read's share is 1/hits in the model dtype, bitwise, a miss's 0
    L = 3
    params = make_deformable_params(rng, L, L, 2)
    grid = t64(rng.normal(size=(L, 5, 5)))
    for dtype in (np.float32, np.float64):
        cast = replace(params, **{f.name: Tensor(getattr(params, f.name).data.astype(dtype))
                                  for f in fields(params)})
        for _ in range(20):
            owner = np.repeat(np.arange(6), rng.integers(0, 5, 6))
            keep = rng.uniform(size=owner.size) < 0.7
            refs = np.where(keep[:, None], 2.0, 40.0) + rng.uniform(-0.5, 0.5, (owner.size, 2))
            _, share = _deformable_core(Tensor(rng.normal(size=(6, L)).astype(dtype)), refs,
                                        Tensor(rows(grid.data).astype(dtype)), (5, 5), cast, owner=owner)
            hits = np.bincount(owner, weights=keep, minlength=6).astype(dtype)
            assert share.dtype == dtype
            np.testing.assert_array_equal(share, np.where(keep, dtype(1.0) / np.maximum(hits, 1)[owner], 0.0))


def test_core_rejects_unsorted_owner(rng):
    params = make_deformable_params(rng, 3, 3, 2)
    with pytest.raises(ValueError, match="sorted"):
        _deformable_core(t64(rng.normal(size=(2, 3))), np.ones((2, 2)), t64(rows(rng.normal(size=(3, 4, 4)))),
                         (4, 4), params, owner=[1, 0])


def test_core_rejects_reads_outside_its_table(rng):
    # two stacked 4 x 4 grids: a read of grid 2 or -1, or dims the rows do not tile, would index past the table
    params = make_deformable_params(rng, 3, 3, 2)
    table, queries = t64(rows(rng.normal(size=(3, 8, 4)))), t64(rng.normal(size=(2, 3)))
    for dims, grid_of in (((4, 4), [0, 2]), ((4, 4), [-1, 1]), ((3, 4), [0, 1])):
        with pytest.raises(ShapeError, match="no stack of"):
            _deformable_core(queries, np.ones((2, 2)), table, dims, params, grid_of=grid_of)
    out, _ = _deformable_core(queries, np.ones((2, 2)), table, (4, 4), params, grid_of=[1, 0])
    assert out.data.shape == (2, 3)
    # reads owned by a query past the queries would sum their gradients past them
    with pytest.raises(ShapeError, match="owned by queries 0 to 2, but there are 2 queries"):
        _deformable_core(queries, np.ones((2, 2)), table, (4, 4), params, owner=[0, 2])


def weighted_case(rng):
    """Eleven samples of a 4x5 table in rows of 3, 0, 4, 1 and 3 samples."""
    h, w = 4, 5
    starts = np.array([0, 3, 3, 7, 8, 11])
    cd = np.stack([rng.uniform(0.1, h - 1.1, 11), rng.uniform(0.1, w - 1.1, 11)], axis=1)
    return h, w, starts, cd


def test_weighted_read_is_the_weighted_sum_of_its_samples(rng):
    h, w, starts, cd = weighted_case(rng)
    fd = rng.normal(size=(h * w, 3))
    wts = rng.normal(size=11)
    out = _bilinear_flat(Tensor(fd), Tensor(cd), sampling_plan(cd, h, w), Tensor(wts), starts).data
    reads = reference_bilinear(fd, h, w, cd, np.zeros((len(cd), 3)))[0]
    want = np.stack([(wts[a:b, None] * reads[a:b]).sum(axis=0) for a, b in zip(starts[:-1], starts[1:])])
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out[1], np.zeros(3))


def test_weighted_read_finite_difference(rng):
    h, w, starts, cd = weighted_case(rng)
    flat = Tensor(rng.normal(size=(h * w, 3)), requires_grad=True)
    coords = Tensor(cd, requires_grad=True)
    wts = Tensor(rng.normal(size=(11, 1)), requires_grad=True)

    def fn(f, c, wt):
        return sum_(tanh(_bilinear_flat(f, c, sampling_plan(c.data, h, w), wt, starts)))

    assert finite_diff_check(fn, [flat, coords, wts], eps=1e-6) <= 1e-4


def many_samples_case(rng, outputs, h, w, per, interior=False):
    """``outputs`` rows of weighted samples of an h x w table, ``per`` to
    ``2 * per`` each; with ``interior`` every point is away from the lattice,
    else the border and out-of-range points of ``points`` are mixed in."""
    starts = np.concatenate([[0], np.cumsum(rng.integers(per, 2 * per + 1, outputs))])
    n = int(starts[-1])
    if interior:
        cd = np.stack([rng.uniform(0.1, h - 1.1, n), rng.uniform(0.1, w - 1.1, n)], axis=1)
    else:
        cd = rng.permutation(points(rng, h, w, n))[:n]
    return starts, cd


def dense_side(outputs, rows, samples):
    """The read backward's choice: the dense (outputs, rows) product when it
    has at most 4x the plan's 4 * samples entries, as the camera reads have at
    the default config, else dots of gathered rows."""
    return outputs * rows <= 4 * 4 * samples


# side: (outputs, h, w, samples per output)
SIDES = {"dense": (40, 4, 8, 40), "gather": (40, 16, 16, 1)}
FD_SIDES = {"dense": (4, 2, 3, 5), "gather": (6, 8, 8, 1)}


@pytest.mark.parametrize("side", SIDES)
def test_weighted_read_matches_the_per_sample_oracle(rng, side):
    outputs, h, w, per = SIDES[side]
    starts, cd = many_samples_case(rng, outputs, h, w, per)
    assert dense_side(outputs, h * w, len(cd)) == (side == "dense")
    fd, wts = rng.normal(size=(h * w, 3)), rng.normal(size=len(cd))
    g = rng.normal(size=(outputs, 3))
    out = np.repeat(np.arange(outputs), np.diff(starts))
    reads, want_gv, want_gc = reference_bilinear(fd, h, w, cd, wts[:, None] * g[out])
    want = np.zeros((outputs, 3))
    np.add.at(want, out, wts[:, None] * reads)
    flat, coords, wt = (Tensor(x, requires_grad=True) for x in (fd, cd, wts))
    with fresh_tape():
        got = _bilinear_flat(flat, coords, sampling_plan(cd, h, w), wt, starts)
        backward(sum_(mul(got, Tensor(g))))
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(flat.grad, want_gv, rtol=0, atol=1e-12)
    np.testing.assert_allclose(coords.grad, want_gc, rtol=0, atol=1e-12)
    np.testing.assert_allclose(wt.grad, np.einsum("nc,nc->n", reads, g[out]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("side", FD_SIDES)
def test_weighted_read_finite_difference_on_each_side(rng, side):
    outputs, h, w, per = FD_SIDES[side]
    starts, cd = many_samples_case(rng, outputs, h, w, per, interior=True)
    assert dense_side(outputs, h * w, len(cd)) == (side == "dense")
    flat = Tensor(rng.normal(size=(h * w, 3)), requires_grad=True)
    coords = Tensor(cd, requires_grad=True)
    wts = Tensor(rng.normal(size=(len(cd), 1)), requires_grad=True)

    def fn(f, c, wt):
        return sum_(tanh(_bilinear_flat(f, c, sampling_plan(c.data, h, w), wt, starts)))

    assert finite_diff_check(fn, [flat, coords, wts], eps=1e-6) <= 1e-4
