"""Oracle tests for the sparse sampling plan behind every bilinear read.

The reference below is the direct formula: gather the four neighbour rows,
blend them with the bilinear weights and scatter the value gradient back
with ``np.add.at``.
"""

import numpy as np
import pytest
from check import finite_diff_check

from dualstream.diffcore import Tensor, backward, fresh_tape, sum_, tanh
from dualstream.diffcore.ops import _bilinear_flat, sampling_plan


def reference_bilinear(fd, h, w, cd, g):
    """(forward, value gradient, coordinate gradient) of reading the (h*w, C)
    table ``fd`` at ``cd`` (n, 2), given the output gradient ``g`` (n, C)."""
    ci, cj = cd[:, 0], cd[:, 1]
    inside = (ci >= 0) & (ci <= h - 1) & (cj >= 0) & (cj <= w - 1)
    i0 = np.clip(np.floor(ci), 0, h - 1).astype(np.int64)
    j0 = np.clip(np.floor(cj), 0, w - 1).astype(np.int64)
    i1 = np.minimum(i0 + 1, h - 1)
    j1 = np.minimum(j0 + 1, w - 1)
    di = np.where(inside, ci - i0, 0.0)[:, None]
    dj = np.where(inside, cj - j0, 0.0)[:, None]
    lins = (i0 * w + j0, i0 * w + j1, i1 * w + j0, i1 * w + j1)
    g00, g01, g10, g11 = (np.take(fd, lin, axis=0) for lin in lins)
    wts = ((1 - di) * (1 - dj), (1 - di) * dj, di * (1 - dj), di * dj)
    insf = inside.astype(fd.dtype)[:, None]
    fwd = (wts[0] * g00 + wts[1] * g01 + wts[2] * g10 + wts[3] * g11) * insf
    gt = g * insf
    gv = np.zeros_like(fd)
    for lin, wt in zip(lins, wts):
        np.add.at(gv, lin, wt * gt)
    dvi = -(1 - dj) * g00 - dj * g01 + (1 - dj) * g10 + dj * g11
    dvj = -(1 - di) * g00 + (1 - di) * g01 - di * g10 + di * g11
    gc = np.stack([np.einsum("nc,nc->n", gt, dvi), np.einsum("nc,nc->n", gt, dvj)], axis=1)
    return fwd, gv, gc


def plan_bilinear(fd, h, w, cd, g):
    """The same three arrays through the plan and the autodiff tape."""
    with fresh_tape():
        flat = Tensor(fd, requires_grad=True)
        coords = Tensor(cd, requires_grad=True)
        out = _bilinear_flat(flat, coords, sampling_plan(cd, h, w, dtype=fd.dtype),
                             Tensor(np.ones(len(cd), dtype=fd.dtype)), np.arange(len(cd) + 1))
        backward(sum_(out * Tensor(g)))
    return out.data, flat.grad, coords.grad


def points(rng, h, w, n=64):
    """Random points, exact far borders (clamped duplicate rows and columns),
    lattice points and points out of range on every side."""
    rand = np.stack([rng.uniform(0, h - 1, n), rng.uniform(0, w - 1, n)], axis=1)
    border = np.array([[h - 1, w - 1], [h - 1, 0.3], [0.7, w - 1], [0.0, 0.0], [h - 1, w - 1.5],
                       [1.0, 2.0], [h - 1.25, w - 1]], dtype=np.float64)
    outside = np.array([[-0.01, 1.0], [1.0, -1e-9], [h - 1 + 1e-9, 1.0], [1.0, w - 0.5], [-3.0, w + 2.0]])
    return np.concatenate([rand, border, outside])


SHAPES = [(5, 6, 3), (4, 8, 7), (2, 2, 1)]   # (h, w, channels); 4x8 like a camera feature map


@pytest.mark.parametrize("h,w,c", SHAPES)
def test_forward_bitwise_and_gradients_match_reference(rng, h, w, c):
    fd = rng.normal(size=(h * w, c))
    cd = points(rng, h, w)
    g = rng.normal(size=(cd.shape[0], c))
    ref_out, ref_gv, ref_gc = reference_bilinear(fd, h, w, cd, g)
    out, gv, gc = plan_bilinear(fd, h, w, cd, g)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_allclose(gv, ref_gv, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gc, ref_gc, rtol=0, atol=1e-12)


def test_out_of_range_points_have_zero_weights(rng):
    h, w = 4, 8
    cd = points(rng, h, w)
    plan = sampling_plan(cd, h, w)
    inside = (cd[:, 0] >= 0) & (cd[:, 0] <= h - 1) & (cd[:, 1] >= 0) & (cd[:, 1] <= w - 1)
    np.testing.assert_array_equal(plan.inside, inside)
    wts = plan.weights
    assert np.all(wts[~inside] == 0)
    np.testing.assert_allclose(wts[inside].sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_gradients_bitwise_reproducible(rng):
    h, w, c = 32, 32, 16
    fd = rng.normal(size=(h * w, c))
    cd = rng.uniform(-1, h, size=(4096, 2))
    g = rng.normal(size=(4096, c))
    first, second = plan_bilinear(fd, h, w, cd, g), plan_bilinear(fd, h, w, cd, g)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_float32_table_gives_float32(rng):
    h, w, c = 4, 8, 5
    fd = rng.normal(size=(h * w, c)).astype(np.float32)
    cd = points(rng, h, w).astype(np.float32)
    g = rng.normal(size=(cd.shape[0], c)).astype(np.float32)
    out, gv, gc = plan_bilinear(fd, h, w, cd, g)
    assert out.dtype == gv.dtype == gc.dtype == np.float32
    ref_out, _, _ = reference_bilinear(fd.astype(np.float64), h, w, cd.astype(np.float64), g)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-5)


def unit_read(fd, cd, plan):
    """Each sample's plain bilinear read of the table ``fd`` through ``plan``."""
    n = len(cd)
    return _bilinear_flat(Tensor(fd), Tensor(cd), plan, Tensor(np.ones(n)), np.arange(n + 1)).data


def test_stacked_grids_stay_in_their_own_rows(rng):
    # three 4 x 8 camera grids stacked into one value table, grid g from row g*32
    h, w, c = 4, 8, 3
    tables = [rng.normal(size=(h * w, c)) for _ in range(3)]
    fd = np.concatenate(tables)
    pts = [points(rng, h, w, n=32) for _ in tables]
    cd = np.concatenate(pts)
    grid = np.repeat(np.arange(3), [len(p) for p in pts])
    plan = sampling_plan(cd, h, w, base=grid * h * w)

    lo = (grid * h * w)[:, None]
    assert np.all((plan.cols >= lo) & (plan.cols < lo + h * w))

    # each block reads exactly what a plan over its own table alone reads
    out = unit_read(fd, cd, plan)
    for k, table in enumerate(tables):
        np.testing.assert_array_equal(out[grid == k], unit_read(table, pts[k], sampling_plan(pts[k], h, w)))


def test_valid_mask_from_plan(rng):
    h, w = 4, 4
    mask = np.ones((h, w), dtype=bool)
    mask[2, 2] = False
    cd = np.array([[1.0, 1.0], [1.5, 1.0], [1.5, 1.5], [2.0, 2.0], [2.0, 1.0], [-1.0, 0.0]])
    plan = sampling_plan(cd, h, w)
    np.testing.assert_array_equal(plan.valid(mask.ravel()), [True, True, False, False, True, False])


def test_bilinear_read_through_tanh_finite_difference(rng):
    h, w = 4, 8
    flat = Tensor(rng.normal(size=(h * w, 3)), requires_grad=True)
    coords = Tensor(rng.uniform(0.2, 2.8, size=(10, 2)), requires_grad=True)

    def fn(f, c):
        return sum_(tanh(_bilinear_flat(f, c, sampling_plan(c.data, h, w), Tensor(np.ones(10)), np.arange(11))))

    assert finite_diff_check(fn, [flat, coords], eps=1e-6) <= 1e-4


def test_zero_samples(rng):
    # a BEV grid whose pillars hit no camera reads nothing
    fd = rng.normal(size=(32, 3))
    out, gv, gc = plan_bilinear(fd, 4, 8, np.zeros((0, 2)), np.zeros((0, 3)))
    assert out.shape == (0, 3) and gc.shape == (0, 2)
    np.testing.assert_array_equal(gv, np.zeros_like(fd))
