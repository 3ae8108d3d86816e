import math
from dataclasses import fields

import numpy as np
import pytest
from check import finite_diff_check
from composed_ops import softmax
from scipy import sparse
from util import rows

import dualstream.diffcore as dc
from dualstream.diffcore import (
    ShapeError,
    Tensor,
    add_gradients,
    backward,
    bilinear_sample,
    fresh_tape,
    gelu,
    layernorm,
    leaf_gradients,
    mlp,
    multi_head_attention,
)
from dualstream.diffcore.ops import AttentionParams, DeformableParams, MlpParams, _deformable_core
from dualstream.diffcore.tensor import (
    absolute,
    add,
    concat,
    csr_product,
    csr_product_t,
    getitem,
    matmul,
    mean,
    mul,
    reshape,
    sigmoid,
    softplus,
    sparse_matmul,
    sub,
    sum_,
    take_rows,
    tanh,
    transpose,
)


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestArithmetic:
    def test_matmul_identity(self, rng):
        a = rng.normal(size=(4, 4))
        out = matmul(t64(np.eye(4)), t64(a))
        np.testing.assert_array_equal(out.data, np.eye(4) @ a)

    def test_add_zero(self, rng):
        x = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(add(t64(x), t64(np.zeros((3, 2)))).data, x)

    def test_matmul_triple_loop_oracle(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        want = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    want[i, j] += a[i, k] * b[k, j]
        got = matmul(t64(a), t64(b)).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_tensor_refuses_non_float_data(self):
        for data in (np.arange(3), np.ones(2, dtype=bool), np.ones(2, dtype=np.float16)):
            with pytest.raises(TypeError, match=str(data.dtype)):
                Tensor(data)

    def test_constant_minus_tensor_is_the_only_operator(self, rng):
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        with fresh_tape() as tape:
            y = 1.0 - x
            assert len(tape) == 1
        assert y.dtype == np.float32
        np.testing.assert_array_equal(y.data, np.float32(1.0) - x.data)
        for op in (lambda: -x, lambda: x * 2.0, lambda: x + x, lambda: x @ x, lambda: x ** 2,
                   lambda: x[0]):
            with pytest.raises(TypeError):
                op()

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    def test_backward_sum_gives_ones(self, rng):
        with fresh_tape():
            x = t64(rng.normal(size=(3, 4)), grad=True)
            backward(sum_(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_backward_quadratic(self, rng):
        with fresh_tape():
            x = t64(rng.normal(size=(5,)).reshape(1, 5), grad=True)
            backward(sum_(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_backward_rejects_nonscalar(self, rng):
        with fresh_tape():
            x = t64(rng.normal(size=(3,)), grad=True)
            y = mul(x, x)
            with pytest.raises(ShapeError):
                backward(y)

    def test_grad_accumulation_additive(self, rng):
        data = rng.normal(size=(4,))
        with fresh_tape():
            x = t64(data, grad=True)
            l1 = sum_(mul(x, x))
            l2 = sum_(tanh(x))
            backward(add(l1, l2))
            joint = x.grad.copy()
        with fresh_tape():
            y = t64(data, grad=True)
            backward(sum_(mul(y, y)))
            backward(sum_(tanh(y)))
        np.testing.assert_allclose(joint, y.grad, atol=1e-12)

    def test_forward_deterministic(self, rng):
        data = rng.normal(size=(6, 6))
        w = rng.normal(size=(6, 6))
        runs = []
        for _ in range(2):
            with fresh_tape():
                out = tanh(matmul(t64(data), t64(w)))
                runs.append(out.data.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestSoftmaxLayernorm:
    def test_softmax_constant_row_uniform(self):
        s = softmax(t64(np.full((2, 5), 3.0)))
        np.testing.assert_allclose(s.data, np.full((2, 5), 0.2), atol=1e-12)

    def test_softmax_huge_logit_one_hot(self):
        x = np.zeros((1, 4))
        x[0, 2] = 1e4
        s = softmax(t64(x))
        assert s.data[0, 2] >= 1 - 1e-6
        assert s.data.sum() == pytest.approx(1.0, abs=1e-6)

    def test_softmax_rows_sum_to_one(self, rng):
        s = softmax(t64(rng.normal(size=(7, 9)) * 10))
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(7), atol=1e-6)

    def test_layernorm_moments_oracle(self, rng):
        x = rng.normal(size=(4, 16)) * 3 + 1.5
        g = t64(np.ones(16))
        b = t64(np.zeros(16))
        out = layernorm(t64(x), g, b).data
        # two-pass mean/variance oracle
        for row_out, row_in in zip(out, x):
            mu = sum(row_in) / len(row_in)
            var = sum((v - mu) ** 2 for v in row_in) / len(row_in)
            want = (row_in - mu) / math.sqrt(var + 1e-5)
            np.testing.assert_allclose(row_out, want, atol=1e-9)
        assert np.abs(out.mean(axis=-1)).max() <= 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-4


class TestMultiHeadAttention:
    def make_params(self, rng, dim, identity=False):
        def w(shape):
            if identity:
                return t64(np.eye(shape[0]), grad=True)
            return t64(rng.normal(size=shape) / math.sqrt(shape[0]), grad=True)

        z = lambda n: t64(np.zeros(n), grad=True)
        return AttentionParams(wq=w((dim, dim)), bq=z(dim), wk=w((dim, dim)), bk=z(dim),
                               wv=w((dim, dim)), bv=z(dim), wo=w((dim, dim)), bo=z(dim))

    def test_single_key_value(self, rng):
        dim = 4
        p = self.make_params(rng, dim)
        q = t64(rng.normal(size=(3, dim)))
        kv = t64(rng.normal(size=(1, dim)))
        out = multi_head_attention(q, kv, kv, 2, p)
        want = (kv.data @ p.wv.data + p.bv.data) @ p.wo.data + p.bo.data
        np.testing.assert_allclose(out.data, np.repeat(want, 3, axis=0), atol=1e-10)

    def test_identical_keys_mean_of_values(self, rng):
        dim = 4
        p = self.make_params(rng, dim, identity=True)
        q = t64(rng.normal(size=(2, dim)))
        k = t64(np.repeat(rng.normal(size=(1, dim)), 5, axis=0))
        v = t64(rng.normal(size=(5, dim)))
        out = multi_head_attention(q, k, v, 2, p)
        np.testing.assert_allclose(out.data, np.repeat(v.data.mean(axis=0, keepdims=True), 2, axis=0), atol=1e-10)

    def test_per_head_loop_oracle(self, rng):
        dim, heads = 6, 2
        p = self.make_params(rng, dim)
        q = t64(rng.normal(size=(3, dim)))
        k = t64(rng.normal(size=(4, dim)))
        v = t64(rng.normal(size=(4, dim)))
        got = multi_head_attention(q, k, v, heads, p).data

        # explicit per-head loop oracle
        qq = q.data @ p.wq.data + p.bq.data
        kk = k.data @ p.wk.data + p.bk.data
        vv = v.data @ p.wv.data + p.bv.data
        dh = dim // heads
        ctx = np.zeros((3, dim))
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(3):
                scores = np.array([qq[i, sl] @ kk[j, sl] / math.sqrt(dh) for j in range(4)])
                w = np.exp(scores - scores.max())
                w /= w.sum()
                ctx[i, sl] = sum(w[j] * vv[j, sl] for j in range(4))
        want = ctx @ p.wo.data + p.bo.data
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_head_divisibility_error(self, rng):
        p = self.make_params(rng, 6)
        q = t64(rng.normal(size=(2, 6)))
        with pytest.raises(ShapeError):
            multi_head_attention(q, q, q, 4, p)

    def test_permutation_equivariance_bitwise(self, rng):
        dim = 8
        p = self.make_params(rng, dim)
        x = rng.normal(size=(7, dim))
        perm = rng.permutation(7)
        out1 = multi_head_attention(t64(x), t64(x), t64(x), 2, p).data
        out2 = multi_head_attention(t64(x[perm]), t64(x[perm]), t64(x[perm]), 2, p).data
        np.testing.assert_array_equal(out1[perm], out2)

    def test_canonical_order_is_the_lexsort(self, rng):
        from dualstream.diffcore.ops import _canonical_order

        key, value = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        cases = [key, key[:1], key[:0]]
        for first in ([1.0, 2.0, 1.0], [0.0, -0.0, 1.0], [np.nan, 2.0, np.nan], [np.nan, 2.0, 3.0]):
            tied = key.copy()
            tied[:3, 0] = first   # ties (equal, signed zeros) and NaNs in the first column
            cases.append(tied)
        for k in cases:
            v = value[:len(k)]
            np.testing.assert_array_equal(_canonical_order(k, v), np.lexsort(np.concatenate([k, v], axis=1).T[::-1]))

    def test_key_permutation_invariance_with_gradients(self, rng):
        dim = 8
        p = self.make_params(rng, dim)
        q = rng.normal(size=(3, dim))
        k = rng.normal(size=(7, dim))
        v = rng.normal(size=(7, dim))
        k[4] = k[1]  # equal key rows carrying different values
        runs = []
        for perm in (np.arange(7), np.arange(7)[::-1], rng.permutation(7)):
            with fresh_tape():
                for f in fields(p):
                    getattr(p, f.name).grad = None
                out = multi_head_attention(t64(q), t64(k[perm]), t64(v[perm]), 2, p)
                backward(sum_(tanh(out)))
            runs.append([out.data] + [getattr(p, f.name).grad for f in fields(p)])
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                np.testing.assert_array_equal(got, want)


class TestBilinear:
    def test_integer_coords_exact(self, rng):
        grid = t64(rng.normal(size=(3, 5, 6)))
        coords = np.array([[2.0, 3.0], [0.0, 0.0], [4.0, 5.0]])
        out = bilinear_sample(t64(rows(grid.data)), (5, 6), t64(coords))
        np.testing.assert_array_equal(out.data[0], grid.data[:, 2, 3])
        np.testing.assert_array_equal(out.data[1], grid.data[:, 0, 0])
        np.testing.assert_array_equal(out.data[2], grid.data[:, 4, 5])

    def test_cell_center_mean_of_four(self, rng):
        grid = t64(rng.normal(size=(2, 2, 2)))
        out = bilinear_sample(t64(rows(grid.data)), (2, 2), t64(np.array([[0.5, 0.5]])))
        np.testing.assert_allclose(out.data[0], grid.data.reshape(2, 4).mean(axis=1), atol=1e-12)

    def test_hand_expanded_formula(self):
        g = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # (1,2,2)
        out = bilinear_sample(t64(rows(g)), (2, 2), t64(np.array([[0.25, 0.75]])))
        want = (1 - 0.25) * (1 - 0.75) * 1.0 + (1 - 0.25) * 0.75 * 2.0 + 0.25 * (1 - 0.75) * 3.0 + 0.25 * 0.75 * 4.0
        assert out.data[0, 0] == pytest.approx(want, abs=1e-12)

    def test_out_of_range_zero_with_zero_grad(self, rng):
        with fresh_tape():
            grid = t64(rows(rng.normal(size=(2, 4, 4))), grad=True)
            coords = t64(np.array([[-0.5, 1.0], [1.0, 3.5], [7.0, 7.0]]), grad=True)
            out = bilinear_sample(grid, (4, 4), coords)
            np.testing.assert_array_equal(out.data, np.zeros((3, 2)))
            backward(sum_(out))
        assert grid.grad is None or np.all(grid.grad == 0)
        assert coords.grad is None or np.all(coords.grad == 0)

    def test_grid_gradient_finite_diff(self, rng):
        grid = Tensor(rows(rng.normal(size=(2, 4, 5))), requires_grad=True)
        coords = Tensor(rng.uniform(0.3, 2.7, size=(6, 2)), requires_grad=True)

        def fn(g, c):
            return sum_(tanh(bilinear_sample(g, (4, 5), c)))

        err = finite_diff_check(fn, [grid, coords], eps=1e-5)
        assert err <= 1e-4

    def test_coord_gradient_excludes_lattice(self, rng):
        # keep coords at least 1e-4 away from integer lattice lines (kink set)
        base = rng.uniform(0.2, 2.8, size=(8, 2))
        base = np.where(np.abs(base - np.round(base)) < 1e-3, base + 5e-3, base)
        grid = Tensor(rows(rng.normal(size=(3, 4, 4))), requires_grad=False)
        coords = Tensor(base, requires_grad=True)

        def fn(c):
            return sum_(mul(bilinear_sample(grid, (4, 4), c), bilinear_sample(grid, (4, 4), c)))

        err = finite_diff_check(fn, [coords], eps=1e-6)
        assert err <= 1e-4


def make_deformable_params(rng, latent, channels, n_points, degenerate=False):
    def w(shape, std=None):
        if degenerate:
            return Tensor(np.zeros(shape), requires_grad=True)
        return Tensor(rng.normal(size=shape) * (std or 1.0 / math.sqrt(shape[0])), requires_grad=True)

    if degenerate:
        w_val = Tensor(np.eye(channels), requires_grad=True)
        w_out = Tensor(np.eye(latent), requires_grad=True)
    else:
        w_val = Tensor(rng.normal(size=(channels, latent)) / math.sqrt(channels), requires_grad=True)
        w_out = Tensor(rng.normal(size=(latent, latent)) / math.sqrt(latent), requires_grad=True)
    return DeformableParams(
        w_off=w((latent, n_points * 2), std=0.01 if not degenerate else None),
        b_off=Tensor(np.zeros(n_points * 2), requires_grad=True),
        w_wgt=w((latent, n_points)),
        b_wgt=Tensor(np.zeros(n_points), requires_grad=True),
        w_val=w_val,
        w_out=w_out,
        b_out=Tensor(np.zeros(latent), requires_grad=True),
    )


class TestDeformable:
    def test_degenerate_equals_bilinear(self, rng):
        L = 3
        params = make_deformable_params(rng, L, L, 1, degenerate=True)
        grid = t64(rng.normal(size=(L, 5, 5)))
        queries = t64(rng.normal(size=(4, L)))
        refs = rng.uniform(0.0, 4.0, size=(4, 2))
        out = _deformable_core(queries, refs, t64(rows(grid.data)), (5, 5), params)[0]
        want = bilinear_sample(t64(rows(grid.data)), (5, 5), t64(refs))
        np.testing.assert_array_equal(out.data, want.data)

    def test_uniform_two_points_mean(self, rng):
        L = 3
        params = make_deformable_params(rng, L, L, 2, degenerate=True)
        # two zero offsets, zero weight logits -> softmax uniform
        grid = t64(rng.normal(size=(L, 4, 4)))
        queries = t64(rng.normal(size=(1, L)))
        refs = np.array([[1.0, 2.0]])
        out = _deformable_core(queries, refs, t64(rows(grid.data)), (4, 4), params)[0]
        want = grid.data[:, 1, 2]
        np.testing.assert_allclose(out.data[0], want, atol=1e-12)

    def test_two_integer_coords_mean(self, rng):
        # offsets moved to two distinct integer cells via bias, uniform weights
        L = 2
        params = make_deformable_params(rng, L, L, 2, degenerate=True)
        params.b_off.data[:] = np.array([0.0, 0.0, 1.0, 0.0])  # point0 at ref, point1 one row below
        grid = t64(rng.normal(size=(L, 4, 4)))
        queries = t64(rng.normal(size=(1, L)))
        refs = np.array([[1.0, 1.0]])
        out = _deformable_core(queries, refs, t64(rows(grid.data)), (4, 4), params)[0]
        want = 0.5 * (grid.data[:, 1, 1] + grid.data[:, 2, 1])
        np.testing.assert_allclose(out.data[0], want, atol=1e-12)

    def test_valid_mask_drops_points_with_weighted_invalid_neighbours(self, rng):
        # point 0 at the reference, point 1 half a column to its right;
        # zero weight logits, so the surviving points are averaged
        L = 3
        params = make_deformable_params(rng, L, L, 2, degenerate=True)
        params.b_off.data[:] = np.array([0.0, 0.0, 0.0, 0.5])
        grid = t64(rng.normal(size=(L, 4, 4)))
        valid = np.ones((4, 4), dtype=bool)
        valid[2, 2] = False
        refs = np.array([
            [1.0, 1.0],   # (1, 1) and (1, 1.5): the invalid cell has zero weight for both, both kept
            [1.5, 1.0],   # (1.5, 1) kept (zero weight on the invalid cell); (1.5, 1.5) weights it, dropped
            [2.0, 2.0],   # (2, 2) is the invalid cell; (2, 2.5) weights it: every point dropped
        ])
        queries = t64(rng.normal(size=(3, L)))
        out, any_valid = _deformable_core(queries, refs, t64(rows(grid.data)), (4, 4), params, valid_mask=valid)
        g = grid.data
        np.testing.assert_array_equal(any_valid, [True, True, False])
        np.testing.assert_allclose(out.data[0], 0.5 * (g[:, 1, 1] + 0.5 * (g[:, 1, 1] + g[:, 1, 2])), atol=1e-12)
        np.testing.assert_allclose(out.data[1], 0.5 * (g[:, 1, 1] + g[:, 2, 1]), atol=1e-12)
        np.testing.assert_array_equal(out.data[2], np.zeros(L))

    def deformable_enumeration_oracle(self, queries, refs, grid, p):
        """Dense oracle: enumerate every sample point explicitly with numpy."""
        n, L = queries.shape
        C, H, W = grid.shape
        vproj = grid.reshape(C, H * W).T @ p.w_val.data  # (HW, L)
        vgrid = vproj.T.reshape(-1, H, W)
        off = (queries @ p.w_off.data + p.b_off.data).reshape(n, p.w_wgt.data.shape[1], 2)
        logits = queries @ p.w_wgt.data + p.b_wgt.data
        outs = np.zeros((n, vgrid.shape[0]))
        for i in range(n):
            pts = refs[i] + off[i]
            valid = [(0 <= x <= H - 1) and (0 <= y <= W - 1) for x, y in pts]
            lg = np.where(valid, logits[i], -1e30)
            w = np.exp(lg - lg.max())
            w /= w.sum()
            acc = np.zeros(vgrid.shape[0])
            for k, (x, y) in enumerate(pts):
                if not valid[k]:
                    continue
                i0, j0 = int(np.floor(x)), int(np.floor(y))
                i1, j1 = min(i0 + 1, H - 1), min(j0 + 1, W - 1)
                di, dj = x - i0, y - j0
                val = ((1 - di) * (1 - dj) * vgrid[:, i0, j0] + (1 - di) * dj * vgrid[:, i0, j1]
                       + di * (1 - dj) * vgrid[:, i1, j0] + di * dj * vgrid[:, i1, j1])
                acc += w[k] * val
            if any(valid):
                outs[i] = acc
            # all-invalid queries stay zero
        return np.where(np.array([any((0 <= x <= H - 1) and (0 <= y <= W - 1) for x, y in refs[i] + off[i])
                                  for i in range(n)])[:, None],
                        outs @ p.w_out.data + p.b_out.data, 0.0)

    def test_matches_enumeration_oracle(self, rng):
        for trial in range(10):
            L, C, P = 4, 3, 3
            params = make_deformable_params(rng, L, C, P)
            grid = t64(rng.normal(size=(C, 6, 6)))
            queries = t64(rng.normal(size=(5, L)))
            refs = rng.uniform(-1.0, 6.0, size=(5, 2))
            got = _deformable_core(queries, refs, t64(rows(grid.data)), (6, 6), params)[0].data
            want = self.deformable_enumeration_oracle(queries.data, refs, grid.data, params)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_gradients_through_coords(self, rng):
        L, C, P = 4, 4, 2
        params = make_deformable_params(rng, L, C, P)
        grid = Tensor(rows(rng.normal(size=(C, 5, 5))), requires_grad=True)
        queries = Tensor(rng.normal(size=(3, L)), requires_grad=True)
        refs = rng.uniform(1.2, 3.3, size=(3, 2))

        def fn(q, g, w_off):
            p2 = DeformableParams(w_off, params.b_off, params.w_wgt, params.b_wgt,
                                  params.w_val, params.w_out, params.b_out)
            return sum_(tanh(_deformable_core(q, refs, g, (5, 5), p2)[0]))

        err = finite_diff_check(fn, [queries, grid, params.w_off], eps=1e-6)
        assert err <= 1e-4


class TestPatchEmbed:
    def make_params(self, rng, patch, channels, zero=False):
        from dualstream.diffcore.ops import PatchEmbedParams

        d_in = 3 * patch * patch

        def w(shape):
            arr = np.zeros(shape) if zero else rng.normal(size=shape) / math.sqrt(shape[0])
            return Tensor(arr, requires_grad=True)

        def lnp():
            return Tensor(np.ones(channels), requires_grad=True), Tensor(np.zeros(channels), requires_grad=True)

        g1, b1 = lnp()
        g2, b2 = lnp()
        mk_mlp = lambda: MlpParams(w((channels, channels * 2)), Tensor(np.zeros(channels * 2), requires_grad=True),
                                   w((channels * 2, channels)), Tensor(np.zeros(channels), requires_grad=True))
        return PatchEmbedParams(w_proj=w((d_in, channels)), b_proj=Tensor(np.zeros(channels), requires_grad=True),
                                ln1_g=g1, ln1_b=b1, mlp1=mk_mlp(), ln2_g=g2, ln2_b=b2, mlp2=mk_mlp())

    def test_zero_image_zero_bias_zero_features(self, rng):
        p = self.make_params(rng, 4, 6)
        img = t64(np.zeros((1, 3, 8, 8)))
        fm = dc.patch_embed(img, ("front",), 4, p)
        np.testing.assert_allclose(fm.data.data, 0.0, atol=1e-12)
        assert fm.stride == 4 and fm.names == ("front",)

    def test_single_cell_when_patch_is_image(self, rng):
        p = self.make_params(rng, 8, 6)
        fm = dc.patch_embed(t64(rng.normal(size=(1, 3, 8, 8))), ("front",), 8, p)
        assert fm.data.data.shape == (1, 6) and fm.dims == (1, 1)

    def test_manual_gather_order(self, rng):
        # identity projection, zero biases and zero MLP weights: row
        # i*4 + k of the feature table is patch k of image i as the
        # projection sees it
        p = self.make_params(rng, 2, 12, zero=True)
        p.w_proj.data = np.eye(12)
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        img3 = np.concatenate([img, img + 100, img + 200], axis=0)
        fm = dc.patch_embed(t64(np.stack([img3, img3 + 1000])), ("front", "back"), 2, p)
        table = fm.data.data
        assert table.shape == (8, 12) and fm.dims == (2, 2) and fm.names == ("front", "back")
        np.testing.assert_array_equal(table[4:], table[:4] + 1000)   # camera 1's block
        patches = table[:4]
        # patch (0,0): channel-major, then row-major within the patch
        want = np.array([0, 1, 4, 5, 100, 101, 104, 105, 200, 201, 204, 205], dtype=np.float64)
        np.testing.assert_array_equal(patches[0], want)
        # patch row order: (0,0), (0,1), (1,0), (1,1)
        np.testing.assert_array_equal(patches[1][:4], [2, 3, 6, 7])
        np.testing.assert_array_equal(patches[2][:4], [8, 9, 12, 13])

    def test_divisibility_error(self, rng):
        p = self.make_params(rng, 3, 4)
        with pytest.raises(ShapeError):
            dc.patch_embed(t64(np.zeros((1, 3, 8, 8))), ("front",), 3, p)

    def test_one_name_per_image(self, rng):
        p = self.make_params(rng, 4, 6)
        with pytest.raises(ShapeError, match="stack of 1 images"):
            dc.patch_embed(t64(np.zeros((2, 3, 8, 8))), ("front",), 4, p)
        with pytest.raises(ShapeError, match="stack of 1 images"):
            dc.patch_embed(t64(np.zeros((3, 8, 8))), ("front",), 4, p)

    def test_feature_table_rows_match_its_cameras(self):
        with pytest.raises(ShapeError, match="needs 64 rows"):
            dc.FeatureMap(data=t64(np.zeros((32, 6))), dims=(4, 8), stride=8, names=("front", "back"))


class TestFiniteDiffCheck:
    def test_linear_layer_tight(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        err = finite_diff_check(lambda *i: sum_(matmul(*i)), [x, w, b], eps=1e-5)
        assert err <= 1e-6

    def test_corrupted_gradient_flagged(self, rng):
        from dualstream.diffcore.tensor import _accumulate, _make

        def bad_double(t):
            data = t.data * 1.0

            def bwd(g, grads):
                _accumulate(t, 2.0 * g, grads)  # deliberately wrong

            return _make(data, (t,), bwd)

        x = Tensor(rng.normal(size=(4,)).reshape(1, 4), requires_grad=True)
        err = finite_diff_check(lambda t: sum_(bad_double(t)), [x], eps=1e-5)
        assert abs(err - 0.5) <= 1e-3

    def test_constant_function_zero_error(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        err = finite_diff_check(lambda t: Tensor(np.float64(7.0)), [x], eps=1e-5)
        assert err == 0.0


OPS_FOR_SWEEP = [
    ("add", lambda rng: _binary(rng, add)),
    ("sub", lambda rng: _binary(rng, sub)),
    ("mul", lambda rng: _binary(rng, mul)),
    ("matmul", lambda rng: _matmul_case(rng)),
    ("matmul_bias", lambda rng: _biased_matmul_case(rng)),
    ("matmul_batched_bias", lambda rng: _biased_matmul_case(rng, batch=(2,))),
    ("matmul_masked_bias", lambda rng: _biased_matmul_case(rng, masked=True)),
    ("concat", lambda rng: _concat_case(rng)),
    ("slice", lambda rng: _slice_case(rng)),
    ("reshape", lambda rng: _reshape_case(rng)),
    ("gelu", lambda rng: _unary_case(rng, gelu)),
    ("tanh", lambda rng: _unary_case(rng, tanh)),
    ("sigmoid", lambda rng: _unary_case(rng, sigmoid)),
    ("softplus", lambda rng: _unary_case(rng, softplus)),
    ("abs", lambda rng: _abs_case(rng)),
    ("layernorm", lambda rng: _layernorm_case(rng)),
    ("mean", lambda rng: _unary_case(rng, lambda x: mean(x, axis=-1))),
    ("transpose", lambda rng: _unary_case(rng, lambda x: transpose(x, (1, 0)))),
    ("multi_head_attention", lambda rng: _attention_case(rng)),
    ("deformable_core", lambda rng: _deformable_case(rng)),
    ("take_rows", lambda rng: _take_rows_case(rng)),
    ("sparse_matmul", lambda rng: _sparse_matmul_case(rng)),
]


def _unary_case(rng, op):
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    return lambda t: sum_(mul(op(t), op(t))), [x]


def _abs_case(rng):
    x = Tensor(rng.normal(size=(3, 5)) + np.sign(rng.normal(size=(3, 5))) * 0.3, requires_grad=True)
    return lambda t: sum_(absolute(t)), [x]


def _binary(rng, op):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    return lambda x, y: sum_(tanh(op(x, y))), [a, b]


def _matmul_case(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    return lambda x, y: sum_(tanh(matmul(x, y))), [a, b]


def _biased_matmul_case(rng, batch=(), masked=False):
    """``batch`` leading dims on the left operand; ``masked`` zeroes the
    (L,) bias on some rows through a full-shape bias, as a deformable read's
    output bias is zeroed on queries without a hit."""
    a = Tensor(rng.normal(size=(*batch, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    mask = np.array([1.0, 0.0, 1.0])[:, None]
    return lambda x, y, z: sum_(tanh(matmul(x, y, mul(z, mask) if masked else z))), [a, w, b]


def _attention_case(rng):
    # key and value gradients flow back through the canonical key order
    dim = 4
    w = lambda: Tensor(rng.normal(size=(dim, dim)) / 2)
    b = lambda: Tensor(rng.normal(size=dim) / 2)
    p = AttentionParams(w(), b(), w(), b(), w(), b(), w(), b())
    q, k, v = (Tensor(rng.normal(size=(n, dim)), requires_grad=True) for n in (3, 5, 5))
    return lambda x, y, z: sum_(tanh(multi_head_attention(x, y, z, 2, p))), [q, k, v]


def _deformable_case(rng):
    # six reads of two stacked 4 x 5 grids by sorted owners (query 2 reads
    # nothing), some table rows masked; points stay inside, off the lattice
    L, C, P = 4, 3, 2
    params = make_deformable_params(rng, L, C, P)
    owner, grid_of = np.array([0, 0, 1, 3, 3, 3]), np.array([1, 0, 0, 1, 0, 1])
    refs = rng.uniform(1.2, 2.3, size=(6, 2)) + np.array([0.0, 0.5])
    mask = rng.uniform(size=40) > 0.15
    table = Tensor(rng.normal(size=(40, C)), requires_grad=True)
    queries = Tensor(rng.normal(size=(4, L)), requires_grad=True)

    def fn(q, t, w_off, w_wgt):
        p = DeformableParams(w_off, params.b_off, w_wgt, params.b_wgt, params.w_val, params.w_out, params.b_out)
        out, _ = _deformable_core(q, refs, t, (4, 5), p, valid_mask=mask, owner=owner, grid_of=grid_of)
        return sum_(tanh(out))

    return fn, [queries, table, params.w_off, params.w_wgt]


def _take_rows_case(rng):
    a = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    idx = rng.permutation(6)[:4]
    return lambda x: sum_(mul(take_rows(x, idx), take_rows(x, idx))), [a]


def _sparse_matmul_case(rng):
    # rows that repeat, sum and skip rows of the operand
    m = sparse.random_array((5, 6), density=0.4, rng=rng, format="csr") + sparse.eye_array(5, 6, format="csr")
    a = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    return lambda x: sum_(tanh(sparse_matmul(m, x))), [a]


def _concat_case(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    return lambda x, y: sum_(tanh(concat([x, y], axis=0))), [a, b]


def _slice_case(rng):
    a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    return lambda x: sum_(tanh(getitem(x, (slice(1, 4), slice(None, 2))))), [a]


def _reshape_case(rng):
    a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    return lambda x: sum_(tanh(reshape(x, (3, 8)))), [a]


def _layernorm_case(rng):
    x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    g = Tensor(rng.normal(size=(8,)) + 1.0, requires_grad=True)
    b = Tensor(rng.normal(size=(8,)), requires_grad=True)
    return lambda *i: sum_(tanh(layernorm(*i))), [x, g, b]


def test_take_rows_rejects_repeated_rows():
    a = Tensor(np.arange(12.0).reshape(4, 3))
    np.testing.assert_array_equal(take_rows(a, [3, 0]).data, a.data[[3, 0]])
    for idx in ([1, 0, 1], [3, -1]):
        with pytest.raises(ValueError, match="repeats"):
            take_rows(a, idx)


def random_csr(rng, rows, cols, dtype):
    """A CSR matrix with empty rows and columns repeated within a row."""
    counts = rng.integers(0, 6, rows)
    counts[::4] = 0
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = rng.integers(0, cols, indptr[-1])
    indices[1::3] = indices[::3][:indices[1::3].size]
    return indptr, indices, rng.normal(size=indptr[-1]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 5])
def test_csr_products_are_scipys_bitwise(rng, dtype, channels):
    indptr, indices, data = random_csr(rng, 30, 12, dtype)
    a = sparse.csr_array((data, indices, indptr), shape=(30, 12))
    x, g = (rng.normal(size=(n, channels)).astype(dtype) for n in (12, 30))
    for got, want in ((csr_product(indptr, indices, data, x), a @ x),
                      (csr_product_t(indptr, indices, data, g, 12), a.T @ g)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_csr_products_refuse_indices_outside_their_table(rng):
    indptr, indices, data = random_csr(rng, 10, 8, np.float64)
    for bad in (8, -1):
        cols = indices.copy()
        cols[3] = bad
        # a column past the value table, and an owner past the queries the sums go to
        with pytest.raises(ShapeError, match=f"table row {bad}, but the table has 8 rows"):
            csr_product(indptr, cols, data, np.zeros((8, 2)))
        with pytest.raises(ShapeError, match=f"table row {bad}, but the table has 8 rows"):
            csr_product_t(indptr, cols, data, np.zeros((10, 2)), 8)
    back = indptr.copy()
    back[1] = indptr[-1] + 1   # row 0 runs past the entries, row 1 starts before it ends
    for ptr in (indptr[:-1], indptr + 1, back):
        with pytest.raises(ShapeError, match="row pointers"):
            csr_product(ptr, indices, data, np.zeros((8, 2)))
    with pytest.raises(ShapeError, match="cannot take 9 rows"):
        csr_product_t(indptr, indices, data, np.zeros((9, 2)), 8)


@pytest.mark.parametrize("name,case", OPS_FOR_SWEEP, ids=[n for n, _ in OPS_FOR_SWEEP])
def test_gradcheck_each_op(name, case):
    worst = 0.0
    for seed in range(20):
        fn, inputs = case(np.random.default_rng(seed))
        worst = max(worst, finite_diff_check(fn, inputs, eps=1e-5))
    assert worst <= 1e-4, f"{name}: max rel err {worst}"


def test_composite_chain_gradcheck(rng):
    # gamma must be non-constant: with gamma == ones the row sums of a
    # layernorm are identically zero and the chain degenerates to a constant
    w1 = Tensor(rng.normal(size=(6, 8)) / 3, requires_grad=True)
    b1 = Tensor(np.zeros(8), requires_grad=True)
    g = Tensor(rng.normal(size=(8,)) + 1.0, requires_grad=True)
    b = Tensor(rng.normal(size=(8,)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

    def fn(x_, w1_, b1_, g_, b_):
        return sum_(layernorm(gelu(matmul(x_, w1_, b1_)), g_, b_))

    assert finite_diff_check(fn, [x, w1, b1, g, b], eps=1e-5) <= 1e-5


def test_mlp_gradcheck(rng):
    p = MlpParams(
        w1=Tensor(rng.normal(size=(4, 8)) / 2, requires_grad=True),
        b1=Tensor(np.zeros(8), requires_grad=True),
        w2=Tensor(rng.normal(size=(8, 4)) / 2, requires_grad=True),
        b2=Tensor(np.zeros(4), requires_grad=True),
    )
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    err = finite_diff_check(lambda *i: sum_(tanh(mlp(i[0], MlpParams(*i[1:])))), [x, p.w1, p.b1, p.w2, p.b2])
    assert err <= 1e-4


def test_mlp_records_one_entry_per_layer_and_activation(rng):
    # each affine map is one biased matmul, not a matmul and an add
    p = MlpParams(*(Tensor(rng.normal(size=s), requires_grad=True) for s in ((4, 8), (8,), (8, 4), (4,))))
    with fresh_tape() as tape:
        mlp(Tensor(rng.normal(size=(3, 4))), p)
        assert len(tape) == 3


def test_biased_matmul_is_the_product_plus_the_bias(rng):
    a, w = rng.normal(size=(2, 3, 4)).astype(np.float32), rng.normal(size=(4, 5)).astype(np.float32)
    b = rng.normal(size=5).astype(np.float32)
    np.testing.assert_array_equal(matmul(Tensor(a), Tensor(w), Tensor(b)).data, a @ w + b)
    for bad in ((3,), (2, 1, 3, 5)):
        with pytest.raises(ShapeError, match="does not broadcast"):
            matmul(Tensor(a), Tensor(w), Tensor(np.zeros(bad, dtype=np.float32)))


# ---------------------------------------------------------------------------
# tapes replayed apart (``leaf_gradients``, ``add_gradients``)

def _shared_leaf_grad(rng, frames, apart):
    """The f32 gradient of a leaf ``w`` that two scenes share, over
    ``frames`` frames: each frame reaches w directly and through ``h``, which
    is ``3 w`` in frame 0 and carried from the scene's previous frame after
    it. Recorded on one tape (``apart`` false) or on one tape per scene and
    frame, replayed per scene and merged in the one-tape order. Element 0 of
    every contribution to ``w`` is -0.0, so the first one added is -0.0; the
    other elements span 16 decades, so their sum depends on its order."""
    w = Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True)
    consts = (10.0 ** rng.uniform(-8, 8, size=(frames, 2, 2, 6))
              * rng.choice([-1, 1], size=(frames, 2, 2, 6))).astype(np.float32)
    consts[..., 0] = -0.0
    carried: list = [None, None]
    tapes: list = [[], []]

    def frame(f, k):
        h = mul(w, 3.0) if carried[k] is None else carried[k]
        carried[k] = mul(h, 1.0)
        return add(sum_(mul(w, consts[f, k, 0])), sum_(mul(mul(h, consts[f, k, 1]), mul(w, 1.0))))

    if not apart:
        with fresh_tape():
            for f in range(frames):
                terms = [frame(f, k) for k in range(2)]
            backward(add(terms[0], terms[1]))
        return w.grad
    for f in range(frames):
        terms = []
        for k in range(2):
            with fresh_tape() as tape:
                terms.append(frame(f, k))
            tapes[k].append(tape)
    stand_ins = [Tensor(term.data, requires_grad=True) for term in terms]
    with fresh_tape() as tape:
        loss = add(stand_ins[0], stand_ins[1])
    (seeds,) = leaf_gradients([tape], [(loss, np.ones_like(loss.data))])
    assert [t for t, _ in seeds] == stand_ins and w.grad is None
    scenes = [leaf_gradients(tapes[k], [(terms[k], g)]) for k, (_, g) in enumerate(seeds)]
    assert w.grad is None
    add_gradients(pair for f in range(frames) for k in (1, 0) for pair in scenes[k][f])
    return w.grad


@pytest.mark.parametrize("frames", [1, 2])
def test_scene_gradients_replayed_apart_sum_in_the_single_tape_order(frames):
    serial = _shared_leaf_grad(np.random.default_rng(3), frames, apart=False)
    assert serial[0] == 0.0 and not np.signbit(serial[0])
    merged = _shared_leaf_grad(np.random.default_rng(3), frames, apart=True)
    assert merged.dtype == serial.dtype and merged.tobytes() == serial.tobytes()


def test_leaf_gradients_hand_back_what_backward_would_add():
    w = t64(np.ones(3), grad=True)
    with fresh_tape() as first:
        a = mul(w, 2.0)
    with fresh_tape() as second:
        b = sum_(mul(a, w))
    newest, oldest = leaf_gradients([first, second], [(b, np.float64(1.0)), (w, np.full(3, 5.0))])
    assert w.grad is None
    # the seed given to the leaf opens the newest tape's list
    assert [t for t, _ in newest] == [w, w] and [t for t, _ in oldest] == [w]
    np.testing.assert_array_equal(np.stack([g for _, g in newest + oldest]), [[5.0] * 3, [2.0] * 3, [2.0] * 3])
    add_gradients(newest + oldest)
    np.testing.assert_array_equal(w.grad, [9.0] * 3)
