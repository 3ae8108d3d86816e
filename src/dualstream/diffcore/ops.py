"""Differentiable building blocks: transformer layers and grid sampling.

Attention treats its keys as an unordered set: it first puts the (key, value)
rows in one canonical order, so outputs and parameter gradients are invariant
at the bit level to permutations of the key set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    _accumulate,
    _make,
    _unbroadcast,
    _wrap,
    add,
)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``.

    Max-subtraction uses detached values, which leaves both the forward
    value and the Jacobian of softmax unchanged.
    """
    m = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g, grads):
        tmp = g * s
        dot = tmp.sum(axis=axis, keepdims=True)
        _accumulate(x, tmp - s * dot, grads)

    return _make(s, (x,), bwd)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = gamma.data * xhat + beta.data

    def bwd(g, grads):
        if x.requires_grad:
            ghat = g * gamma.data
            m1 = ghat.mean(axis=-1, keepdims=True)
            m2 = (ghat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * (ghat - m1 - xhat * m2), grads)
        if gamma.requires_grad:
            _accumulate(gamma, _unbroadcast(g * xhat, gamma.data.shape), grads)
        if beta.requires_grad:
            _accumulate(beta, _unbroadcast(g, beta.data.shape), grads)

    return _make(data, (x, gamma, beta), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    xd = x.data
    u = _GELU_C * (xd + _GELU_A * xd ** 3)
    t = np.tanh(u)
    data = 0.5 * xd * (1.0 + t)

    def bwd(g, grads):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        local = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du
        _accumulate(x, g * local, grads)

    return _make(data, (x,), bwd)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    from .tensor import matmul

    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


@dataclass
class MlpParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def mlp(x: Tensor, params: MlpParams) -> Tensor:
    return linear(gelu(linear(x, params.w1, params.b1)), params.w2, params.b2)


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def multi_head_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    heads: int,
    params: AttentionParams,
) -> Tensor:
    """Scaled dot-product attention with ``heads`` parallel heads.

    The (key, value) rows are gathered in lexicographic order first, so any
    permutation of the key set yields identical arrays: the output and the
    gradients of ``params`` are bitwise invariant to key order. Equal key
    rows with different values still get one fixed order. Queries keep their
    order, so self-attention is row-equivariant.
    """
    from .tensor import matmul, reshape, take_rows, transpose

    n_q, dim = query.data.shape
    if dim % heads != 0:
        raise ShapeError(f"embedding dim {dim} not divisible by {heads} heads")
    dh = dim // heads
    order = np.lexsort(np.concatenate([key.data, value.data], axis=1).T[::-1])
    key, value = take_rows(key, order), take_rows(value, order)

    def to_heads(t):
        return transpose(reshape(t, (-1, heads, dh)), (1, 0, 2))

    q = to_heads(linear(query, params.wq, params.bq))
    k = to_heads(linear(key, params.wk, params.bk))
    v = to_heads(linear(value, params.wv, params.bv))

    scores = matmul(q, transpose(k, (0, 2, 1)))
    scores = scores * (1.0 / math.sqrt(dh))
    ctx = matmul(softmax(scores, axis=-1), v)
    merged = reshape(transpose(ctx, (1, 0, 2)), (n_q, dim))
    return linear(merged, params.wo, params.bo)


def _bilinear_flat(flat: Tensor, h: int, w: int, coords) -> Tensor:
    """Bilinear sampling against an (H*W, C) row-major value matrix.

    Gathers contiguous rows, which is much faster than channel-first
    indexing; bilinear_sample wraps this behind the (C, H, W) contract.
    """
    coords = _wrap(coords, like=flat)
    if flat.ndim != 2 or coords.ndim != 2 or coords.data.shape[1] != 2:
        raise ShapeError("bilinear sampling needs values (H*W, C) and coords (n, 2)")
    cd = coords.data
    ci, cj = cd[:, 0], cd[:, 1]
    inside = (ci >= 0) & (ci <= h - 1) & (cj >= 0) & (cj <= w - 1)
    i0 = np.clip(np.floor(ci), 0, h - 1).astype(np.int64)
    j0 = np.clip(np.floor(cj), 0, w - 1).astype(np.int64)
    i1 = np.minimum(i0 + 1, h - 1)
    j1 = np.minimum(j0 + 1, w - 1)
    di = np.where(inside, ci - i0, 0.0)[:, None]
    dj = np.where(inside, cj - j0, 0.0)[:, None]
    fd = np.ascontiguousarray(flat.data)
    lin00 = i0 * w + j0
    lin01 = i0 * w + j1
    lin10 = i1 * w + j0
    lin11 = i1 * w + j1
    g00 = np.take(fd, lin00, axis=0)
    g01 = np.take(fd, lin01, axis=0)
    g10 = np.take(fd, lin10, axis=0)
    g11 = np.take(fd, lin11, axis=0)
    w00 = (1 - di) * (1 - dj)
    w01 = (1 - di) * dj
    w10 = di * (1 - dj)
    w11 = di * dj
    insf = inside.astype(fd.dtype)[:, None]
    data = (w00 * g00 + w01 * g01 + w10 * g10 + w11 * g11) * insf

    def bwd(g, grads):
        gt = g * insf  # (n, C)
        if flat.requires_grad:
            gg = np.zeros_like(fd)
            np.add.at(gg, lin00, w00 * gt)
            np.add.at(gg, lin01, w01 * gt)
            np.add.at(gg, lin10, w10 * gt)
            np.add.at(gg, lin11, w11 * gt)
            _accumulate(flat, gg, grads)
        if coords.requires_grad:
            dvi = -(1 - dj) * g00 - dj * g01 + (1 - dj) * g10 + dj * g11
            dvj = -(1 - di) * g00 + (1 - di) * g01 - di * g10 + di * g11
            gi = np.einsum("nc,nc->n", gt, dvi)
            gj = np.einsum("nc,nc->n", gt, dvj)
            _accumulate(coords, np.stack([gi, gj], axis=1), grads)

    return _make(data, (flat, coords), bwd)


def bilinear_sample(grid: Tensor, coords) -> Tensor:
    """Sample a (C, H, W) grid at (n, 2) continuous (row, col) coordinates.

    Integer coordinates hit cell centers exactly. Coordinates with any
    component outside [0, H-1] x [0, W-1] yield zeros with zero gradient
    (border-zero policy). Gradients flow to both grid values and coords.
    """
    from .tensor import reshape, transpose

    if grid.ndim != 3:
        raise ShapeError("bilinear_sample needs grid (C,H,W) and coords (n,2)")
    C, H, W = grid.data.shape
    flat = transpose(reshape(grid, (C, H * W)), (1, 0))
    return _bilinear_flat(flat, H, W, coords)


@dataclass
class DeformableParams:
    """Projections for deformable attention over one value grid."""

    n_points: int
    w_off: Tensor   # (L, n_points*2)
    b_off: Tensor
    w_wgt: Tensor   # (L, n_points)
    b_wgt: Tensor
    w_val: Tensor   # (C, L)
    w_out: Tensor   # (L, L)
    b_out: Tensor


def _neighbors_valid(valid: np.ndarray, ci, cj, H: int, W: int) -> np.ndarray:
    """True where every bilinear neighbor with nonzero weight is valid."""
    inside = (ci >= 0) & (ci <= H - 1) & (cj >= 0) & (cj <= W - 1)
    i0 = np.clip(np.floor(ci), 0, H - 1).astype(np.int64)
    j0 = np.clip(np.floor(cj), 0, W - 1).astype(np.int64)
    i1 = np.minimum(i0 + 1, H - 1)
    j1 = np.minimum(j0 + 1, W - 1)
    di = ci - i0
    dj = cj - j0
    ok = inside.copy()
    for ii, jj, wt in (
        (i0, j0, (1 - di) * (1 - dj)),
        (i0, j1, (1 - di) * dj),
        (i1, j0, di * (1 - dj)),
        (i1, j1, di * dj),
    ):
        ok &= valid[ii, jj] | (wt <= 0)
    return ok


def _deformable_core(
    queries: Tensor,
    reference_points: np.ndarray,
    value_grid: Tensor,
    params: DeformableParams,
    valid_mask: Optional[np.ndarray] = None,
    query_valid: Optional[np.ndarray] = None,
):
    """Deformable attention returning (output, per-query any-valid mask).

    Per query: predict ``n_points`` offsets and softmax weights from the
    latent, bilinear-sample the value-projected grid at reference+offset,
    return the weighted sum through the output projection. Sampling points
    that fall out of range (or on invalid cells of ``valid_mask``) are
    dropped from the weight softmax; queries with no surviving point give a
    zero output and a False mask entry.
    """
    from .tensor import mul, reshape, scatter_rows, sum_, take_rows, transpose

    n, L = queries.data.shape
    if query_valid is not None:
        # run on the valid subset only; most queries miss most cameras
        qv = np.asarray(query_valid, dtype=bool)
        if not qv.any():
            return Tensor(np.zeros((n, L), dtype=queries.dtype)), np.zeros(n, dtype=bool)
        idx = np.nonzero(qv)[0]
        refs = np.asarray(reference_points, dtype=np.float64)[idx]
        out_sub, anyv_sub = _deformable_core(take_rows(queries, idx), refs, value_grid, params, valid_mask)
        anyv = np.zeros(n, dtype=bool)
        anyv[idx] = anyv_sub
        return scatter_rows(out_sub, idx, n), anyv

    P = params.n_points
    C, H, W = value_grid.data.shape

    vflat = transpose(reshape(value_grid, (C, H * W)), (1, 0))
    vproj = linear(vflat, params.w_val)

    offsets = reshape(linear(queries, params.w_off, params.b_off), (n, P, 2))
    ref = np.asarray(reference_points, dtype=np.float64)[:, None, :]
    coords = add(offsets, ref)
    flat = reshape(coords, (n * P, 2))
    sampled = reshape(_bilinear_flat(vproj, H, W, flat), (n, P, -1))

    cd = flat.data.reshape(n, P, 2)
    ci, cj = cd[..., 0], cd[..., 1]
    pv = (ci >= 0) & (ci <= H - 1) & (cj >= 0) & (cj <= W - 1)
    if valid_mask is not None:
        pv &= _neighbors_valid(valid_mask, ci, cj, H, W)
    any_valid = pv.any(axis=1)

    logits = linear(queries, params.w_wgt, params.b_wgt)
    logits = add(logits, np.where(pv, 0.0, -1e30))
    wts = softmax(logits, axis=-1)
    pooled = sum_(mul(reshape(wts, (n, P, 1)), sampled), axis=1)
    out = linear(pooled, params.w_out, params.b_out)
    out = mul(out, any_valid.astype(out.dtype)[:, None])
    return out, any_valid


@dataclass
class FeatureMap:
    """Per-camera feature grid with its pixel stride."""

    data: Tensor        # (channels, H_f, W_f)
    camera: str
    stride: int


@dataclass
class PatchEmbedParams:
    w_proj: Tensor      # (3*P*P, C)
    b_proj: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    mlp1: MlpParams
    ln2_g: Tensor
    ln2_b: Tensor
    mlp2: MlpParams


def extract_patches(image: np.ndarray, patch: int) -> np.ndarray:
    """(C,H,W) -> (n_patches, C*P*P), rows in row-major patch order,
    each row flattened channel-major then row-major within the patch."""
    c, h, w = image.shape
    hp, wp = h // patch, w // patch
    x = image.reshape(c, hp, patch, wp, patch)
    return x.transpose(1, 3, 0, 2, 4).reshape(hp * wp, c * patch * patch)


def patch_embed(image: Tensor, patch: int, params: PatchEmbedParams, camera: str = "front") -> FeatureMap:
    """Non-overlapping patch projection followed by two residual MLP blocks."""
    from .tensor import reshape, transpose

    c, h, w = image.data.shape
    if h % patch or w % patch:
        raise ShapeError(f"image {h}x{w} not divisible by patch {patch}")
    hp, wp = h // patch, w // patch
    x = reshape(image, (c, hp, patch, wp, patch))
    x = transpose(x, (1, 3, 0, 2, 4))
    x = reshape(x, (hp * wp, c * patch * patch))
    x = linear(x, params.w_proj, params.b_proj)
    x = add(x, mlp(layernorm(x, params.ln1_g, params.ln1_b), params.mlp1))
    x = add(x, mlp(layernorm(x, params.ln2_g, params.ln2_b), params.mlp2))
    fm = transpose(reshape(x, (hp, wp, -1)), (2, 0, 1))
    return FeatureMap(data=fm, camera=camera, stride=patch)


def sincos_encoding(values: np.ndarray, n_freqs: int = 8) -> np.ndarray:
    """Sinusoidal encoding of (n, d) values -> (n, d*2*n_freqs), float64.

    Frequencies are pi * 2^k; inputs are expected roughly in [0, 1].
    """
    v = np.asarray(values, dtype=np.float64)
    freqs = np.pi * (2.0 ** np.arange(n_freqs))
    ang = v[..., None] * freqs  # (n, d, F)
    enc = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
    return enc.reshape(v.shape[0], -1)
