"""Differentiable building blocks: transformer layers and grid sampling.

Attention treats its keys as an unordered set: it first puts the (key, value)
rows in one canonical order, so outputs and parameter gradients are invariant
at the bit level to permutations of the key set.

Every bilinear and deformable read goes through one sampling plan: a sparse
(samples, table rows) matrix of bilinear weights built once per read. The
read op sums weighted runs of samples with the weights folded into the plan's
rows: one sparse product forward, its transpose for the value gradient, and
the weight and coordinate gradients and each sample's validity from the same
indices, so no scatter is needed. A deformable query owns a sorted run of
reads of the stacked value table (whose rows ``valid_mask`` masks) and
returns the mean over those that keep a point; that mean is folded into the
point weights too, so pooling over cameras, heights or time is the one read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

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
    cube = xd * xd   # a product, not numpy's generic pow; in place, so one temporary
    cube *= xd
    u = _GELU_C * (xd + _GELU_A * cube)
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


@dataclass
class SamplingPlan:
    """Bilinear reads of ``n`` continuous (row, col) points from a row-major
    value table, as sparse matrices over the table's rows.

    ``weights`` is the (n, rows) CSR matrix holding each sample's four
    neighbour rows in the order 00, 01, 10, 11 and their bilinear weights,
    with the border-zero mask folded in: a sample outside its grid's
    cell-center hull has four zero weights. A sample on the far border
    repeats its clamped row with weight zero. ``slope_data`` holds the
    derivatives of ``weights.data`` along the row and the column coordinate.
    """

    inside: np.ndarray              # (n,) bool
    weights: sparse.csr_array       # (n, rows)
    slope_data: np.ndarray          # (2, 4n)

    def valid(self, mask: np.ndarray) -> np.ndarray:
        """(n,) True where a sample is inside and every neighbour with
        nonzero weight is True in the (rows,) ``mask``."""
        cols = self.weights.indices.reshape(-1, 4)
        zero = self.weights.data.reshape(-1, 4) == 0
        return self.inside & np.all(mask[cols] | zero, axis=1)

    def rows_and_slopes(self) -> sparse.csr_array:
        """(3n, rows): every sample's rows, then its d/di rows, then its d/dj rows."""
        n, rows = self.weights.shape
        data = np.concatenate([self.weights.data, self.slope_data.ravel()])
        return sparse.csr_array((data, np.tile(self.weights.indices, 3), np.arange(0, 12 * n + 1, 4)),
                                shape=(3 * n, rows))


def sampling_plan(coords: np.ndarray, h, w, rows: int, base=0, dtype=np.float64) -> SamplingPlan:
    """Plan the bilinear reads of (n, 2) ``coords`` from a table of ``rows``.

    Sample k reads the ``h`` x ``w`` grid stored row-major from table row
    ``base``; ``h``, ``w`` and ``base`` are scalars or (n,) arrays, so one
    plan can read several stacked grids, each sample clamped to its own.
    Weights are built in ``dtype``, the value table's dtype.
    """
    n = coords.shape[0]
    ci, cj = coords[:, 0], coords[:, 1]
    inside = (ci >= 0) & (ci <= h - 1) & (cj >= 0) & (cj <= w - 1)
    i0 = np.clip(np.floor(ci), 0, h - 1).astype(np.int64)
    j0 = np.clip(np.floor(cj), 0, w - 1).astype(np.int64)
    i1 = np.minimum(i0 + 1, h - 1)
    j1 = np.minimum(j0 + 1, w - 1)
    di = np.where(inside, ci - i0, 0.0)
    dj = np.where(inside, cj - j0, 0.0)
    row0, row1 = base + i0 * w, base + i1 * w
    cols = np.stack([row0 + j0, row0 + j1, row1 + j0, row1 + j1], axis=1)
    ins = inside.astype(np.float64)[:, None]
    wts = np.stack([(1 - di) * (1 - dj), (1 - di) * dj, di * (1 - dj), di * dj], axis=1) * ins
    slopes = np.array([[-(1 - dj), -dj, 1 - dj, dj], [-(1 - di), 1 - di, -di, di]]).transpose(0, 2, 1) * ins
    m = sparse.csr_array((wts.astype(dtype).ravel(), cols.ravel(), np.arange(0, 4 * n + 1, 4)), shape=(n, rows))
    return SamplingPlan(inside=inside, weights=m, slope_data=slopes.astype(dtype).reshape(2, -1))


def _bilinear_flat(flat: Tensor, coords: Tensor, plan: SamplingPlan, wts: Tensor, starts: np.ndarray) -> Tensor:
    """Read the (rows, C) value table through ``plan``, planned from ``coords``:
    output row k is the ``wts``-weighted sum of samples ``starts[k]:starts[k+1]``
    (one weight per sample, in any shape).

    Forward is ``A @ V`` with the weights folded into the plan's rows; the
    value gradient is ``A.T @ g``, a weight's gradient its sample's read
    dotted with its row's gradient, and the coordinate gradient comes from the
    slope matrices. Sums run in a fixed order, so results are bitwise
    reproducible.
    """
    fd = np.ascontiguousarray(flat.data)
    w = wts.data.ravel()
    a = sparse.csr_array((plan.weights.data * np.repeat(w, 4), plan.weights.indices, 4 * np.asarray(starts)),
                         shape=(len(starts) - 1, fd.shape[0]))
    data = a @ fd

    def bwd(g, grads):
        g = np.ascontiguousarray(g)
        if flat.requires_grad:
            _accumulate(flat, a.T @ g, grads)
        if wts.requires_grad or coords.requires_grad:
            g_sample = g[np.repeat(np.arange(g.shape[0]), np.diff(starts))]
            reads = (plan.rows_and_slopes() @ fd).reshape(3, w.size, fd.shape[1])
            dots = np.einsum("knc,nc->kn", reads, g_sample)
            if wts.requires_grad:
                _accumulate(wts, dots[0].reshape(wts.data.shape), grads)
            if coords.requires_grad:
                _accumulate(coords, (dots[1:] * w).T, grads)

    return _make(data, (flat, coords, wts), bwd)


def bilinear_sample(grid: Tensor, coords) -> Tensor:
    """Sample a (C, H, W) grid at (n, 2) continuous (row, col) coordinates.

    Integer coordinates hit cell centers exactly. Coordinates with any
    component outside [0, H-1] x [0, W-1] yield zeros with zero gradient
    (border-zero policy). Gradients flow to both grid values and coords.
    """
    from .tensor import reshape, transpose

    coords = _wrap(coords, like=grid)
    if grid.ndim != 3 or coords.ndim != 2 or coords.data.shape[1] != 2:
        raise ShapeError("bilinear_sample needs grid (C,H,W) and coords (n,2)")
    C, H, W = grid.data.shape
    n = coords.data.shape[0]
    flat = transpose(reshape(grid, (C, H * W)), (1, 0))
    plan = sampling_plan(coords.data, H, W, H * W, dtype=grid.dtype)
    return _bilinear_flat(flat, coords, plan, Tensor(np.ones(n, dtype=grid.dtype)), np.arange(n + 1))


@dataclass
class DeformableParams:
    """Projections for deformable attention over one value table."""

    n_points: int
    w_off: Tensor   # (L, n_points*2)
    b_off: Tensor
    w_wgt: Tensor   # (L, n_points)
    b_wgt: Tensor
    w_val: Tensor   # (C, L)
    w_out: Tensor   # (L, L)
    b_out: Tensor


def _deformable_core(
    queries: Tensor,
    reference_points: np.ndarray,
    value_grid,
    params: DeformableParams,
    valid_mask: Optional[np.ndarray] = None,
    owner: Optional[np.ndarray] = None,
    grid_of: Optional[np.ndarray] = None,
):
    """Deformable attention of each query over its reads, returning the
    (queries, L) output and each read's share of its query's mean.

    Read r is reference point r, made for query ``owner[r]`` (sorted; by
    default one read per query) in grid ``grid_of[r]`` of ``value_grid``, one
    (C, H, W) tensor or a sequence stacked into one value table. Offsets and
    point logits come once per query. A read samples the value-projected
    table at reference + offset for each of ``n_points`` points; points out
    of range, or with a nonzero bilinear weight on a False row of
    ``valid_mask`` (a mask over the table's rows), leave the read's weight
    softmax, and a read keeping none is a miss. A query's output is the mean
    over its hit reads through ``w_out``, plus ``b_out`` if it has a hit, and
    zero otherwise; the shares (1/hits, 0 for a miss) are folded into the
    point weights.
    """
    from .tensor import concat, matmul, mul, reshape, sparse_matmul, transpose

    n, L = queries.data.shape
    grids = [value_grid] if isinstance(value_grid, Tensor) else list(value_grid)
    owner = np.arange(n) if owner is None else np.asarray(owner, dtype=np.int64)
    if np.any(np.diff(owner) < 0):
        raise ValueError("deformable reads must be sorted by owner")
    m = owner.size
    grid_of = np.zeros(m, dtype=np.int64) if grid_of is None else np.asarray(grid_of, dtype=np.int64)
    refs = np.asarray(reference_points, dtype=np.float64)
    P = params.n_points
    C = grids[0].data.shape[0]
    dims = np.array([g.data.shape[1:] for g in grids], dtype=np.int64)   # (grids, 2)
    sizes = dims[:, 0] * dims[:, 1]
    bases = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    flats = [transpose(reshape(g, (C, int(s))), (1, 0)) for g, s in zip(grids, sizes)]
    vproj = linear(flats[0] if len(flats) == 1 else concat(flats, axis=0), params.w_val)

    offsets = linear(queries, params.w_off, params.b_off)
    logits = linear(queries, params.w_wgt, params.b_wgt)
    if not np.array_equal(owner, np.arange(n)):
        pick = sparse.csr_array((np.ones(m, dtype=queries.dtype), owner, np.arange(m + 1)), shape=(m, n))
        offsets, logits = sparse_matmul(pick, offsets), sparse_matmul(pick, logits)
    coords = reshape(add(reshape(offsets, (m, P, 2)), refs[:, None, :]), (m * P, 2))
    g = np.repeat(grid_of, P)
    plan = sampling_plan(coords.data, dims[g, 0], dims[g, 1], int(sizes.sum()), bases[g], dtype=vproj.dtype)

    kept = (plan.inside if valid_mask is None else plan.valid(np.asarray(valid_mask, dtype=bool).ravel())).reshape(m, P)
    hit = kept.any(axis=1)
    hits = np.bincount(owner, weights=hit, minlength=n)
    share = hit / np.maximum(hits, 1.0)[owner]

    wts = mul(softmax(add(logits, np.where(kept, 0.0, -1e30)), axis=-1), share[:, None])
    pooled = _bilinear_flat(vproj, coords, plan, wts, np.searchsorted(owner, np.arange(n + 1)) * P)
    out = add(matmul(pooled, params.w_out), mul(params.b_out, (hits > 0).astype(pooled.dtype)[:, None]))
    return out, share


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

    Frequencies are pi * 2^k; inputs are expected roughly in [0, 1]. Built
    from float64 geometry, like the reference points; callers cast it to the
    model dtype where it enters a tensor.
    """
    v = np.asarray(values, dtype=np.float64)
    freqs = np.pi * (2.0 ** np.arange(n_freqs))
    ang = v[..., None] * freqs  # (n, d, F)
    enc = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
    return enc.reshape(v.shape[0], v.shape[1] * 2 * n_freqs)
