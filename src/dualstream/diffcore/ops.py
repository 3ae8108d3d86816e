"""Differentiable building blocks: transformer layers and grid sampling.

Attention treats its keys as an unordered set: it first puts the (key, value)
rows in one canonical order, so outputs and parameter gradients are invariant
at the bit level to permutations of the key set.

Every bilinear and deformable read goes through one sampling plan: a sparse
(samples, table rows) matrix of bilinear weights built once per read. The read
op sums weighted runs of samples with the weights folded into the plan's rows:
one sparse product forward, its transpose for the value gradient, and the
weight and coordinate gradients from each sample's four per-neighbour dots
(one dense product when the table is small), so no scatter is needed. A
deformable query owns a sorted run of reads of the stacked value table (whose
rows ``valid_mask`` masks) and pools those that keep a point by their mean:
each hit read's share is 1/hits. The shares are folded into the point weights
too, so pooling over cameras, heights or time is the one read.

A value table has one layout: an H x W grid of C channels is stored
row-major as an (H*W, C) tensor, cell (i, j) in row i*W + j, with its
(H, W) dims alongside. Camera feature maps and BEV cells are both kept this
way, so every read uses its table as it is.
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
    derivatives of ``weights.data`` along the row and the column coordinate:
    a sample's four per-neighbour dots (``_bilinear_flat``) summed with either
    give the gradient of its weight or of its coordinates.
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

    Forward is ``A @ V`` with the weights folded into the plan's rows, and the
    value gradient is ``A.T @ g``. The weight and coordinate gradients come
    from ``near``, the (samples, 4) dots of each sample's output-row gradient
    with its neighbour rows: a gather from the dense ``g @ V.T`` when that has
    at most 4x the plan's 4 * samples entries (which also caps its memory),
    else dots of gathered rows. Sums run in a fixed order, so results are
    bitwise reproducible.
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
            out, cols = np.repeat(np.arange(g.shape[0]), np.diff(starts)), plan.weights.indices.reshape(-1, 4)
            if g.shape[0] * fd.shape[0] <= 4 * cols.size:
                near = (g @ fd.T)[out[:, None], cols]
            else:
                near = np.einsum("sqc,sc->sq", np.take(fd, cols, axis=0), np.take(g, out, axis=0))
            if wts.requires_grad:
                dw = np.einsum("sq,sq->s", plan.weights.data.reshape(-1, 4), near)
                _accumulate(wts, dw.reshape(wts.data.shape), grads)
            if coords.requires_grad:
                dc = np.einsum("ksq,sq->sk", plan.slope_data.reshape(2, -1, 4), near)
                _accumulate(coords, dc * w[:, None], grads)

    return _make(data, (flat, coords, wts), bwd)


def bilinear_sample(table: Tensor, dims, coords) -> Tensor:
    """Sample the (H*W, C) table of an H x W grid (``dims``) at (n, 2)
    continuous (row, col) coordinates, giving (n, C).

    Integer coordinates hit cell centers exactly. Coordinates with any
    component outside [0, H-1] x [0, W-1] yield zeros with zero gradient
    (border-zero policy). Gradients flow to both table values and coords.
    """
    coords = _wrap(coords, like=table)
    H, W = dims
    if table.ndim != 2 or table.data.shape[0] != H * W or coords.ndim != 2 or coords.data.shape[1] != 2:
        raise ShapeError("bilinear_sample needs a table (H*W, C) and coords (n, 2)")
    n = coords.data.shape[0]
    plan = sampling_plan(coords.data, H, W, H * W, dtype=table.dtype)
    return _bilinear_flat(table, coords, plan, Tensor(np.ones(n, dtype=table.dtype)), np.arange(n + 1))


@dataclass
class DeformableParams:
    """Projections for deformable attention over one value table. The
    number of points each read samples is ``w_wgt``'s column count."""

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
    tables,
    dims,
    params: DeformableParams,
    valid_mask: Optional[np.ndarray] = None,
    owner: Optional[np.ndarray] = None,
    grid_of: Optional[np.ndarray] = None,
):
    """Deformable attention of each query over its reads, returning the
    (queries, L) output and the (reads,) array of each read's share of it.

    Read r is reference point r, made for query ``owner[r]`` (sorted; by
    default one read per query) in grid ``grid_of[r]`` of ``tables``: one
    (H*W, C) table with its (H, W) ``dims``, or a sequence of tables and a
    sequence of their dims, stacked into one value table. Offsets and
    point logits come once per query. A read samples the value-projected
    table at reference + offset for each of ``n_points`` points; points out
    of range, or with a nonzero bilinear weight on a False row of
    ``valid_mask`` (a mask over the table's rows), leave the read's weight
    softmax, and a read keeping none is a miss. A query's output is the
    share-weighted sum of its hit reads through ``w_out``, plus ``b_out`` if
    it has a hit, and zero otherwise. The shares are the mean over a query's
    hit reads: 1/hits, computed in float64 and rounded once to the model
    dtype, and 0 for a miss; they are folded into the point weights.
    """
    from .tensor import concat, matmul, mul, reshape, sparse_matmul

    n, L = queries.data.shape
    tables = [tables] if isinstance(tables, Tensor) else list(tables)
    owner = np.arange(n) if owner is None else np.asarray(owner, dtype=np.int64)
    if np.any(np.diff(owner) < 0):
        raise ValueError("deformable reads must be sorted by owner")
    m = owner.size
    grid_of = np.zeros(m, dtype=np.int64) if grid_of is None else np.asarray(grid_of, dtype=np.int64)
    refs = np.asarray(reference_points, dtype=np.float64)
    P = params.w_wgt.data.shape[1]
    dims = np.asarray(dims, dtype=np.int64).reshape(-1, 2)   # (grids, 2)
    sizes = dims[:, 0] * dims[:, 1]
    if [t.data.shape[0] for t in tables] != sizes.tolist():
        raise ShapeError("each value table needs H*W rows for its (H, W) dims")
    bases = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    vproj = linear(tables[0] if len(tables) == 1 else concat(tables, axis=0), params.w_val)

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
    share = np.where(hit, 1.0 / np.maximum(hits, 1)[owner], 0.0).astype(logits.dtype)

    wts = mul(softmax(add(logits, np.where(kept, 0.0, -1e30)), axis=-1), share[:, None])
    pooled = _bilinear_flat(vproj, coords, plan, wts, np.searchsorted(owner, np.arange(n + 1)) * P)
    out = add(matmul(pooled, params.w_out), mul(params.b_out, (hits > 0).astype(pooled.dtype)[:, None]))
    return out, share


@dataclass
class FeatureMap:
    """Per-camera feature grid: the (H_f*W_f, C) row-major table of its
    H_f x W_f patches, with its dims and pixel stride."""

    data: Tensor            # (H_f*W_f, C)
    dims: tuple[int, int]   # (H_f, W_f)
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


def patch_embed(image: Tensor, patch: int, params: PatchEmbedParams) -> FeatureMap:
    """Non-overlapping patch projection followed by two residual MLP blocks.

    Row k of the feature table is patch k in row-major patch order; each
    patch enters flattened channel-major, then row-major within the patch.
    """
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
    return FeatureMap(data=x, dims=(hp, wp), stride=patch)


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
