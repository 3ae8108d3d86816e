"""Differentiable building blocks: transformer layers and grid sampling.

Attention treats its keys as an unordered set: it first puts the (key, value)
rows in one canonical order, so outputs and parameter gradients are invariant
at the bit level to permutations of the key set.

Every bilinear and deformable read goes through one sampling plan: each
sample's four neighbour rows and bilinear weights, built once per read. The
read op sums weighted runs of samples through one sparse matrix of the plan
with the weights folded in: one sparse product forward, its transpose for the
value gradient, and the weight and coordinate gradients from each sample's
four per-neighbour dots (one dense product when the table is small, else
gathered rows in fixed chunks of samples), so no scatter is needed. The plan
keeps each sample's fractional offsets, and the coordinate gradient is a
closed form of them and those dots; no slope array is built. A deformable
query owns a sorted run of reads of the value table (whose rows
``valid_mask`` masks) and pools those that keep a point by their mean: each
hit read's share is 1/hits. The shares are folded into the point
weights too, so pooling over cameras, heights or time is the one read.

A value table has one layout: an H x W grid of C channels is stored
row-major as an (H*W, C) tensor, cell (i, j) in row i*W + j, with its (H, W)
dims alongside; G grids of one (H, W) stack as one (G*H*W, C) table, grid g
from row g*H*W, as a frame's camera features (``FeatureMap``) do. Every read
uses its table as it is.
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
    matmul,
    mul,
    reshape,
    scale,
    sparse_matmul,
    take_rows,
    transpose,
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
    scores = scale(scores, 1.0 / math.sqrt(dh))
    ctx = matmul(softmax(scores, axis=-1), v)
    merged = reshape(transpose(ctx, (1, 0, 2)), (n_q, dim))
    return linear(merged, params.wo, params.bo)


@dataclass
class SamplingPlan:
    """Bilinear reads of ``n`` continuous (row, col) points from a row-major
    value table.

    ``cols`` holds each sample's four neighbour rows in the order 00, 01, 10,
    11 and ``weights`` their bilinear weights, with the border-zero mask
    folded in: a sample outside its grid's cell-center hull has four zero
    weights. A sample on the far border repeats its clamped row with weight
    zero. ``di`` and ``dj`` are each sample's fractional row and column
    offsets from its 00 neighbour (0 outside); a read's backward takes the
    coordinate gradient from them in closed form (``_bilinear_flat``).
    """

    inside: np.ndarray              # (n,) bool
    cols: np.ndarray                # (n, 4) int64 table rows
    weights: np.ndarray             # (n, 4) in the table's dtype
    di: np.ndarray                  # (n,) float64
    dj: np.ndarray                  # (n,) float64

    def valid(self, mask: np.ndarray) -> np.ndarray:
        """(n,) True where a sample is inside and every neighbour with
        nonzero weight is True in the (rows,) ``mask``."""
        return self.inside & np.all(mask[self.cols] | (self.weights == 0), axis=1)


def sampling_plan(coords: np.ndarray, h, w, *, base=0, dtype=np.float64) -> SamplingPlan:
    """Plan the bilinear reads of (n, 2) ``coords``.

    Sample k reads the ``h`` x ``w`` grid stored row-major from table row
    ``base``; ``h``, ``w`` and ``base`` are scalars or (n,) arrays, so one
    plan can read several stacked grids, each sample clamped to its own.
    Weights are built in ``dtype``, the value table's dtype.
    """
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
    return SamplingPlan(inside=inside, cols=cols, weights=wts.astype(dtype), di=di, dj=dj)


# samples per gathered chunk of the read backward's per-neighbour dots: the
# gathered (chunk, 4, C) rows stay a few hundred kB, where one gather of every
# sample (8.4 MB for BEV temporal attention) pays for a fresh allocation per call
NEAR_CHUNK = 512


def _bilinear_flat(flat: Tensor, coords: Tensor, plan: SamplingPlan, wts: Tensor, starts: np.ndarray) -> Tensor:
    """Read the (rows, C) value table through ``plan``, planned from ``coords``:
    output row k is the ``wts``-weighted sum of samples ``starts[k]:starts[k+1]``
    (one weight per sample, in any shape).

    Forward is ``A @ V``, with ``A`` the read's one sparse matrix: the plan's
    weights times ``wts`` in its rows. The value gradient is ``A.T @ g``. The
    weight and coordinate gradients come from ``near``, the (samples, 4) dots
    of each sample's output-row gradient with its neighbour rows: one flat
    take from the dense ``g @ V.T`` when that has at most 4x the plan's
    4 * samples entries (which also caps its memory), else dots of gathered
    rows, ``NEAR_CHUNK`` samples at a time, into one preallocated array. The
    weight gradient is ``near`` dotted with the plan's weights. The
    coordinate gradient is the bilinear weights' derivative in closed form:
    ``(1-dj)(n10-n00) + dj(n11-n01)`` along rows and
    ``(1-di)(n01-n00) + di(n11-n10)`` along columns, times the sample's weight
    and zero outside, computed in float64 from the offsets and rounded once
    into the coordinates' dtype. Sums run in a fixed order, so results are
    bitwise reproducible.
    """
    fd = np.ascontiguousarray(flat.data)
    if plan.cols.size and plan.cols.max() >= fd.shape[0]:
        # scipy does not bound-check CSR indices: the product would read and write past the table
        raise ShapeError(f"plan reads table row {plan.cols.max()}, but the value table has {fd.shape[0]} rows")
    w = wts.data.ravel()
    a = sparse.csr_array(((plan.weights * w[:, None]).ravel(), plan.cols.ravel(), 4 * np.asarray(starts)),
                         shape=(len(starts) - 1, fd.shape[0]))
    data = a @ fd

    def bwd(g, grads):
        g = np.ascontiguousarray(g)
        if flat.requires_grad:
            _accumulate(flat, a.T @ g, grads)
        if wts.requires_grad or coords.requires_grad:
            near = _neighbour_dots(fd, g, np.repeat(np.arange(g.shape[0]), np.diff(starts)), plan.cols)
            if wts.requires_grad:
                dw = np.einsum("sq,sq->s", plan.weights, near)
                _accumulate(wts, dw.reshape(wts.data.shape), grads)
            if coords.requires_grad:
                n00, n01, n10, n11 = near.T
                di, dj = plan.di, plan.dj
                dc = np.stack([(1 - dj) * (n10 - n00) + dj * (n11 - n01),
                               (1 - di) * (n01 - n00) + di * (n11 - n10)], axis=1)
                dc *= np.where(plan.inside, w, 0)[:, None]
                _accumulate(coords, dc.astype(coords.data.dtype, copy=False), grads)

    return _make(data, (flat, coords, wts), bwd)


def _neighbour_dots(fd: np.ndarray, g: np.ndarray, out: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(samples, 4) dots of row ``out[s]`` of ``g`` with table rows
    ``cols[s]`` of ``fd``, each summed over the channels in one fixed order."""
    rows, n = fd.shape[0], cols.shape[0]
    if g.shape[0] * rows <= 4 * cols.size:
        return np.take(g @ fd.T, out[:, None] * rows + cols)
    near = np.empty((n, 4), dtype=np.result_type(fd, g))
    for s in range(0, n, NEAR_CHUNK):
        c = slice(s, s + NEAR_CHUNK)
        np.einsum("sqc,sc->sq", np.take(fd, cols[c], axis=0), np.take(g, out[c], axis=0), out=near[c])
    return near


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
    plan = sampling_plan(coords.data, H, W, dtype=table.dtype)
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
    table: Tensor,
    dims,
    params: DeformableParams,
    valid_mask: Optional[np.ndarray] = None,
    owner: Optional[np.ndarray] = None,
    grid_of: Optional[np.ndarray] = None,
):
    """Deformable attention of each query over its reads, returning the
    (queries, L) output and the (reads,) array of each read's share of it.

    ``table`` stacks G row-major grids of one (H, W) ``dims``, grid g from
    row g*H*W. Read r is reference point r, made for query ``owner[r]``
    (sorted; by default one read per query) in grid ``grid_of[r]`` (by
    default 0). Offsets and point logits come once per query. A read samples
    the value-projected table at reference + offset for each of ``n_points``
    points, clamped to its own grid; points out of range, or with a nonzero
    bilinear weight on a False row of ``valid_mask`` (a mask over the
    table's rows), leave the read's weight softmax, and a read keeping none
    is a miss. A query's output is the share-weighted sum of its hit reads
    through ``w_out``, plus ``b_out`` if it has a hit, and zero otherwise.
    The shares are the mean over a query's hit reads: 1/hits, computed in
    float64 and rounded once to the model dtype, and 0 for a miss; they are
    folded into the point weights.
    """
    n, L = queries.data.shape
    owner = np.arange(n) if owner is None else np.asarray(owner, dtype=np.int64)
    if np.any(np.diff(owner) < 0):
        raise ValueError("deformable reads must be sorted by owner")
    m = owner.size
    h, w = dims
    grids = table.data.shape[0] // (h * w)
    grid_of = np.zeros(m, dtype=np.int64) if grid_of is None else np.asarray(grid_of, dtype=np.int64)
    if table.ndim != 2 or table.data.shape[0] != grids * h * w or np.any((grid_of < 0) | (grid_of >= grids)):
        raise ShapeError(f"value table {table.data.shape} is no stack of {h}x{w} grids holding every read's grid")
    refs = np.asarray(reference_points, dtype=np.float64)
    P = params.w_wgt.data.shape[1]
    vproj = linear(table, params.w_val)

    offsets = linear(queries, params.w_off, params.b_off)
    logits = linear(queries, params.w_wgt, params.b_wgt)
    if not np.array_equal(owner, np.arange(n)):
        pick = sparse.csr_array((np.ones(m, dtype=queries.dtype), owner, np.arange(m + 1)), shape=(m, n))
        offsets, logits = sparse_matmul(pick, offsets), sparse_matmul(pick, logits)
    coords = reshape(add(reshape(offsets, (m, P, 2)), refs[:, None, :]), (m * P, 2))
    plan = sampling_plan(coords.data, h, w, base=np.repeat(grid_of * (h * w), P), dtype=vproj.dtype)

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
    """A frame's camera features: one camera-major table of the H_f x W_f
    patch grids of the cameras ``names``, (k*H_f*W_f, C) for k cameras, with
    the grids' one dims and pixel stride. Camera i's grid is rows
    i*H_f*W_f to (i+1)*H_f*W_f, row-major within."""

    data: Tensor                # (len(names)*H_f*W_f, C)
    dims: tuple[int, int]       # (H_f, W_f)
    stride: int
    names: tuple[str, ...]

    def __post_init__(self):
        rows = len(self.names) * self.dims[0] * self.dims[1]
        if self.data.ndim != 2 or self.data.data.shape[0] != rows:
            raise ShapeError(f"a feature table of cameras {self.names} needs {rows} rows, got {self.data.data.shape}")


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


def patch_embed(images: Tensor, names: tuple[str, ...], patch: int, params: PatchEmbedParams) -> FeatureMap:
    """Non-overlapping patch projection followed by two residual MLP blocks,
    over the (k, 3, H, W) stack of the images of the k cameras ``names``.

    One pass embeds every camera: row i*H_f*W_f + p of the table is patch p
    of image i, patches in row-major order; each patch enters flattened
    channel-major, then row-major within the patch.
    """
    if images.ndim != 4 or images.data.shape[0] != len(names):
        raise ShapeError(f"patch_embed needs a (k, 3, H, W) stack of {len(names)} images, got {images.data.shape}")
    k, c, h, w = images.data.shape
    if h % patch or w % patch:
        raise ShapeError(f"image {h}x{w} not divisible by patch {patch}")
    hp, wp = h // patch, w // patch
    x = reshape(images, (k, c, hp, patch, wp, patch))
    x = transpose(x, (0, 2, 4, 1, 3, 5))
    x = reshape(x, (k * hp * wp, c * patch * patch))
    x = linear(x, params.w_proj, params.b_proj)
    x = add(x, mlp(layernorm(x, params.ln1_g, params.ln1_b), params.mlp1))
    x = add(x, mlp(layernorm(x, params.ln2_g, params.ln2_b), params.mlp2))
    return FeatureMap(data=x, dims=(hp, wp), stride=patch, names=names)


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
