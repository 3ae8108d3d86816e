"""Reference forms of the two fused ``diffcore`` ops, composed of recorded
primitive ops as the package computed them before each became one op with
a hand-written backward.

``deformable_core`` records 12 tape entries per call (the offset, logit
and value projections, the coordinates, the masked softmax and its shares,
the weighted read, and the output projection with its hit-masked bias), 14
when sorted queries own the reads (the one-hot ``pick`` products), and
``multi_head_attention`` 19 (the canonical key order's two row gathers,
three projections with their head reshapes, the scaled scores, the
softmax, the context product and the output projection). The fused ops
must give the same output, the same gradients and the same
``leaf_gradients`` sequence, bitwise; tests compare them against these.

``softmax`` is the reference softmax these compose, kept here since no
package code calls it on its own any more.
"""

import math
from typing import Optional

import numpy as np
from scipy import sparse

from dualstream.diffcore.ops import AttentionParams, DeformableParams, _bilinear_flat, sampling_plan
from dualstream.diffcore.tensor import (
    ShapeError,
    Tensor,
    _accumulate,
    _make,
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


def multi_head_attention(query: Tensor, key: Tensor, value: Tensor, heads: int, params: AttentionParams) -> Tensor:
    """Scaled dot-product attention over the lexsorted (key, value) rows."""
    n_q, dim = query.data.shape
    if dim % heads != 0:
        raise ShapeError(f"embedding dim {dim} not divisible by {heads} heads")
    dh = dim // heads
    order = np.lexsort(np.concatenate([key.data, value.data], axis=1).T[::-1])
    key, value = take_rows(key, order), take_rows(value, order)

    def to_heads(t):
        return transpose(reshape(t, (-1, heads, dh)), (1, 0, 2))

    q = to_heads(matmul(query, params.wq, params.bq))
    k = to_heads(matmul(key, params.wk, params.bk))
    v = to_heads(matmul(value, params.wv, params.bv))

    scores = matmul(q, transpose(k, (0, 2, 1)))
    scores = scale(scores, 1.0 / math.sqrt(dh))
    ctx = matmul(softmax(scores, axis=-1), v)
    merged = reshape(transpose(ctx, (1, 0, 2)), (n_q, dim))
    return matmul(merged, params.wo, params.bo)


def deformable_core(
    queries: Tensor,
    reference_points: np.ndarray,
    table: Tensor,
    dims,
    params: DeformableParams,
    valid_mask: Optional[np.ndarray] = None,
    owner: Optional[np.ndarray] = None,
    grid_of: Optional[np.ndarray] = None,
):
    """Deformable attention of each query over its reads: the (queries, L)
    output and each read's share, as ``diffcore.ops._deformable_core``."""
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
    vproj = matmul(table, params.w_val)

    offsets = matmul(queries, params.w_off, params.b_off)
    logits = matmul(queries, params.w_wgt, params.b_wgt)
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
    out = matmul(pooled, params.w_out, mul(params.b_out, (hits > 0).astype(pooled.dtype)[:, None]))
    return out, share
