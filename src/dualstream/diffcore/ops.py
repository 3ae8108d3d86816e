"""Differentiable building blocks: transformer layers and grid sampling.

Each deformable read and each attention call is one op: a numpy forward
recording one tape entry, and a hand-written backward that hands every
input the same arrays in the same order as the replay of the primitive ops
composing it would (``tests/composed_ops.py`` keeps those, and tests compare
the two bitwise). So losses, gradients and the order in which leaves get
them stay the same. The backward reads the arrays of its forward, not
whatever a parameter holds when a truncation window replays it.

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

The sparse products (a read, its transpose, and each query's sum over its
sorted reads) run scipy's compiled CSR kernels on the plan's arrays through
``tensor.csr_product`` and ``csr_product_t``, building no scipy array. The
kernels do not bound-check and their module is private, so that pair is
their only caller and checks every index first (``ShapeError``).

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

from .tensor import (
    ShapeError,
    Tensor,
    _accumulate,
    _make,
    _unbroadcast,
    _wrap,
    add,
    csr_product,
    csr_product_t,
    matmul,
    reshape,
    transpose,
)


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


@dataclass
class MlpParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def mlp(x: Tensor, params: MlpParams) -> Tensor:
    return matmul(gelu(matmul(x, params.w1, params.b1)), params.w2, params.b2)


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


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the detached row max."""
    e = np.exp(x - _last_axis(np.maximum, x))
    return e / e.sum(axis=-1, keepdims=True)


def _last_axis(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over the last axis, kept, for an exact reduction
    (max, and, or). Numpy reduces a short last axis row by row, about 20 ns
    a row; reducing the first axis of a copy with that axis first runs whole
    rows at a time: 15 times faster at 4 columns, twice at 40."""
    return ufunc.reduce(np.moveaxis(x, -1, 0).copy(), axis=0)[..., None]


def _softmax_rows_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gradient of the logits of the softmax rows ``s`` given theirs, ``g``."""
    tmp = g * s
    return tmp - s * tmp.sum(axis=-1, keepdims=True)


def _canonical_order(key: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The lexicographic order of the rows of ``[key | value]``, first
    column most significant, as ``np.lexsort`` gives it. When the first
    column holds distinct numbers it orders the rows alone, and one stable
    sort of it is that order without lexsort's sort per column."""
    order = np.argsort(key[:, 0], kind="stable")
    first = key[order, 0]
    if np.all(first[1:] > first[:-1]):
        return order
    return np.lexsort(np.concatenate([key, value], axis=1).T[::-1])


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

    One op: the backward gives ``bo`` and ``wo`` their gradients, then runs
    the value, key and query projections back, each giving its bias, its
    input and its weight theirs; ``value`` and ``key`` get theirs last,
    through the canonical order.
    """
    n_q, dim = query.data.shape
    if dim % heads != 0:
        raise ShapeError(f"embedding dim {dim} not divisible by {heads} heads")
    dh = dim // heads
    order = _canonical_order(key.data, value.data)
    p, qd = params, query.data
    ks, vs = np.take(key.data, order, axis=0), np.take(value.data, order, axis=0)
    # the backward uses the arrays of this call, not whatever a parameter holds by then
    wq, wk, wv, wo = p.wq.data, p.wk.data, p.wv.data, p.wo.data

    def to_heads(x):
        return x.reshape(-1, heads, dh).transpose(1, 0, 2)

    qh = to_heads(np.matmul(qd, wq) + p.bq.data)
    kh = to_heads(np.matmul(ks, wk) + p.bk.data)
    vh = to_heads(np.matmul(vs, wv) + p.bv.data)
    kt = kh.transpose(0, 2, 1)
    scale = 1.0 / math.sqrt(dh)
    s = _softmax_rows(np.matmul(qh, kt) * scale)
    merged = np.matmul(s, vh).transpose(1, 0, 2).reshape(n_q, dim)
    data = np.matmul(merged, wo) + p.bo.data
    # each projection's input, its rows as projected, weight and bias, in backward order
    projections = ((value, vs, p.wv, wv, p.bv), (key, ks, p.wk, wk, p.bk), (query, qd, p.wq, wq, p.bq))
    v_rg, k_rg, q_rg = (x.requires_grad or w.requires_grad or b.requires_grad for x, _, w, _, b in projections)

    def bwd(g, grads):
        if p.bo.requires_grad:
            _accumulate(p.bo, _unbroadcast(g, p.bo.data.shape), grads)
        gm = np.matmul(g, wo.swapaxes(-1, -2)) if v_rg or k_rg or q_rg else None
        if p.wo.requires_grad:
            _accumulate(p.wo, np.matmul(merged.swapaxes(-1, -2), g), grads)
        if gm is None:
            return
        gctx = gm.reshape(n_q, heads, dh).transpose(1, 0, 2)
        gv = np.matmul(s.swapaxes(-1, -2), gctx) if v_rg else None
        gq = gk = None
        if q_rg or k_rg:
            gsc = _softmax_rows_grad(np.matmul(gctx, vh.swapaxes(-1, -2)), s) * scale
            if q_rg:
                gq = np.matmul(gsc, kt.swapaxes(-1, -2))
            if k_rg:
                gk = np.matmul(qh.swapaxes(-1, -2), gsc).transpose(0, 2, 1)
        sorted_grads = []
        for k, ((x, xd, w, wd, b), gh) in enumerate(zip(projections, (gv, gk, gq))):
            gx = None
            if gh is not None:
                # the head split's backward, then the projection's: its bias, input and weight
                gp = gh.transpose(1, 0, 2).reshape(xd.shape[0], dim)
                if b.requires_grad:
                    _accumulate(b, _unbroadcast(gp, b.data.shape), grads)
                if x.requires_grad:
                    gx = np.matmul(gp, wd.swapaxes(-1, -2))
                    if k == 2:   # the queries keep their order
                        _accumulate(x, gx, grads)
                if w.requires_grad:
                    _accumulate(w, np.matmul(xd.swapaxes(-1, -2), gp), grads)
            sorted_grads.append(gx)
        for x, xd, gx in ((value, vs, sorted_grads[0]), (key, ks, sorted_grads[1])):
            if gx is not None:
                full = np.zeros_like(xd)
                full[order] = gx
                _accumulate(x, full, grads)

    return _make(data, (query, key, value, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo), bwd)


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
        return self.inside & _last_axis(np.logical_and, mask[self.cols] | (self.weights == 0))[:, 0]


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
    w = wts.data.ravel()
    a = _read_matrix(plan, w, starts)
    data = csr_product(*a, fd)

    def bwd(g, grads):
        g = np.ascontiguousarray(g)
        if flat.requires_grad:
            _accumulate(flat, csr_product_t(*a, g, fd.shape[0]), grads)
        if wts.requires_grad or coords.requires_grad:
            dw, dc = _read_point_grads(fd, g, plan, w, starts, wts.requires_grad, coords.requires_grad)
            if dw is not None:
                _accumulate(wts, dw.reshape(wts.data.shape), grads)
            if dc is not None:
                _accumulate(coords, dc.astype(coords.data.dtype, copy=False), grads)

    return _make(data, (flat, coords, wts), bwd)


def _read_matrix(plan: SamplingPlan, w: np.ndarray, starts: np.ndarray) -> tuple:
    """The CSR arrays ``(indptr, indices, data)`` of a weighted read's sparse
    matrix: row k holds samples ``starts[k]:starts[k+1]``, each its plan's
    four neighbour rows with their bilinear weights times its weight in ``w``."""
    return 4 * np.asarray(starts), plan.cols.ravel(), (plan.weights * w[:, None]).ravel()


def _read_point_grads(fd: np.ndarray, g: np.ndarray, plan: SamplingPlan, w: np.ndarray, starts: np.ndarray,
                      want_w: bool, want_c: bool) -> tuple:
    """The weight and the coordinate gradient of a weighted read from its
    output gradient ``g`` (``_bilinear_flat``), each None unless wanted."""
    near = _neighbour_dots(fd, g, np.repeat(np.arange(g.shape[0]), np.diff(starts)), plan.cols)
    dw = np.einsum("sq,sq->s", plan.weights, near) if want_w else None
    dc = None
    if want_c:
        n00, n01, n10, n11 = near.T
        di, dj = plan.di, plan.dj
        dc = np.stack([(1 - dj) * (n10 - n00) + dj * (n11 - n01),
                       (1 - di) * (n01 - n00) + di * (n11 - n10)], axis=1)
        dc *= np.where(plan.inside, w, 0)[:, None]
    return dw, dc


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

    One op: the backward gives ``w_out``, ``b_out``, ``b_wgt``, ``w_wgt``,
    ``b_off``, ``w_off`` and ``w_val`` their gradients in this order; the
    queries get the logits' part (after ``b_wgt``), then the offsets' part
    (after ``b_off``), as two additions, and the table the value
    projection's part (before ``w_val``).
    """
    n, L = queries.data.shape
    owner = np.arange(n) if owner is None else np.asarray(owner, dtype=np.int64)
    if np.any(np.diff(owner) < 0):
        raise ValueError("deformable reads must be sorted by owner")
    m = owner.size
    if m and (owner[0] < 0 or owner[-1] >= n):
        raise ShapeError(f"deformable reads owned by queries {owner[0]} to {owner[-1]}, but there are {n} queries")
    h, w = dims
    grids = table.data.shape[0] // (h * w)
    grid_of = np.zeros(m, dtype=np.int64) if grid_of is None else np.asarray(grid_of, dtype=np.int64)
    if table.ndim != 2 or table.data.shape[0] != grids * h * w or np.any((grid_of < 0) | (grid_of >= grids)):
        raise ShapeError(f"value table {table.data.shape} is no stack of {h}x{w} grids holding every read's grid")
    refs = np.asarray(reference_points, dtype=np.float64)
    P = params.w_wgt.data.shape[1]
    p, qd, td = params, queries.data, table.data
    # the backward uses the arrays of this call, not whatever a parameter holds by then
    w_off, w_wgt, w_val, w_out = p.w_off.data, p.w_wgt.data, p.w_val.data, p.w_out.data
    vproj = np.matmul(td, w_val)

    offsets = np.matmul(qd, w_off) + p.b_off.data
    logits = np.matmul(qd, w_wgt) + p.b_wgt.data
    picked = not np.array_equal(owner, np.arange(n))
    if picked:
        # each read's rows of its owner's; the adds below turn a -0.0 into
        # +0.0, as summing it into the zero of a one-hot product would
        offsets, logits = offsets[owner], logits[owner]
    coords = (offsets.reshape(m, P, 2) + refs[:, None, :].astype(offsets.dtype, copy=False)).reshape(m * P, 2)
    plan = sampling_plan(coords, h, w, base=np.repeat(grid_of * (h * w), P), dtype=vproj.dtype)

    kept = (plan.inside if valid_mask is None else plan.valid(np.asarray(valid_mask, dtype=bool).ravel())).reshape(m, P)
    hit = _last_axis(np.logical_or, kept)[:, 0]
    hits = np.bincount(owner, weights=hit, minlength=n)
    share = np.where(hit, 1.0 / np.maximum(hits, 1)[owner], 0.0).astype(logits.dtype)

    s = _softmax_rows(logits + np.where(kept, 0.0, -1e30).astype(logits.dtype, copy=False))
    wts = (s * share[:, None]).ravel()
    starts = np.searchsorted(owner, np.arange(n + 1)) * P
    read = _read_matrix(plan, wts, starts)
    pooled = csr_product(*read, vproj)
    hit_rows = (hits > 0).astype(p.b_out.dtype)[:, None]
    data = np.matmul(pooled, w_out) + p.b_out.data * hit_rows
    v_rg = table.requires_grad or p.w_val.requires_grad
    o_rg = queries.requires_grad or p.w_off.requires_grad or p.b_off.requires_grad
    l_rg = queries.requires_grad or p.w_wgt.requires_grad or p.b_wgt.requires_grad

    def to_owners(gr):
        # the owner segment sum: each query's reads' rows added in read order
        return csr_product_t(np.arange(m + 1), owner, np.ones(m, dtype=qd.dtype), gr, n) if picked else gr

    def project_back(gr, w, wd, b, grads):
        # a query projection's backward: the bias, then the queries, then the weight
        if b.requires_grad:
            _accumulate(b, _unbroadcast(gr, b.data.shape), grads)
        if queries.requires_grad:
            _accumulate(queries, np.matmul(gr, wd.swapaxes(-1, -2)), grads)
        if w.requires_grad:
            _accumulate(w, np.matmul(qd.swapaxes(-1, -2), gr), grads)

    def bwd(g, grads):
        gp = np.matmul(g, w_out.swapaxes(-1, -2)) if v_rg or o_rg or l_rg else None
        if p.w_out.requires_grad:
            _accumulate(p.w_out, np.matmul(pooled.swapaxes(-1, -2), g), grads)
        if p.b_out.requires_grad:
            _accumulate(p.b_out, _unbroadcast(g * hit_rows, p.b_out.data.shape), grads)
        if gp is None:
            return
        gv = csr_product_t(*read, gp, vproj.shape[0]) if v_rg else None
        dw, dc = _read_point_grads(vproj, gp, plan, wts, starts, l_rg, o_rg) if l_rg or o_rg else (None, None)
        if l_rg:
            gl = _softmax_rows_grad(dw.reshape(m, P) * share[:, None], s)
            project_back(to_owners(gl), p.w_wgt, w_wgt, p.b_wgt, grads)
        if o_rg:
            go = dc.astype(coords.dtype, copy=False).reshape(m, 2 * P)
            project_back(to_owners(go), p.w_off, w_off, p.b_off, grads)
        if v_rg:
            if table.requires_grad:
                _accumulate(table, np.matmul(gv, w_val.swapaxes(-1, -2)), grads)
            if p.w_val.requires_grad:
                _accumulate(p.w_val, np.matmul(td.swapaxes(-1, -2), gv), grads)

    return _make(data, (queries, table, p.w_off, p.b_off, p.w_wgt, p.b_wgt, p.w_val, p.w_out, p.b_out), bwd), share


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
    x = matmul(x, params.w_proj, params.b_proj)
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
