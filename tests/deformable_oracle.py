"""Reference deformable attention: the per-read core and the four blocks as
they were before the reads' pooling moved into the sampling plan.

``deformable_core`` materialises the (queries, points, C) samples, weights
them with ``mul`` and ``sum_``, and runs only the queries with
``query_valid`` set. The blocks pool its per-query outputs themselves: the
temporal block loops over its targets and counts hits, BEV-to-image copies
the cell queries per (camera, pillar point) pair and sums them back with a
pooling matrix, and object-to-image and dynamic-to-static pass
``query_valid``. Object-to-image averages its cameras over those that see
each query, as BEV-to-image averages its hits. Tests compare the production
blocks against these. ``deformable_core`` keeps its (C, H, W) grids; the
blocks turn the (H*W, C) BEV cells and each camera's block of the stacked
camera table into them at its call.
"""

from typing import Optional

import numpy as np
from composed_ops import softmax
from scipy import sparse

from dualstream.diffcore import Tensor, layernorm, matmul, sincos_encoding
from dualstream.diffcore.ops import _bilinear_flat, sampling_plan
from dualstream.diffcore.tensor import add, concat, mul, reshape, sparse_matmul, sum_, take_rows, transpose
from dualstream.geom3d import CAMERA_SLOTS, project_points
from dualstream.statstream import BevGrid, cell_center_grid, grid_coords, metric_to_cell


def grid_of_table(table, dims):
    """The (C, H, W) grid of an (H*W, C) table."""
    return reshape(transpose(table, (1, 0)), (-1, *dims))


def camera_table(features, name):
    """Camera ``name``'s (H_f*W_f, C) block of the stacked feature table."""
    k, size = features.names.index(name), features.dims[0] * features.dims[1]
    return take_rows(features.data, np.arange(k * size, (k + 1) * size))


def camera_grids(features, names):
    return [grid_of_table(camera_table(features, name), features.dims) for name in names]


def scatter_rows(a, idx, n):
    """Rows of ``a`` placed at the distinct positions ``idx`` of an n-row zero canvas."""
    place = sparse.csr_array((np.ones(len(idx), dtype=a.dtype), (idx, np.arange(len(idx)))), shape=(n, len(idx)))
    return sparse_matmul(place, a)


def deformable_core(queries, reference_points, value_grid, params, valid_mask: Optional[np.ndarray] = None,
                    query_valid: Optional[np.ndarray] = None, grid_of: Optional[np.ndarray] = None):
    """(output, per-query any-valid mask); ``valid_mask`` is (H, W) per grid
    or a mask over the stacked table's rows."""
    n, L = queries.data.shape
    grids = [value_grid] if isinstance(value_grid, Tensor) else list(value_grid)
    grid_of = np.zeros(n, dtype=np.int64) if grid_of is None else np.asarray(grid_of, dtype=np.int64)
    refs = np.asarray(reference_points, dtype=np.float64)
    if query_valid is not None:
        qv = np.asarray(query_valid, dtype=bool)
        if not qv.any():
            return Tensor(np.zeros((n, L), dtype=queries.dtype)), np.zeros(n, dtype=bool)
        idx = np.nonzero(qv)[0]
        out_sub, anyv_sub = deformable_core(take_rows(queries, idx), refs[idx], grids, params,
                                            valid_mask, grid_of=grid_of[idx])
        anyv = np.zeros(n, dtype=bool)
        anyv[idx] = anyv_sub
        return scatter_rows(out_sub, idx, n), anyv

    P = params.w_wgt.data.shape[1]
    C = grids[0].data.shape[0]
    dims = np.array([g.data.shape[1:] for g in grids], dtype=np.int64)
    sizes = dims[:, 0] * dims[:, 1]
    bases = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    flats = [transpose(reshape(g, (C, int(s))), (1, 0)) for g, s in zip(grids, sizes)]
    vproj = matmul(flats[0] if len(flats) == 1 else concat(flats, axis=0), params.w_val)

    offsets = reshape(matmul(queries, params.w_off, params.b_off), (n, P, 2))
    coords = reshape(add(offsets, refs[:, None, :]), (n * P, 2))
    g = np.repeat(grid_of, P)
    plan = sampling_plan(coords.data, dims[g, 0], dims[g, 1], base=bases[g], dtype=vproj.dtype)
    # one unit-weight sample per row: the plain per-sample read
    ones = Tensor(np.ones(n * P, dtype=vproj.dtype))
    sampled = reshape(_bilinear_flat(vproj, coords, plan, ones, np.arange(n * P + 1)), (n, P, vproj.data.shape[1]))

    pv = plan.inside if valid_mask is None else plan.valid(np.asarray(valid_mask, dtype=bool).ravel())
    pv = pv.reshape(n, P)
    any_valid = pv.any(axis=1)
    logits = add(matmul(queries, params.w_wgt, params.b_wgt), np.where(pv, 0.0, -1e30))
    wts = softmax(logits, axis=-1)
    pooled = sum_(mul(reshape(wts, (n, P, 1)), sampled), axis=1)
    out = matmul(pooled, params.w_out, params.b_out)
    return mul(out, any_valid.astype(out.dtype)[:, None]), any_valid


def temporal_grid_attention(curr, warped_prev, params):
    q = curr.cells
    refs = grid_coords(curr.spec)
    targets = [(grid_of_table(curr.cells, curr.spec.dims), None)]
    if warped_prev is not None:
        targets.append((grid_of_table(warped_prev.cells, curr.spec.dims), warped_prev.validity))
    outs, counts = [], np.zeros(refs.shape[0])
    for cells, validity in targets:
        out_t, valid_t = deformable_core(q, refs, cells, params.deform, valid_mask=validity)
        outs.append(out_t)
        counts += valid_t.astype(np.float64)
    combined = outs[0]
    for o in outs[1:]:
        combined = add(combined, o)
    combined = mul(combined, (1.0 / np.maximum(counts, 1.0))[:, None])
    new_flat = layernorm(add(q, combined), params.ln_g, params.ln_b)
    return BevGrid(spec=curr.spec, cells=new_flat, validity=curr.validity)


def bev_image_cross_attention(grid, features, cameras, params):
    spec = grid.spec
    n = spec.dims[0] * spec.dims[1]
    q = grid.cells
    centers = cell_center_grid(spec)
    nz = len(spec.pillar_heights)
    pts = np.concatenate([np.concatenate([centers, np.full((n, 1), z)], axis=1) for z in spec.pillar_heights])
    names = sorted(features.names)
    if not names:
        combined = mul(q, 0.0)
    else:
        fcoords, pix, valid = [], [], []
        for name in names:
            cam = cameras[name]
            uv, _, v = project_points(cam, pts)
            fcoords.append(np.stack([uv[:, 1] / features.stride - 0.5, uv[:, 0] / features.stride - 0.5], axis=1))
            pix.append(np.stack([uv[:, 0] / cam.width, uv[:, 1] / cam.height], axis=1))
            valid.append(v)
        pairs = np.nonzero(np.concatenate(valid))[0]
        cells = pairs % n
        pick = sparse.csr_array((np.ones(pairs.size, dtype=q.dtype), cells, np.arange(pairs.size + 1)),
                                shape=(pairs.size, n))
        out, anyv = deformable_core(sparse_matmul(pick, q), np.concatenate(fcoords)[pairs],
                                    camera_grids(features, names), params.deform,
                                    grid_of=pairs // (nz * n))
        enc = sincos_encoding(np.concatenate(pix)[pairs], params.pe_w.data.shape[0] // 4)
        pe = matmul(Tensor(enc.astype(out.dtype)), params.pe_w, params.pe_b)
        out = add(out, mul(pe, anyv.astype(out.dtype)[:, None]))
        total = sparse_matmul(pick.T.tocsr(), out)
        counts = np.bincount(cells, weights=anyv, minlength=n)
        combined = mul(total, (1.0 / np.maximum(counts, 1.0))[:, None])
    new_flat = layernorm(add(q, combined), params.ln_g, params.ln_b)
    return BevGrid(spec=spec, cells=new_flat, validity=grid.validity)


def obj_image_cross_attention(latents, anchors, features, cameras, params):
    n, L = latents.data.shape
    names = [name for name in CAMERA_SLOTS if name in features.names]
    if not names:
        return layernorm(add(latents, mul(latents, 0.0)), params.ln_g, params.ln_b)
    k = len(names)
    fcoords, pix, valid = [], [], []
    for name in names:
        cam = cameras[name]
        uv, _, v = project_points(cam, anchors)
        fcoords.append(np.stack([uv[:, 1] / features.stride - 0.5, uv[:, 0] / features.stride - 0.5], axis=1))
        pix.append(np.stack([uv[:, 0] / cam.width, uv[:, 1] / cam.height], axis=1))
        valid.append(v)
    out, anyv = deformable_core(concat([latents] * k), np.concatenate(fcoords),
                                camera_grids(features, names), params.deform,
                                query_valid=np.concatenate(valid), grid_of=np.repeat(np.arange(k), n))
    enc = sincos_encoding(np.concatenate(pix), params.pe_w.data.shape[0] // 4)
    pe = matmul(Tensor(enc.astype(out.dtype)), params.pe_w, params.pe_b)
    out = add(out, mul(pe, anyv.astype(out.dtype)[:, None]))
    counts = anyv.reshape(k, n).sum(axis=0)
    combined = mul(sum_(reshape(out, (k, n, L)), axis=0), (1.0 / np.maximum(counts, 1.0))[:, None])
    return layernorm(add(latents, combined), params.ln_g, params.ln_b)


def dynamic_static_core(latents, anchors, grid, params):
    h, w = grid.spec.dims
    refs = metric_to_cell(grid.spec, anchors[:, :2])
    in_hull = (refs[:, 0] >= 0) & (refs[:, 0] <= h - 1) & (refs[:, 1] >= 0) & (refs[:, 1] <= w - 1)
    out, _ = deformable_core(latents, refs, grid_of_table(grid.cells, grid.spec.dims), params.deform,
                             query_valid=in_hull)
    return layernorm(add(latents, out), params.ln_g, params.ln_b)
