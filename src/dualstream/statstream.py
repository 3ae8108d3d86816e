"""Static stream: BEV lattice of latent cells with rigid temporal warping,
deformable temporal grid-attention, BEV-to-image cross-attention and the
decoder-only segmentation head.

Grid convention: row index i spans the x extent (forward), column index j
spans the y extent (left); integer grid coordinates are cell centers, so the
continuous coordinate box [0, H-1] x [0, W-1] is the cell-center hull. The
hull is the region where a warp source counts as "inside the previous
extent": it is inset half a cell from the metric extent and is exactly where
bilinear interpolation is well-defined without border effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from scipy import sparse

from .diffcore import (
    DeformableParams,
    FeatureMap,
    MlpParams,
    ShapeError,
    Tensor,
    bilinear_sample,
    layernorm,
    linear,
    mlp,
    reshape,
    sincos_encoding,
    transpose,
)
from .diffcore.ops import _deformable_core
from .diffcore.tensor import add, mul, sparse_matmul
from .geom3d import CameraModel, Pose, invert, project_points


@dataclass(frozen=True)
class BevSpec:
    """Geometry of the BEV lattice: (H, W) cells over a metric extent."""

    dims: tuple[int, int]                       # (H_BEV, W_BEV)
    extent: tuple[float, float, float, float]   # (x_min, x_max, y_min, y_max) m

    def __post_init__(self):
        h, w = self.dims
        if h < 2 or w < 2:
            raise ValueError("BEV grid needs at least 2 cells per axis")
        x_min, x_max, y_min, y_max = self.extent
        rx = (x_max - x_min) / h
        ry = (y_max - y_min) / w
        if rx <= 0 or abs(rx - ry) > 1e-9:
            raise ValueError(f"anisotropic BEV resolution: {rx} vs {ry} m/cell")

    @property
    def resolution(self) -> float:
        return (self.extent[1] - self.extent[0]) / self.dims[0]


def cell_to_metric(spec: BevSpec, ij) -> np.ndarray:
    """Cell-center coordinates (continuous cells allowed) -> ego-frame meters."""
    ij = np.asarray(ij, dtype=np.float64)
    res = spec.resolution
    x = spec.extent[0] + (ij[..., 0] + 0.5) * res
    y = spec.extent[2] + (ij[..., 1] + 0.5) * res
    return np.stack([x, y], axis=-1)


def metric_to_cell(spec: BevSpec, xy) -> np.ndarray:
    """Ego-frame meters -> continuous grid coordinates (integers at centers)."""
    xy = np.asarray(xy, dtype=np.float64)
    res = spec.resolution
    i = (xy[..., 0] - spec.extent[0]) / res - 0.5
    j = (xy[..., 1] - spec.extent[2]) / res - 0.5
    return np.stack([i, j], axis=-1)


def cell_center_grid(spec: BevSpec) -> np.ndarray:
    """(H*W, 2) metric centers of every cell, row-major."""
    h, w = spec.dims
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    ij = np.stack([ii.reshape(-1), jj.reshape(-1)], axis=1).astype(np.float64)
    return cell_to_metric(spec, ij)


def grid_coords(spec: BevSpec) -> np.ndarray:
    """(H*W, 2) own grid coordinates of every cell, row-major."""
    h, w = spec.dims
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.stack([ii.reshape(-1), jj.reshape(-1)], axis=1).astype(np.float64)


@dataclass
class BevGrid:
    """Latent BEV belief: (L, H, W) cells plus a propagated-history mask."""

    spec: BevSpec
    cells: Tensor
    validity: np.ndarray

    def __post_init__(self):
        h, w = self.spec.dims
        if self.cells.data.shape[1:] != (h, w):
            raise ShapeError(f"cells {self.cells.data.shape} do not match spec dims {(h, w)}")
        if self.validity.shape != (h, w):
            raise ShapeError("validity mask must match grid dims")

    @property
    def latent_dim(self) -> int:
        return self.cells.data.shape[0]

    def cells_flat(self) -> Tensor:
        L = self.latent_dim
        h, w = self.spec.dims
        return transpose(reshape(self.cells, (L, h * w)), (1, 0))


def _cells_from_flat(flat: Tensor, spec: BevSpec) -> Tensor:
    h, w = spec.dims
    return reshape(transpose(flat, (1, 0)), (-1, h, w))


def warp_bev(prev: BevGrid, delta: Pose, fresh_embedding: Tensor) -> BevGrid:
    """Rigidly warp the previous BEV belief into the current ego frame.

    Each new cell bilinearly samples the previous grid at the back-mapped
    location of its metric center. Cells whose source falls outside the
    previous cell-center hull receive the learned fresh-cell embedding and
    validity False.
    """
    if delta.dim != 2:
        raise ShapeError("BEV warp expects an SE(2) ego delta")
    spec = prev.spec
    h, w = spec.dims
    centers = cell_center_grid(spec)                       # new-frame metric
    src = invert(delta).apply_points(centers)              # previous-frame metric
    coords = metric_to_cell(spec, src)
    # snap float dust from exact rigid warps (90/180 deg, integer shifts)
    # back onto the lattice so boundary cells keep deterministic validity
    near = np.abs(coords - np.round(coords)) < 1e-9
    coords = np.where(near, np.round(coords), coords)
    valid = (
        (coords[:, 0] >= 0) & (coords[:, 0] <= h - 1)
        & (coords[:, 1] >= 0) & (coords[:, 1] <= w - 1)
    )
    sampled = bilinear_sample(prev.cells, coords)          # (HW, L), zeros outside
    vf = valid.astype(sampled.dtype)[:, None]
    fresh = reshape(fresh_embedding, (1, -1))
    combined = add(mul(sampled, vf), mul(fresh, 1.0 - vf))
    return BevGrid(spec=spec, cells=_cells_from_flat(combined, spec), validity=valid.reshape(h, w))


@dataclass
class TemporalAttnParams:
    deform: DeformableParams
    ln_g: Tensor
    ln_b: Tensor


def temporal_grid_attention(curr: BevGrid, warped_prev: Optional[BevGrid], params: TemporalAttnParams) -> BevGrid:
    """Each cell deformably attends to the current grid and, when present,
    the warped previous grid at its own coordinates; target outputs are
    averaged over targets that contributed at least one valid sample."""
    if warped_prev is not None and warped_prev.spec != curr.spec:
        raise ShapeError("temporal attention requires matching BEV specs")
    q = curr.cells_flat()
    refs = grid_coords(curr.spec)
    targets = [(curr.cells, None)]
    if warped_prev is not None:
        targets.append((warped_prev.cells, warped_prev.validity))
    outs = []
    counts = np.zeros(refs.shape[0])
    for cells, validity in targets:
        out_t, valid_t = _deformable_core(q, refs, cells, params.deform, valid_mask=validity)
        outs.append(out_t)
        counts += valid_t.astype(np.float64)
    combined = outs[0]
    for o in outs[1:]:
        combined = add(combined, o)
    inv = (1.0 / np.maximum(counts, 1.0))[:, None]
    combined = mul(combined, inv)
    new_flat = layernorm(add(q, combined), params.ln_g, params.ln_b)
    return BevGrid(spec=curr.spec, cells=_cells_from_flat(new_flat, curr.spec), validity=curr.validity)


@dataclass
class BevImageAttnParams:
    deform: DeformableParams
    pe_w: Tensor
    pe_b: Tensor
    ln_g: Tensor
    ln_b: Tensor
    n_freqs: int = 8
    pillar_heights: tuple[float, ...] = (-1.0, 0.0, 1.0, 2.0)   # m above each cell center


def bev_image_cross_attention(
    grid: BevGrid,
    features: Mapping[str, FeatureMap],
    cameras: Mapping[str, CameraModel],
    params: BevImageAttnParams,
) -> BevGrid:
    """Lift pillar points above each cell center, project them into the
    available cameras and average the deformable samples over all hits.
    The cameras' feature maps form one stacked value table, read by one
    deformable call. Cells with no valid projection pass through on the
    residual path."""
    spec = grid.spec
    n = spec.dims[0] * spec.dims[1]
    q = grid.cells_flat()
    centers = cell_center_grid(spec)
    nz = len(params.pillar_heights)
    pts = np.concatenate(
        [np.concatenate([centers, np.full((n, 1), z)], axis=1) for z in params.pillar_heights], axis=0
    )  # (nz*n, 3)
    names = sorted(features)
    if not names:
        combined = mul(q, 0.0)
    else:
        # every (camera, pillar point) pair that projects into its camera,
        # camera-major; ``pick`` selects each pair's cell query
        fcoords, pix, valid = [], [], []
        for name in names:
            fm, cam = features[name], cameras[name]
            uv, _, v = project_points(cam, pts)
            fcoords.append(np.stack([uv[:, 1] / fm.stride - 0.5, uv[:, 0] / fm.stride - 0.5], axis=1))
            pix.append(np.stack([uv[:, 0] / cam.width, uv[:, 1] / cam.height], axis=1))
            valid.append(v)
        pairs = np.nonzero(np.concatenate(valid))[0]
        cells = pairs % n
        pick = sparse.csr_array((np.ones(pairs.size, dtype=q.dtype), cells, np.arange(pairs.size + 1)),
                                shape=(pairs.size, n))
        out, anyv = _deformable_core(sparse_matmul(pick, q), np.concatenate(fcoords)[pairs],
                                     [features[name].data for name in names], params.deform,
                                     grid_of=pairs // (nz * n))
        # pixel encodings only where a camera actually contributed
        enc = sincos_encoding(np.concatenate(pix)[pairs], params.n_freqs)
        pe = linear(Tensor(enc.astype(out.dtype)), params.pe_w, params.pe_b)
        out = add(out, mul(pe, anyv.astype(out.dtype)[:, None]))
        total = sparse_matmul(pick.T, out)
        counts = np.bincount(cells, weights=anyv, minlength=n)
        combined = mul(total, (1.0 / np.maximum(counts, 1.0))[:, None])
    new_flat = layernorm(add(q, combined), params.ln_g, params.ln_b)
    return BevGrid(spec=spec, cells=_cells_from_flat(new_flat, spec), validity=grid.validity)


@dataclass
class SegHeadParams:
    mlp: MlpParams


def segmentation_head(grid: BevGrid, params: SegHeadParams) -> Tensor:
    """Per-cell MLP decoding to class logits, shape (n_classes, H, W)."""
    flat = mlp(grid.cells_flat(), params.mlp)
    h, w = grid.spec.dims
    return reshape(transpose(flat, (1, 0)), (-1, h, w))
