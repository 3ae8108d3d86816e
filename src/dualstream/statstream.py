"""Static stream: BEV lattice of latent cells with rigid temporal warping,
deformable temporal grid-attention, BEV-to-image cross-attention and the
decoder-only segmentation head.

Camera reads are planned apart from the layers (``CameraReads``): which
(camera, query) pairs project, their feature-grid reference points, their
pixel encodings and the pooling matrix. A plan depends only on geometry, so
the pillar points' plan is made once per camera set and rig and reused
across layers and frames (``PillarReads``, one per model), while a frame's anchors are
planned once per frame and shared by its layers.

Grid convention: row index i spans the x extent (forward), column index j
spans the y extent (left); cell (i, j) is row i*W + j of every (H*W, ...)
array, the (H*W, L) latent cells included. Integer grid coordinates are cell
centers, so the continuous coordinate box [0, H-1] x [0, W-1] is the
cell-center hull. The hull is the region where a warp source counts as
"inside the previous extent": it is inset half a cell from the metric extent
and is exactly where bilinear interpolation is well-defined without border
effects.

The BEV stream is its (H*W, L) cells tensor alone; the blocks take the
model's ``BevSpec`` beside it. The one validity is the warp's: ``warp_bev``
returns the warped cells with an (H*W,) mask of the cells whose source lay
inside the previous hull, and the temporal attention reads that pair.
"""

from __future__ import annotations

from collections import OrderedDict
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
    mlp,
    reshape,
    sincos_encoding,
    transpose,
)
from .diffcore.ops import _deformable_core
from .diffcore.tensor import add, concat, matmul, mul, sparse_matmul
from .geom3d import CameraModel, Pose, invert, project_points


@dataclass(frozen=True)
class BevSpec:
    """Geometry of the BEV lattice: (H, W) cells over a metric extent, and
    the heights of the pillar points each cell lifts for its camera reads
    (the model takes them from ``Config.pillar_heights``, once per model)."""

    dims: tuple[int, int]                       # (H_BEV, W_BEV)
    extent: tuple[float, float, float, float]   # (x_min, x_max, y_min, y_max) m
    pillar_heights: tuple[float, ...] = (-1.0, 0.0, 1.0, 2.0)   # m above each cell center

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
    return cell_to_metric(spec, grid_coords(spec))


def grid_coords(spec: BevSpec) -> np.ndarray:
    """(H*W, 2) own grid coordinates of every cell, row-major."""
    h, w = spec.dims
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.stack([ii.reshape(-1), jj.reshape(-1)], axis=1).astype(np.float64)


def warp_bev(cells: Tensor, spec: BevSpec, delta: Pose, fresh_embedding: Tensor) -> tuple[Tensor, np.ndarray]:
    """Rigidly warp the previous frame's (H*W, L) BEV cells into the current
    ego frame; returns the warped cells and their (H*W,) validity.

    Each new cell bilinearly samples the previous grid at the back-mapped
    location of its metric center. Cells whose source falls outside the
    previous cell-center hull receive the learned fresh-cell embedding and
    validity False.
    """
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
    sampled = bilinear_sample(cells, spec.dims, coords)    # (HW, L), zeros outside
    vf = valid.astype(sampled.dtype)[:, None]
    fresh = reshape(fresh_embedding, (1, -1))
    return add(mul(sampled, vf), mul(fresh, 1.0 - vf)), valid


@dataclass
class GridReadParams:
    """A deformable read of BEV cells, added to its queries and normalised:
    BEV temporal attention and dynamic-to-static attention."""

    deform: DeformableParams
    ln_g: Tensor
    ln_b: Tensor


def temporal_grid_attention(cells: Tensor, spec: BevSpec, warped_prev: Optional[tuple[Tensor, np.ndarray]],
                            params: GridReadParams) -> Tensor:
    """Each of the (H*W, L) ``cells`` deformably attends to the current grid
    and, when present, the warped previous grid (``warp_bev``'s cells and
    validity) at its own coordinates, and averages over the grids where it
    kept at least one valid sample. Both grids form one stacked value table,
    read by one deformable call."""
    refs = grid_coords(spec)
    n = refs.shape[0]
    table, mask = cells, np.ones(n, dtype=bool)
    if warped_prev is not None:
        prev, validity = warped_prev
        table = concat([cells, prev], axis=0)
        mask = np.concatenate([mask, validity])
    k = table.data.shape[0] // n
    out, _ = _deformable_core(cells, np.repeat(refs, k, axis=0), table, spec.dims, params.deform,
                              valid_mask=mask, owner=np.repeat(np.arange(n), k), grid_of=np.tile(np.arange(k), n))
    return layernorm(add(cells, out), params.ln_g, params.ln_b)


@dataclass
class CameraReadParams:
    """A camera read (``camera_read``) with its pixel encoding, added to its
    queries and normalised: object-to-image and BEV-to-image attention. The
    encoding has ``pe_w``'s row count, 2 pixel coordinates x 2 x n_freqs."""

    deform: DeformableParams
    pe_w: Tensor
    pe_b: Tensor
    ln_g: Tensor
    ln_b: Tensor


@dataclass(frozen=True)
class CameraReads:
    """The detached geometry of n queries' camera reads, planned once and
    read by every layer (``plan_camera_reads``).

    Read r is query ``reader[r]`` seeing one of its points in camera
    ``names[cam[r]]``, grid ``cam[r]`` of the feature table the reads were
    planned for. The reads are stably sorted by reader, with cameras in the
    table's order. ``refs`` are the stride-scaled feature-grid
    (row, col) reference points, ``enc`` the pixel encodings in the model
    dtype, and ``pool`` the (n, reads) matrix summing each query's reads.
    The arrays are read-only, since one plan serves many reads.
    """

    names: tuple[str, ...]    # the feature table's cameras, in its order
    cam: np.ndarray           # (reads,) index into names
    reader: np.ndarray        # (reads,) sorted query index
    refs: np.ndarray          # (reads, 2) float64
    enc: np.ndarray           # (reads, pe_w rows)
    pool: sparse.csr_array    # (n, reads)


def plan_camera_reads(points: np.ndarray, owner: np.ndarray, n: int, features: FeatureMap,
                      cameras: Mapping[str, CameraModel], params: CameraReadParams) -> CameraReads:
    """The reads of n queries, query ``owner[r]`` reading the cameras of the
    feature table ``features`` where 3-D point r projects into them. The
    pixel encodings are sized and typed for ``params``' ``pe_w``."""
    names = features.names
    cams, p, dtype = [cameras[name] for name in names], points.shape[0], params.pe_w.dtype
    proj = [project_points(cam, points) for cam in cams]
    pairs = np.nonzero(np.concatenate([valid for _, _, valid in proj] + [np.zeros(0, dtype=bool)]))[0]
    pairs = pairs[np.argsort(owner[pairs % p], kind="stable")]     # camera-major before the sort
    cam, reader, m = pairs // p, owner[pairs % p], pairs.size
    uv = np.concatenate([uv for uv, _, _ in proj] + [np.zeros((0, 2))])[pairs]
    pix = uv / np.array([[c.width, c.height] for c in cams], dtype=np.float64).reshape(-1, 2)[cam]
    enc = sincos_encoding(pix, params.pe_w.data.shape[0] // 4).astype(dtype)
    pool = sparse.csr_array((np.ones(m, dtype=dtype), np.arange(m), np.searchsorted(reader, np.arange(n + 1))),
                            shape=(n, m))
    refs = uv[:, ::-1] / features.stride - 0.5
    reads = CameraReads(names=names, cam=cam, reader=reader, refs=refs, enc=enc, pool=pool)
    for a in (reads.cam, reads.reader, reads.refs, reads.enc):
        a.flags.writeable = False
    return reads


class PillarReads:
    """The camera reads of the pillar points lifted above every cell center
    at the spec's heights, one query per cell (``reads``).

    They depend only on the spec, the feature table's dims and stride, its
    cameras with their intrinsics, extrinsics and image sizes, and the
    encoding's width and dtype, so a plan is reused for as long as these
    values are equal: across layers and frames with the same camera set.
    The last ``KEPT`` plans are kept, enough for a schedule that alternates
    between camera sets.
    """

    KEPT = 4

    def __init__(self):
        self._plans: OrderedDict = OrderedDict()   # by the values a plan comes from, oldest first

    def reads(self, spec: BevSpec, features: FeatureMap, cameras: Mapping[str, CameraModel],
              params: CameraReadParams) -> CameraReads:
        key = (spec, params.pe_w.data.shape[0], params.pe_w.dtype.str, features.stride, tuple(features.dims),
               tuple((name, _camera_key(cameras[name])) for name in features.names))
        plan = self._plans.pop(key, None)
        if plan is None:
            n, nz = spec.dims[0] * spec.dims[1], len(spec.pillar_heights)
            pts = np.column_stack([np.tile(cell_center_grid(spec), (nz, 1)), np.repeat(spec.pillar_heights, n)])
            plan = plan_camera_reads(pts, np.tile(np.arange(n), nz), n, features, cameras, params)
        self._plans[key] = plan
        if len(self._plans) > self.KEPT:
            self._plans.popitem(last=False)
        return plan


def _camera_key(cam: CameraModel) -> tuple:
    return (cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height, cam.rotation.tobytes(), cam.translation.tobytes())


def camera_read(queries: Tensor, reads: CameraReads, features: FeatureMap, params: CameraReadParams) -> Tensor:
    """The (n, L) camera update of n queries through their planned ``reads``
    of the frame's feature table ``features``, which must hold the cameras
    the reads were planned for, in their order.

    The reads are one deformable call over the table, read r in the grid of
    camera ``reads.cam[r]``. A query pools its reads' outputs and pixel
    encodings (through ``pe_w``, plus ``pe_b`` if it has a hit) with the
    same shares: the mean over its hit reads.
    """
    n = queries.data.shape[0]
    if reads.pool.shape[0] != n:
        raise ShapeError(f"camera reads planned for {reads.pool.shape[0]} queries, got {n}")
    if reads.names != features.names:
        raise ShapeError(f"camera reads planned for cameras {reads.names}, the feature table has {features.names}")
    if not reads.names:
        return mul(queries, 0.0)
    out, share = _deformable_core(queries, reads.refs, features.data, features.dims, params.deform,
                                  owner=reads.reader, grid_of=reads.cam)
    enc = Tensor(reads.enc * share[:, None])
    hit = np.bincount(reads.reader, weights=share, minlength=n) > 0
    pe = matmul(sparse_matmul(reads.pool, enc), params.pe_w, mul(params.pe_b, hit.astype(out.dtype)[:, None]))
    return add(out, pe)


def bev_image_cross_attention(cells: Tensor, reads: CameraReads, features: FeatureMap,
                              params: CameraReadParams) -> Tensor:
    """Each cell averages its camera reads of its pillar points over all
    hits (``camera_read`` of ``PillarReads.reads``). Cells with no valid
    projection pass through on the residual path."""
    update = camera_read(cells, reads, features, params)
    return layernorm(add(cells, update), params.ln_g, params.ln_b)


def segmentation_head(cells: Tensor, dims: tuple[int, int], params: MlpParams) -> Tensor:
    """Per-cell MLP decoding of the (H*W, L) cells of an H x W grid
    (``dims``) to class logits, shape (n_classes, H, W)."""
    return reshape(transpose(mlp(cells, params), (1, 0)), (-1, *dims))
