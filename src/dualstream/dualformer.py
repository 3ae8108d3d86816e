"""Stacked dual-stream transformer layer: five attention blocks per layer
plus per-stream feed-forwards, with the interaction and temporal-BEV
ablation switches, read from the run's ``Config`` (``cfg.interaction`` and
``cfg.temporal_bev``).

Block order per layer: object self-attention, object-to-image
cross-attention, BEV temporal grid-attention (self-only when temporal_bev is
off or no history exists), BEV-to-image cross-attention, dynamic-static
cross-attention (plus the static-dynamic block under the bidirectional
variant), then the per-stream feed-forward MLPs. The dynamic-static block
runs last so objects see the already image-updated grid of the same layer.

The blocks are of four kinds, each with one parameter type: set attention
over the objects (``SetAttnParams``: object self, static-to-dynamic), camera
reads (``CameraReadParams``: object-to-image, BEV-to-image), deformable reads
of the BEV grid (``GridReadParams``: BEV temporal, dynamic-to-static) and
the feed-forwards (``FfnParams``).

The BEV stream is its (H*W, L) cells tensor, with the model's ``BevSpec``
passed beside it (``statstream``).

The camera geometry is planned outside the layers and shared by them
(``CameraReads``): ``forward_stack`` plans the anchors' reads once per
frame, and takes the pillars' reads from the model's ``PillarReads``, which
plans them once per camera set and reuses them across frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .configio import Config
from .diffcore import FeatureMap, MlpParams, Tensor, layernorm, mlp, multi_head_attention
from .diffcore.ops import _deformable_core
from .diffcore.tensor import add, mul
from .dynstream import QuerySet, SetAttnParams, _obj_image_cross_attention, _obj_self_attention, anchor_keys
from .geom3d import CameraModel
from .statstream import (
    BevSpec,
    CameraReadParams,
    CameraReads,
    GridReadParams,
    bev_image_cross_attention,
    metric_to_cell,
    PillarReads,
    plan_camera_reads,
    temporal_grid_attention,
)


@dataclass
class FfnParams:
    mlp: MlpParams
    ln_g: Tensor
    ln_b: Tensor


@dataclass
class DualLayerParams:
    obj_self: SetAttnParams
    obj_image: CameraReadParams
    bev_temporal: GridReadParams
    bev_image: CameraReadParams
    dyn_static: GridReadParams
    obj_ffn: FfnParams
    bev_ffn: FfnParams
    static_dyn: Optional[SetAttnParams] = None


def _dynamic_static_core(latents: Tensor, anchors: np.ndarray, cells: Tensor, spec: BevSpec,
                         params: GridReadParams) -> Tensor:
    """Object queries deformably attend to the BEV cells around their anchor;
    queries anchored outside the grid pass through residually. Returns the
    updated (n, L) latent matrix."""
    h, w = spec.dims
    refs = metric_to_cell(spec, anchors[:, :2])
    in_hull = (
        (refs[:, 0] >= 0) & (refs[:, 0] <= h - 1)
        & (refs[:, 1] >= 0) & (refs[:, 1] <= w - 1)
    )
    idx = np.nonzero(in_hull)[0]
    out, _ = _deformable_core(latents, refs[idx], cells, spec.dims, params.deform, owner=idx)
    return layernorm(add(latents, out), params.ln_g, params.ln_b)


def _static_dynamic_core(
    cells: Tensor, latents: Tensor, anchors: np.ndarray, params: SetAttnParams, ranges: np.ndarray,
) -> Tensor:
    """Bidirectional-variant block: every BEV cell attends over all object
    latents keyed with anchor positional encodings."""
    if latents.data.shape[0] == 0:
        combined = mul(cells, 0.0)
    else:
        keys = anchor_keys(latents, anchors, params, ranges)
        combined = multi_head_attention(cells, keys, latents, params.heads, params.attn)
    return layernorm(add(cells, combined), params.ln_g, params.ln_b)


def _ffn(latents: Tensor, params: FfnParams) -> Tensor:
    return layernorm(add(latents, mlp(latents, params.mlp)), params.ln_g, params.ln_b)


def forward_layer(
    latents: Tensor,
    anchors: np.ndarray,
    cells: Tensor,
    warped_prev: Optional[tuple[Tensor, np.ndarray]],
    spec: BevSpec,
    features: FeatureMap,
    obj_reads: CameraReads,
    bev_reads: CameraReads,
    cfg: Config,
    params: DualLayerParams,
    ranges: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """One dual-stream layer over the stacked (n, L) object latents and the
    (H*W, L) BEV cells, reading the cameras through the anchors' and the
    cells' planned reads; returns both updated streams with unchanged
    shapes."""
    latents = _obj_self_attention(latents, anchors, params.obj_self, ranges)
    latents = _obj_image_cross_attention(latents, obj_reads, features, params.obj_image)

    prev = warped_prev if cfg.temporal_bev else None
    cells = temporal_grid_attention(cells, spec, prev, params.bev_temporal)
    cells = bev_image_cross_attention(cells, bev_reads, features, params.bev_image)

    if cfg.interaction != "none":
        latents = _dynamic_static_core(latents, anchors, cells, spec, params.dyn_static)
        if cfg.interaction == "bidirectional":
            cells = _static_dynamic_core(cells, latents, anchors, params.static_dyn, ranges)

    return _ffn(latents, params.obj_ffn), _ffn(cells, params.bev_ffn)


def forward_stack(
    queries: QuerySet,
    cells: Tensor,
    warped_prev: Optional[tuple[Tensor, np.ndarray]],
    spec: BevSpec,
    features: FeatureMap,
    cameras: Mapping[str, CameraModel],
    cfg: Config,
    layer_params: Sequence[DualLayerParams],
    ranges: np.ndarray,
    pillars: PillarReads,
) -> tuple[Tensor, Tensor]:
    """Sequential layers with independent parameters. The previous cells are
    warped once per timestep by the caller (``warp_bev``'s cells and
    validity), the anchors' camera reads are planned once and the pillars'
    come from ``pillars``; all are shared across layers.

    Returns the final (n, L) object latents and the final (H*W, L) cells.
    """
    if not layer_params:
        raise ValueError("forward_stack needs at least one layer")
    latents, anchors = queries.latents, queries.anchor_xyz
    first, n = layer_params[0], len(queries)
    obj_reads = plan_camera_reads(anchors, np.arange(n), n, features, cameras, first.obj_image)
    bev_reads = pillars.reads(spec, features, cameras, first.bev_image)
    for params in layer_params:
        latents, cells = forward_layer(
            latents, anchors, cells, warped_prev, spec, features, obj_reads, bev_reads, cfg, params, ranges
        )
    return latents, cells
