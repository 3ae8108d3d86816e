"""Model assembly: shared patch backbone, query/grid state, stacked
dual-stream layers and the task heads, stepped frame by frame."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .configio import Config
from .diffcore import FeatureMap, ShapeError, Tensor, patch_embed
from .dualformer import DualLayerParams, FfnParams, forward_stack
from .dynstream import QuerySet, SetAttnParams, SpawnParams, propagate, select_topk, spawn_queries
from .geom3d import CAMERA_SLOTS, CameraModel, Pose, ego_delta
from .heads import DecodeParams, Detection, HeadOutputs, decode_boxes
from .params import (
    ParamStore,
    glorot,
    make_attention_params,
    make_deformable_params,
    make_layernorm_params,
    make_mlp_params,
    make_patch_embed_params,
)
from .statstream import BevSpec, CameraReadParams, GridReadParams, PillarReads, segmentation_head, warp_bev
from .synthworld.dataset import SEG_CLASSES, FrameSample
from .synthworld.scene import CLASS_NAMES

_MODEL_SEED_SALT = 0xD0A1


@dataclass
class StreamState:
    """Belief carried between frames: the top-k query memory, the last
    frame's (H*W, L) BEV cells on the model's ``BevSpec`` (None before the
    first frame) and the last ego pose."""

    memory: QuerySet
    cells: Optional[Tensor]
    prev_pose: Optional[Pose]

    def detached(self) -> "StreamState":
        """Cut the gradient history of the carried belief."""
        cells = None if self.cells is None else self.cells.detach()
        return StreamState(memory=self.memory.detached(), cells=cells, prev_pose=self.prev_pose)


@dataclass
class StepResult:
    detections: list[Detection]
    outputs: HeadOutputs               # batched head tensors the losses read
    seg_logits: Tensor
    state: StreamState
    memory_source_indices: np.ndarray  # detection index backing each memory slot


def _make_pe(store: ParamStore, prefix: str, rng, d_coords: int, n_freqs: int, latent: int):
    d_in = d_coords * 2 * n_freqs
    return (store.tensor(f"{prefix}.w", glorot(rng, d_in, latent)),
            store.tensor(f"{prefix}.b", np.zeros(latent)))


def _make_set_attn(store: ParamStore, prefix: str, rng, cfg: Config) -> SetAttnParams:
    L, F = cfg.latent_dim, cfg.n_freqs
    pe_w, pe_b = _make_pe(store, f"{prefix}.pe", rng, 3, F, L)
    g, b = make_layernorm_params(store, f"{prefix}.ln", L)
    return SetAttnParams(heads=cfg.heads, attn=make_attention_params(store, f"{prefix}.attn", rng, L),
                         pe_w=pe_w, pe_b=pe_b, ln_g=g, ln_b=b)


def _make_camera_read(store: ParamStore, prefix: str, rng, cfg: Config) -> CameraReadParams:
    L, F = cfg.latent_dim, cfg.n_freqs
    pe_w, pe_b = _make_pe(store, f"{prefix}.pe", rng, 2, F, L)
    g, b = make_layernorm_params(store, f"{prefix}.ln", L)
    return CameraReadParams(deform=make_deformable_params(store, f"{prefix}.deform", rng, L, L, cfg.n_points),
                            pe_w=pe_w, pe_b=pe_b, ln_g=g, ln_b=b)


def _make_grid_read(store: ParamStore, prefix: str, rng, cfg: Config) -> GridReadParams:
    L = cfg.latent_dim
    g, b = make_layernorm_params(store, f"{prefix}.ln", L)
    return GridReadParams(deform=make_deformable_params(store, f"{prefix}.deform", rng, L, L, cfg.n_points),
                          ln_g=g, ln_b=b)


def _make_ffn(store: ParamStore, prefix: str, rng, cfg: Config) -> FfnParams:
    L = cfg.latent_dim
    g, b = make_layernorm_params(store, f"{prefix}.ln", L)
    return FfnParams(mlp=make_mlp_params(store, f"{prefix}.mlp", rng, L, 2 * L, L), ln_g=g, ln_b=b)


def build_layer_params(store: ParamStore, prefix: str, rng, cfg: Config) -> DualLayerParams:
    """One layer's blocks. The arguments run in the order written, which is
    the store's name order and the initialiser's draw order."""
    def block(make, name):
        return make(store, f"{prefix}.{name}", rng, cfg)

    return DualLayerParams(
        obj_self=block(_make_set_attn, "obj_self"), obj_image=block(_make_camera_read, "obj_img"),
        bev_temporal=block(_make_grid_read, "bev_temporal"), bev_image=block(_make_camera_read, "bev_img"),
        dyn_static=block(_make_grid_read, "dyn_static"),
        static_dyn=block(_make_set_attn, "static_dyn") if cfg.interaction == "bidirectional" else None,
        obj_ffn=block(_make_ffn, "obj_ffn"), bev_ffn=block(_make_ffn, "bev_ffn"),
    )


def build_decode_params(store: ParamStore, prefix: str, rng, cfg: Config) -> DecodeParams:
    L, H, C = cfg.latent_dim, cfg.decode_hidden, len(CLASS_NAMES)
    yaw_bias = np.zeros(2)
    yaw_bias[1] = 1.0  # cos branch starts at 1 so a zero head decodes yaw 0
    return DecodeParams(
        w_hidden=store.tensor(f"{prefix}.w_hidden", glorot(rng, L, H)),
        b_hidden=store.tensor(f"{prefix}.b_hidden", np.zeros(H)),
        w_center=store.tensor(f"{prefix}.w_center", glorot(rng, H, 3) * 0.1),
        b_center=store.tensor(f"{prefix}.b_center", np.zeros(3)),
        w_size=store.tensor(f"{prefix}.w_size", glorot(rng, H, 3) * 0.1),
        b_size=store.tensor(f"{prefix}.b_size", np.zeros(3)),
        w_yaw=store.tensor(f"{prefix}.w_yaw", glorot(rng, H, 2) * 0.1),
        b_yaw=store.tensor(f"{prefix}.b_yaw", yaw_bias),
        w_vel=store.tensor(f"{prefix}.w_vel", glorot(rng, H, 2) * 0.1),
        b_vel=store.tensor(f"{prefix}.b_vel", np.zeros(2)),
        w_cls=store.tensor(f"{prefix}.w_cls", glorot(rng, H, C)),
        b_cls=store.tensor(f"{prefix}.b_cls", np.full(C, -2.0)),  # start near background
        size_prior=np.array([1.5, 2.5, 1.5]),
        offset_scale=np.array([4.0, 4.0, 1.0]),
    )


class DualStreamModel:
    """Two belief streams over a shared image backbone, stepped per frame."""

    def __init__(self, cfg: Config):
        cfg.validate()
        self.cfg = cfg
        self.bev_spec = BevSpec(
            dims=(cfg.bev_cells, cfg.bev_cells),
            extent=(-cfg.bev_extent, cfg.bev_extent, -cfg.bev_extent, cfg.bev_extent),
            pillar_heights=tuple(cfg.pillar_height_list()),
        )
        self.ranges = cfg.detection_ranges()

        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _MODEL_SEED_SALT]))
        # initialisers draw in float64; the store rounds once into the configured dtype
        store = ParamStore(cfg.np_dtype())
        L = cfg.latent_dim
        self.backbone = make_patch_embed_params(store, "backbone", rng, cfg.patch, L)
        self.spawn = SpawnParams(
            embeddings=store.tensor("spawn.embeddings", rng.normal(0.0, 1.0 / math.sqrt(L), (cfg.n_queries, L))),
            anchor_logits=store.tensor("spawn.anchors", rng.uniform(-2.0, 2.0, (cfg.n_queries, 3))),
        )
        self.motion = make_mlp_params(store, "motion", rng, L + 7, L, L)
        h, w = self.bev_spec.dims
        self.bev_init = store.tensor("bev.init", np.ascontiguousarray(rng.normal(0.0, 0.02, (L, h * w)).T))
        self.fresh_cell = store.tensor("bev.fresh", rng.normal(0.0, 0.02, (L,)))
        self.layers = [build_layer_params(store, f"layer{i}", rng, cfg) for i in range(cfg.n_layers)]
        self.decode = build_decode_params(store, "decode", rng, cfg)
        self.seg = make_mlp_params(store, "seg", rng, L, L, len(SEG_CLASSES))
        self.store = store
        self.pillar_reads = PillarReads()

    def initial_state(self) -> StreamState:
        return StreamState(memory=QuerySet.empty(self.cfg.latent_dim, self.cfg.np_dtype()), cells=None, prev_pose=None)

    def encode_images(self, images: Mapping[str, Optional[np.ndarray]]) -> FeatureMap:
        """The frame's one camera feature table: one backbone pass over the
        stack of its available images (those not None), in ``CAMERA_SLOTS``
        order. The images must share one size; with none, the table is empty."""
        cfg = self.cfg
        names = tuple(name for name in CAMERA_SLOTS if images.get(name) is not None)
        imgs = [images[name] for name in names]
        if len({img.shape for img in imgs}) > 1:
            raise ShapeError(f"camera images differ in size: {[img.shape for img in imgs]}")
        stack = np.stack(imgs) if imgs else np.zeros((0, 3, cfg.image_height, cfg.image_width))
        return patch_embed(Tensor(stack.astype(cfg.np_dtype(), copy=False)), names, cfg.patch, self.backbone)

    def forward_frame(
        self,
        frame: FrameSample,
        cameras: Mapping[str, CameraModel],
        state: StreamState,
        dt: float,
    ) -> StepResult:
        cfg = self.cfg
        features = self.encode_images(frame.images)

        delta = Pose.identity()
        if state.prev_pose is not None:
            delta = ego_delta(state.prev_pose, frame.ego_pose)

        queries = QuerySet.empty(cfg.latent_dim, cfg.np_dtype())
        if cfg.propagate_queries and len(state.memory):
            queries = propagate(state.memory, delta, dt, self.motion,
                                compensate_object_motion=cfg.compensate_object_motion)
        queries = queries + spawn_queries(max(cfg.n_queries - len(queries), 0), self.spawn, self.ranges)

        warped = None
        if state.cells is not None:
            warped = warp_bev(state.cells, self.bev_spec, delta, self.fresh_cell)

        latents, cells = forward_stack(queries, self.bev_init, warped, self.bev_spec, features, cameras, cfg,
                                       self.layers, self.ranges, self.pillar_reads)
        outputs, detections = decode_boxes(queries, latents, self.decode)
        seg_logits = segmentation_head(cells, self.bev_spec.dims, self.seg)

        decoded = QuerySet(latents=latents, anchors=Tensor(outputs.center.data),
                           velocities=outputs.velocity.data, scores=outputs.scores, ids=queries.ids)
        memory, source = select_topk(decoded, cfg.topk)
        return StepResult(
            detections=detections,
            outputs=outputs,
            seg_logits=seg_logits,
            state=StreamState(memory=memory, cells=cells, prev_pose=frame.ego_pose),
            memory_source_indices=source,
        )
