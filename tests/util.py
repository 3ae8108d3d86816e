"""Shared parameter factories for the block-level tests."""

import math

import numpy as np

from dualstream.diffcore import FeatureMap, Tensor, concat
from dualstream.diffcore.ops import AttentionParams, DeformableParams, MlpParams
from dualstream.geom3d import CAMERA_SLOTS
from dualstream.statstream import PillarReads, plan_camera_reads


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def rows(grid):
    """The (H*W, C) row-major table of a (C, H, W) array."""
    return np.ascontiguousarray(grid.reshape(grid.shape[0], -1).T)


def chw(table, dims):
    """The (C, H, W) view of an (H*W, C) table of an H x W grid."""
    return table.T.reshape(-1, *dims)


def feature_map(grid, stride, name="front", grad=False):
    """A one-camera FeatureMap holding the (C, H_f, W_f) array ``grid``."""
    return FeatureMap(data=Tensor(rows(grid), requires_grad=grad), dims=grid.shape[1:], stride=stride, names=(name,))


def stack_maps(*maps):
    """One feature table stacking one-camera FeatureMaps of one dims and
    stride, in ``CAMERA_SLOTS`` order, as ``encode_images`` stacks a frame's."""
    maps = sorted(maps, key=lambda fm: CAMERA_SLOTS.index(fm.names[0]))
    return FeatureMap(data=concat([fm.data for fm in maps]), dims=maps[0].dims, stride=maps[0].stride,
                      names=tuple(fm.names[0] for fm in maps))


def encode(model, images, cams=None):
    """The model's feature table of the images of the cameras ``cams`` (all when None)."""
    return model.encode_images({k: v for k, v in images.items() if cams is None or k in cams})


def pillar_reads(spec, features, cameras, params):
    """The planned camera reads of the pillar points of ``spec``'s grid, one query per cell."""
    return PillarReads().reads(spec, features, cameras, params)


def anchor_reads(anchors, features, cameras, params):
    """The planned camera reads of (n, 3) anchors, one query each."""
    n = anchors.shape[0]
    return plan_camera_reads(anchors, np.arange(n), n, features, cameras, params)


def make_attention_params(rng, dim, identity=False):
    def w(shape):
        if identity:
            return Tensor(np.eye(shape[0]), requires_grad=True)
        return Tensor(rng.normal(size=shape) / math.sqrt(shape[0]), requires_grad=True)

    def z(n):
        return Tensor(np.zeros(n), requires_grad=True)

    return AttentionParams(wq=w((dim, dim)), bq=z(dim), wk=w((dim, dim)), bk=z(dim),
                           wv=w((dim, dim)), bv=z(dim), wo=w((dim, dim)), bo=z(dim))


def make_deformable_params(rng, latent, channels, n_points, degenerate=False):
    def w(shape, std=None):
        if degenerate:
            return Tensor(np.zeros(shape), requires_grad=True)
        return Tensor(rng.normal(size=shape) * (std or 1.0 / math.sqrt(shape[0])), requires_grad=True)

    if degenerate:
        w_val = Tensor(np.eye(channels), requires_grad=True)
        w_out = Tensor(np.eye(latent), requires_grad=True)
    else:
        w_val = Tensor(rng.normal(size=(channels, latent)) / math.sqrt(channels), requires_grad=True)
        w_out = Tensor(rng.normal(size=(latent, latent)) / math.sqrt(latent), requires_grad=True)
    return DeformableParams(
        w_off=w((latent, n_points * 2), std=0.01 if not degenerate else None),
        b_off=Tensor(np.zeros(n_points * 2), requires_grad=True),
        w_wgt=w((latent, n_points)),
        b_wgt=Tensor(np.zeros(n_points), requires_grad=True),
        w_val=w_val,
        w_out=w_out,
        b_out=Tensor(np.zeros(latent), requires_grad=True),
    )


def make_mlp_params(rng, d_in, d_hid, d_out, zero=False):
    def w(shape):
        arr = np.zeros(shape) if zero else rng.normal(size=shape) / math.sqrt(shape[0])
        return Tensor(arr, requires_grad=True)

    return MlpParams(w1=w((d_in, d_hid)), b1=Tensor(np.zeros(d_hid), requires_grad=True),
                     w2=w((d_hid, d_out)), b2=Tensor(np.zeros(d_out), requires_grad=True))


def make_ln(dim, random=False, rng=None):
    g = (rng.normal(size=dim) + 1.0) if random else np.ones(dim)
    b = rng.normal(size=dim) * 0.1 if random else np.zeros(dim)
    return Tensor(g, requires_grad=True), Tensor(b, requires_grad=True)


def poison_anchors(monkeypatch, scene_id, t):
    """Make frame ``t`` of scene ``scene_id`` run its forward from carried
    query memory whose anchors are NaN."""
    from dualstream.model import DualStreamModel
    from dualstream.synthworld.dataset import Dataset

    load, forward = Dataset.load_frame, DualStreamModel.forward_frame

    def tagged_load(self, sid, ti):
        frame = load(self, sid, ti)
        frame.poisoned = (sid, ti) == (scene_id, t)
        return frame

    def poisoned_forward(self, frame, cameras, state, dt):
        if frame.poisoned:
            assert len(state.memory), "no carried memory to poison"
            state.memory.anchors.data = np.full_like(state.memory.anchors.data, np.nan)
        return forward(self, frame, cameras, state, dt)

    monkeypatch.setattr(Dataset, "load_frame", tagged_load)
    monkeypatch.setattr(DualStreamModel, "forward_frame", poisoned_forward)
