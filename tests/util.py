"""Shared parameter factories for the block-level tests."""

import math

import numpy as np

from dualstream.diffcore import FeatureMap, Tensor
from dualstream.diffcore.ops import AttentionParams, DeformableParams, MlpParams


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def rows(grid):
    """The (H*W, C) row-major table of a (C, H, W) array."""
    return np.ascontiguousarray(grid.reshape(grid.shape[0], -1).T)


def chw(table, dims):
    """The (C, H, W) view of an (H*W, C) table of an H x W grid."""
    return table.T.reshape(-1, *dims)


def feature_map(grid, stride, grad=False):
    """A FeatureMap holding the (C, H_f, W_f) array ``grid``."""
    return FeatureMap(data=Tensor(rows(grid), requires_grad=grad), dims=grid.shape[1:], stride=stride)


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
