"""Op-level microbenchmarks of the sparse sampling plan and the deformable
aggregation built on it (pytest-benchmark).

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench

The plan shapes are those of a training frame: BEV temporal attention reads
4096 samples (1024 cells x 4 points) from a 1024 x 64 value table, and a
camera cross-attention reads about 2,600 samples from a stacked 32 x 64
camera table (4 x 8 feature cells). The deformable shape is BEV-to-image at
the default config: 1024 cell queries own about 3,684 reads (projecting
(camera, pillar point) pairs) of one 192 x 64 table of six stacked camera
grids (4 x 8 cells each), with 4 points per read. Object-to-image attention
runs at the default config: 40 queries read the same stacked camera table.

The weighted reads run at the two float32 shapes of a default training frame,
whose backward takes each side of the read's selection: BEV-to-image pools
14,736 samples into 1,024 cells from the 192-row stacked camera table (the
dense side), and BEV temporal attention 8,192 samples into 1,024 cells from
the 2,048-row current and previous BEV grids (the gather side).
"""

import numpy as np
import pytest

from dualstream.configio import Config
from dualstream.diffcore import FeatureMap, Tensor, backward, fresh_tape, sum_
from dualstream.diffcore.ops import DeformableParams, _bilinear_flat, _deformable_core, sampling_plan
from dualstream.dynstream import _obj_image_cross_attention
from dualstream.geom3d import CAMERA_SLOTS
from dualstream.model import DualStreamModel
from dualstream.statstream import plan_camera_reads
from dualstream.synthworld import build_camera_rig

SHAPES = {"bev_4096x1024": (4096, 32, 32), "camera_2600x32": (2600, 4, 8)}
CHANNELS = 64


def _case(name):
    n, h, w = SHAPES[name]
    rng = np.random.default_rng(0)
    fd = rng.normal(size=(h * w, CHANNELS))
    cd = np.stack([rng.uniform(-0.5, h - 0.5, n), rng.uniform(-0.5, w - 0.5, n)], axis=1)
    return fd, cd, h, w


def _unit_read(flat, coords, cd, h, w):
    n = cd.shape[0]
    return _bilinear_flat(flat, coords, sampling_plan(cd, h, w), Tensor(np.ones(n)), np.arange(n + 1))


@pytest.mark.parametrize("name", SHAPES)
def test_plan_forward(benchmark, name):
    fd, cd, h, w = _case(name)
    flat, coords = Tensor(fd), Tensor(cd)

    def forward():
        return _unit_read(flat, coords, cd, h, w).data

    assert benchmark(forward).shape == (cd.shape[0], CHANNELS)


@pytest.mark.parametrize("name", SHAPES)
def test_plan_forward_backward(benchmark, name):
    fd, cd, h, w = _case(name)
    g = Tensor(np.random.default_rng(1).normal(size=(cd.shape[0], CHANNELS)))

    def step():
        flat, coords = Tensor(fd, requires_grad=True), Tensor(cd, requires_grad=True)
        with fresh_tape():
            backward(sum_(_unit_read(flat, coords, cd, h, w) * g))
        return flat.grad, coords.grad

    gv, gc = benchmark(step)
    assert gv.shape == fd.shape and gc.shape == cd.shape


CELLS, READS, CAMERAS, POINTS = 1024, 3684, 6, 4
# name: (grid h, w), stacked grids, samples; every read has CELLS outputs
TRAINING_READS = {"bev_image_14736x192": ((4, 8), 6, 14736), "temporal_8192x2048": ((32, 32), 2, 8192)}


def _training_read(name):
    (h, w), grids, n = TRAINING_READS[name]
    rng = np.random.default_rng(8)
    fd = rng.normal(size=(grids * h * w, CHANNELS)).astype(np.float32)
    cd = np.stack([rng.uniform(-0.5, h - 0.5, n), rng.uniform(-0.5, w - 0.5, n)], axis=1).astype(np.float32)
    base = rng.integers(0, grids, n) * h * w
    starts = np.searchsorted(np.sort(rng.integers(0, CELLS, n)), np.arange(CELLS + 1))
    wts = rng.uniform(size=n).astype(np.float32)
    g = Tensor(rng.normal(size=(CELLS, CHANNELS)).astype(np.float32))
    return fd, cd, base, starts, wts, g


@pytest.mark.parametrize("name", TRAINING_READS)
def test_training_read_forward_backward(benchmark, name):
    fd, cd, base, starts, wts, g = _training_read(name)
    (h, w), grids, _ = TRAINING_READS[name]

    def step():
        flat, coords, wt = (Tensor(x, requires_grad=True) for x in (fd, cd, wts))
        plan = sampling_plan(cd, h, w, base=base, dtype=np.float32)
        with fresh_tape():
            backward(sum_(_bilinear_flat(flat, coords, plan, wt, starts) * g))
        return flat.grad, coords.grad, wt.grad

    gv, gc, gw = benchmark(step)
    assert gv.dtype == gc.dtype == gw.dtype == np.float32 and gc.shape == cd.shape


def _bev_image_case():
    rng = np.random.default_rng(2)
    L = CHANNELS

    def w(*shape, std=1.0):
        return Tensor(rng.normal(size=shape) * std / np.sqrt(shape[0]), requires_grad=True)

    params = DeformableParams(w_off=w(L, 2 * POINTS, std=0.3), b_off=w(2 * POINTS),
                              w_wgt=w(L, POINTS), b_wgt=w(POINTS), w_val=w(L, L), w_out=w(L, L), b_out=w(L))
    queries = Tensor(rng.normal(size=(CELLS, L)), requires_grad=True)
    # one table of the six cameras' 4 x 8 grids, each (4 * 8, L) row-major
    table = Tensor(np.concatenate([rng.normal(size=(L, 4, 8)).reshape(L, -1).T for _ in range(CAMERAS)]),
                   requires_grad=True)
    owner = np.sort(rng.integers(0, CELLS, READS))
    refs = np.stack([rng.uniform(0, 3, READS), rng.uniform(0, 7, READS)], axis=1)
    return queries, refs, table, params, owner, rng.integers(0, CAMERAS, READS)


def test_deformable_bev_image_forward(benchmark):
    queries, refs, table, params, owner, grid_of = _bev_image_case()

    def forward():
        with fresh_tape():
            return _deformable_core(queries, refs, table, (4, 8), params, owner=owner, grid_of=grid_of)[0].data

    assert benchmark(forward).shape == (CELLS, CHANNELS)


def test_deformable_bev_image_forward_backward(benchmark):
    queries, refs, table, params, owner, grid_of = _bev_image_case()
    g = Tensor(np.random.default_rng(3).normal(size=(CELLS, CHANNELS)))

    def step():
        for t in [queries, table, params.w_off, params.w_wgt, params.w_val, params.w_out]:
            t.grad = None
        with fresh_tape():
            out = _deformable_core(queries, refs, table, (4, 8), params, owner=owner, grid_of=grid_of)[0]
            backward(sum_(out * g))
        return queries.grad, params.w_off.grad

    gq, goff = benchmark(step)
    assert gq.shape == (CELLS, CHANNELS) and goff.shape == (CHANNELS, 2 * POINTS)


QUERIES = 40


def _obj_image_case():
    cfg = Config()
    model = DualStreamModel(cfg)
    rng = np.random.default_rng(6)
    rig = build_camera_rig(width=cfg.image_width, height=cfg.image_height)
    h, w = cfg.image_height // cfg.patch, cfg.image_width // cfg.patch
    names = tuple(name for name in CAMERA_SLOTS if name in rig)
    table = np.concatenate([rng.normal(size=(cfg.latent_dim, h * w)).T for _ in names]).astype(np.float32)
    feats = FeatureMap(data=Tensor(table, requires_grad=True), dims=(h, w), stride=cfg.patch, names=names)
    lo, hi = cfg.detection_ranges()
    anchors = rng.uniform(lo, hi, size=(QUERIES, 3))
    latents = Tensor(rng.normal(size=(QUERIES, cfg.latent_dim)).astype(np.float32), requires_grad=True)
    params = model.layers[0].obj_image
    reads = plan_camera_reads(anchors, np.arange(QUERIES), QUERIES, feats, rig, params)
    return latents, reads, feats, params, model.store


def test_obj_image_forward(benchmark):
    latents, reads, feats, params, _ = _obj_image_case()

    def forward():
        with fresh_tape():
            return _obj_image_cross_attention(latents, reads, feats, params).data

    assert benchmark(forward).shape == latents.data.shape


def test_obj_image_forward_backward(benchmark):
    latents, reads, feats, params, store = _obj_image_case()
    g = np.random.default_rng(7).normal(size=latents.data.shape).astype(np.float32)

    def step():
        store.zero_grads()
        latents.grad = None
        with fresh_tape():
            backward(sum_(_obj_image_cross_attention(latents, reads, feats, params) * g))
        return latents.grad

    assert benchmark(step).shape == latents.data.shape
