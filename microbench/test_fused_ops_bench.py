"""Op-level microbenchmarks of the two fused ops, the deformable read
(``_deformable_core``) and multi-head attention, forward and forward plus
backward (pytest-benchmark), in float32 with the parameters of a default
model.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench

The shapes are a default frame's:
  * BEV temporal: 1,024 cell queries read the stacked current and warped
    previous grids, a 2,048-row table, two reads per query, with the
    previous grid's history mask;
  * BEV to image: the pillar points' planned camera reads (``PillarReads``)
    of the six cameras' stacked 4 x 8 feature grids;
  * static to dynamic (bidirectional interaction): 1,024 cell queries
    attend over 40 object keys.
"""

import numpy as np
import pytest

from dualstream.configio import Config
from dualstream.diffcore import FeatureMap, Tensor, backward, fresh_tape, mul, multi_head_attention, sum_
from dualstream.diffcore.ops import _deformable_core
from dualstream.geom3d import CAMERA_SLOTS
from dualstream.model import DualStreamModel
from dualstream.statstream import PillarReads, grid_coords
from dualstream.synthworld import build_camera_rig

KEYS = 40


def _model():
    return DualStreamModel(Config(interaction="bidirectional"))


def _cells(rng, model):
    h, w = model.bev_spec.dims
    return rng.normal(size=(h * w, model.cfg.latent_dim)).astype(np.float32)


def _temporal():
    rng = np.random.default_rng(0)
    model = _model()
    cells, prev = _cells(rng, model), _cells(rng, model)
    n, spec = cells.shape[0], model.bev_spec
    queries = Tensor(cells, requires_grad=True)
    table = Tensor(np.concatenate([cells, prev]), requires_grad=True)
    mask = np.concatenate([np.ones(n, dtype=bool), rng.uniform(size=n) > 0.2])
    kw = dict(valid_mask=mask, owner=np.repeat(np.arange(n), 2), grid_of=np.tile(np.arange(2), n))
    refs = np.repeat(grid_coords(spec), 2, axis=0)
    return lambda: _deformable_core(queries, refs, table, spec.dims, model.layers[0].bev_temporal.deform, **kw)[0]


def _bev_image():
    rng = np.random.default_rng(1)
    model = _model()
    cfg = model.cfg
    rig = build_camera_rig(width=cfg.image_width, height=cfg.image_height)
    dims = (cfg.image_height // cfg.patch, cfg.image_width // cfg.patch)
    names = tuple(name for name in CAMERA_SLOTS if name in rig)
    table = rng.normal(size=(len(names) * dims[0] * dims[1], cfg.latent_dim)).astype(np.float32)
    feats = FeatureMap(data=Tensor(table, requires_grad=True), dims=dims, stride=cfg.patch, names=names)
    params = model.layers[0].bev_image
    reads = PillarReads().reads(model.bev_spec, feats, rig, params)
    queries = Tensor(_cells(rng, model), requires_grad=True)
    return lambda: _deformable_core(queries, reads.refs, feats.data, dims, params.deform,
                                    owner=reads.reader, grid_of=reads.cam)[0]


def _static_dynamic():
    rng = np.random.default_rng(2)
    model = _model()
    params = model.layers[0].static_dyn
    queries = Tensor(_cells(rng, model), requires_grad=True)
    keys, latents = (Tensor(rng.normal(size=(KEYS, model.cfg.latent_dim)).astype(np.float32), requires_grad=True)
                     for _ in range(2))
    return lambda: multi_head_attention(queries, keys, latents, params.heads, params.attn)


CASES = {"bev_temporal": _temporal, "bev_image": _bev_image, "static_dynamic": _static_dynamic}


@pytest.mark.parametrize("name", CASES)
def test_fused_forward(benchmark, name):
    op = CASES[name]()

    def forward():
        with fresh_tape():
            return op().data

    out = benchmark(forward)
    assert out.dtype == np.float32 and np.isfinite(out).all()


@pytest.mark.parametrize("name", CASES)
def test_fused_forward_backward(benchmark, name):
    op = CASES[name]()
    g = Tensor(np.random.default_rng(3).normal(size=op().data.shape).astype(np.float32))

    def step():
        with fresh_tape() as tape:
            out = op()
            assert len(tape) == 1
            backward(sum_(mul(out, g)))

    benchmark(step)
