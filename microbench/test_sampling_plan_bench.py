"""Op-level microbenchmarks of the sparse sampling plan (pytest-benchmark).

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench

The two shapes are those of a training frame: BEV temporal attention reads
4096 samples (1024 cells x 4 points) from a 1024 x 64 value table, and a
camera cross-attention reads about 2,600 samples from a stacked 32 x 64
camera table (4 x 8 feature cells).
"""

import numpy as np
import pytest

from dualstream.diffcore import Tensor, backward, fresh_tape, sum_
from dualstream.diffcore.ops import _bilinear_flat, sampling_plan

SHAPES = {"bev_4096x1024": (4096, 32, 32), "camera_2600x32": (2600, 4, 8)}
CHANNELS = 64


def _case(name):
    n, h, w = SHAPES[name]
    rng = np.random.default_rng(0)
    fd = rng.normal(size=(h * w, CHANNELS))
    cd = np.stack([rng.uniform(-0.5, h - 0.5, n), rng.uniform(-0.5, w - 0.5, n)], axis=1)
    return fd, cd, h, w


@pytest.mark.parametrize("name", SHAPES)
def test_plan_forward(benchmark, name):
    fd, cd, h, w = _case(name)
    flat, coords = Tensor(fd), Tensor(cd)

    def forward():
        return _bilinear_flat(flat, coords, sampling_plan(cd, h, w, h * w)).data

    assert benchmark(forward).shape == (cd.shape[0], CHANNELS)


@pytest.mark.parametrize("name", SHAPES)
def test_plan_forward_backward(benchmark, name):
    fd, cd, h, w = _case(name)
    g = Tensor(np.random.default_rng(1).normal(size=(cd.shape[0], CHANNELS)))

    def step():
        flat, coords = Tensor(fd, requires_grad=True), Tensor(cd, requires_grad=True)
        with fresh_tape():
            backward(sum_(_bilinear_flat(flat, coords, sampling_plan(cd, h, w, h * w)) * g))
        return flat.grad, coords.grad

    gv, gc = benchmark(step)
    assert gv.shape == fd.shape and gc.shape == cd.shape
