"""Op-level microbenchmarks of the dense elementwise ops, gelu and layernorm
(pytest-benchmark), in float32 and float64.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench

The shape is the BEV stream's at the default config: 1024 cells (a 32 x 32
grid) of 64 channels, whose FFN hidden layer (128 wide) is where gelu runs
on the most rows, as does the seg head's.
"""

import numpy as np
import pytest

from dualstream.diffcore import Tensor, backward, fresh_tape, gelu, layernorm, mul, sum_

ROWS, WIDTH = 1024, 128
DTYPES = {"f32": np.float32, "f64": np.float64}


def _case(dtype):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(ROWS, WIDTH)).astype(dtype)
    g = Tensor(rng.normal(size=(ROWS, WIDTH)).astype(dtype))
    gamma = Tensor(rng.normal(1.0, 0.1, WIDTH).astype(dtype), requires_grad=True)
    beta = Tensor(rng.normal(0.0, 0.1, WIDTH).astype(dtype), requires_grad=True)
    return x, g, gamma, beta


OPS = {
    "gelu": lambda x, gamma, beta: gelu(x),
    "layernorm": lambda x, gamma, beta: layernorm(x, gamma, beta),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", OPS)
def test_forward(benchmark, op, dtype):
    x, _, gamma, beta = _case(DTYPES[dtype])
    xt = Tensor(x)

    def forward():
        return OPS[op](xt, gamma, beta).data

    out = benchmark(forward)
    assert out.shape == (ROWS, WIDTH) and out.dtype == DTYPES[dtype]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", OPS)
def test_forward_backward(benchmark, op, dtype):
    x, g, gamma, beta = _case(DTYPES[dtype])

    def step():
        xt = Tensor(x, requires_grad=True)
        gamma.grad = beta.grad = None
        with fresh_tape():
            backward(sum_(mul(OPS[op](xt, gamma, beta), g)))
        return xt.grad

    gx = benchmark(step)
    assert gx.shape == (ROWS, WIDTH) and gx.dtype == DTYPES[dtype]
