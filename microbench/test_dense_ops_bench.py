"""Op-level microbenchmarks of the dense ops, gelu, layernorm and the biased
matmul (pytest-benchmark), in float32 and float64.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench

The shape is the BEV stream's at the default config: 1024 cells (a 32 x 32
grid) of 64 channels, whose FFN hidden layer (128 wide) is where gelu runs
on the most rows, as does the seg head's. The biased matmul is that FFN's
first layer: (1024, 64) @ (64, 128) plus a (128,) bias.
"""

import numpy as np
import pytest

from dualstream.diffcore import Tensor, backward, fresh_tape, gelu, layernorm, matmul, mul, sum_

ROWS, LATENT, WIDTH = 1024, 64, 128
DTYPES = {"f32": np.float32, "f64": np.float64}


def _params(rng, op, dtype):
    """The op's trainable tensors: the FFN first layer's (LATENT, WIDTH)
    weight and (WIDTH,) bias, or a layernorm's gain and shift."""
    if op == "matmul_bias":
        draws = (rng.normal(0.0, LATENT ** -0.5, (LATENT, WIDTH)), rng.normal(0.0, 0.1, WIDTH))
    else:
        draws = (rng.normal(1.0, 0.1, WIDTH), rng.normal(0.0, 0.1, WIDTH))
    return tuple(Tensor(d.astype(dtype), requires_grad=True) for d in draws)


def _case(op, dtype):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(ROWS, OPS[op][0])).astype(dtype)
    g = Tensor(rng.normal(size=(ROWS, WIDTH)).astype(dtype))
    return x, g, _params(rng, op, dtype)


# op -> (input width, op of the input and the trainable tensors)
OPS = {
    "gelu": (WIDTH, lambda x, p: gelu(x)),
    "layernorm": (WIDTH, lambda x, p: layernorm(x, *p)),
    "matmul_bias": (LATENT, lambda x, p: matmul(x, *p)),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", OPS)
def test_forward(benchmark, op, dtype):
    x, _, params = _case(op, DTYPES[dtype])
    xt = Tensor(x)

    def forward():
        return OPS[op][1](xt, params).data

    out = benchmark(forward)
    assert out.shape == (ROWS, WIDTH) and out.dtype == DTYPES[dtype]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", OPS)
def test_forward_backward(benchmark, op, dtype):
    x, g, params = _case(op, DTYPES[dtype])

    def step():
        xt = Tensor(x, requires_grad=True)
        for t in params:
            t.grad = None
        with fresh_tape():
            backward(sum_(mul(OPS[op][1](xt, params), g)))
        return xt.grad

    gx = benchmark(step)
    assert gx.shape == x.shape and gx.dtype == DTYPES[dtype]
