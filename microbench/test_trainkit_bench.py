"""Microbenchmark of the AdamW step over the default model (pytest-benchmark).

Not part of the tier-1 suite (``testpaths`` is ``tests``). Run from the
repository root with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q microbench/test_trainkit_bench.py

The store is the default float32 model's 357,351 parameters with a gradient
on every one, as after a training frame's backward; the moments are float64.
"""

import numpy as np

from dualstream.configio import Config
from dualstream.model import DualStreamModel
from dualstream.trainkit import OptimizerState, optimizer_step

CFG = Config(seed=1)


def test_optimizer_step_default_model(benchmark):
    model = DualStreamModel(CFG)
    rng = np.random.default_rng(0)
    for _, t in model.store.items():
        t.grad = rng.normal(scale=1e-3, size=t.data.shape).astype(t.data.dtype)
    opt = OptimizerState.fresh(model.store)

    benchmark(optimizer_step, model.store, opt, 2e-4, CFG.weight_decay)
    assert sum(t.data.size for _, t in model.store.items()) == 357_351
    assert all(np.all(np.isfinite(t.data)) for _, t in model.store.items())
