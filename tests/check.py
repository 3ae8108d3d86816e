"""Gradient verification against central finite differences."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from dualstream.diffcore.tensor import Tensor, backward, fresh_tape, no_grad


def finite_diff_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    coord_limit: int | None = None,
) -> float:
    """Compare reverse-mode gradients of a pure scalar function against
    central differences, coordinate by coordinate.

    Returns the maximum relative error with denominator
    max(|analytic|, |numeric|, 1e-8). ``coord_limit`` optionally caps the
    probed coordinates per input (evenly strided) for large tensors.
    """
    inputs = list(inputs)
    for t in inputs:
        t.grad = None
        t.requires_grad = True
    with fresh_tape():
        loss = fn(*inputs)
        backward(loss)
        analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]
    for t in inputs:
        t.grad = None

    def evaluate() -> float:
        with no_grad(), fresh_tape():
            return float(fn(*inputs).data)

    worst = 0.0
    for t, an in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        an_flat = an.reshape(-1)
        idx = np.arange(flat.size)
        if coord_limit is not None and flat.size > coord_limit:
            idx = np.linspace(0, flat.size - 1, coord_limit).astype(np.int64)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            fp = evaluate()
            flat[i] = orig - eps
            fm = evaluate()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            denom = max(abs(an_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(an_flat[i] - numeric) / denom)
    return worst
