"""Reverse-mode autodiff on dense numpy arrays.

A module-level Wengert tape records every differentiable operation in
execution order; ``backward`` replays the tape in reverse, which is a valid
reverse topological order by construction and therefore bitwise deterministic
for fixed inputs.

``replay`` is that replay for any tapes and seeds, and ``backward`` calls it
on the active tape. Tapes that share only leaves (a training frame's scenes,
which share only parameters) can so be replayed apart, even in other
processes; the caller then sums their leaves' gradients in an order of its
own.

A tensor's dtype is its data's: a ``Tensor`` holds float32 or float64 and
refuses anything else. Ops keep their operands' dtype, so a float32 model
(config ``dtype = "f32"``, the default, given to its ``ParamStore``) has
float32 parameters, activations, tape entries and gradients, and a float64
model computes in float64, as the gradient checks do. Constant operands
given as arrays or numbers are cast to the tensor operand's dtype.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence, Union

import numpy as np
from scipy.sparse import _sparsetools

Scalar = Union[int, float]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """A loss, gradient, parameter or model output that must be finite is
    not; the message names the first such value and where it arose."""


class Tape:
    """Ordered record of executed operations with their backward closures.

    ``drop_before`` prunes entries that can no longer receive gradients;
    positions are absolute so marks stay valid across pruning.
    """

    def __init__(self):
        self._entries: list[tuple["Tensor", object]] = []
        self._base = 0

    def record(self, out: "Tensor", backward_fn) -> None:
        self._entries.append((out, backward_fn))

    def position(self) -> int:
        return self._base + len(self._entries)

    def drop_before(self, position: int) -> None:
        keep = max(0, position - self._base)
        if keep:
            del self._entries[:keep]
            self._base += keep

    def __len__(self) -> int:
        return len(self._entries)


class _State:
    """The active tape and whether ops record on it, one per process."""

    def __init__(self):
        self.tape = Tape()
        self.grad_enabled = True


_state = _State()


def active_tape() -> Tape:
    return _state.tape


class no_grad:
    """Disable tape recording inside the context."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def use_dtype(dtype):
    """A context that does nothing: a tensor's dtype comes from its data or
    its ``ParamStore``. Kept only because ``perfbench/workloads.py`` still
    wraps its runs in it; program code and tests do not call it."""
    return contextlib.nullcontext()


class fresh_tape:
    """Run on a private tape, restoring the previous one on exit."""

    def __enter__(self) -> Tape:
        self._prev = _state.tape
        _state.tape = Tape()
        return _state.tape

    def __exit__(self, *exc):
        _state.tape = self._prev
        return False


class Tensor:
    """Dense array with optional gradient accumulation buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_is_leaf")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise TypeError(f"a Tensor holds float32 or float64 data, got {arr.dtype}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def detach(self) -> "Tensor":
        """A leaf constant sharing this tensor's values."""
        return Tensor(self.data)

    def _accum_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g.astype(self.data.dtype, copy=False).reshape(self.data.shape)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # ``c - x`` for a constant c: one subtraction in x's dtype, one tape entry
    def __rsub__(self, other):
        return sub(_wrap(other, like=self), self)


def _wrap(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if like is not None and arr.dtype != like.dtype:
        arr = arr.astype(like.dtype)
    return Tensor(arr)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Create an op output and record it on the active tape if grads flow."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    rg = _state.grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = rg
    out._is_leaf = not rg
    if rg:
        _state.tape.record(out, backward_fn)
    return out


def _accumulate(t: Tensor, g: np.ndarray, grads: dict) -> None:
    if not t.requires_grad:
        return
    if t._is_leaf:
        t._accum_grad(g)
        return
    key = id(t)
    if key in grads:
        grads[key] = grads[key] + g
    else:
        grads[key] = g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable requires_grad leaf.

    The loss must be scalar. Gradients of intermediates are kept off-tensor
    so repeated backward calls accumulate exactly once per call.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    replay([_state.tape], [(loss, np.ones_like(loss.data))])


def replay(tapes: Sequence[Tape], seeds: Iterable[tuple[Tensor, np.ndarray]]) -> None:
    """Replay ``tapes`` (oldest first) newest first, each in reverse, from
    the gradients ``seeds`` gives their outputs, adding every gradient a
    leaf receives into its ``grad`` in that order."""
    grads: dict = {}
    for t, g in seeds:
        _accumulate(t, g, grads)
    for tape in reversed(tapes):
        for out, fn in reversed(tape._entries):
            g = grads.pop(id(out), None)
            if g is not None:
                fn(g, grads)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the original operand shape after broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic primitives

def add(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        data = a.data + b

        def bwd(g, grads):
            _accumulate(a, g, grads)

        return _make(data, (a,), bwd)
    b = _wrap(b, like=a)
    data = a.data + b.data

    def bwd(g, grads):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape), grads)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape), grads)

    return _make(data, (a, b), bwd)


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return add(a, -b)
    b = _wrap(b, like=a)
    data = a.data - b.data

    def bwd(g, grads):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape), grads)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape), grads)

    return _make(data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return scale(a, float(b))
    b = _wrap(b, like=a)
    data = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g, grads):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * bd, a.data.shape), grads)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * ad, b.data.shape), grads)

    return _make(data, (a, b), bwd)


def div(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return scale(a, 1.0 / float(b))
    b = _wrap(b, like=a)
    data = a.data / b.data
    ad, bd = a.data, b.data

    def bwd(g, grads):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / bd, a.data.shape), grads)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * ad / (bd * bd), b.data.shape), grads)

    return _make(data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar; keeps the operand dtype."""

    def bwd(g, grads):
        _accumulate(a, g * s, grads)

    return _make(a.data * s, (a,), bwd)


def matmul(a: Tensor, b: Tensor, bias=None) -> Tensor:
    """Matrix product for operands of rank >= 2, with batched leading dims,
    plus ``bias`` (broadcast to the product's shape) if given.
    Backward gives the bias its gradient first, then ``a``, then ``b``."""
    a = _wrap(a)
    b = _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    ad, bd = a.data, b.data
    parents = (a, b)
    if bias is not None:
        bias = _wrap(bias, like=a)
        if bias.ndim > data.ndim or any(s not in (1, d) for s, d in zip(bias.data.shape[::-1], data.shape[::-1])):
            raise ShapeError(f"bias {bias.data.shape} does not broadcast to the product {data.shape}")
        data = data + bias.data
        parents = (a, b, bias)

    def bwd(g, grads):
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape), grads)
        if a.requires_grad:
            ga = np.matmul(g, bd.swapaxes(-1, -2))
            _accumulate(a, _unbroadcast(ga, ad.shape), grads)
        if b.requires_grad:
            gb = np.matmul(ad.swapaxes(-1, -2), g)
            _accumulate(b, _unbroadcast(gb, bd.shape), grads)

    return _make(data, parents, bwd)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise power with constant exponent."""
    data = a.data ** p
    ad = a.data

    def bwd(g, grads):
        _accumulate(a, g * p * ad ** (p - 1.0), grads)

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# elementwise transcendentals

def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def bwd(g, grads):
        _accumulate(a, g * (1.0 - data * data), grads)

    return _make(data, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid_np(a.data)

    def bwd(g, grads):
        _accumulate(a, g * data * (1.0 - data), grads)

    return _make(data, (a,), bwd)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # stable in both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    ad = a.data
    data = np.log1p(np.exp(-np.abs(ad))) + np.maximum(ad, 0.0)

    def bwd(g, grads):
        _accumulate(a, g * _sigmoid_np(ad), grads)

    return _make(data, (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    ad = a.data

    def bwd(g, grads):
        _accumulate(a, g * np.sign(ad), grads)

    return _make(np.abs(ad), (a,), bwd)


# ---------------------------------------------------------------------------
# reductions and structure

def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def bwd(g, grads):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, shape).copy(), grads)

    return _make(data, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[i] for i in axes]))
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    data = a.data.reshape(shape)

    def bwd(g, grads):
        _accumulate(a, g.reshape(old), grads)

    return _make(data, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def bwd(g, grads):
        _accumulate(a, g.transpose(inv), grads)

    return _make(data, (a,), bwd)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat needs at least one tensor")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    sizes = [t.data.shape[axis] for t in ts]

    def bwd(g, grads):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for t, piece in zip(ts, pieces):
            _accumulate(t, piece, grads)

    return _make(data, ts, bwd)


def getitem(a: Tensor, idx) -> Tensor:
    """Basic indexing only (ints, slices, tuples thereof)."""
    data = a.data[idx]
    shape = a.data.shape

    def bwd(g, grads):
        ga = np.zeros(shape, dtype=g.dtype)
        ga[idx] = g
        _accumulate(a, ga, grads)

    return _make(data, (a,), bwd)


def _csr_rows(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, cols: int) -> int:
    """Rows of the CSR matrix ``(data, indices, indptr)`` with ``cols``
    columns; ShapeError unless every row's run and every column index lies
    inside its arrays and its columns."""
    nnz = indices.size
    if indptr.ndim != 1 or indptr.size == 0 or data.size != nnz or indptr[0] != 0 or indptr[-1] != nnz \
            or np.any(np.diff(indptr) < 0):
        raise ShapeError(f"CSR row pointers {indptr.shape} do not delimit {nnz} entries with {data.size} values")
    lo, hi = (indices.min(), indices.max()) if nnz else (0, -1)
    if lo < 0 or hi >= cols:
        raise ShapeError(f"a sparse product reads table row {hi if hi >= cols else lo}, but the table has {cols} rows")
    return indptr.size - 1


def csr_product(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for the CSR matrix ``A`` of ``(data, indices, indptr)`` and
    the (rows, C) array ``x``: bitwise ``scipy.sparse.csr_array @ x``, whose
    compiled kernel (``csr_matvecs``) it runs without building the array.
    That kernel does not bound-check and its module is private, so this
    function and ``csr_product_t`` are its only callers and check first."""
    x = np.ascontiguousarray(x)
    rows = _csr_rows(indptr, indices, data, x.shape[0])
    out = np.zeros((rows, x.shape[1]), dtype=np.result_type(data, x))
    _sparsetools.csr_matvecs(rows, x.shape[0], x.shape[1], indptr, indices, data, x.ravel(), out.ravel())
    return out


def csr_product_t(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray, cols: int) -> np.ndarray:
    """``A.T @ x`` for the same ``A`` with ``cols`` columns: each row of
    ``x`` summed into its entries' columns in entry order, bitwise
    ``csr_array.T @ x`` (``csc_matvecs`` on the same arrays)."""
    x = np.ascontiguousarray(x)
    rows = _csr_rows(indptr, indices, data, cols)
    if x.shape[0] != rows:
        raise ShapeError(f"a {rows}-row CSR matrix's transpose cannot take {x.shape[0]} rows")
    out = np.zeros((cols, x.shape[1]), dtype=np.result_type(data, x))
    _sparsetools.csc_matvecs(cols, rows, x.shape[1], indptr, indices, data, x.ravel(), out.ravel())
    return out


def sparse_matmul(m, a: Tensor) -> Tensor:
    """Product of a constant scipy.sparse CSR matrix ``m`` and a 2-D tensor.

    Rows of ``m`` can select, repeat or sum rows of ``a``; the gradient is
    ``m.T @ g``. Both products add the stored entries in a fixed order, so
    results are bitwise reproducible.
    """
    if m.format != "csr":
        raise TypeError(f"sparse_matmul needs a CSR matrix, got {m.format}")
    if m.shape[1] != a.data.shape[0]:
        raise ShapeError(f"sparse matrix {m.shape} cannot multiply {a.data.shape}")
    parts = (m.indptr, m.indices, m.data)
    data = csr_product(*parts, a.data)

    def bwd(g, grads):
        _accumulate(a, csr_product_t(*parts, g, m.shape[1]), grads)

    return _make(data, (a,), bwd)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows by an index array naming each row at most once; a
    repeated row raises ValueError."""
    idx = np.asarray(idx, dtype=np.int64)
    hit = np.zeros(a.data.shape[0], dtype=bool)
    hit[idx] = True
    if np.count_nonzero(hit) != idx.size:
        raise ValueError("row index repeats a row")
    data = np.take(a.data, idx, axis=0)

    def bwd(g, grads):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        _accumulate(a, ga, grads)

    return _make(data, (a,), bwd)
