"""The deformable read and multi-head attention are one op each, with a
hand-written backward. Against their composed forms in ``composed_ops``
they give bitwise the same output, shares, gradients and sequence of
gradients their leaves receive under ``backward`` (the leaves in the same
order, each gradient the same bytes), in float32 and float64."""

import numpy as np
import pytest
from composed_ops import deformable_core as composed_core
from composed_ops import multi_head_attention as composed_attention
from util import make_attention_params, make_deformable_params, rows

from dualstream.diffcore import Tensor, backward, fresh_tape
from dualstream.diffcore.ops import _deformable_core, multi_head_attention
from dualstream.diffcore.tensor import add, mul, sum_

DTYPES = [np.float32, np.float64]


def cast(params, dtype):
    """``params`` with every tensor in ``dtype``, each a fresh leaf."""
    return type(params)(**{k: Tensor(t.data.astype(dtype), requires_grad=True) for k, t in vars(params).items()})


def replay(op, inputs, leaves, mix, through):
    """Run ``op`` on a fresh tape, its output plus its first input (a
    residual, so that input holds a gradient before the op's backward adds
    to it) weighted by ``mix``, and ``backward`` it: the outputs and the
    ``(leaf name, dtype, shape, gradient bytes)`` sequence the leaves'
    ``Tensor._accum_grad`` receives. With ``through``, the inputs enter
    through one recorded op each, as a layer's activations do, so the op
    adds into their pending gradients; else they are leaves and the sequence
    lists each part they receive. Before the backward every leaf gets new
    arrays, as AdamW gives the parameters between a truncation window's
    first frame and its replay: the backward must use the forward's."""
    names = {id(t): name for name, t in leaves.items()}
    seq, accum = [], Tensor._accum_grad

    def recorded(t, g):
        seq.append((names[id(t)], g.dtype.str, g.shape, g.tobytes()))
        accum(t, g)

    with fresh_tape():
        made = [mul(x, 1.0) for x in inputs] if through else inputs
        out = op(*made)
        first = out[0] if isinstance(out, tuple) else out
        loss = sum_(mul(add(first, made[0]), Tensor(mix.astype(first.dtype))))
        kept = {name: t.data for name, t in leaves.items()}
        for t in leaves.values():
            t.data, t.grad = t.data + 1.0, None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Tensor, "_accum_grad", recorded)
            backward(loss)
    for name, t in leaves.items():
        t.data = kept[name]
    return out, seq


def assert_same(got, want):
    (out, seq), (out_w, seq_w) = got, want
    outs = out if isinstance(out, tuple) else (out,)
    outs_w = out_w if isinstance(out_w, tuple) else (out_w,)
    for a, b in zip(outs, outs_w):
        a, b = (x.data if isinstance(x, Tensor) else x for x in (a, b))
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert seq_w and [s[0] for s in seq] == [s[0] for s in seq_w]
    for s, w in zip(seq, seq_w):
        assert s == w, s[0]


# name: (queries, reads' owners or None, grid_of or None, stacked grids, valid mask, reference points)
def deformable_case(rng, name, dtype):
    h, w, L, C, P = 5, 6, 8, 6, 3
    n = 7
    grids, owner, grid_of, mask = 1, None, None, None
    refs = rng.uniform(-0.5, 5.5, size=(n, 2))
    if name == "sorted_owners":
        # queries with 0, 1 and several reads, one read far outside (a miss)
        owner = np.array([0, 0, 0, 2, 3, 3, 5, 6, 6, 6, 6])
        refs = rng.uniform(0.0, 4.0, size=(owner.size, 2))
        refs[4] = [40.0, 40.0]
    elif name == "valid_mask":
        mask = rng.uniform(size=h * w) > 0.3
    elif name == "stacked_grids":
        grids, owner = 3, np.repeat(np.arange(n), 3)
        grid_of = np.tile(np.arange(3), n)
        refs = rng.uniform(-0.5, 5.5, size=(owner.size, 2))
        mask = rng.uniform(size=grids * h * w) > 0.2
    elif name == "all_points_miss":
        refs[2] = [-30.0, 50.0]
    elif name == "zero_reads":
        owner = np.zeros(0, dtype=np.int64)
        refs = np.zeros((0, 2))
    params = make_deformable_params(rng, L, C, P)
    for t in (params.w_off, params.b_off, params.b_wgt, params.b_out):
        t.data = rng.normal(scale=0.8, size=t.data.shape)
    queries = rng.normal(size=(n, L)).astype(dtype)
    table = rows(rng.normal(size=(C, grids * h, w))).astype(dtype)
    return queries, table, (h, w), cast(params, dtype), dict(valid_mask=mask, owner=owner, grid_of=grid_of), refs


DEFORMABLE = ["identity_owner", "sorted_owners", "valid_mask", "stacked_grids", "all_points_miss", "zero_reads"]
THROUGH = pytest.mark.parametrize("through", [False, True], ids=["leaves", "activations"])


@THROUGH
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("name", DEFORMABLE)
def test_deformable_core_equals_its_composition_bitwise(rng, name, dtype, through):
    queries, table, dims, params, kw, refs = deformable_case(rng, name, dtype)
    q, t = Tensor(queries, requires_grad=True), Tensor(table, requires_grad=True)
    leaves = dict(vars(params), queries=q, table=t)
    mix = np.random.default_rng(1).normal(size=queries.shape)
    got = replay(lambda a, b: _deformable_core(a, refs, b, dims, params, **kw), [q, t], leaves, mix, through)
    want = replay(lambda a, b: composed_core(a, refs, b, dims, params, **kw), [q, t], leaves, mix, through)
    assert_same(got, want)


@THROUGH
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
def test_deformable_core_reading_its_own_queries_equals_its_composition(rng, dtype, through):
    # temporal attention without a previous grid: the queries are the value table
    queries, _, dims, params, _, _ = deformable_case(rng, "identity_owner", dtype)
    cells = Tensor(rows(rng.normal(size=(queries.shape[1], *dims))).astype(dtype), requires_grad=True)
    params.w_val = Tensor(rng.normal(size=params.w_off.data.shape[:1] * 2).astype(dtype), requires_grad=True)
    refs = rng.uniform(0, 4, size=(cells.data.shape[0], 2))
    mix = np.random.default_rng(1).normal(size=cells.data.shape)
    leaves = dict(vars(params), cells=cells)
    got = replay(lambda a: _deformable_core(a, refs, a, dims, params), [cells], leaves, mix, through)
    want = replay(lambda a: composed_core(a, refs, a, dims, params), [cells], leaves, mix, through)
    assert_same(got, want)


def attention_case(rng, name, dtype):
    """Tensors ``(query, key, value)`` (self: query is key) and the
    parameters, in ``dtype``."""
    dim = 8
    params = make_attention_params(rng, dim)
    for b in (params.bq, params.bk, params.bv, params.bo):
        b.data = rng.normal(scale=0.5, size=dim)
    params = cast(params, dtype)
    t = lambda n: Tensor(rng.normal(size=(n, dim)).astype(dtype), requires_grad=True)
    if name == "self":
        # object self-attention: the keyed latents are query and key, the latents the values
        qk = t(6)
        return (qk, qk, t(6)), params
    query, key, value = t(10), t(6), t(6)
    if name == "permuted_keys":
        key.data[4] = key.data[1]   # equal key rows carrying different values
        perm = rng.permutation(6)
        key.data, value.data = key.data[perm], value.data[perm]
    return (query, key, value), params


@THROUGH
@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("name", ["self", "cross", "permuted_keys"])
def test_attention_equals_its_composition_bitwise(rng, name, dtype, through):
    (query, key, value), params = attention_case(rng, name, dtype)
    inputs = [query, value] if key is query else [query, key, value]
    leaves = dict(vars(params), query=query, key=key, value=value)
    mix = np.random.default_rng(1).normal(size=query.data.shape)

    def call(op):
        if key is query:
            return lambda qk, v: op(qk, qk, v, 2, params)
        return lambda q, k, v: op(q, k, v, 2, params)

    got = replay(call(multi_head_attention), inputs, leaves, mix, through)
    want = replay(call(composed_attention), inputs, leaves, mix, through)
    assert_same(got, want)


def test_each_fused_op_records_one_tape_entry(rng):
    queries, table, dims, params, kw, refs = deformable_case(rng, "stacked_grids", np.float64)
    with fresh_tape() as tape:
        _deformable_core(Tensor(queries), refs, Tensor(table), dims, params, **kw)
        assert len(tape) == 1
    (query, key, value), params = attention_case(rng, "cross", np.float64)
    with fresh_tape() as tape:
        multi_head_attention(query, key, value, 2, params)
        assert len(tape) == 1
