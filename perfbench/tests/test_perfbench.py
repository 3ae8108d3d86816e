"""Tests of the benchmark itself: tiny smoke runs of every workload, failure
counting, the tracer's arithmetic and the BENCHMARK.json contract.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench
import workloads
from dualstream import model as model_mod
from dualstream.diffcore import Tensor, backward, fresh_tape
from dualstream.diffcore.tensor import Tape, mul, sum_
from dualstream.synthworld import dataset as synth_dataset
from tracer import Patches, Tracer, backward_op, trace_tape

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result, detail = bench.measure(name, seed=5, seconds=0.5, trace=trace, size=workloads.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, detail
    assert detail["missing_spans"] == []
    json.dumps(result)


def _poison_call(monkeypatch, owner, attr, at_call, poison):
    """Make call number ``at_call`` of ``owner.attr`` return a poisoned result."""
    orig = getattr(owner, attr)
    calls = []

    def poisoned(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append(1)
        if len(calls) == at_call:
            poison(out)
        return out

    monkeypatch.setattr(owner, attr, poisoned)


def _nan_seg(res):
    res.seg_logits.data = np.full_like(res.seg_logits.data, np.nan)


def _nan_image(frame):
    frame.images["front"] = np.full_like(frame.images["front"], np.nan)


# the poisoned call falls after the set-ups' warm-ups, inside the timed run
@pytest.mark.parametrize("name,owner,attr,at_call,poison", [
    ("train_stream", model_mod.DualStreamModel, "forward_frame", 7, _nan_seg),
    ("eval_bidir_alternating", model_mod.DualStreamModel, "forward_frame", 7, _nan_seg),
    ("gen_data", synth_dataset.Dataset, "load_frame", 20, _nan_image),
])
def test_non_finite_frame_counts_as_failed(monkeypatch, name, owner, attr, at_call, poison):
    _poison_call(monkeypatch, owner, attr, at_call, poison)
    result, detail = bench.measure(name, seed=5, seconds=0.5, trace=False, size=workloads.TINY)
    assert not result["correct"]
    assert result["failed"] >= 1 and detail["failed_frames"] >= 1
    assert 0 < detail["failed_frac"] == result["failed"] / result["attempted"]


def test_missing_layer_is_reported_not_fatal(monkeypatch):
    from dualstream import dualformer

    monkeypatch.setattr(bench, "LAYER_SPANS",
                        bench.LAYER_SPANS + [("dualformer.gone", dualformer, "_no_such_block")])
    result, detail = bench.measure("eval_bidir_alternating", seed=5, seconds=0.5, trace=True,
                                   size=workloads.TINY)
    assert result["correct"]
    assert detail["missing_spans"] == ["dualstream.dualformer._no_such_block"]


def test_self_time_subtracts_children_and_coverage_counts_roots():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0, 11.0])
    tr = Tracer(clock=lambda: next(ticks))
    outer = tr.enter("outer")     # 0
    a = tr.enter("child")         # 1
    tr.exit(a)                    # 3
    b = tr.enter("child")         # 4
    tr.exit(b)                    # 6
    tr.exit(outer)                # 10
    c = tr.enter("late")          # 11, never closed
    assert tr.self_times() == {"outer": 6.0, "child": 4.0}
    assert tr.totals() == {"outer": (10.0, 1), "child": (4.0, 2)}
    assert tr.self_times([(0.5, 7.0)]) == {"child": 4.0}
    assert tr.coverage([(0.0, 20.0)]) == 0.5
    assert c == 3


def test_tape_tracing_groups_backward_by_op_and_restores():
    patches, tr = Patches(), Tracer()
    orig = Tape.record
    trace_tape(patches, tr, Tape)
    try:
        with fresh_tape():
            x = Tensor(np.arange(3.0), requires_grad=True)
            y = sum_(mul(x, x))
            backward(y)
    finally:
        patches.restore()
    assert Tape.record is orig
    assert np.array_equal(x.grad, 2 * np.arange(3.0))
    assert tr.counts["tape_entries"] == 2
    assert set(tr.self_times()) == {"diffcore.backward.mul", "diffcore.backward.sum"}


def test_backward_op_name_strips_private_prefix():
    def _bilinear_flat():
        def bwd(g, grads):
            pass
        return bwd

    assert backward_op(_bilinear_flat()) == "bilinear_flat"


def test_patches_report_missing_names():
    import types

    mod = types.ModuleType("m")
    mod.f = lambda: 1
    patches = Patches()
    assert patches.wrap(mod, "f", lambda fn: lambda: fn() + 1)
    assert not patches.wrap(mod, "gone", lambda fn: fn)
    assert mod.f() == 2 and patches.missing == ["m.gone"]
    patches.restore()
    assert mod.f() == 1


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16 and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(names[:len(SPEC["workloads"])]) == set(workloads.WORKLOADS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gen_data", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
