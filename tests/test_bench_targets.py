"""The benchmark reaches into the package by attribute name. A refactor that
renames one of those attributes must fail here, not drop a per-layer span
silently."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("bench")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_layer_span_target_exists(bench):
    missing = [(span, getattr(owner, "__name__", owner), attr)
               for span, owner, attr in bench.LAYER_SPANS if not hasattr(owner, attr)]
    assert missing == []


def test_eval_probe_targets_exist():
    from dualstream.heads import TrackerState
    from dualstream.model import DualStreamModel
    from dualstream.synthworld import dataset

    assert callable(dataset.Dataset.load_frame)
    assert callable(DualStreamModel.forward_frame)
    assert callable(TrackerState.step)
    assert callable(dataset.build_frame)
