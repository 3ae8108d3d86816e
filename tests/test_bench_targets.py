"""The benchmark reaches into the package by attribute name. A refactor that
renames one of those attributes must fail here, not drop a per-layer span
silently."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


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


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_passes_its_checks(bench, name):
    # the workloads' correctness checks read the program's objects (frames,
    # poses, reports) field by field
    workloads = importlib.import_module("workloads")
    result, detail = bench.measure(name, seed=5, seconds=0.5, trace=False, size=workloads.TINY)
    assert result["correct"] and result["failed"] == 0, (detail["checks"], detail["errors"])


def test_eval_probe_targets_exist():
    from dualstream.heads import TrackerState
    from dualstream.model import DualStreamModel
    from dualstream.synthworld import dataset

    assert callable(dataset.Dataset.load_frame)
    assert callable(DualStreamModel.forward_frame)
    assert callable(TrackerState.step)
    assert callable(dataset.build_frame)


def test_frame_renders_go_through_the_dataset_render_camera(monkeypatch):
    # the benchmark's synthworld.render span wraps dataset.render_camera
    from dualstream.geom3d import CAMERA_SLOTS
    from dualstream.statstream import BevSpec
    from dualstream.synthworld import WorldConfig, build_camera_rig, dataset, full_schedule, generate_scene

    calls = []
    monkeypatch.setattr(dataset, "render_camera", lambda scene, t, cam: (calls.append(cam.name), None, None))
    scene = generate_scene(0, WorldConfig(duration=1, agents_min=0, agents_max=0))
    spec = BevSpec(dims=(4, 4), extent=(-2.0, 2.0, -2.0, 2.0))
    frame = dataset.build_frame(scene, 0, build_camera_rig(), spec, full_schedule(1)[0])
    assert calls == list(frame.images) == list(CAMERA_SLOTS)


def test_microbench_runs_once_with_timing_disabled(tmp_path):
    # microbench builds the package's parameter types itself; a renamed field
    # must fail here rather than only when someone times it
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", str(ROOT / "microbench")]
    proc = subprocess.run(cmd, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
