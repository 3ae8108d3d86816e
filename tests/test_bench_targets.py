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


def test_every_layer_span_target_is_called(bench, tmp_path, monkeypatch):
    # a target the program calls by another name (an import of its own, a
    # method) escapes its span: count the calls each wrapped attribute gets
    # over a tiny gen-data, two training steps and a bidirectional eval
    from collections import Counter
    from dataclasses import replace

    from dualstream import runner, trainkit
    from dualstream.cli import bev_from_config, world_from_config
    from dualstream.configio import Config, config_to_dict
    from dualstream.model import DualStreamModel
    from dualstream.synthworld.dataset import Dataset, generate_and_write

    calls = Counter()

    def counted(target, orig):
        def call(*args, **kwargs):
            calls[target] += 1
            return orig(*args, **kwargs)
        return call

    targets = [f"{span}: {owner.__name__}.{attr}" for span, owner, attr in bench.LAYER_SPANS]
    for target, (_, owner, attr) in zip(targets, bench.LAYER_SPANS):
        monkeypatch.setattr(owner, attr, counted(target, vars(owner)[attr]))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # every scene in this process

    cfg = Config(seed=7, scene_frames=2, epochs=1, n_layers=1, latent_dim=16, n_queries=8, topk=4,
                 decode_hidden=16, bev_cells=8, image_height=32, image_width=64)
    generate_and_write([7], tmp_path / "data", world_from_config(cfg), bev_from_config(cfg),
                       config_echo=config_to_dict(cfg), ranges=cfg.detection_ranges(),
                       image_size=(cfg.image_height, cfg.image_width))
    data = Dataset(tmp_path / "data")
    model = DualStreamModel(cfg)
    opt = trainkit.OptimizerState.fresh(model.store)
    result, _ = trainkit.streaming_train(data, model, cfg, opt=opt, on_step=lambda row: trainkit.save_checkpoint(
        tmp_path / "ckpt", model, opt, cfg, row.step))
    assert len(result.rows) == 2
    bidir = replace(cfg, interaction="bidirectional")
    inference = runner.run_inference(data, DualStreamModel(bidir), bidir, schedule_override="alternating")
    runner.assemble_report(inference, bidir, run_id="targets", code_version="test")
    assert [target for target in targets if not calls[target]] == []
