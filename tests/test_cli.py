import csv
import json
import multiprocessing
import os

import numpy as np
import pytest
from util import poison_anchors

from dualstream.cli import (
    ABLATION_GRID,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
    parse_seeds,
)
from dualstream import model as model_mod
from dualstream.configio import Config, parse_config, worker_count
from dualstream.diffcore import Tensor, read_tensor, write_tensor
from dualstream.geom3d import CAMERA_SLOTS
from dualstream.model import DualStreamModel
from dualstream.statstream import segmentation_head
from dualstream.synthworld.dataset import Dataset
from dualstream.trainkit import OptimizerState, load_checkpoint, save_checkpoint

NAN, INF = float("nan"), float("inf")
CFG = Config(n_layers=1, latent_dim=16, n_queries=8, topk=4, decode_hidden=16, bev_cells=8)


def test_inspect_checkpoint(tmp_path, capsys):
    model = DualStreamModel(CFG)
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), CFG, step=3, epoch=1)
    assert main(["inspect", str(tmp_path / "ckpt")]) == EXIT_OK
    out = capsys.readouterr().out
    n_scalars = sum(t.data.size for _, t in model.store.items())
    assert "checkpoint: step=3 epoch=1" in out
    assert f"parameters: {len(model.store.names())} tensors, {n_scalars} scalars" in out


def test_inspect_unrecognisable_path_is_an_io_error(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nothing")]) == EXIT_IO
    assert "nothing recognizable" in capsys.readouterr().err


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nno_such_key = 2\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "no_such_key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_heads_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("heads = 0\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "heads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_topk_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("topk = -1\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "topk must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_single_cell_bev_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bev_cells = 1\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "bev_cells must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


TINY = ("seed = 7\nscene_frames = 2\nepochs = 1\nn_layers = 1\nlatent_dim = 16\nn_queries = 8\ntopk = 4\n"
        "decode_hidden = 16\nbev_cells = 8\nimage_height = 32\nimage_width = 64\n")


def tiny_with(lines):
    """TINY with the ``key = value`` lines ``lines`` in place of TINY's lines of the same keys."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in TINY.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + lines.splitlines()) + "\n"


def test_numeric_failure_is_exit_4(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == EXIT_OK
    # a learning rate at the top of the float range overflows the first update
    bad = tmp_path / "overflow.cfg"
    bad.write_text(TINY + "learning_rate = 1e308\nweight_decay = 100.0\n", encoding="utf-8")
    args = ["train", "--config", str(bad), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run")]
    assert main(args) == EXIT_NUMERIC
    assert "numeric failure: optimizer update at step 0 made a parameter non-finite" in capsys.readouterr().err


def test_nan_anchor_in_a_concurrent_scene_is_exit_4(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data"), "--seeds", "7..8"]) == EXIT_OK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})   # two scene runners: scene 1 in a worker
    poison_anchors(monkeypatch, Dataset(tmp_path / "data").scenes[1]["id"], 1)
    args = ["train", "--config", str(cfg), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run")]
    assert main(args) == EXIT_NUMERIC
    assert "numeric failure: query anchors must be finite" in capsys.readouterr().err
    assert not multiprocessing.active_children()
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("jobs,want", [(1, 1), (2, 2), (5, 2)])
def test_workers_are_at_most_one_per_cpu(monkeypatch, jobs, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    assert worker_count(jobs) == want


@pytest.mark.parametrize("spec", ["abc", "1..x", "..3", "2..", "-1", "-2..1"])
def test_malformed_seeds_are_a_config_error(tmp_path, capsys, spec):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    args = ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out"), f"--seeds={spec}"]
    assert main(args) == EXIT_CONFIG
    assert f"bad seed spec {spec!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_specs():
    assert parse_seeds("5") == [5]
    assert parse_seeds("2..4") == [2, 3, 4]
    assert parse_seeds("0") == [0]
    with pytest.raises(ValueError, match="empty seed range"):
        parse_seeds("4..2")
    with pytest.raises(ValueError, match="seeds must be >= 0"):
        parse_seeds("-2..1")


@pytest.mark.parametrize("line,refused", [
    ("seed = -3", "seed must be >= 0"),
    ("ego_speed = nan", "ego_speed must be finite"),
    # scene generation, not the config, knows the speed bands
    ("agent_speed_min = 8\nagent_speed_max = 2", "bad agent speed band 8.0..2.0"),
    ("agent_speed_min = -1", "bad agent speed band -1.0..8.0"),
    ("fast_fraction = 1\nfast_speed_min = 14\nfast_speed_max = 10", "bad fast speed band 14.0..10.0"),
])
def test_bad_world_setting_stops_gen_data(tmp_path, capsys, line, refused):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(tiny_with(line), encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert refused in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    (root / "tiny.cfg").write_text(TINY, encoding="utf-8")
    assert main(["gen-data", "--config", str(root / "tiny.cfg"), "--out", str(root / "data")]) == EXIT_OK
    return root


def test_nan_learning_rate_is_a_config_error(tiny_data, tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text(TINY + "learning_rate = nan\n", encoding="utf-8")
    args = ["train", "--config", str(bad), "--data", str(tiny_data / "data"), "--out", str(tmp_path / "run")]
    assert main(args) == EXIT_CONFIG
    assert "learning_rate must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line,refused", [("seed = -3", "seed must be >= 0"),
                                          ("track_max_dist = nan", "track_max_dist must be finite"),
                                          ("pillar_heights = nan,inf", "pillar_heights must be finite"),
                                          ("freeze_backbone = true", "unknown config key 'freeze_backbone'"),
                                          ("epochs = 3\nepochs = 5", "line 12: config key 'epochs' repeats line 11")])
def test_bad_setting_stops_train(tiny_data, tmp_path, capsys, line, refused):
    bad = tmp_path / "bad.cfg"
    bad.write_text(tiny_with(line), encoding="utf-8")
    args = ["train", "--config", str(bad), "--data", str(tiny_data / "data"), "--out", str(tmp_path / "run")]
    assert main(args) == EXIT_CONFIG
    assert refused in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_loss_log_labels_each_epoch(tiny_data, tmp_path):
    cfg = tmp_path / "two.cfg"
    cfg.write_text(TINY.replace("epochs = 1", "epochs = 2"), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(tiny_data / "data"), "--out", str(out)]) == EXIT_OK
    header, *rows = (out / "loss.csv").read_text().splitlines()
    assert header.startswith("step,epoch,frame,")
    assert [row.split(",")[:3] for row in rows] == [["1", "0", "0"], ["2", "0", "1"], ["3", "1", "0"], ["4", "1", "1"]]


def test_resume_retraces_the_straight_run(tiny_data, tmp_path):
    cfg = tmp_path / "two.cfg"
    cfg.write_text(TINY.replace("epochs = 1", "epochs = 2"), encoding="utf-8")
    data = str(tiny_data / "data")

    def train(out, *extra):
        assert main(["train", "--data", data, "--out", str(tmp_path / out), *extra]) == EXIT_OK
        return tmp_path / out

    straight = train("straight", "--config", str(cfg))
    first = train("first", "--config", str(cfg), "--stop-after-epoch", "1")
    second = train("second", "--resume", str(first / "ckpt_epoch_1"))

    _, want, want_opt, want_step = load_checkpoint(straight / "checkpoint")
    _, got, got_opt, got_step = load_checkpoint(second / "checkpoint")
    assert got_step == want_step and got_opt.step == want_opt.step
    for name in want:
        assert want[name].dtype == np.float32 and want_opt.m[name].dtype == np.float64
        for a, b in ((got[name], want[name]), (got_opt.m[name], want_opt.m[name]),
                     (got_opt.v[name], want_opt.v[name])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # the two halves' loss logs, joined, are the straight run's log byte for byte
    header, *rows = (straight / "loss.csv").read_text().splitlines()
    halves = [(d / "loss.csv").read_text().splitlines() for d in (first, second)]
    assert all(h[0] == header for h in halves) and rows
    assert halves[0][1:] + halves[1][1:] == rows


def test_resume_cannot_stop_before_its_epoch(tiny_data, tmp_path, capsys):
    cfg = tmp_path / "two.cfg"
    cfg.write_text(TINY.replace("epochs = 1", "epochs = 2"), encoding="utf-8")
    data = str(tiny_data / "data")
    assert main(["train", "--config", str(cfg), "--data", data, "--out", str(tmp_path / "run")]) == EXIT_OK
    args = ["train", "--resume", str(tmp_path / "run" / "ckpt_epoch_2"), "--stop-after-epoch", "1",
            "--data", data, "--out", str(tmp_path / "again")]
    assert main(args) == EXIT_CONFIG
    assert "--stop-after-epoch must lie in 2..2, got 1" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_resume_with_a_disagreeing_config_is_a_config_error(tiny_data, tmp_path, capsys):
    model = DualStreamModel(parse_config(TINY))
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), model.cfg, step=0, epoch=1)
    other = tmp_path / "other.cfg"
    other.write_text(tiny_with("epochs = 2"), encoding="utf-8")
    data = str(tiny_data / "data")

    def resume(cfg, out):
        return main(["train", "--resume", str(tmp_path / "ckpt"), "--config", str(cfg), "--data", data,
                     "--out", str(tmp_path / out)])

    assert resume(tiny_data / "tiny.cfg", "same") == EXIT_OK
    assert resume(other, "other") == EXIT_CONFIG
    assert "--config disagrees with the checkpoint's config" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


def test_train_without_config_or_resume_is_a_config_error(tiny_data, tmp_path, capsys):
    assert main(["train", "--data", str(tiny_data / "data"), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "train needs --config (or --resume)" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_inspect_report_prints_its_json(tiny_data, tmp_path, capsys):
    model = DualStreamModel(parse_config(TINY))
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), model.cfg, step=0, epoch=1)
    args = ["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tiny_data / "data"), "--out", str(tmp_path / "run")]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    report = tmp_path / "run" / "report.json"
    assert main(["inspect", str(report)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == json.loads(report.read_text(encoding="utf-8"))


def test_inspect_dataset_lists_its_scenes(tiny_data, capsys):
    assert main(["inspect", str(tiny_data / "data")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["dataset: 1 scenes, dt=0.5", "  scene 0: 2 frames (seed 7)"]


def read_outputs(out, names=("report.json", "report.csv", "manifest.json")):
    """The named files of a command's output directory, each checked to parse."""
    files = {name: (out / name).read_text(encoding="utf-8") for name in names}
    for name, text in files.items():
        if name.endswith(".json"):
            json.loads(text)
        else:
            rows = list(csv.reader(text.splitlines()))
            assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), name
    return files


def test_eval_writes_reproducible_reports(tiny_data, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--config", str(tiny_data / "tiny.cfg"), "--data", str(tiny_data / "data"),
                 "--out", str(run)]) == EXIT_OK
    args = ["eval", "--ckpt", str(run / "checkpoint"), "--data", str(tiny_data / "data")]
    assert main(args + ["--out", str(tmp_path / "all")]) == EXIT_OK
    for out in ("fast", "again"):
        assert main(args + ["--out", str(tmp_path / out), "--slice", "high-velocity"]) == EXIT_OK
    plain, fast, again = (read_outputs(tmp_path / out) for out in ("all", "fast", "again"))
    assert set(json.loads(plain["report.json"])["slices"]) == {"all"}
    assert set(json.loads(fast["report.json"])["slices"]) == {"all", "high_velocity"}
    assert fast["report.json"] == again["report.json"] and fast["report.csv"] == again["report.csv"]


@pytest.fixture(scope="module")
def ablation(tiny_data):
    out = tiny_data / "ablate"
    assert main(["ablate", "--config", str(tiny_data / "tiny.cfg"), "--data", str(tiny_data / "data"),
                 "--out", str(out)]) == EXIT_OK
    return out


def test_ablate_trains_and_reports_every_variant(ablation):
    out = ablation
    table = read_outputs(out, ("ablation.csv", "manifest.json"))["ablation.csv"]
    header, *rows = csv.reader(table.splitlines())
    assert header[:3] == ["variant", "interaction", "temporal_bev"]
    assert [tuple(row[:3]) for row in rows] == [(n, i, str(t)) for n, i, t in ABLATION_GRID]
    for name, _, _ in ABLATION_GRID:
        read_outputs(out / name)


def test_resuming_an_ablation_variant_trains_nothing(tiny_data, ablation, tmp_path):
    # each variant's checkpoint records the epoch its training finished at
    for name, _, _ in ABLATION_GRID:
        ckpt, out = ablation / name / "checkpoint", tmp_path / name
        assert main(["train", "--resume", str(ckpt), "--data", str(tiny_data / "data"), "--out", str(out)]) == EXIT_OK
        _, want, _, want_step = load_checkpoint(ckpt)
        _, got, _, got_step = load_checkpoint(out / "checkpoint")
        assert got_step == want_step == 2, name
        assert all(got[p].tobytes() == want[p].tobytes() for p in want), name


def test_gen_data_replaces_a_non_empty_directory_only_with_force(tmp_path, capsys):
    cfg, out = tmp_path / "tiny.cfg", tmp_path / "data"
    cfg.write_text(TINY, encoding="utf-8")
    args = ["gen-data", "--config", str(cfg), "--out", str(out)]
    assert main(args + ["--seeds", "8"]) == EXIT_OK
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert main(args) == EXIT_IO
    assert f"{out}: output directory not empty (use --force)" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert main(args + ["--force"]) == EXIT_OK
    assert not (out / "notes.txt").exists()
    assert [scene["seed"] for scene in Dataset(out).scenes] == [7]
    assert (out / "scene_0" / "frame_0.dstn").read_bytes() != before[out / "scene_0" / "frame_0.dstn"]


@pytest.mark.parametrize("text", [TINY + "bev_extent = 8\n", TINY.replace("bev_cells = 8", "bev_cells = 6")],
                         ids=["extent", "cells"])
def test_train_refuses_a_dataset_of_another_bev_grid(tiny_data, tmp_path, capsys, text):
    cfg = tmp_path / "other.cfg"
    cfg.write_text(text, encoding="utf-8")
    args = ["train", "--config", str(cfg), "--data", str(tiny_data / "data"), "--out", str(tmp_path / "run")]
    assert main(args) == EXIT_CONFIG
    assert "does not match the config's" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_refuses_a_dataset_of_another_bev_extent(tiny_data, tmp_path, capsys):
    cfg = parse_config(TINY + "bev_extent = 8\n")
    model = DualStreamModel(cfg)
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), cfg, step=0)
    args = ["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tiny_data / "data"), "--out", str(tmp_path / "ev")]
    assert main(args) == EXIT_CONFIG
    assert "does not match the checkpoint's" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_ablate_refuses_a_dataset_of_another_bev_extent(tiny_data, tmp_path, capsys):
    cfg = tmp_path / "other.cfg"
    cfg.write_text(TINY + "bev_extent = 8\n", encoding="utf-8")
    args = ["ablate", "--config", str(cfg), "--data", str(tiny_data / "data"), "--out", str(tmp_path / "ab")]
    assert main(args) == EXIT_CONFIG
    assert "does not match the config's" in capsys.readouterr().err
    assert not (tmp_path / "ab").exists()


def rewrite_text(edit):
    """Rewrite a text file through ``edit`` (old text to new)."""
    return lambda path: path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def rewrite_index(edit):
    """Rewrite index.json through ``edit``, which changes its document in place."""
    def rewrite(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return rewrite_text(rewrite)


def nan_camera_entry(name, key, *at):
    """Rewrite index.json's camera ``name`` with NaN for its ``key`` (at
    index ``at``): JSON reads NaN, and every comparison with it is false."""
    def edit(text):
        doc = json.loads(text)
        if at:
            doc["cameras"][name][key][at[0]][at[1]] = NAN
        else:
            doc["cameras"][name][key] = NAN
        return json.dumps(doc)
    return rewrite_text(edit)


def index_scenes(edit):
    """Rewrite index.json's scene list through ``edit`` (old list to new)."""
    def rewrite(text):
        doc = json.loads(text)
        doc["scenes"] = edit(doc["scenes"])
        return json.dumps(doc)
    return rewrite_text(rewrite)


def first_scene_without_frames(scenes):
    return [dict(scenes[0], n_frames=0)] + scenes[1:]


def first_scene_five_frames(scenes):
    return [dict(scenes[0], n_frames=5)] + scenes[1:]


def rewrite_meta(edit):
    """Rewrite the JSON meta of a DSTN container through ``edit`` (in place), keeping its tensors."""
    def rewrite(path):
        tensors, meta = read_tensor(path)
        edit(meta)
        write_tensor(path, tensors, meta)
    return rewrite


def one_box(**changes):
    """Rewrite a frame's boxes as one valid box with ``changes`` to its fields."""
    box = {"center": [1.0, 0.0, 0.5], "size": [1.0, 2.0, 1.5], "yaw": 0.0, "velocity": [0.0, 0.0],
           "label": 0, "track_id": 3}
    return rewrite_meta(lambda meta: meta.update(boxes=[dict(box, **changes)]))


def checkpoint_config(**changes):
    """Rewrite a checkpoint's meta.json with ``changes`` to its config."""
    def edit(text):
        doc = json.loads(text)
        doc["config"].update(changes)
        return json.dumps(doc)
    return rewrite_text(edit)


# case: (command, file to corrupt relative to the run directory, its corruption)
CORRUPT_JSON = {
    "inspect-index": ("inspect", "data/index.json", rewrite_text(lambda _: "{not json")),
    "inspect-meta": ("inspect", "ckpt/meta.json", rewrite_text(lambda text: text[: len(text) // 2])),
    "train-index-without-dt": ("train", "data/index.json", rewrite_index(lambda doc: doc.pop("dt"))),
    "train-index-negative-dt": ("train", "data/index.json", rewrite_index(lambda doc: doc.update(dt=-0.5))),
    "eval-index-negative-dt": ("eval", "data/index.json", rewrite_index(lambda doc: doc.update(dt=-0.5))),
    "train-index-nan-dt": ("train", "data/index.json", rewrite_index(lambda doc: doc.update(dt=NAN))),
    "train-index-dt-past-the-floats": ("train", "data/index.json", rewrite_index(lambda doc: doc.update(dt=10**400))),
    "train-frame-boxes": ("train", "data/scene_0/frame_1.dstn",
                          rewrite_meta(lambda meta: meta.update(boxes=[{"center": [0, 0]}]))),
    "eval-meta": ("eval", "ckpt/meta.json", rewrite_text(lambda _: '{"format_version": 3}')),
    "eval-frame-pose": ("eval", "data/scene_0/frame_0.dstn",
                        rewrite_meta(lambda meta: meta.update(yaw=[], translation=[], ego_velocity=[]))),
    "train-index-no-scenes": ("train", "data/index.json", index_scenes(lambda scenes: [])),
    "eval-index-no-scenes": ("eval", "data/index.json", index_scenes(lambda scenes: [])),
    "train-index-scene-without-frames": ("train", "data/index.json", index_scenes(first_scene_without_frames)),
    "eval-index-scene-without-frames": ("eval", "data/index.json", index_scenes(first_scene_without_frames)),
    "train-index-more-frames-than-files": ("train", "data/index.json", index_scenes(first_scene_five_frames)),
    "eval-index-more-frames-than-files": ("eval", "data/index.json", index_scenes(first_scene_five_frames)),
    "train-index-nan-fx": ("train", "data/index.json", nan_camera_entry("front", "fx")),
    "train-index-nan-rotation": ("train", "data/index.json", nan_camera_entry("back", "rotation", 1, 2)),
    "train-index-unknown-camera-key": ("train", "data/index.json",
                                       rewrite_index(lambda doc: doc["cameras"]["front"].update(k1=0.1))),
    "eval-index-camera-without-name": ("eval", "data/index.json",
                                       rewrite_index(lambda doc: doc["cameras"]["back"].pop("name"))),
    "train-frame-nan-box-center": ("train", "data/scene_0/frame_1.dstn", one_box(center=[NAN, 0.0, 0.5])),
    "eval-frame-inf-box-yaw": ("eval", "data/scene_0/frame_0.dstn", one_box(yaw=INF)),
    "train-frame-label-past-the-classes": ("train", "data/scene_0/frame_1.dstn", one_box(label=7)),
    "train-frame-float-label": ("train", "data/scene_0/frame_1.dstn", one_box(label=1.0)),
    "train-frame-string-label": ("train", "data/scene_0/frame_1.dstn", one_box(label="car")),
    "train-frame-negative-label": ("train", "data/scene_0/frame_1.dstn", one_box(label=-1)),
    "eval-frame-bool-label": ("eval", "data/scene_0/frame_0.dstn", one_box(label=True)),
    "train-frame-float-track-id": ("train", "data/scene_0/frame_1.dstn", one_box(track_id=1.0)),
    "eval-frame-string-track-id": ("eval", "data/scene_0/frame_0.dstn", one_box(track_id="car")),
    "eval-frame-bool-track-id": ("eval", "data/scene_0/frame_0.dstn", one_box(track_id=True)),
    "eval-frame-nan-ego-yaw": ("eval", "data/scene_0/frame_0.dstn", rewrite_meta(lambda meta: meta.update(yaw=NAN))),
    "eval-frame-inf-ego-translation": ("eval", "data/scene_0/frame_0.dstn",
                                       rewrite_meta(lambda meta: meta.update(translation=[0.0, INF]))),
    "train-frame-nan-ego-velocity": ("train", "data/scene_0/frame_1.dstn",
                                     rewrite_meta(lambda meta: meta.update(ego_velocity=[NAN, 0.0]))),
    "eval-meta-config-bool-string": ("eval", "ckpt/meta.json", checkpoint_config(temporal_bev="false")),
    "eval-meta-config-float-string": ("eval", "ckpt/meta.json", checkpoint_config(learning_rate="0.1")),
    "eval-meta-config-int-float": ("eval", "ckpt/meta.json", checkpoint_config(latent_dim=16.0)),
    "eval-meta-config-unknown-key": ("eval", "ckpt/meta.json", checkpoint_config(no_such_key=1)),
    "eval-meta-config-float-huge-int": ("eval", "ckpt/meta.json", checkpoint_config(learning_rate=10**400)),
}


@pytest.mark.parametrize("case", CORRUPT_JSON)
def test_corrupt_json_is_an_io_error_naming_the_file(tiny_data, tmp_path, capsys, case):
    import shutil

    command, name, corrupt = CORRUPT_JSON[case]
    shutil.copytree(tiny_data / "data", tmp_path / "data")
    model = DualStreamModel(parse_config(TINY))
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), model.cfg, step=0, epoch=1)
    path = tmp_path / name
    corrupt(path)
    args = {
        "inspect": ["inspect", str(path.parent)],
        "train": ["train", "--config", str(tiny_data / "tiny.cfg"), "--data", str(tmp_path / "data"),
                  "--out", str(tmp_path / "run")],
        "eval": ["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")],
    }[command]
    assert main(args) == EXIT_IO
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_frame_batch_of_unequal_scenes(tmp_path, capsys):
    # a frame-batch steps its scenes together: a shorter scene is refused, not
    # trimmed to, and the longer scene's extra frames are not skipped
    (tmp_path / "tiny.cfg").write_text(TINY, encoding="utf-8")
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(tmp_path / "tiny.cfg"), "--out", str(data), "--seeds", "7..8"]) == EXIT_OK
    index_scenes(lambda scenes: [scenes[0], dict(scenes[1], n_frames=1)])(data / "index.json")
    args = ["train", "--config", str(tmp_path / "tiny.cfg"), "--data", str(data), "--out", str(tmp_path / "run")]
    assert main(args) == EXIT_IO
    err = capsys.readouterr().err
    assert f"{data / 'index.json'}: a frame-batch's scenes differ in length (scene 0 has 2, scene 1 has 1 frames)" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "train-resume"])
def test_non_finite_checkpoint_is_an_io_error_naming_the_parameter(tiny_data, tmp_path, capsys, command):
    model = DualStreamModel(parse_config(TINY))
    for name, t in model.store.items():
        if name.startswith("decode."):
            t.data = np.full_like(t.data, np.nan)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, model, OptimizerState.fresh(model.store), model.cfg, step=2, epoch=1)
    data, out = str(tiny_data / "data"), str(tmp_path / "run")
    args = {"eval": ["eval", "--ckpt", str(ckpt), "--data", data, "--out", out],
            "train-resume": ["train", "--resume", str(ckpt), "--data", data, "--out", out]}[command]
    assert main(args) == EXIT_IO
    assert f"{ckpt}: non-finite values in parameter decode.w_hidden" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_non_finite_eval_output_is_exit_4(tiny_data, tmp_path, capsys, monkeypatch):
    model = DualStreamModel(parse_config(TINY))
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, model, OptimizerState.fresh(model.store), model.cfg, step=0, epoch=1)

    def nan_seg_head(cells, dims, params):
        # finite parameters load; the seg head's output is what goes bad
        return Tensor(np.full_like(segmentation_head(cells, dims, params).data, np.nan))

    monkeypatch.setattr(model_mod, "segmentation_head", nan_seg_head)
    args = ["eval", "--ckpt", str(ckpt), "--data", str(tiny_data / "data"), "--out", str(tmp_path / "run")]
    assert main(args) == EXIT_NUMERIC
    assert "numeric failure: scene 0 frame 0: non-finite seg logits" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("artifact", ["checkpoint", "dataset"])
def test_version_1_artifact_is_an_io_error_naming_file_and_version(tiny_data, tmp_path, capsys, artifact):
    import shutil

    shutil.copytree(tiny_data / "data", tmp_path / "data")
    model = DualStreamModel(parse_config(TINY))
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), model.cfg, step=0, epoch=1)
    name, version = {"checkpoint": ("ckpt/meta.json", 3), "dataset": ("data/index.json", 2)}[artifact]
    path = tmp_path / name
    rewrite_text(lambda text: text.replace(f'"format_version": {version}', '"format_version": 1'))(path)
    args = ["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run")]
    assert main(args) == EXIT_IO
    assert f"{path}: format version 1, expected {version}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "train-resume"])
def test_version_2_checkpoint_is_an_io_error_naming_file_and_version(tiny_data, tmp_path, capsys, command):
    # every version-2 checkpoint's config names a setting that is gone
    model = DualStreamModel(parse_config(TINY))
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, model, OptimizerState.fresh(model.store), model.cfg, step=2, epoch=1)
    rewrite_text(lambda text: text.replace('"format_version": 3', '"format_version": 2'))(ckpt / "meta.json")
    data, out = str(tiny_data / "data"), str(tmp_path / "run")
    args = {"eval": ["eval", "--ckpt", str(ckpt), "--data", data, "--out", out],
            "train-resume": ["train", "--resume", str(ckpt), "--data", data, "--out", out]}[command]
    assert main(args) == EXIT_IO
    assert f"{ckpt / 'meta.json'}: format version 2, expected 3" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_inspect_frame_container_lists_entries_and_meta(tiny_data, tmp_path, capsys):
    frame = tiny_data / "data" / "scene_0" / "frame_0.dstn"
    assert main(["inspect", str(frame)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    n_cams = len(CAMERA_SLOTS)   # the tiny config's full schedule
    assert lines[0] == f"dstn: {n_cams + 1} entries, {n_cams * 3 * 32 * 64 + 3 * 8 * 8} scalars"
    assert lines[1:n_cams + 1] == [f"  cam_{name}  float32  (3, 32, 64)" for name in CAMERA_SLOTS]
    assert lines[n_cams + 1] == "  gt_seg  float32  (3, 8, 8)"
    assert lines[-1] == "meta keys: boxes, ego_velocity, schedule, translation, yaw"


@pytest.mark.parametrize("target", ["frame", "checkpoint"])
def test_inspect_of_a_corrupt_container_is_an_io_error(tiny_data, tmp_path, capsys, target):
    import shutil

    shutil.copytree(tiny_data / "data", tmp_path / "data")
    model = DualStreamModel(parse_config(TINY))
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), model.cfg, step=0)
    victim = tmp_path / {"frame": "data/scene_0/frame_0.dstn", "checkpoint": "ckpt/state.dstn"}[target]
    victim.write_bytes(victim.read_bytes()[:40])
    assert main(["inspect", str(victim if target == "frame" else victim.parent)]) == EXIT_IO
    assert f"{victim}: truncated header" in capsys.readouterr().err
