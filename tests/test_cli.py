import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from dualstream.cli import (
    ABLATION_GRID,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    effective_workers,
    main,
    parse_seeds,
)
from dualstream.configio import Config, parse_config
from dualstream.diffcore import use_dtype
from dualstream.model import DualStreamModel
from dualstream.trainkit import OptimizerState, load_checkpoint, save_checkpoint

CFG = Config(n_layers=1, latent_dim=16, n_queries=8, topk=4, decode_hidden=16, bev_cells=8)


def test_inspect_checkpoint(tmp_path, capsys):
    with use_dtype(CFG.np_dtype()):
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


@pytest.mark.parametrize("cap,want", [(None, 4), ("2", 2), ("8", 4), ("0", 1)])
def test_thread_cap_applies(monkeypatch, cap, want):
    if cap is None:
        monkeypatch.delenv("DUALSTREAM_THREADS", raising=False)
    else:
        monkeypatch.setenv("DUALSTREAM_THREADS", cap)
    assert effective_workers(replace(CFG, threads=4)) == want


def test_non_integer_thread_cap_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DUALSTREAM_THREADS", "two")
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "DUALSTREAM_THREADS must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", ["abc", "1..x", "..3", "2.."])
def test_malformed_seeds_are_a_config_error(tmp_path, capsys, spec):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    args = ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seeds", spec]
    assert main(args) == EXIT_CONFIG
    assert f"bad seed spec {spec!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_specs():
    assert parse_seeds("5") == [5]
    assert parse_seeds("2..4") == [2, 3, 4]
    with pytest.raises(ValueError, match="empty seed range"):
        parse_seeds("4..2")


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


def test_ablate_trains_and_reports_every_variant(tiny_data, tmp_path):
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(tiny_data / "tiny.cfg"), "--data", str(tiny_data / "data"),
                 "--out", str(out)]) == EXIT_OK
    table = read_outputs(out, ("ablation.csv", "manifest.json"))["ablation.csv"]
    header, *rows = csv.reader(table.splitlines())
    assert header[:3] == ["variant", "interaction", "temporal_bev"]
    assert [tuple(row[:3]) for row in rows] == [(n, i, str(t)) for n, i, t in ABLATION_GRID]
    for name, _, _ in ABLATION_GRID:
        read_outputs(out / name)


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


def without_dt(text):
    doc = json.loads(text)
    del doc["dt"]
    return json.dumps(doc)


# case: (command, file to corrupt relative to the run directory, its new text from the old)
CORRUPT_JSON = {
    "inspect-index": ("inspect", "data/index.json", lambda _: "{not json"),
    "inspect-meta": ("inspect", "ckpt/meta.json", lambda text: text[: len(text) // 2]),
    "train-index-without-dt": ("train", "data/index.json", without_dt),
    "train-frame-boxes": ("train", "data/scene_0/frame_1/gt_boxes.json", lambda _: '[{"center": [0, 0]}]'),
    "eval-meta": ("eval", "ckpt/meta.json", lambda _: '{"format_version": 1}'),
    "eval-frame-pose": ("eval", "data/scene_0/frame_0/ego_pose.json", lambda _: "[]"),
}


@pytest.mark.parametrize("case", CORRUPT_JSON)
def test_corrupt_json_is_an_io_error_naming_the_file(tiny_data, tmp_path, capsys, case):
    import shutil

    command, name, corrupt = CORRUPT_JSON[case]
    shutil.copytree(tiny_data / "data", tmp_path / "data")
    model = DualStreamModel(parse_config(TINY))
    save_checkpoint(tmp_path / "ckpt", model, OptimizerState.fresh(model.store), model.cfg, step=0, epoch=1)
    path = tmp_path / name
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
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
