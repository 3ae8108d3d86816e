from dataclasses import replace

import pytest

from dualstream.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, effective_workers, main
from dualstream.configio import Config
from dualstream.diffcore import use_dtype
from dualstream.model import DualStreamModel
from dualstream.trainkit import OptimizerState, save_checkpoint

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
