from dualstream.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
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
