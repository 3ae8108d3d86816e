import pytest

from dualstream.configio import Config, ConfigError, config_from_dict, config_to_dict, parse_config


def test_unread_key_is_rejected():
    # the ground-truth lane width is fixed, so a key for it would be silently ignored
    with pytest.raises(ConfigError, match="seg_lane_width"):
        parse_config("seg_lane_width = 2.0")
    with pytest.raises(ConfigError, match="seg_lane_width"):
        config_from_dict({**config_to_dict(Config()), "seg_lane_width": 1.0})


@pytest.mark.parametrize("line", [
    "learning_rate = nan",
    "learning_rate = inf",
    "grad_clip = nan",
    "weight_decay = -1e-4",
    "weight_decay = inf",
    "weight_decay = nan",
])
def test_non_finite_optimizer_setting_is_rejected(line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=key):
        parse_config(line)


def test_unbounded_grad_clip_means_no_clipping():
    assert parse_config("grad_clip = inf").grad_clip == float("inf")


@pytest.mark.parametrize("key", ["heads", "patch", "latent_dim", "n_layers", "n_points", "n_queries"])
def test_model_size_below_one_is_rejected(key):
    with pytest.raises(ConfigError, match=rf"{key} must be >= 1, got 0"):
        parse_config(f"{key} = 0")


def test_negative_topk_is_rejected():
    with pytest.raises(ConfigError, match="topk must be >= 0, got -1"):
        parse_config("topk = -1")
    assert parse_config("topk = 0").topk == 0   # no memory carried between frames
