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
