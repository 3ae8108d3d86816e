from dataclasses import fields

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


def test_non_finite_float_setting_is_rejected():
    floats = [f.name for f in fields(Config) if f.type == "float"]
    assert "ego_speed" in floats and "track_max_dist" in floats
    for key in floats:
        for value in ("nan", "inf", "-inf"):
            if key == "grad_clip" and value == "inf":
                continue
            with pytest.raises(ConfigError, match=key):
                parse_config(f"{key} = {value}")


@pytest.mark.parametrize("key", ["heads", "patch", "latent_dim", "n_layers", "n_points", "n_queries", "n_freqs",
                                 "decode_hidden", "image_height", "image_width"])
def test_model_size_below_one_is_rejected(key):
    with pytest.raises(ConfigError, match=rf"{key} must be >= 1, got 0"):
        parse_config(f"{key} = 0")


def test_negative_topk_is_rejected():
    with pytest.raises(ConfigError, match="topk must be >= 0, got -1"):
        parse_config("topk = -1")
    assert parse_config("topk = 0").topk == 0   # no memory carried between frames


OUT_OF_RANGE = [
    ("seed = -3", "seed must be >= 0, got -3"),
    ("bev_cells = 1", "bev_cells must be >= 2, got 1"),
    ("bev_extent = 0", "bev_extent must be finite and > 0, got 0.0"),
    ("bev_extent = -4", "bev_extent must be finite and > 0, got -4.0"),
    ("bev_extent = nan", "bev_extent must be finite and > 0, got nan"),
    ("n_freqs = -1", "n_freqs must be >= 1, got -1"),
    ("decode_hidden = -1", "decode_hidden must be >= 1, got -1"),
    ("threads = 0", "threads must be >= 1, got 0"),
    ("batch_scenes = 0", "batch_scenes must be >= 1, got 0"),
    ("sequence_length = -1", "sequence_length must be >= 0, got -1"),
]


@pytest.mark.parametrize("line,refused", OUT_OF_RANGE, ids=[line for line, _ in OUT_OF_RANGE])
def test_setting_out_of_range_is_rejected(line, refused):
    # each of these used to be coerced or to fail later with a bare ValueError
    with pytest.raises(ConfigError, match=refused):
        parse_config(line)
