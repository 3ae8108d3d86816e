import ast
from dataclasses import fields
from pathlib import Path

import pytest

import dualstream
from dualstream.configio import Config, ConfigError, config_from_dict, config_to_dict, parse_config


def test_unread_key_is_rejected():
    # the ground-truth lane width is fixed, so a key for it would be silently ignored
    with pytest.raises(ConfigError, match="seg_lane_width"):
        parse_config("seg_lane_width = 2.0")
    with pytest.raises(ConfigError, match="seg_lane_width"):
        config_from_dict({**config_to_dict(Config()), "seg_lane_width": 1.0})


def test_threads_key_is_rejected():
    # training takes its runner count from the machine (``worker_count``)
    # and gen-data runs on one thread, so a ``threads`` key would be
    # silently ignored
    with pytest.raises(ConfigError, match="threads"):
        parse_config("threads = 1")
    with pytest.raises(ConfigError, match="threads"):
        config_from_dict({**config_to_dict(Config()), "threads": 1})


def test_the_program_reads_no_environment_variable():
    # the program's inputs are the config, the CLI arguments, the dataset and
    # the CPU affinity; a variable read from the environment would be a hidden one
    hidden = {"environ", "environb", "getenv", "getenvb"}
    root = Path(dualstream.__file__).parent
    reads = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in hidden
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                reads.append(f"{path.relative_to(root)}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.relative_to(root)}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in hidden]
    assert reads == []


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
    ("batch_scenes = 0", "batch_scenes must be >= 1, got 0"),
    ("sequence_length = -1", "sequence_length must be >= 0, got -1"),
    ("velocity_norm = 0", "velocity_norm must be > 0, got 0.0"),
    ("range_z = 0", "range_z must be > 0, got 0.0"),
    ("ap_threshold_scale = 0", "ap_threshold_scale must be > 0, got 0.0"),
    ("cosine_floor = -1", "cosine_floor must be >= 0 and <= 1, got -1.0"),
    ("cosine_floor = 1.5", "cosine_floor must be >= 0 and <= 1, got 1.5"),
    ("track_max_dist = 0", "track_max_dist must be > 0, got 0.0"),
    ("track_max_age = -1", "track_max_age must be >= 0, got -1"),
    ("track_score_thresh = 2", "track_score_thresh must be >= 0 and <= 1, got 2.0"),
    ("track_score_thresh = -0.5", "track_score_thresh must be >= 0 and <= 1, got -0.5"),
    ("highspeed_vmin = -1", "highspeed_vmin must be >= 0, got -1.0"),
    ("focal_alpha = 1.5", "focal_alpha must be >= 0 and <= 1, got 1.5"),
    ("focal_gamma = -1", "focal_gamma must be >= 0, got -1.0"),
    ("loss_weight_seg = -1", "loss_weight_seg must be >= 0, got -1.0"),
    ("loss_weight_cls = -1", "loss_weight_cls must be >= 0, got -1.0"),
    ("loss_weight_center = -1", "loss_weight_center must be >= 0, got -1.0"),
    ("loss_weight_box = -1", "loss_weight_box must be >= 0, got -1.0"),
    ("fast_fraction = 2", "fast_fraction must be >= 0 and <= 1, got 2.0"),
    ("pedestrian_fraction = -1", "pedestrian_fraction must be >= 0 and <= 1, got -1.0"),
    ("pillar_heights = nan,inf", "pillar_heights must be finite, got 'nan,inf'"),
    ("pillar_heights = 0,-inf", "pillar_heights must be finite, got '0,-inf'"),
]


@pytest.mark.parametrize("line,refused", OUT_OF_RANGE, ids=[line for line, _ in OUT_OF_RANGE])
def test_setting_out_of_range_is_rejected(line, refused):
    # each of these used to be coerced or to fail later with a bare ValueError
    with pytest.raises(ConfigError, match=refused):
        parse_config(line)


@pytest.mark.parametrize("key,value", [("temporal_bev", "false"), ("temporal_bev", 1), ("latent_dim", 16.0),
                                       ("latent_dim", True), ("learning_rate", "0.1"), ("learning_rate", False),
                                       ("dtype", 32)])
def test_config_value_of_another_type_is_rejected_naming_its_key(key, value):
    with pytest.raises(ConfigError, match=f"config key '{key}' must be a"):
        config_from_dict({key: value})


def test_an_int_for_a_float_setting_is_stored_as_a_float():
    cfg = config_from_dict({"learning_rate": 1, "grad_clip": 10})
    assert (type(cfg.learning_rate), cfg.learning_rate, type(cfg.grad_clip)) == (float, 1.0, float)


def test_a_repeated_key_is_rejected_naming_both_lines():
    with pytest.raises(ConfigError, match="line 3: config key 'epochs' repeats line 1"):
        parse_config("epochs = 3\nseed = 1\nepochs = 5")
