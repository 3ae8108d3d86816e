"""Command-line entry point: gen-data, train, eval, ablate, inspect.

Exit codes: 0 ok, 2 config error, 3 IO error, 4 numeric failure. Every
artifact directory receives exactly one manifest.json tying the resolved
config, the seed and the input hashes together.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .configio import Config, ConfigError, config_to_dict, content_hash, load_config, serialize_config
from .diffcore.dstn import DstnError, atomic_write_text, read_header, read_json
from .model import DualStreamModel
from .runner import assemble_report, run_inference
from .statstream import BevSpec
from .synthworld.dataset import Dataset, DatasetError, generate_and_write
from .synthworld.scene import WorldConfig, SceneConfigError
from .trainkit import (
    NumericError,
    OptimizerState,
    TrainResult,
    model_from_checkpoint,
    save_checkpoint,
    streaming_train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def world_from_config(cfg: Config) -> WorldConfig:
    return WorldConfig(
        duration=cfg.scene_frames, dt=cfg.scene_dt,
        agents_min=cfg.agents_min, agents_max=cfg.agents_max,
        speed_min=cfg.agent_speed_min, speed_max=cfg.agent_speed_max,
        fast_fraction=cfg.fast_fraction, fast_speed_min=cfg.fast_speed_min,
        fast_speed_max=cfg.fast_speed_max, pedestrian_fraction=cfg.pedestrian_fraction,
        ego_speed=cfg.ego_speed,
    )


def bev_from_config(cfg: Config) -> BevSpec:
    e = cfg.bev_extent
    return BevSpec(dims=(cfg.bev_cells, cfg.bev_cells), extent=(-e, e, -e, e))


def require_config_bev(data: Dataset, cfg: Config, source: str) -> None:
    """Refuse a dataset whose BEV grid is not the one ``cfg`` builds the model on."""
    want, got = bev_from_config(cfg), data.bev_spec
    if (tuple(got.dims), tuple(got.extent)) != (want.dims, want.extent):
        raise ConfigError(f"dataset BEV grid {tuple(got.dims)} over {tuple(got.extent)} m does not match the "
                          f"{source}'s {want.dims} over {want.extent} m")


def write_manifest(out_dir: Path, command: str, cfg: Config, seed: int,
                   config_path: str = "", data_hash: str = "") -> None:
    manifest = {
        "command": command,
        "config_path": config_path,
        "config": config_to_dict(cfg),
        "seed": seed,
        "out_dir": str(out_dir),
        "inputs_hash": content_hash(
            serialize_config(cfg).encode(), data_hash.encode(), __version__.encode()
        ),
        "code_version": __version__,
    }
    atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def dataset_hash(data_dir: Path) -> str:
    index = data_dir / "index.json"
    if not index.exists():
        raise DatasetError(f"{index}: missing dataset index")
    return content_hash(index.read_bytes())


def parse_seeds(spec: str) -> list[int]:
    lo, dots, hi = spec.partition("..")
    try:
        seeds = list(range(int(lo), int(hi) + 1)) if dots else [int(spec)]
    except ValueError:
        raise ConfigError(f"bad seed spec {spec!r}: expected A..B or one integer") from None
    if not seeds:
        raise ConfigError(f"empty seed range {spec!r}")
    if seeds[0] < 0:
        raise ConfigError(f"bad seed spec {spec!r}: seeds must be >= 0")
    return seeds


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DatasetError(f"{out}: output directory not empty (use --force)")
    seeds = parse_seeds(args.seeds) if args.seeds else [cfg.seed]
    generate_and_write(
        seeds, out, world_from_config(cfg), bev_from_config(cfg),
        config_echo=config_to_dict(cfg), ranges=cfg.detection_ranges(),
        schedule_kind=cfg.schedule, image_size=(cfg.image_height, cfg.image_width),
    )
    write_manifest(out, "gen-data", cfg, seeds[0], config_path=str(args.config))
    n_frames = len(seeds) * cfg.scene_frames
    print(f"wrote {len(seeds)} scenes, {n_frames} frames to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    data = Dataset(args.data)
    out = Path(args.out)
    start_epoch = 0
    opt = None
    if args.resume:
        model, opt, cfg, _ = model_from_checkpoint(args.resume)
        if args.config:
            file_cfg = load_config(args.config)
            if config_to_dict(file_cfg) != config_to_dict(cfg):
                raise ConfigError("--config disagrees with the checkpoint's config")
        start_epoch = read_json(Path(args.resume) / "meta.json", DstnError, lambda meta: int(meta.get("epoch", 0)))
    else:
        if not args.config:
            raise ConfigError("train needs --config (or --resume)")
        cfg = load_config(args.config)
        model = DualStreamModel(cfg)
    require_config_bev(data, cfg, "checkpoint" if args.resume else "config")
    first = max(start_epoch, 1)   # a resumed run cannot stop before the epoch it resumes at
    if args.stop_after_epoch is not None and not first <= args.stop_after_epoch <= cfg.epochs:
        raise ConfigError(f"--stop-after-epoch must lie in {first}..{cfg.epochs}, got {args.stop_after_epoch}")

    result = TrainResult()
    epoch_end = args.stop_after_epoch or cfg.epochs
    opt = opt or OptimizerState.fresh(model.store)
    for epoch in range(start_epoch, epoch_end):
        res, opt = streaming_train(data, model, cfg, opt=opt, epochs=range(epoch, epoch + 1))
        result.rows.extend(res.rows)
        save_checkpoint(out / f"ckpt_epoch_{epoch + 1}", model, opt, cfg, opt.step, epoch=epoch + 1)
    final = out / "checkpoint"
    save_checkpoint(final, model, opt, cfg, opt.step, epoch=epoch_end)

    atomic_write_text(out / "loss.csv", result.to_csv())
    write_manifest(out, "train", cfg, cfg.seed,
                   config_path=str(args.config or args.resume), data_hash=dataset_hash(Path(args.data)))
    print(f"trained to step {opt.step} (epoch {epoch_end}/{cfg.epochs}); checkpoint at {final}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, _, cfg, step = model_from_checkpoint(args.ckpt)
    data = Dataset(args.data)
    require_config_bev(data, cfg, "checkpoint")
    out = Path(args.out)
    inference = run_inference(data, model, cfg, schedule_override=args.schedule)
    slices = ("all", "high-velocity") if args.slice == "high-velocity" else ("all",)
    run_id = content_hash(str(args.ckpt).encode(), str(args.data).encode(),
                          (args.schedule or "").encode(), (args.slice or "").encode())[:16]
    report = assemble_report(inference, cfg, run_id=run_id, code_version=__version__, slices=slices)
    atomic_write_text(out / "report.json", report.to_json())
    atomic_write_text(out / "report.csv", report.to_csv())
    write_manifest(out, "eval", cfg, cfg.seed, config_path=str(args.ckpt),
                   data_hash=dataset_hash(Path(args.data)))
    m = report.slices["all"]
    print(f"eval step={step} mAP={m.mAP:.4f} NDS={m.NDS:.4f} AMOTA={m.AMOTA:.4f} "
          f"IDS={m.IDS} seg_mIoU={report.seg['miou']:.4f}")
    return EXIT_OK


ABLATION_GRID = [
    ("full_temporal", "full", True),
    ("full_static", "full", False),
    ("none_temporal", "none", True),
    ("none_static", "none", False),
    ("bidir_temporal", "bidirectional", True),
    ("bidir_static", "bidirectional", False),
]


def cmd_ablate(args) -> int:
    base = load_config(args.config)
    data = Dataset(args.data)
    require_config_bev(data, base, "config")
    out = Path(args.out)
    data_h = dataset_hash(Path(args.data))
    rows = ["variant,interaction,temporal_bev,mAP,NDS,lanes_iou,AMOTA,IDS"]
    for name, interaction, temporal in ABLATION_GRID:
        cfg = replace(base, interaction=interaction, temporal_bev=temporal)
        model = DualStreamModel(cfg)
        result, opt = streaming_train(data, model, cfg)
        vdir = out / name
        save_checkpoint(vdir / "checkpoint", model, opt, cfg, opt.step, epoch=cfg.epochs)
        atomic_write_text(vdir / "loss.csv", result.to_csv())
        inference = run_inference(data, model, cfg)
        report = assemble_report(inference, cfg, run_id=name, code_version=__version__)
        atomic_write_text(vdir / "report.json", report.to_json())
        atomic_write_text(vdir / "report.csv", report.to_csv())
        write_manifest(vdir, "ablate", cfg, cfg.seed, config_path=str(args.config), data_hash=data_h)
        m = report.slices["all"]
        rows.append(f"{name},{interaction},{temporal},{m.mAP!r},{m.NDS!r},"
                    f"{report.seg['lanes']!r},{m.AMOTA!r},{m.IDS}")
        print(f"[{name}] mAP={m.mAP:.4f} NDS={m.NDS:.4f} AMOTA={m.AMOTA:.4f} IDS={m.IDS}")
    atomic_write_text(out / "ablation.csv", "\n".join(rows) + "\n")
    write_manifest(out, "ablate", base, base.seed, config_path=str(args.config), data_hash=data_h)
    print(f"wrote {out / 'ablation.csv'}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if (path / "meta.json").exists():
        meta, names = read_json(path / "meta.json", DstnError,
                                lambda meta: (meta, [str(name) for name in meta.get("param_names", [])]))
        print(f"checkpoint: step={meta.get('step')} epoch={meta.get('epoch', '?')} "
              f"version={meta.get('format_version')}")
        params = [e for e in read_header(path / "state.dstn")[0] if e.name.startswith("params/")]
        print(f"parameters: {len(params)} tensors, {sum(e.size for e in params)} scalars")
        for name in names[:10]:
            print(f"  {name}")
        if len(names) > 10:
            print(f"  ... {len(names) - 10} more")
        return EXIT_OK
    if path.suffix == ".dstn":
        entries, meta = read_header(path)
        print(f"dstn: {len(entries)} entries, {sum(e.size for e in entries)} scalars")
        for e in entries:
            print(f"  {e.name}  {e.dtype.name}  {e.shape}")
        print(f"meta keys: {', '.join(sorted(meta)) or '(none)'}")
        return EXIT_OK
    if path.name.endswith(".json") and path.exists():
        print(json.dumps(read_json(path), indent=2, sort_keys=True))
        return EXIT_OK
    if (path / "index.json").exists():
        data = Dataset(path)
        print(f"dataset: {data.n_scenes()} scenes, dt={data.dt}")
        for s in data.scenes:
            print(f"  scene {s['id']}: {s['n_frames']} frames (seed {s['seed']})")
        return EXIT_OK
    raise DatasetError(f"{path}: nothing recognizable to inspect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualstream",
                                     description="dual-stream perception on a synthetic driving world")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate and write a synthetic dataset")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seeds", default=None, help="A..B inclusive, or a single seed")
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="streaming training")
    t.add_argument("--config", default=None)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--resume", default=None)
    t.add_argument("--stop-after-epoch", type=int, default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--slice", choices=["high-velocity"], default=None)
    e.add_argument("--schedule", choices=["alternating"], default=None)
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("ablate", help="train and evaluate the variant grid")
    a.add_argument("--config", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--out", required=True)
    a.set_defaults(fn=cmd_ablate)

    i = sub.add_parser("inspect", help="pretty-print a checkpoint, report, dataset or .dstn file")
    i.add_argument("path")
    i.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, SceneConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DatasetError, DstnError, FileNotFoundError, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
