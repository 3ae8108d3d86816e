"""The three benchmark workloads, each a seeded closed loop (one frame, step
or scene at a time, the next only after the previous one completes) driving
the public API in memory. README.md gives the reason for each workload.

Each workload offers:
  * ``install_probes(patches)``: hooks that the untraced run needs too
    (frame stamps for latency, output capture for the correctness checks);
  * ``setup(k)``: generate the inputs, build the model and warm up; returns
    the per-item digests of the warm-up so that repeated set-ups and the
    timed run can be compared bit for bit;
  * ``run(seconds=..., max_units=..., speed=...)``: the measured loop,
    returning a ``Run`` with per-item digests (loss, frame or read-back),
    the measured intervals and units, and the failed frames;
  * ``checks(run)``: run-level correctness checks, name -> bool.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualstream import __version__, heads, runner, trainkit
from dualstream import model as model_mod
from dualstream.cli import bev_from_config, world_from_config
from dualstream.configio import Config, config_to_dict
from dualstream.diffcore import active_tape, use_dtype
from dualstream.synthworld import dataset as synth_dataset
from speed import Speed, to_reference

clock = time.perf_counter


SCENES = 2   # scenes generated per train/eval set-up: one batch of 2


@dataclass(frozen=True)
class Size:
    """Input size. ``FULL`` is the benchmark; ``TINY`` keeps smoke tests fast."""

    config: dict = field(default_factory=dict)   # Config overrides
    setups: int = 3                              # set-ups per untraced run


FULL = Size()
TINY = Size(config=dict(scene_frames=4, image_height=32, image_width=64, bev_cells=8,
                        latent_dim=16, n_layers=1, n_queries=8, topk=4, decode_hidden=16),
            setups=2)


@dataclass
class Run:
    """Measured intervals of one loop. A unit ends with ``close_unit``,
    which marks it and times the speed kernel outside the measured time, so
    unit k lies between kernel samples k and k+1."""

    speed: Speed | None = None
    kernel_s: list = field(default_factory=list)    # speed kernel samples around units
    intervals: list = field(default_factory=list)   # measured (start, end) clock pairs
    marks: list = field(default_factory=list)       # (measured seconds, frames) at unit ends
    frames: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)     # one per step (train) or frame
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    _start: float | None = None

    def open(self) -> None:
        if self.speed is not None and not self.kernel_s:
            self.kernel_s.append(self.speed.sample())
        self._start = clock()

    def close(self) -> None:
        if self._start is not None:
            self.intervals.append((self._start, clock()))
            self._start = None

    def close_unit(self) -> None:
        self.close()
        self.marks.append((self.seconds, self.frames))
        if self.speed is not None:
            self.kernel_s.append(self.speed.sample())

    @property
    def seconds(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def units(self, reference: bool = False) -> list[tuple[float, int]]:
        """(seconds, frames) per unit; in reference seconds if asked."""
        out, last_s, last_f = [], 0.0, 0
        for k, (s, f) in enumerate(self.marks):
            sec = s - last_s
            if reference:
                kernel = (self.kernel_s[k] + self.kernel_s[k + 1]) / 2
                sec = to_reference(sec, kernel)
            out.append((sec, f - last_f))
            last_s, last_f = s, f
        return out

    def frames_per_s(self, reference: bool = False) -> float:
        """Frames of whole units per second of their measured time."""
        units = self.units(reference)
        seconds = sum(s for s, _ in units)
        return sum(f for _, f in units) / seconds if seconds else float("nan")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _generate(cfg: Config, seeds: list[int], out: Path) -> None:
    """Write a dataset the way ``dualstream gen-data`` does, single-threaded."""
    synth_dataset.generate_and_write(
        seeds, out, world_from_config(cfg), bev_from_config(cfg),
        config_echo=config_to_dict(cfg), ranges=cfg.detection_ranges(),
        schedule_kind=cfg.schedule, image_size=(cfg.image_height, cfg.image_width),
        workers=1,
    )


def _require(patches, owner, attr, make_wrapper) -> None:
    if not patches.wrap(owner, attr, make_wrapper):
        raise RuntimeError(f"probe target {owner.__name__}.{attr} is missing")


class _Stop(Exception):
    """Raised from the training step callback to end the measured loop."""


class TrainStream:
    """Streaming training at the default config (interaction ``full``,
    temporal BEV, full camera schedule, 2 scenes per batch, truncation
    horizon 2): forward, loss, backward, clip and AdamW on every frame, and
    the checkpoint the CLI writes at each epoch end. One unit is one
    truncation window; a run stops only at a window end."""

    name = "train_stream"
    reference_units = 2

    def __init__(self, seed: int, size: Size, work: Path):
        # epochs only bound the run; it ends by time, at a window end
        self.cfg = Config(seed=seed, epochs=1000, **size.config)
        self.seeds = [seed * 1000 + k for k in range(SCENES)]
        self.work = work
        self.data = None

    def install_probes(self, patches) -> None:
        pass

    def setup(self, k: int) -> list:
        out = self.work / f"data{k}"
        _generate(self.cfg, self.seeds, out)
        self.data = synth_dataset.Dataset(out)
        return self.run(max_steps=1).digests   # warm-up: the first step

    def run(self, seconds: float | None = None, max_units: int | None = None,
            max_steps: int | None = None, speed: Speed | None = None) -> Run:
        cfg, data = self.cfg, self.data
        horizon = cfg.truncation_horizon
        per_step = min(cfg.batch_scenes, data.n_scenes())
        last_frame = min(m["n_frames"] for m in data.scenes) - 1
        with use_dtype(cfg.np_dtype()):
            model = model_mod.DualStreamModel(cfg)
        opt = trainkit.OptimizerState.fresh(model.store)
        run = Run(speed=speed, extra={"model": model, "opt": opt, "losses": [], "checkpoints": 0})

        def on_step(row):
            run.frames += per_step
            run.digests.append(repr(row.loss))
            run.extra["losses"].append(row.loss)
            run.extra["step"] = row.step
            if row.frame == last_frame:   # epoch end: the CLI saves here
                trainkit.save_checkpoint(self.work / "ckpt", model, opt, cfg, row.step)
                run.extra["checkpoints"] += 1
            if max_steps is not None and row.step >= max_steps:
                raise _Stop
            if row.step % horizon == 0:
                run.close_unit()
                if max_units is not None and len(run.marks) >= max_units:
                    raise _Stop
                if seconds is not None and run.seconds >= seconds:
                    raise _Stop
                run.open()

        run.open()
        try:
            trainkit.streaming_train(data, model, cfg, opt=opt, on_step=on_step)
        except _Stop:
            pass
        except Exception:   # a frame that raised counts as failed; the run ends
            run.frames += per_step
            run.failed += per_step
            run.errors.append(traceback.format_exc(limit=3))
        finally:
            tape = active_tape()
            tape.drop_before(tape.position())
        run.close()
        return run

    def checks(self, run: Run) -> dict[str, bool]:
        model, opt = run.extra["model"], run.extra["opt"]
        path = self.work / "final"
        trainkit.save_checkpoint(path, model, opt, self.cfg, run.extra.get("step", 0))
        cfg, params, opt2, _ = trainkit.load_checkpoint(path)
        reload_ok = (
            cfg == self.cfg and opt2.step == opt.step
            and set(params) == set(model.store.names())
            and all(same_bits(params[n], t.data) and same_bits(opt2.m[n], opt.m[n])
                    and same_bits(opt2.v[n], opt.v[n]) for n, t in model.store.items())
        )
        return {
            "losses_finite": all(math.isfinite(x) for x in run.extra["losses"]),
            "checkpoint_reloads_bitwise": reload_ok,
        }

    def detail(self, run: Run) -> dict:
        losses = run.extra["losses"]
        return {
            "loss_mean": float(np.mean(losses)) if losses else None,
            "steps": len(losses),
            "epoch_checkpoints": run.extra["checkpoints"],
            "losses": [repr(x) for x in losses],
        }


class EvalBidirAlternating:
    """``run_inference`` with bidirectional interaction and the alternating
    camera schedule, greedy tracker, then ``assemble_report`` with the
    high-velocity slice, inside the measured interval. One unit is one
    scene; units cycle over the generated scenes."""

    name = "eval_bidir_alternating"
    reference_units = 1
    SLICES = ("all", "high-velocity")

    def __init__(self, seed: int, size: Size, work: Path):
        # fast agents so that the high-velocity slice holds ground truth
        self.cfg = Config(seed=seed, interaction="bidirectional", fast_fraction=0.5, **size.config)
        self.seeds = [seed * 1000 + 500 + k for k in range(SCENES)]
        self.work = work
        self.data = None
        self.model = None
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._outputs: list[tuple[bool, bytes]] = []

    def install_probes(self, patches) -> None:
        def load(orig):
            def stamped(*args, **kwargs):
                self._starts.append(clock())
                return orig(*args, **kwargs)
            return stamped

        def forward(orig):
            def captured(*args, **kwargs):
                res = orig(*args, **kwargs)
                seg = res.seg_logits.data
                boxes = [d.box for d in res.detections]
                finite = bool(np.isfinite(seg).all()) and all(
                    np.isfinite(b.center).all() and np.isfinite(b.size).all()
                    and np.isfinite(b.velocity).all() and math.isfinite(b.yaw)
                    and math.isfinite(b.score) for b in boxes)
                self._outputs.append((finite, seg.tobytes()))
                return res
            return captured

        def track(orig):
            def stamped(*args, **kwargs):
                out = orig(*args, **kwargs)
                self._ends.append(clock())
                return out
            return stamped

        _require(patches, synth_dataset.Dataset, "load_frame", load)
        _require(patches, model_mod.DualStreamModel, "forward_frame", forward)
        _require(patches, heads.TrackerState, "step", track)

    def setup(self, k: int) -> list:
        out = self.work / f"data{k}"
        _generate(self.cfg, self.seeds, out)
        self.data = synth_dataset.Dataset(out)
        with use_dtype(self.cfg.np_dtype()):
            self.model = model_mod.DualStreamModel(self.cfg)
        return self.run(max_units=1, first_frames=2).digests

    def _scene_view(self, u: int, first_frames: int | None):
        meta = self.data.scenes[u % len(self.data.scenes)]
        view = copy.copy(self.data)
        view.scenes = [meta if first_frames is None else dict(meta, n_frames=first_frames)]
        return view

    def run(self, seconds: float | None = None, max_units: int | None = None,
            first_frames: int | None = None, speed: Speed | None = None) -> Run:
        run = Run(speed=speed, extra={"latency_ms": [], "units": []})
        run.open()
        for u in itertools.count():
            if max_units is not None and u >= max_units:
                break
            if seconds is not None and run.seconds >= seconds:
                break
            self._starts.clear()
            self._ends.clear()
            self._outputs.clear()
            try:
                out = runner.run_inference(self._scene_view(u, first_frames), self.model, self.cfg,
                                           schedule_override="alternating")
            except Exception:   # the frame that raised fails; the scene ends there
                run.frames += len(self._starts)
                run.failed += 1
                run.errors.append(traceback.format_exc(limit=3))
                continue
            run.extra["units"].append(out)
            frames = out.records[0].frames
            run.frames += len(frames)
            for fr, start, end, (finite, seg) in zip(frames, self._starts, self._ends, self._outputs):
                run.extra["latency_ms"].append((end - start) * 1e3)
                run.failed += not finite
                run.digests.append(_digest(
                    *[np.r_[b.center, b.size, b.yaw, b.velocity, b.score, b.label] for b in fr.pred_boxes],
                    np.array([-1 if i is None else i for i in fr.track_ids]),
                    np.frombuffer(seg, dtype=np.uint8)))
            run.close_unit()
            run.open()
        run.extra["report"] = self.report(run.extra["units"])
        run.close()
        return run

    def report(self, units):
        merged = runner.InferenceOutput(
            records=[r for o in units for r in o.records],
            seg_intersection=sum((o.seg_intersection for o in units), np.zeros(3, dtype=np.int64)),
            seg_union=sum((o.seg_union for o in units), np.zeros(3, dtype=np.int64)),
        )
        return runner.assemble_report(merged, self.cfg, run_id=f"bench-{self.cfg.seed}",
                                      code_version=__version__, slices=self.SLICES)

    def checks(self, run: Run) -> dict[str, bool]:
        report = run.extra["report"]
        fractions = [report.seg[k] for k in report.seg]
        for m in report.slices.values():
            fractions += [m.mAP, m.NDS, m.AMOTA, m.recall]
            fractions += [ap for per_thr in m.per_class_ap.values() for ap in per_thr.values()]
        return {
            "report_metrics_in_unit_interval": all(
                math.isfinite(x) and 0.0 <= x <= 1.0 for x in fractions),
            "report_has_high_velocity_slice": "high_velocity" in report.slices,
        }

    def detail(self, run: Run) -> dict:
        lat = run.extra["latency_ms"]
        report = run.extra["report"]
        out = {"frame_latency_samples": len(lat)}
        if lat:
            p50, p90 = np.percentile(lat, [50, 90])
            out.update(frame_ms_p50=float(p50), frame_ms_p90=float(p90),
                       frames_beyond_p90=int(sum(x > p90 for x in lat)))
        out["report"] = {name: {"mAP": m.mAP, "NDS": m.NDS, "AMOTA": m.AMOTA}
                         for name, m in report.slices.items()}
        out["report"]["seg_miou"] = report.seg["miou"]
        return out


class GenData:
    """``generate_and_write`` of two scenes per unit (single-threaded), then
    every frame read back through ``Dataset.load_frame``. Only generation
    and read-back are measured; the comparison against the frames
    ``build_frame`` produced and the clean-up are not."""

    name = "gen_data"
    reference_units = 2
    SCENES_PER_UNIT = 2

    def __init__(self, seed: int, size: Size, work: Path):
        # rendering cost grows with the agent count (about 25 ms per frame at
        # 3 agents, 33 ms at 6), so a fixed count makes every unit the same work
        self.cfg = Config(seed=seed, agents_min=5, agents_max=5, **size.config)
        self.seed = seed
        self.work = work
        self._built: list = []

    def install_probes(self, patches) -> None:
        def capture(orig):
            def captured(*args, **kwargs):
                frame = orig(*args, **kwargs)
                self._built.append(frame)
                return frame
            return captured

        _require(patches, synth_dataset, "build_frame", capture)

    def setup(self, k: int) -> list:
        return self.run(max_units=1).digests   # warm-up: the first unit

    def run(self, seconds: float | None = None, max_units: int | None = None,
            speed: Speed | None = None) -> Run:
        run = Run(speed=speed)
        for u in itertools.count():
            if max_units is not None and u >= max_units:
                break
            if seconds is not None and run.seconds >= seconds:
                break
            out = self.work / f"gen{u}"
            self._built.clear()
            k = self.SCENES_PER_UNIT
            run.open()
            _generate(self.cfg, [self.seed * 1000 + k * u + i for i in range(k)], out)
            data = synth_dataset.Dataset(out)
            frames = [data.load_frame(m["id"], t) for m in data.scenes for t in range(m["n_frames"])]
            run.frames += len(frames)
            run.close_unit()
            for got, want in itertools.zip_longest(frames, self._built):
                ok = got is not None and want is not None and same_frame(got, want)
                run.failed += not ok
                run.digests.append(frame_digest(got) if got is not None else None)
            shutil.rmtree(out)
        return run

    def checks(self, run: Run) -> dict[str, bool]:
        return {}

    def detail(self, run: Run) -> dict:
        return {}


def frame_digest(f) -> str:
    images = [img for _, img in sorted(f.images.items()) if img is not None]
    boxes = [np.r_[b.center, b.size, b.yaw, b.velocity, b.label] for b in f.gt_boxes]
    return _digest(*images, *boxes, np.array(f.gt_ids), f.gt_seg)


def same_frame(a, b) -> bool:
    """Read-back frame ``a`` equals built frame ``b``: images, boxes, ids,
    seg, pose and schedule."""
    if a.images.keys() != b.images.keys() or a.availability != b.availability:
        return False
    for name, img in a.images.items():
        other = b.images[name]
        if (img is None) != (other is None) or (img is not None and not same_bits(img, other)):
            return False
    if a.gt_ids != b.gt_ids or len(a.gt_boxes) != len(b.gt_boxes):
        return False
    for p, q in zip(a.gt_boxes, b.gt_boxes):
        if not (same_bits(p.center, q.center) and same_bits(p.size, q.size)
                and same_bits(p.velocity, q.velocity) and p.yaw == q.yaw and p.label == q.label):
            return False
    return (a.index == b.index and same_bits(a.gt_seg, b.gt_seg)
            and float(a.ego_pose.rotation) == float(b.ego_pose.rotation)
            and same_bits(a.ego_pose.translation, b.ego_pose.translation)
            and same_bits(a.ego_velocity, b.ego_velocity))


WORKLOADS = {w.name: w for w in (TrainStream, EvalBidirAlternating, GenData)}
