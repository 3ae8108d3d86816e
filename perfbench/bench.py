"""One benchmark run of one workload, in the current process.

    python3 perfbench/bench.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``run.py`` starts this in a fresh process with BLAS pinned to one thread;
run it directly only with the same environment. It prints one detail line
(``{"detail": ...}``: environment, checks, set-up times, workload extras)
and then, as its last line, the result object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json untraced, the per-layer metrics traced.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np
import scipy

from dualstream import dualformer, heads, runner, trainkit
from dualstream import model as model_mod
from dualstream.diffcore.tensor import Tape
from dualstream.synthworld import dataset as synth_dataset

from tracer import BACKWARD_OPS, Patches, Tracer, trace_tape
from speed import Speed, to_reference
from workloads import FULL, WORKLOADS, Size, clock

ROOT = Path(__file__).resolve().parent.parent

# (span, owner, attribute): the layer calls the traced run times. Blocks of a
# dual-stream layer are looked up in dualformer's namespace, the per-frame
# steps in model's, so those are the attributes replaced.
LAYER_SPANS = [
    ("synthworld.scene", synth_dataset, "generate_scene"),
    ("synthworld.build_frame", synth_dataset, "build_frame"),
    ("synthworld.render", synth_dataset, "render_camera"),
    ("synthworld.rasterize", synth_dataset, "rasterize_gt_bev"),
    ("synthworld.write", synth_dataset, "write_tensor"),
    ("synthworld.write", synth_dataset, "_dump_json"),
    ("synthworld.load_frame", synth_dataset.Dataset, "load_frame"),
    ("synthworld.read", synth_dataset, "read_tensor"),
    ("model.forward_frame", model_mod.DualStreamModel, "forward_frame"),
    ("diffcore.patch_embed", model_mod, "patch_embed"),
    ("dynstream.propagate", model_mod, "propagate"),
    ("dynstream.spawn", model_mod, "spawn_queries"),
    ("dynstream.select_topk", model_mod, "select_topk"),
    ("statstream.warp_bev", model_mod, "warp_bev"),
    ("statstream.seg_head", model_mod, "segmentation_head"),
    ("heads.decode", model_mod, "decode_boxes"),
    ("dualformer.stack", model_mod, "forward_stack"),
    ("dualformer.obj_self", dualformer, "_obj_self_attention"),
    ("dualformer.obj_image", dualformer, "_obj_image_cross_attention"),
    ("dualformer.bev_temporal", dualformer, "temporal_grid_attention"),
    ("dualformer.bev_image", dualformer, "bev_image_cross_attention"),
    ("dualformer.dyn_static", dualformer, "_dynamic_static_core"),
    ("dualformer.static_dyn", dualformer, "_static_dynamic_core"),
    ("dualformer.ffn", dualformer, "_ffn"),
    ("heads.loss", trainkit, "frame_loss"),
    ("heads.match", trainkit, "hungarian_match"),
    ("heads.track", heads.TrackerState, "step"),
    ("diffcore.backward", trainkit, "backward"),
    ("trainkit.clip", trainkit, "clip_gradients"),
    ("trainkit.adamw", trainkit, "optimizer_step"),
    ("trainkit.checkpoint", trainkit, "save_checkpoint"),
    ("evalkit.report", runner, "assemble_report"),
]


def install_tracer(patches: Patches, tracer: Tracer) -> None:
    def count_pairs(assignment):
        tracer.counts["matched_pairs"] += len(assignment.pairs)

    for span, owner, attr in LAYER_SPANS:
        after = count_pairs if span == "heads.match" else None
        patches.wrap(owner, attr, lambda fn, span=span, after=after: tracer.timed(span, fn, after))
    trace_tape(patches, tracer, Tape)


def layer_metrics(tracer: Tracer, run, reference, reference_units: int) -> dict[str, float]:
    """Per-layer values: ``<span>_ms`` is self time in ms per frame, except
    ``diffcore.backward_ms`` (the whole backward pass, whose self time is
    ``diffcore.backward.replay_ms``), ``trainkit.checkpoint_ms`` (per save)
    and ``evalkit.report_ms`` (per run)."""
    inside = run.intervals
    frames = max(run.frames, 1)
    self_s = tracer.self_times(inside)
    totals = tracer.totals(inside)
    out = {f"{span}_ms": 1e3 * self_s.get(span, 0.0) / frames for span, _, _ in LAYER_SPANS}
    for op in BACKWARD_OPS + ("other",):
        out[f"diffcore.backward.{op}_ms"] = 1e3 * self_s.get(f"diffcore.backward.{op}", 0.0) / frames
    out["diffcore.backward.replay_ms"] = out["diffcore.backward_ms"]
    out["diffcore.backward_ms"] = 1e3 * totals.get("diffcore.backward", (0.0, 0))[0] / frames
    saves = tracer.totals().get("trainkit.checkpoint", (0.0, 0))
    out["trainkit.checkpoint_ms"] = 1e3 * saves[0] / max(saves[1], 1)
    reports = totals.get("evalkit.report", (0.0, 0))
    out["evalkit.report_ms"] = 1e3 * reports[0] / max(reports[1], 1)
    out["diffcore.tape_entries_per_frame"] = tracer.counts["tape_entries"] / frames
    out["diffcore.tape_getitem_per_frame"] = tracer.counts["tape_getitem"] / frames
    out["heads.matched_pairs_per_frame"] = tracer.counts["matched_pairs"] / frames
    out["trace.coverage_pct"] = 100.0 * tracer.coverage(inside)
    out["trace.frames_per_ref_s"] = run.frames_per_s(reference=True)
    out["trace.kernel_ms"] = 1e3 * statistics.median(run.kernel_s)
    # the same first units, untraced then traced, in reference seconds
    untraced_s = sum(s for s, _ in reference.units(reference=True)[:reference_units])
    traced = run.units(reference=True)[:reference_units]
    traced_s = sum(s for s, _ in traced) if len(traced) == reference_units else float("nan")
    out["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    out["src_loc"] = float(sum(len(p.read_text(encoding="utf-8").splitlines())
                               for p in sorted((ROOT / "src").rglob("*.py"))))
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    patches = Patches()
    tracer = None
    try:
        wl = WORKLOADS[name](seed, size, work)
        wl.install_probes(patches)
        speed = Speed()
        setup_s, setup_ref_s, warm = [], [], []
        for k in range(1 if trace else size.setups):
            before = speed.sample()
            t0 = clock()
            warm.append(wl.setup(k))
            setup_s.append(clock() - t0)
            setup_ref_s.append(to_reference(setup_s[-1], (before + speed.sample()) / 2))
            shutil.rmtree(work / f"data{k - 1}", ignore_errors=True)
        reference = None
        if trace:
            reference = wl.run(max_units=wl.reference_units, speed=speed)
            tracer = Tracer()
            install_tracer(patches, tracer)
        run = wl.run(seconds=seconds, speed=speed)
        checks = wl.checks(run)
        checks["set_ups_agree_bitwise"] = all(w == warm[0] for w in warm)
        checks["run_repeats_warm_up_bitwise"] = run.digests[:len(warm[0])] == warm[0]
        if trace:
            checks["traced_equals_untraced_bitwise"] = (
                run.digests[:len(reference.digests)] == reference.digests)
            if "report" in run.extra:
                units = run.extra["units"][:wl.reference_units]
                checks["traced_report_equals_untraced"] = (
                    wl.report(units).to_json() == reference.extra["report"].to_json())
        detail = wl.detail(run)
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)

    n_failed = run.failed + sum(not ok for ok in checks.values())
    attempted = run.frames + len(checks)
    if trace:
        values = layer_metrics(tracer, run, reference, wl.reference_units)
        wanted = spec["per_layer"]
    else:
        values = {
            "frames_per_ref_s": run.frames_per_s(reference=True),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_ref_s),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": n_failed == 0, "attempted": attempted, "failed": n_failed, "metrics": metrics}
    detail.update(
        workload=name, seed=seed, trace=trace, frames=run.frames, failed_frames=run.failed,
        failed_frac=n_failed / attempted, checks=checks, frames_per_s=run.frames_per_s(),
        setup_wall_s=setup_s, setup_ref_s=setup_ref_s, measured_s=run.seconds,
        unit_s=[s for s, _ in run.units()], kernel_ms=[1e3 * k for k in run.kernel_s],
        errors=run.errors, missing_spans=patches.missing,
        environment=environment(),
    )
    if tracer is not None:
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps({"intervals": run.intervals, **tracer.dump()}), encoding="utf-8")
        detail["trace_file"] = str(path.relative_to(ROOT))
    return result, detail


def openblas_threads():
    """Thread count OpenBLAS reports at run time, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
