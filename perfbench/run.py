"""Benchmark entry point. Run it from the repository root.

One workload, one run (the form BENCHMARK.json's ``command`` takes):

    python3 perfbench/run.py --workload train_stream --seed 1 --seconds 20 --trace 0

Every workload, untraced then traced, with the end-to-end table, the traced
per-layer table and the checks of README.md's predictions:

    python3 perfbench/run.py [--seed 1] [--seconds 20]

Each run is a fresh process (bench.py) whose environment pins BLAS to one
thread before numpy is imported, so that peak RSS and BLAS threading are per
run. The last line a run prints is its result object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, capture: bool):
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S, check=False,
                          stdout=subprocess.PIPE if capture else None, text=True)


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def run_all(spec: dict, seed: int, seconds: float) -> int:
    names = [w["name"] for w in spec["workloads"]]
    runs = {}
    for name in names:
        for trace in (0, 1):
            proc = run_child(name, seed, seconds, trace, capture=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            lines = proc.stdout.strip().splitlines()
            runs[name, trace] = (json.loads(lines[-1]), json.loads(lines[-2])["detail"])

    print(f"seed {seed}, {seconds:g} s per run; environment: "
          f"{json.dumps(runs[names[0], 0][1]['environment'])}")
    print("\nend-to-end (untraced)")
    for name in names:
        result, detail = runs[name, 0]
        cells = [f"{k}={_fmt(v['value'])} {v['unit']}" for k, v in result["metrics"].items()]
        cells.append(f"failed_frac={_fmt(detail['failed_frac'])}")
        for key, unit in (("frames_per_s", "frames/s wall"), ("frame_ms_p50", "ms"),
                          ("frame_ms_p90", "ms"), ("loss_mean", "")):
            if key in detail:
                cells.append(f"{key}={_fmt(detail[key])} {unit}".rstrip())
        if "frame_latency_samples" in detail:
            cells.append(f"latency samples={detail['frame_latency_samples']} "
                         f"(beyond p90: {detail.get('frames_beyond_p90')})")
        print(f"  {name}: " + ", ".join(cells))

    print("\nper layer (traced; ms per frame of self time unless the unit says otherwise)")
    print("  " + f"{'metric':40s} {'unit':12s}" + "".join(f"{n:>24s}" for n in names))
    for m in spec["per_layer"]:
        row = [runs[n, 1][0]["metrics"][m["name"]]["value"] for n in names]
        print("  " + f"{m['name']:40s} {m['unit']:12s}" + "".join(f"{v:24.4f}" for v in row))

    layer = {n: {k: v["value"] for k, v in runs[n, 1][0]["metrics"].items()} for n in names}
    backward = [k for k in layer[names[0]] if k.startswith("diffcore.backward")]
    checks = {
        "diffcore.backward.* non-zero only on train_stream": layer["train_stream"][
            "diffcore.backward_ms"] > 0 and all(layer[n][k] == 0 for n in names
                                                if n != "train_stream" for k in backward),
        "dualformer.static_dyn_ms non-zero only on eval_bidir_alternating": all(
            (layer[n]["dualformer.static_dyn_ms"] > 0) == (n == "eval_bidir_alternating") for n in names),
        "no diffcore or dualformer span on gen_data": all(
            layer["gen_data"][k] == 0 for k in layer["gen_data"]
            if k.startswith(("diffcore.", "dualformer."))),
        "spans cover >= 90% of the loop on train_stream and eval_bidir_alternating": all(
            layer[n]["trace.coverage_pct"] >= 90.0 for n in ("train_stream", "eval_bidir_alternating")),
        "train loss sequence equal, untraced vs traced process": _common_prefix_equal(
            runs["train_stream", 0][1]["losses"], runs["train_stream", 1][1]["losses"]),
    }
    print(f"\n  backward ops traced on train_stream: "
          f"{sum(layer['train_stream'][k] > 0 for k in backward)} of {len(backward)} metrics non-zero")
    print("\npredictions and checks")
    for text, ok in checks.items():
        print(f"  {'PASS' if ok else 'FAIL'}  {text}")
    for name in names:
        for trace in (0, 1):
            result, detail = runs[name, trace]
            bad = [k for k, ok in detail["checks"].items() if not ok]
            print(f"  {'PASS' if result['correct'] else 'FAIL'}  {name} trace={trace}: "
                  f"{result['failed']} of {result['attempted']} failed"
                  + (f" ({', '.join(bad)})" if bad else "")
                  + (f"; missing spans {detail['missing_spans']}" if detail["missing_spans"] else ""))
    ok = all(checks.values()) and all(r["correct"] for r, _ in runs.values())
    return 0 if ok else 1


def _common_prefix_equal(a: list, b: list) -> bool:
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="dualstream benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(spec, args.seed, args.seconds)
    return run_child(args.workload, args.seed, args.seconds, args.trace, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
