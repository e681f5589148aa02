"""Measure the benchmark's spread over seeds and record the baseline.

    python3 perfbench/baseline.py [--runs 10] [--workload NAME ...] [--write]

Runs `run.py` once per seed (seeds 1..runs) on each workload, prints the
median, quartiles and spread (interquartile distance over median) of every
end-to-end metric next to its bound, and with `--write` stores them, one
traced default-seed run per workload and a description of the machine in
`perfbench/baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import worker  # noqa: F401  (pins thread pools and puts the package on sys.path)
import workloads
from run import PINNED_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE_PATH = HERE / "baseline.json"

#: Which end-to-end metric each per-layer metric should move, and on which workload.
LAYER_MAP = {
    "montecarlo.self_s": ("throughput_per_s", ["roc-bernoulli-bsc"]),
    "montecarlo.unique_outcomes": ("throughput_per_s", ["roc-bernoulli-bsc"]),
    "montecarlo.miss_batches": ("throughput_per_s", ["roc-bernoulli-bsc"]),
    "montecarlo.cache_hit_ratio": ("throughput_per_s", ["roc-bernoulli-bsc"]),
    "forward_backward.posterior_table_self_s": ("throughput_per_s", ["roc-bernoulli-bsc"]),
    "forward_backward.rows_per_s": ("throughput_per_s", ["roc-bernoulli-bsc"]),
    "forward_backward.beta_bytes_computed": ("peak_rss_mb", ["roc-bernoulli-bsc"]),
    "forward_backward.peak_alloc_mb": ("peak_rss_mb", ["roc-bernoulli-bsc"]),
    "forward_backward.run_ms_p50": ("latency_ms_p50", ["decode-complete-bsc", "app-reduced-noiseless"]),
    "model.likelihood_table_s": ("throughput_per_s", ["roc-bernoulli-bsc"]),
    "model.likelihood_table_bytes": ("throughput_per_s", ["roc-bernoulli-bsc"]),
    "trellis.build_complete_s": ("setup_s", ["decode-complete-bsc"]),
    "trellis.states": ("setup_s, peak_rss_mb", ["decode-complete-bsc"]),
    "trellis.max_states": ("setup_s, peak_rss_mb", ["decode-complete-bsc"]),
    "trellis.edges": ("setup_s, peak_rss_mb", ["decode-complete-bsc"]),
    "trellis.bytes_computed": ("setup_s, peak_rss_mb", ["decode-complete-bsc"]),
    "trellis.build_reduced_ms_p50": ("latency_ms_p50, latency_ms_tail", ["app-reduced-noiseless"]),
    "trellis.reduced_states_mean": ("latency_ms_p50, latency_ms_tail", ["app-reduced-noiseless"]),
    "cli.self_s": ("latency_ms_p50", ["app-reduced-noiseless"]),
    "decision.decide_s": ("latency_ms_p50 (expected flat)", ["decode-complete-bsc"]),
    "forward_backward.posterior_pairs_s": ("latency_ms_p50 (expected flat)", ["decode-complete-bsc"]),
    "matrices.generate_s": ("latency_ms_p50", ["app-reduced-noiseless (per request)"]),
    "trace.overhead_ratio": ("none", ["all"]),
}


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output:\n{proc.stderr}")
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def machine():
    meminfo = Path("/proc/meminfo").read_text().split()
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(int(meminfo[meminfo.index("MemTotal:") + 1]) / 2**20, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--write", action="store_true", help=f"store results in {BASELINE_PATH.name}")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    recorded = {}
    steady = True
    for name in names:
        results = [run(name, seed, args.seconds, 0) for seed in range(args.first_seed, args.first_seed + args.runs)]
        stats = {m: summary([r["metrics"][m]["value"] for r in results]) for m in bounds}
        print(f"{name} ({args.runs} runs of {args.seconds:g} s)")
        for metric, s in stats.items():
            ok = s["spread"] < bounds[metric] / 3 or metric == "setup_s"
            steady &= ok
            print(f"  {metric:20s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[metric]}  {'ok' if ok else 'WIDE'}")  # fmt: skip
        wl = workloads.make(name)
        recorded[name] = {
            "why": wl.why,
            "params": wl.describe(),
            "default_seed": workloads.DEFAULT_SEED,
            "tail": wl.tail_label,
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "end_to_end": stats,
        }
        if args.write:
            traced = run(name, workloads.DEFAULT_SEED, args.seconds, 1)
            recorded[name]["per_layer_default_seed"] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.write:
        document = {
            "run_seconds": args.seconds,
            "machine": machine(),
            "threads": f"{', '.join(PINNED_ENV)} set to 1 before numpy is imported; unpinned, "
            "the same sweep varied by up to 30% between runs on 2 cores",
            "spread": "(q3 - q1) / median over the seeds, quartiles from statistics.quantiles(n=4)",
            "layer_map": {k: {"moves": v[0], "on": v[1]} for k, v in LAYER_MAP.items()},
            "workloads": recorded,
        }  # fmt: skip
        BASELINE_PATH.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
