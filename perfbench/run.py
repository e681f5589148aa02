"""Benchmark harness: run workloads in child processes and report their metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in a fresh child process (`worker.py`), so its peak memory
is its own, with BLAS and OpenMP thread pools pinned to one thread.  `setup_s`
is the median over several child starts, each timed from spawn to the child's
`READY` line.  A child that dies (signal, OOM kill or timeout) counts all of
its workload's operations as failed, and the other workloads still report.

A readable report goes to standard error.  The last line on standard output
is the JSON result: for one workload the object
`{"correct", "attempted", "failed", "metrics"}`, for `all` an object mapping
each workload to such a result.  Exit code 0 when every child reported, 1 when
one died, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Thread-pool variables set to 1 before numpy is imported anywhere.
PINNED_ENV = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}  # fmt: skip

#: Child starts timed for `setup_s`, the measuring child included.
SETUP_SAMPLES = 5

#: A workload's children are killed after this many seconds.
DEADLINE_S = 170.0

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def run_child(argv, env, timeout):
    """Run a child to completion; returns (exit code, seconds to READY or None, last line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    lines = []

    def read():
        for line in proc.stdout:
            lines.append((time.perf_counter() - start, line.rstrip("\n")))

    reader = threading.Thread(target=read)
    reader.start()
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:  # also on SIGTERM or Ctrl-C: no child outlives the harness
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
    ready = next((t for t, line in lines if line == "READY"), None)
    return proc.returncode, ready, lines[-1][1] if lines else ""


def died(why):
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "messages": [why], "died": True}


def run_workload(name, args, env, deadline):
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
    ]  # fmt: skip
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, ready, _ = run_child([*argv, "--setup-only"], env, deadline - time.monotonic())
            if code != 0 or ready is None:
                return died(f"set-up child exited with code {code}")
            setup.append(ready)
    code, ready, last = run_child(argv, env, deadline - time.monotonic())
    if code != 0:
        return died(f"worker exited with code {code}")
    result = json.loads(last)
    if not args.trace:
        setup.append(ready)
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    return result


def report(name, args, result):
    out = sys.stderr
    ops = f"{result['samples']} operations, tail = {result['tail']}" if "samples" in result else "died"
    print(f"{name}  seed {args.seed}  trace {args.trace}  ({ops})", file=out)
    for metric, entry in result["metrics"].items():
        print(f"  {metric:42s} {entry['value']:>16.6g}  {entry['unit']}", file=out)
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':42s} {ratio:>16.6g}  failed/attempted ({result['failed']}/{result['attempted']})", file=out)
    for message in result.get("messages", []):
        print(f"  FAILED: {message}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke tests only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grouptrellis" / "__init__.py").is_file():
        print(f"error: no grouptrellis package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    else:
        names = [args.workload]
    env = {k: v for k, v in os.environ.items() if k != "GROUPTRELLIS_WORKERS"}
    env.update(PINNED_ENV, PYTHONHASHSEED="0")
    results = {}
    for name in names:
        results[name] = run_workload(name, args, env, time.monotonic() + DEADLINE_S)
        report(name, args, results[name])
    slim = {name: {k: r[k] for k in RESULT_KEYS} for name, r in results.items()}
    print(json.dumps(slim[names[0]] if args.workload != "all" else slim))
    return 1 if any(r.get("died") for r in results.values()) else 0


if __name__ == "__main__":
    # turn SIGTERM into SystemExit so that run_child's cleanup kills the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
