"""Run one benchmark workload in this process and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The parent harness (`run.py`) starts this script once per workload, so peak
memory belongs to that workload alone.  It prints `READY` as soon as set-up is
done and the result object as its last line.  With `--setup-only` it exits
after `READY`; the harness times several such starts to get `setup_s`.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from run import PINNED_ENV

# pin BLAS and OpenMP pools before numpy is imported: a plain single-threaded baseline
for _var, _value in PINNED_ENV.items():
    os.environ.setdefault(_var, _value)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metrics and their units; every workload reports all of them.
UNITS = {
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def measure(wl, state, seed, seconds, ledger, count=None, tracer=None):
    """Closed loop over the workload's requests; returns per-operation latencies.

    Stops after `count` operations when given, otherwise once `seconds` have
    passed and at least `wl.min_ops` operations are done.  Checks run between
    operations, outside the timed interval.
    """
    latencies = []
    start = time.perf_counter()
    for i, req in enumerate(wl.requests(seed)):
        if count is not None:
            if i >= count:
                break
        elif i >= wl.min_ops and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.execute(state, req)
            else:
                with tracer.request(i):
                    out = wl.execute(state, req)
        except Exception as exc:  # a failed request is counted, the run goes on
            latencies.append(time.perf_counter() - t0)
            ledger.record([f"request {i}: {exc!r}"])
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            ledger.record(wl.check(state, req, out))
        except Exception as exc:
            ledger.record([f"checking request {i}: {exc!r}"])
    return latencies


def end_to_end(wl, latencies, setup_s):
    p50 = statistics.median(latencies)
    return {
        "throughput_per_s": wl.units_per_op / p50,
        "latency_ms_p50": 1e3 * p50,
        "latency_ms_tail": 1e3 * float(np.percentile(latencies, wl.tail_q)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workload(name, seed, seconds, trace, scale="full", on_ready=None):
    """Set up, check and measure one workload; returns the result dict.

    Besides the contract keys (`correct`, `attempted`, `failed`, `metrics`)
    the dict carries `samples`, `tail` and `messages` for the human report.
    """
    wl = workloads.make(name, scale)
    t0 = time.perf_counter()
    state = wl.setup()
    setup_s = time.perf_counter() - t0
    if on_ready:
        on_ready()
    ledger = workloads.Ledger()
    wl.reference_check(state, ledger)
    workloads.oracle_check(seed, ledger)
    if not trace:
        latencies = measure(wl, state, seed, seconds, ledger)
        values = end_to_end(wl, latencies, setup_s)
    else:
        # an untraced pass sets the operation count, then the same operations run traced
        latencies = measure(wl, state, seed, seconds / 2, ledger)
        tracer = tracing.Tracer()
        with tracer.installed():
            with tracer.request("setup"):
                traced_state = wl.setup()
            measure(wl, traced_state, seed, None, ledger, count=len(latencies), tracer=tracer)
        ledger.record([f"{n} still wrapped after tracing" for n in tracing.leftover_wrappers()])
        values, problems = tracer.metrics(setup_s + sum(latencies), ledger.oracle_checks)
        ledger.record(problems)
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    units = tracing.UNITS if trace else UNITS
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "samples": len(latencies),
        "tail": wl.tail_label,
        "messages": ledger.messages,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    def ready():
        print("READY", flush=True)
        if args.setup_only:
            sys.exit(0)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, ready)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
