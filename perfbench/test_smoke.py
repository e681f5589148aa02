"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as harness
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_metric_tables_match_benchmark_json():
    assert worker.UNITS == units("end_to_end")
    assert tracing.UNITS == units("per_layer")
    assert tuple(w["name"] for w in BENCH["workloads"]) == workloads.NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "2",
            "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]  # fmt: skip
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = {line.split()[0]: line.split()[-1] for line in proc.stderr.splitlines()[1:] if line.strip()}
    assert all(report.get(metric) == unit for metric, unit in expected.items())


def _shift_finite(lapp):
    return np.where(np.isfinite(lapp), lapp + 1.0, lapp)


def _corrupt_table(fn):
    return lambda *args, **kwargs: _shift_finite(fn(*args, **kwargs))


def _corrupt_run(fn):
    def run(*args, **kwargs):
        result = fn(*args, **kwargs)
        return dataclasses.replace(result, lapp=_shift_finite(result.lapp))

    return run


#: Where each workload looks up its engine entry point, and how to corrupt its lapp.
CORRUPT = {
    "roc-bernoulli-bsc": ("grouptrellis.montecarlo", "posterior_table", _corrupt_table),
    "decode-complete-bsc": ("grouptrellis.forward_backward", "run", _corrupt_run),
    "app-reduced-noiseless": ("grouptrellis.cli", "run", _corrupt_run),
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_checks_fail_on_corrupted_lapp(name, monkeypatch):
    module_name, attr, corrupt = CORRUPT[name]
    module = sys.modules[module_name]
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    result = worker.run_workload(name, 2, 0.2, False, "tiny")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_compare_lapp_needs_exact_infinities():
    ref = [np.inf, -np.inf, 2.0, 0.5]
    assert workloads.compare_lapp(ref, ref) == []
    assert workloads.compare_lapp([np.inf, -np.inf, 2.0 * (1 + 1e-10), 0.5], ref) == []
    assert workloads.compare_lapp([np.inf, -np.inf, 2.0 * (1 + 1e-8), 0.5], ref)
    assert workloads.compare_lapp([np.inf, np.inf, 2.0, 0.5], ref)
    assert workloads.compare_lapp([np.inf, -np.inf, np.inf, 0.5], ref)
    assert workloads.compare_lapp([np.inf, -np.inf, np.nan, 0.5], ref)


def _targets():
    return {name: getattr(owner, attr) for name, owner, attr in tracing.targets()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_leaves_the_package_unwrapped(name):
    before = _targets()
    result = worker.run_workload(name, 2, 0.2, True, "tiny")
    assert result["correct"], result["messages"]
    after = _targets()
    assert all(after[k] is v for k, v in before.items())
    assert tracing.leftover_wrappers() == []


def test_tracing_unwraps_after_an_exception():
    before = _targets()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError), tracer.installed():
        assert tracing.leftover_wrappers()
        raise RuntimeError
    assert all(_targets()[k] is v for k, v in before.items())


def test_run_child_kills_a_child_past_its_timeout():
    code, ready, _ = harness.run_child([sys.executable, "-c", "import time; time.sleep(60)"], dict(os.environ), 1.0)
    assert code == -signal.SIGKILL and ready is None


def test_a_dead_child_fails_its_workload_and_the_rest_still_report(monkeypatch, capsys):
    killed = f"import os, signal; print('READY', flush=True); os.kill(os.getpid(), {int(signal.SIGKILL)})"
    code, ready, _ = harness.run_child([sys.executable, "-c", killed], dict(os.environ), 30.0)
    assert code == -signal.SIGKILL and ready is not None

    def fake(name, args, env, deadline):
        if name == "decode-complete-bsc":
            return harness.died("worker exited with code -9")
        metrics = {m: {"value": 1.0, "unit": u} for m, u in units("end_to_end").items()}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics, "samples": 3, "tail": "max"}

    monkeypatch.setattr(harness, "run_workload", fake)
    assert harness.main(["--workload", "all"]) == 1
    results = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(results) == list(workloads.NAMES)
    dead = results.pop("decode-complete-bsc")
    assert not dead["correct"] and dead["failed"] == dead["attempted"] >= 1
    assert all(r["correct"] for r in results.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "roc-bernoulli-bsc", "--seed", "0",
            "--seconds", "1", "--trace", "0"]  # fmt: skip
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
