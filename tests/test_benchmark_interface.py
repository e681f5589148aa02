"""The package names and fields that the benchmark's tracer and checks rely on.

`perfbench/` is only run by the benchmark and its own smoke suite; these
tests keep a change that drops one of the names it reads from passing tier 1.
The tracer module is imported, never installed.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

from grouptrellis import (
    Bsc,
    Prior,
    bernoulli_matrix,
    build_complete,
    build_reduced,
    compute_syndrome,
    expurgate,
    run,
)

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracing  # dataclasses look their module up while decorating
_SPEC.loader.exec_module(tracing)


def test_every_traced_target_resolves():
    names = []
    for name, owner, attr in tracing.targets():
        assert callable(getattr(owner, attr)), name
        names.append(name)
    assert len(names) == sum(len(v) for v in tracing.TARGETS.values())


def test_trellis_stats_counts_the_edge_arrays():
    trellis = build_complete(bernoulli_matrix(8, 24, 0.2, 0))
    stats = tracing._trellis_stats(trellis)
    assert set(stats) == {"states", "max_states", "edges", "bytes"}
    assert all(value > 0 for value in stats.values())
    assert stats["states"] == sum(trellis.state_counts)
    assert stats["edges"] == sum(sec.zero_dst.size + sec.one_dst.size for sec in trellis.sections)



def test_trellis_stats_reads_pruned_sections():
    matrix = bernoulli_matrix(8, 24, 0.2, 0)
    t = compute_syndrome(matrix, (np.arange(24) % 7 == 0).astype(np.uint8))
    for trellis in (expurgate(matrix, t), build_reduced(matrix, t)):
        stats = tracing._trellis_stats(trellis)
        assert stats["states"] == sum(trellis.state_counts)
        assert stats["edges"] == sum(sec.zero_dst.size + sec.one_dst.size for sec in trellis.sections)


def test_run_result_takes_a_replaced_lapp():
    matrix = bernoulli_matrix(8, 24, 0.2, 0)
    t = compute_syndrome(matrix, (np.arange(24) % 7 == 0).astype(np.uint8))
    result = run(build_complete(matrix), Prior(0.05), Bsc(0.05), t)
    shifted = dataclasses.replace(result, lapp=result.lapp + 1.0)
    assert np.array_equal(shifted.lapp, result.lapp + 1.0)
    assert shifted.log_evidence == result.log_evidence
