"""Exact per-element posteriors for non-adaptive pooled (group) testing.

The pipeline: build a test matrix, unroll it into a syndrome trellis, run the
forward-backward pass against an observed outcome to get per-element
posterior log-ratios, then threshold them (or sweep thresholds under Monte
Carlo) to study the false-alarm / missed-detection trade-off.
"""

from .decision import ThresholdRule, comp_decide, decide, llr_values
from .forward_backward import (
    MetricTable,
    PosteriorResult,
    branch_metric,
    posterior_pairs,
    posterior_table,
    run,
)
from .matrices import (
    bernoulli_matrix,
    ebch_64_57_parity_check,
    hypergraph_incidence,
    read_matrix,
    write_matrix,
)
from .model import (
    MAX_TESTS,
    MAX_TRELLIS_BYTES,
    Bsc,
    CustomNoise,
    MatrixFormatError,
    Noiseless,
    NotASyndromeError,
    Prior,
    SizeLimitError,
    TestMatrix,
    bits_to_index,
    compute_syndrome,
    index_to_bits,
)
from .montecarlo import (
    OperatingPoint,
    RocCurve,
    default_threshold_grid,
    estimate_operating_point,
    randomized_interpolation,
    sweep_roc,
)
from .oracle import OracleResult, enumerate_posteriors
from .trellis import (
    EdgeSection,
    Trellis,
    build_complete,
    build_reduced,
    enumerate_paths,
    expurgate,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_TESTS",
    "MAX_TRELLIS_BYTES",
    "Bsc",
    "CustomNoise",
    "EdgeSection",
    "MatrixFormatError",
    "MetricTable",
    "Noiseless",
    "NotASyndromeError",
    "OperatingPoint",
    "OracleResult",
    "PosteriorResult",
    "Prior",
    "RocCurve",
    "SizeLimitError",
    "TestMatrix",
    "ThresholdRule",
    "Trellis",
    "bernoulli_matrix",
    "bits_to_index",
    "branch_metric",
    "comp_decide",
    "compute_syndrome",
    "decide",
    "default_threshold_grid",
    "ebch_64_57_parity_check",
    "enumerate_paths",
    "enumerate_posteriors",
    "estimate_operating_point",
    "expurgate",
    "hypergraph_incidence",
    "index_to_bits",
    "llr_values",
    "posterior_pairs",
    "posterior_table",
    "randomized_interpolation",
    "read_matrix",
    "run",
    "sweep_roc",
    "write_matrix",
    "build_complete",
    "build_reduced",
]
