"""Monte Carlo operating points and ROC sweeps for threshold rules.

Trials draw a defectivity vector from the prior, push it through the OR
channel and the noise model, and score the exact posterior decision against
the truth.  Two facts keep this fast:

* the posterior log-ratios depend on the trial only through the observed
  outcome vector, so results are memoised per outcome and computed in
  batches with a shared forward pass;
* per-threshold counting only needs the sorted lapp values split by ground
  truth, so a whole threshold grid is swept with two searchsorted calls.

Reproducibility: trials are partitioned into fixed-size chunks and chunk c
uses a counter-based generator advanced to a lane derived from c alone.
Estimates therefore depend on (trials, seed) but not on the worker count,
and chunked accumulation of integer event counts is order-independent, so
repeated runs are bit-identical.

Reported rates are per-element averages: p_fa = Pr{flagged | clear} and
p_md = Pr{missed | defective}, pooled over all elements and trials, with
binomial 95% half-widths.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .decision import ThresholdRule
from .forward_backward import posterior_table
from .model import Bsc, Noiseless, Prior, TestMatrix, _pack_rows
from .trellis import build_complete

#: Trials per RNG chunk; fixed so estimates never depend on scheduling.
CHUNK_TRIALS = 8192

#: Counter advance between chunk lanes; huge so lanes cannot overlap.
_SEED_STRIDE = 1 << 40

#: Environment variable consulted when `workers` is not given explicitly.
WORKERS_ENV = "GROUPTRELLIS_WORKERS"


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """Estimated false-alarm / missed-detection rates for one threshold."""

    threshold: float
    tie_defective: bool
    fa_events: int
    fa_trials: int
    md_events: int
    md_trials: int

    @property
    def p_fa(self):
        return self.fa_events / self.fa_trials if self.fa_trials else math.nan

    @property
    def p_md(self):
        return self.md_events / self.md_trials if self.md_trials else math.nan

    @property
    def p_fa_halfwidth(self):
        return _binomial_halfwidth(self.p_fa, self.fa_trials)

    @property
    def p_md_halfwidth(self):
        return _binomial_halfwidth(self.p_md, self.md_trials)


def _binomial_halfwidth(p, trials):
    if trials == 0 or math.isnan(p):
        return math.nan
    return 1.96 * math.sqrt(p * (1.0 - p) / trials)


@dataclasses.dataclass(frozen=True, eq=False)
class RocCurve:
    """Sweep result: operating points ordered by ascending threshold."""

    points: tuple
    matrix_label: str
    delta: float
    noise_label: str
    trials: int
    seed: int

    def to_csv(self) -> str:
        """Serialise as `#` metadata lines, a header, then one row per threshold."""
        lines = [
            f"# matrix: {self.matrix_label}",
            f"# delta: {self.delta!r}",
            f"# noise: {self.noise_label}",
            f"# trials: {self.trials}",
            f"# seed: {self.seed}",
            "lambda,p_fa,p_md,fa_events,fa_trials,md_events,md_trials",
        ]
        for pt in self.points:
            lines.append(
                f"{pt.threshold!r},{pt.p_fa!r},{pt.p_md!r},"
                f"{pt.fa_events},{pt.fa_trials},{pt.md_events},{pt.md_trials}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv())


def noise_label(noise) -> str:
    """Short stable name of a noise model for metadata lines."""
    if isinstance(noise, Noiseless):
        return "noiseless"
    if isinstance(noise, Bsc):
        return f"bsc {noise.epsilon!r}"
    return type(noise).__name__.lower()


def default_threshold_grid(prior: Prior, count: int = 61, llr_span: float = 15.0) -> np.ndarray:
    """Threshold grid: -inf, `count - 2` thresholds even in the LLR domain, +inf."""
    if count < 3:
        raise ValueError(f"grid needs at least 3 thresholds, got {count}")
    shift = math.log((1.0 - prior.delta) / prior.delta)
    finite = np.linspace(-llr_span, llr_span, count - 2) + shift
    return np.concatenate([[-math.inf], finite, [math.inf]])


class _PosteriorCache:
    """Memoises lapp rows per packed outcome; misses are batch-computed."""

    def __init__(self, trellis, prior, noise):
        self._trellis = trellis
        self._prior = prior
        self._noise = noise
        self._keys = np.zeros(0, dtype=np.int64)
        self._lapp = np.zeros((0, trellis.n))
        self._lock = threading.Lock()

    def lookup(self, packed, outcome_bits):
        """lapp rows for packed outcomes; `outcome_bits` supplies the raw rows."""
        with self._lock:
            if self._keys.size:
                pos = np.searchsorted(self._keys, packed)
                pos_clipped = np.minimum(pos, self._keys.size - 1)
                hit = self._keys[pos_clipped] == packed
            else:
                hit = np.zeros(packed.size, dtype=bool)
            if not hit.all():
                miss_packed = packed[~hit]
                miss_bits = outcome_bits[~hit]
                uniq, first = np.unique(miss_packed, return_index=True)
                fresh = posterior_table(
                    self._trellis, self._prior, self._noise, miss_bits[first]
                )
                keys = np.concatenate([self._keys, uniq])
                rows = np.concatenate([self._lapp, fresh], axis=0)
                order = np.argsort(keys)
                self._keys = keys[order]
                self._lapp = rows[order]
            return self._lapp[np.searchsorted(self._keys, packed)]


def _count_events(sorted_fa, sorted_md, thresholds, tie_defective):
    """Flagged-clear and missed-defective counts for every threshold at once."""
    side = "right" if tie_defective else "left"
    fa = np.searchsorted(sorted_fa, thresholds, side=side).astype(np.int64)
    md = sorted_md.size - np.searchsorted(sorted_md, thresholds, side=side).astype(np.int64)
    neg = np.isneginf(thresholds)
    if neg.any():
        fa[neg] = 0
        md[neg] = sorted_md.size
    pos = np.isposinf(thresholds)
    if pos.any():
        fa[pos] = np.searchsorted(sorted_fa, np.inf, side="left")
        md[pos] = sorted_md.size - np.searchsorted(sorted_md, np.inf, side="left")
    return fa, md


def _chunk_counts(matrix, prior, noise, cache, thresholds, tie_defective, seed, chunk_index, count):
    """Simulate one chunk of trials; returns (fa_events, md_events, fa_trials, md_trials)."""
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(chunk_index * _SEED_STRIDE)
    rng = np.random.Generator(bitgen)
    # defectivity first, then channel flips: with epsilon = 0 the flip mask is
    # all-false and the draw order makes estimates match the noiseless channel
    x = rng.random((count, matrix.n)) < prior.delta
    syndromes = (x.astype(np.int32) @ matrix.entries.T.astype(np.int32)) > 0
    if isinstance(noise, Bsc):
        outcomes = syndromes ^ (rng.random((count, matrix.m)) < noise.epsilon)
    else:
        outcomes = syndromes
    bits = outcomes.astype(np.uint8)
    packed = _pack_rows(bits, matrix.m)
    lapp = cache.lookup(packed, bits)
    sorted_fa = np.sort(lapp[~x])
    sorted_md = np.sort(lapp[x])
    fa, md = _count_events(sorted_fa, sorted_md, thresholds, tie_defective)
    return fa, md, sorted_fa.size, sorted_md.size


def _resolve_workers(workers):
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    return workers


def _simulate(matrix, prior, noise, thresholds, tie_defective, trials, seed, workers):
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    if not isinstance(noise, (Noiseless, Bsc)):
        raise ValueError("simulation draws outcomes only for noiseless or BSC channels")
    workers = _resolve_workers(workers)
    trellis = build_complete(matrix)
    cache = _PosteriorCache(trellis, prior, noise)
    thresholds = np.asarray(thresholds, dtype=float)
    jobs = [
        (index, min(CHUNK_TRIALS, trials - start))
        for index, start in enumerate(range(0, trials, CHUNK_TRIALS))
    ]

    def work(job):
        idx, count = job
        return _chunk_counts(
            matrix, prior, noise, cache, thresholds, tie_defective, seed, idx, count
        )

    if workers == 1:
        results = [work(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, jobs))
    fa_events = np.zeros(thresholds.size, dtype=np.int64)
    md_events = np.zeros(thresholds.size, dtype=np.int64)
    fa_trials = 0
    md_trials = 0
    for fa, md, n_fa, n_md in results:
        fa_events += fa
        md_events += md
        fa_trials += n_fa
        md_trials += n_md
    return fa_events, md_events, fa_trials, md_trials


def estimate_operating_point(
    matrix: TestMatrix,
    prior: Prior,
    noise,
    rule: ThresholdRule,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> OperatingPoint:
    """Monte Carlo estimate of (p_fa, p_md) for one threshold rule."""
    return sweep_roc(
        matrix, prior, noise, [rule.threshold], trials, seed, rule.tie_defective, workers
    ).points[0]


def sweep_roc(
    matrix: TestMatrix,
    prior: Prior,
    noise,
    thresholds,
    trials: int,
    seed: int,
    tie_defective: bool = True,
    workers: int | None = None,
    matrix_label: str = "matrix",
) -> RocCurve:
    """Estimate an ROC curve over a grid of thresholds with shared trials.

    All thresholds reuse the same simulated trials, so the curve is exactly
    monotone up to ties.  Thresholds are sorted ascending; duplicates are
    rejected to keep CSV rows unambiguous.
    """
    lam = np.sort(np.asarray(thresholds, dtype=float))
    if lam.size == 0:
        raise ValueError("threshold grid must not be empty")
    if np.any(np.isnan(lam)):
        raise ValueError("thresholds must not contain NaN")
    if lam.size > 1 and np.any(lam[1:] == lam[:-1]):
        raise ValueError("thresholds must be distinct")
    fa, md, fa_trials, md_trials = _simulate(
        matrix, prior, noise, lam, tie_defective, trials, seed, workers
    )
    points = tuple(
        OperatingPoint(
            threshold=float(lam[k]),
            tie_defective=tie_defective,
            fa_events=int(fa[k]),
            fa_trials=fa_trials,
            md_events=int(md[k]),
            md_trials=md_trials,
        )
        for k in range(lam.size)
    )
    return RocCurve(
        points=points,
        matrix_label=matrix_label,
        delta=prior.delta,
        noise_label=noise_label(noise),
        trials=trials,
        seed=seed,
    )


def randomized_interpolation(point_a: OperatingPoint, point_b: OperatingPoint, mix: float):
    """Operating rates of the rule that plays `point_b` with probability `mix`.

    Time-sharing between two threshold rules achieves the convex combination
    of their rates; useful for reading continuous envelopes off a discrete
    sweep.  Returns the interpolated (p_fa, p_md) pair.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must lie in [0, 1], got {mix}")
    p_fa = (1.0 - mix) * point_a.p_fa + mix * point_b.p_fa
    p_md = (1.0 - mix) * point_a.p_md + mix * point_b.p_md
    return p_fa, p_md
