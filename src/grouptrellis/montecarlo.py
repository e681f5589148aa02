"""Monte Carlo operating points and ROC sweeps for threshold rules.

Trials draw a defectivity vector from the prior, push it through the OR
channel and the noise model, and score the exact posterior decision against
the truth.  Three facts keep this fast:

* a trial's outcome is packed as an integer, the OR of its defective
  elements' `column_masks` XOR the packed channel flips, and only outcomes
  new to the sweep are unpacked into rows;
* the posterior log-ratios depend on the trial only through the observed
  outcome vector, so each outcome goes through the engine once: chunk c's
  batch is the outcomes that no chunk before c drew, and all batches share
  one forward pass;
* a decision at threshold k only asks whether k reaches the first threshold
  that flags the element, so each lapp value is turned into that index once
  (two searchsorted calls) and a chunk counts a whole threshold grid with
  one bincount and a cumulative sum.

Reproducibility: trials are partitioned into fixed-size chunks and chunk c
uses a counter-based generator advanced to a lane derived from c alone.
With `workers` threads (capped at the CPU count), chunks run in rounds of
one chunk per thread: sample the round's chunks, form their batches in
chunk order, run the batches, then count the chunks.  The batches, and
with them the engine's lapp bits, follow chunk order alone, and integer
event counts add up in any order, so estimates depend on (trials, seed) and
on the BLAS thread count, but not on the worker count or on thread timing.

Reported rates are per-element averages: p_fa = Pr{flagged | clear} and
p_md = Pr{missed | defective}, pooled over all elements and trials, with
binomial 95% half-widths.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .forward_backward import posterior_table
from .model import Bsc, Noiseless, Prior, TestMatrix, _pack_rows, _sorted_unique
from .trellis import build_complete

#: Trials per RNG chunk; fixed so estimates never depend on scheduling.
CHUNK_TRIALS = 8192

#: Counter advance between chunk lanes; huge so lanes cannot overlap.
_SEED_STRIDE = 1 << 40

#: Thresholds in the default grid, the two infinite ones included.
GRID_POINTS = 61

#: Half-width of the default grid's finite part in the LLR domain.
GRID_LLR_SPAN = 15.0


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
    """Short stable name of a channel, Noiseless or Bsc, for metadata lines."""
    return "noiseless" if isinstance(noise, Noiseless) else f"bsc {noise.epsilon!r}"


def default_threshold_grid(prior: Prior) -> np.ndarray:
    """Threshold grid: -inf, GRID_POINTS - 2 thresholds even in the LLR domain, +inf.

    The finite thresholds span +-GRID_LLR_SPAN around the prior log-ratio.
    """
    points, span = GRID_POINTS, GRID_LLR_SPAN
    shift = math.log((1.0 - prior.delta) / prior.delta)
    finite = np.linspace(-span, span, points - 2) + shift
    return np.concatenate([[-math.inf], finite, [math.inf]])


def _sample_chunk(matrix, prior, noise, seed, chunk_index, trials):
    """Draw one chunk of trials: (defectivity rows, packed outcomes)."""
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(chunk_index * _SEED_STRIDE)
    rng = np.random.Generator(bitgen)
    # defectivity first, then channel flips: with epsilon = 0 the flip mask is
    # all-false and the draw order makes estimates match the noiseless channel
    x = rng.random((trials, matrix.n)) < prior.delta
    # a trial's syndrome is the OR of its defective elements' columns
    packed = np.bitwise_or.reduce(x * matrix.column_masks, axis=1)
    if isinstance(noise, Bsc):
        packed ^= _pack_rows(rng.random((trials, matrix.m)) < noise.epsilon, matrix.m)
    return x, packed


def _unpack(keys, m):
    """Outcome rows (uint8, one per key) of packed outcomes, bit i from 2**i."""
    return ((keys[:, None] >> np.arange(m)) & 1).astype(np.uint8)


def _threshold_index(lapp, thresholds, tie_defective):
    """Index of the first threshold that flags each lapp value, len(thresholds) if none.

    Thresholds are sorted and distinct.  The rule is decision.decide's: a
    value is flagged when it lies below the threshold, or on it when
    tie_defective holds and the threshold is finite.  So a value flagged at
    index k is flagged at every index above k.
    """
    left = np.searchsorted(thresholds, lapp, "left")
    right = np.searchsorted(thresholds, lapp, "right")
    if not tie_defective:
        return right
    # left < right only for a value equal to a threshold, finite iff the value is
    return np.where((left < right) & np.isfinite(lapp), left, right)


def _count_events(index, x, size):
    """(fa_events, md_events, fa_trials, md_trials) of one chunk for every threshold at once.

    `index` holds each trial element's first flagging threshold out of
    `size`: an element is flagged at threshold k when its index is at most k.
    Its integer type must hold 2 * size + 1.
    """
    codes = index + index.dtype.type(size + 1) * x  # defective elements count from size + 1
    hist = np.bincount(codes.ravel(), minlength=2 * (size + 1))
    clear, defective = hist.reshape(2, size + 1).cumsum(axis=1)
    return clear[:size], defective[-1] - defective[:size], int(clear[-1]), int(defective[-1])


def sweep_roc(
    matrix: TestMatrix,
    prior: Prior,
    noise,
    thresholds,
    trials: int,
    seed: int,
    tie_defective: bool = True,
    workers: int = 1,
    matrix_label: str = "matrix",
) -> RocCurve:
    """Estimate an ROC curve over a grid of thresholds with shared trials.

    Outcomes are drawn through `noise`, one of the two channels, Noiseless or
    Bsc.  All thresholds reuse the same simulated trials, so the curve is
    exactly monotone up to ties.  Thresholds are sorted ascending; duplicates
    are rejected to keep CSV rows unambiguous.  One threshold rule's operating
    point is `.points[0]` of a sweep over `[rule.threshold]` with
    `rule.tie_defective`.  At most `os.cpu_count()` of the `workers` threads
    start, so memory is O(min(workers, CPUs) x (CHUNK_TRIALS x n + max states
    x block)) for the sampled chunks and the engine's column blocks, plus
    O(distinct outcomes x n) for the table that keeps, per outcome and
    element, the index of the first threshold that flags the element (one
    byte each for grids of up to 127 thresholds) instead of the lapp.
    Raises ValueError, before any trellis exists, for an empty, NaN or
    repeated threshold, a trial or worker count below one, or a channel
    other than Noiseless or Bsc.
    """
    lam = np.sort(np.asarray(thresholds, dtype=float))
    if lam.size == 0:
        raise ValueError("threshold grid must not be empty")
    if np.any(np.isnan(lam)):
        raise ValueError("thresholds must not contain NaN")
    if lam.size > 1 and np.any(lam[1:] == lam[:-1]):
        raise ValueError("thresholds must be distinct")
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    if not isinstance(noise, (Noiseless, Bsc)):
        raise ValueError("simulation draws outcomes only for noiseless or BSC channels")
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    # a round holds one sampled chunk and one thread per worker
    workers = min(workers, os.cpu_count() or 1)
    trellis = build_complete(matrix)
    chunk_count = -(-trials // CHUNK_TRIALS)
    index_type = np.min_scalar_type(2 * lam.size + 1)  # the least type _count_events can use
    keys = np.zeros(0, dtype=np.int64)  # sorted packed outcomes drawn so far
    table = np.zeros((0, matrix.n), dtype=index_type)  # their threshold index rows
    fa_events = np.zeros(lam.size, dtype=np.int64)
    md_events = np.zeros(lam.size, dtype=np.int64)
    fa_trials = 0
    md_trials = 0

    def sample(index):
        size = min(CHUNK_TRIALS, trials - index * CHUNK_TRIALS)
        return _sample_chunk(matrix, prior, noise, seed, index, size)

    def engine(rows):
        lapp = posterior_table(trellis, prior, noise, rows)
        return _threshold_index(lapp, lam, tie_defective).astype(index_type)

    def count(chunk):
        x, packed = chunk
        return _count_events(table[np.searchsorted(keys, packed)], x, lam.size)

    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        pmap = map if pool is None else pool.map
        for start in range(0, chunk_count, workers):
            # a round's chunk indices are a range, so no list of every chunk exists
            chunks = list(pmap(sample, range(start, min(start + workers, chunk_count))))
            # a chunk's batch is the outcomes that no earlier chunk drew, so the
            # batches, and with them the engine's lapp bits, follow chunk order
            seen, batches = keys, []
            for _, packed in chunks:
                uniq = _sorted_unique(packed)
                fresh = uniq[~np.isin(uniq, seen)]
                if fresh.size:
                    seen = np.concatenate([seen, fresh])
                    batches.append(_unpack(fresh, matrix.m))
            order = np.argsort(seen)
            table = np.concatenate([table, *pmap(engine, batches)])[order]
            keys = seen[order]
            for fa, md, n_fa, n_md in pmap(count, chunks):
                fa_events += fa
                md_events += md
                fa_trials += n_fa
                md_trials += n_md
    points = tuple(
        OperatingPoint(
            threshold=float(lam[k]),
            tie_defective=tie_defective,
            fa_events=int(fa_events[k]),
            fa_trials=fa_trials,
            md_events=int(md_events[k]),
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
