"""Turning posterior log-ratios into flag/clear decisions.

An element is cleared when its posterior log-ratio lies strictly above the
threshold; ties go to "defective" by default (configurable).  The two
infinite thresholds are the sweep endpoints: -inf flags nothing at all, +inf
flags everything except elements that are certainly clear (lapp = +inf).
With a noiseless channel the +inf rule recovers the classical
combinatorial-orthogonal-matching (COMP) decoder.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import TestMatrix, as_bit_vector


@dataclasses.dataclass(frozen=True)
class ThresholdRule:
    """Flag an element as defective when lapp <= threshold (ties configurable).

    The threshold lives in the posterior log-ratio domain.
    """

    threshold: float
    tie_defective: bool = True

    def __post_init__(self):
        if math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")


def decide(lapp, rule: ThresholdRule) -> np.ndarray:
    """Apply a threshold rule to lapp values; 1 marks a flagged element."""
    values = np.asarray(lapp, dtype=float)
    lam = rule.threshold
    flags = values <= lam if rule.tie_defective and math.isfinite(lam) else values < lam
    return flags.astype(np.uint8)


def comp_decide(matrix: TestMatrix, t) -> np.ndarray:
    """Classical COMP decoder: flag every element not covered by a silent test.

    An element is cleared exactly when it belongs to at least one test that
    came back negative; everything else is flagged defective.
    """
    tv = as_bit_vector(t, matrix.m, "outcome vector")
    silent_rows = matrix.entries[tv == 0, :]
    return (silent_rows.sum(axis=0) == 0).astype(np.uint8)
