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


def _threshold_index(lapp, thresholds, tie_defective):
    """Index of the first threshold that flags each lapp value, len(thresholds) if none.

    Thresholds are sorted and distinct.  A value is flagged when it lies
    below the threshold, or on it when tie_defective holds and the threshold
    is finite; NaN is never flagged.  So a value flagged at index k is
    flagged at every index above k.
    """
    left = np.searchsorted(thresholds, lapp, "left")
    right = np.searchsorted(thresholds, lapp, "right")
    if not tie_defective:
        return right
    # left < right only for a value equal to a threshold, finite iff the value is
    return np.where((left < right) & np.isfinite(lapp), left, right)


def decide(lapp, rule: ThresholdRule) -> np.ndarray:
    """Apply a threshold rule to lapp values; 1 marks a flagged element."""
    values = np.asarray(lapp, dtype=float)
    index = _threshold_index(values, np.array([rule.threshold]), rule.tie_defective)
    return (index == 0).astype(np.uint8)


def comp_decide(matrix: TestMatrix, t) -> np.ndarray:
    """Classical COMP decoder: flag every element not covered by a silent test.

    An element is cleared exactly when it belongs to at least one test that
    came back negative; everything else is flagged defective.
    """
    tv = as_bit_vector(t, matrix.m, "outcome vector")
    silent_rows = matrix.entries[tv == 0, :]
    return (silent_rows.sum(axis=0) == 0).astype(np.uint8)
