"""Domain primitives for non-adaptive pooled (group) testing.

A population of n elements is screened by m pooled tests.  Pool membership is
a binary m-by-n matrix: entry (i, l) is 1 when element l contributes to test
i.  With defectivity vector x, the noiseless outcome of test i is the OR of
the x bits in its pool (the "syndrome").  The observed outcome comes through
the binary symmetric channel `Bsc`, flipping each test's bit independently,
so Q(t | s) = epsilon**d * (1-epsilon)**(m-d) depends only on the distance d
between t and s; `Bsc.likelihood_table` gives it for a batch of outcomes
against packed syndromes.  `Noiseless`, where the outcome equals the
syndrome, is the same code at epsilon = 0.

Everything in this module is immutable and shared by the trellis, inference,
oracle, and simulation layers.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import ClassVar

import numpy as np

class NotASyndromeError(ValueError):
    """Observed outcome vector lies outside the OR-channel image of the matrix."""


class SizeLimitError(ValueError):
    """A construction or enumeration would exceed its configured resource guard."""


class MatrixFormatError(ValueError):
    """Matrix text does not follow the ``m n`` header plus 0/1 rows layout."""


def as_bit_vector(bits, length=None, name="vector"):
    """Validate and return a 1-D uint8 array of 0/1 entries.

    Raises ValueError on wrong dimensionality, non-binary entries, or (when
    `length` is given) wrong size.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype == bool:
        arr = arr.astype(np.uint8)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must hold integer 0/1 entries, got dtype {arr.dtype}")
    if arr.size and ((arr.dtype.kind != "u" and arr.min() < 0) or arr.max() > 1):
        raise ValueError(f"{name} entries must be 0 or 1")
    if length is not None and arr.size != length:
        raise ValueError(f"{name} must have length {length}, got {arr.size}")
    return arr.astype(np.uint8)


@dataclasses.dataclass(frozen=True, eq=False)
class TestMatrix:
    """Binary pool-assignment matrix; rows are tests, columns are elements."""

    __test__ = False  # not a test case, despite the domain name

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be two-dimensional, got shape {arr.shape}")
        m, n = arr.shape
        if m < 1 or n < 1:
            raise ValueError(f"matrix must have at least one row and one column, got {m}x{n}")
        arr = as_bit_vector(arr.reshape(-1), None, "matrix").reshape(m, n)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def m(self):
        """Number of tests (rows)."""
        return self.entries.shape[0]

    @property
    def n(self):
        """Number of elements (columns)."""
        return self.entries.shape[1]

    @cached_property
    def column_masks(self):
        """Columns packed as integers, bit i set when the element joins test i; read-only."""
        masks = _pack_rows(self.entries.T, self.m)
        masks.setflags(write=False)
        return masks


@dataclasses.dataclass(frozen=True)
class Prior:
    """I.i.d. Bernoulli prior: each element is defective with probability delta."""

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"prevalence must lie strictly inside (0, 1), got {self.delta}")


def compute_syndrome(matrix, x):
    """Noiseless OR-channel outcome of defectivity vector `x` under `matrix`.

    Test i fires iff its pool contains at least one defective element.
    """
    xv = as_bit_vector(x, matrix.n, "defectivity vector")
    hits = matrix.entries.astype(np.int64) @ xv.astype(np.int64)
    return (hits > 0).astype(np.uint8)


def bits_to_index(bits):
    """Pack a binary vector into an integer, entry i contributing 2**i."""
    arr = as_bit_vector(bits, None, "bit vector")
    return int(_pack_rows(arr[None, :], arr.size)[0])


def index_to_bits(index, m):
    """Inverse of bits_to_index: `_unpack_rows` of one index, checked, as an m-entry vector."""
    if m < 0 or m > 63:
        raise SizeLimitError(f"bit count must lie in [0, 63], got {m}")
    index = int(index)
    if index < 0 or index >> m:
        raise ValueError(f"index {index} does not fit in {m} bits")
    return _unpack_rows(np.array([index], dtype=np.int64), m)[0]


def _pack_rows(rows, m):
    """Pack a (K, m) binary array row-wise into int64 indices, entry i contributing 2**i."""
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] != m:
        raise ValueError(f"expected a (K, {m}) array of outcomes, got shape {arr.shape}")
    if m > 63:
        raise SizeLimitError(f"cannot pack {m} bits into int64 indices")
    weights = (np.int64(1) << np.arange(m, dtype=np.int64))
    return arr.astype(np.int64) @ weights


def _unpack_rows(indices, m):
    """Inverse of `_pack_rows`: the (K, m) uint8 rows of K int64 indices, entry i from 2**i."""
    return ((indices[:, None] >> np.arange(m, dtype=np.int64)) & 1).astype(np.uint8)


def _sorted_unique(values):
    """np.unique(values) for a 1-D array, without the numpy.ma import np.unique makes.

    Sorts `values` in place: pass a copy of an array that must keep its order.
    """
    values.sort()
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


@dataclasses.dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel flipping each outcome bit with probability epsilon."""

    epsilon: float

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 0.5):
            raise ValueError(f"crossover probability must lie in [0, 0.5), got {self.epsilon}")

    def likelihood_table(self, outcomes, state_indices, m):
        """Q(t_k | s_j): rows follow `state_indices`, columns the (K, m) `outcomes`.

        Raises ValueError as `_weights` does.
        """
        weights = self._weights(m)
        targets = _pack_rows(outcomes, m)
        states = np.asarray(state_indices, dtype=np.int64)
        # distances outcome by outcome, so numpy's inner loop runs over the states
        return weights.take(np.bitwise_count(targets[:, None] ^ states).T)

    def likelihood_packed(self, t, state_indices, m):
        """Vector of Q(t | s) over syndromes given as packed integer states."""
        row = as_bit_vector(t, m, "observed vector")[None, :]
        return self.likelihood_table(row, state_indices, m)[:, 0]

    def _weights(self, m):
        """The likelihood per distance d = 0..m, epsilon**d * (1-epsilon)**(m-d).

        Raises ValueError when epsilon > 0 and the smallest weight,
        epsilon**m, is below the smallest normal float: no entry of a table
        over m tests can then underflow, which would turn a likely outcome's
        lapp into +-inf or call it impossible.
        """
        k = np.arange(m + 1)
        weights = self.epsilon**k * (1.0 - self.epsilon) ** (m - k)
        if self.epsilon > 0 and weights[-1] < np.finfo(float).smallest_normal:
            raise ValueError(
                f"crossover probability {self.epsilon!r} underflows on {m} tests: "
                f"epsilon**{m} is below the smallest normal float"
            )
        return weights


@dataclasses.dataclass(frozen=True)
class Noiseless:
    """Identity channel: `Bsc`'s own functions at epsilon = 0.

    It binds `Bsc.likelihood_table`, `Bsc.likelihood_packed` and
    `Bsc._weights`.  Not a `Bsc` subclass, so a `Bsc` instance check still
    tells it apart.
    """

    epsilon: ClassVar[float] = 0.0

    likelihood_table = Bsc.likelihood_table
    likelihood_packed = Bsc.likelihood_packed
    _weights = Bsc._weights
