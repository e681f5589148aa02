"""Brute-force reference posteriors by enumerating all defectivity vectors.

Independent of the trellis machinery on purpose: this is the ground truth the
fast engine is validated against.  It forms the likelihood Q(t | s) itself,
from the channel's crossover and the distance between t and s, and refuses
exactly the crossovers the engine's table refuses.  Cost is Theta(2**n), so
it is guarded to small populations.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .model import Prior, SizeLimitError, TestMatrix, _pack_rows, _unpack_rows, as_bit_vector

#: Enumeration visits 2**n vectors, so populations are guarded to this size.
MAX_ELEMENTS = 24


@dataclasses.dataclass(frozen=True, eq=False)
class OracleResult:
    """Unnormalised joint masses per element: mass0[l] = Pr{T = t, X_l = 0}."""

    mass0: np.ndarray
    mass1: np.ndarray

    @property
    def total_mass(self):
        """Pr{T = t} computed per element; constant across elements by construction."""
        return self.mass0 + self.mass1

    @property
    def lapp(self):
        with np.errstate(divide="ignore"):
            return np.log(self.mass0) - np.log(self.mass1)


def enumerate_posteriors(matrix: TestMatrix, t, prior: Prior, noise) -> OracleResult:
    """Sum prior times likelihood over all 2**n defectivity vectors.

    Vectors are enumerated in chunks as the binary expansions of 0..2**n - 1;
    for each, the noiseless syndrome is formed and scored by its distance d
    to the observed outcome, as epsilon**d * (1-epsilon)**(m-d) with
    `noise.epsilon`.  Raises ValueError for exactly the crossovers the
    engine's likelihood table refuses.  Masses with the element fixed to 0
    or 1 are accumulated separately so the split is exact even when one side
    dominates.  Syndromes are packed into int64 keys, so more than 63 tests
    raise SizeLimitError.
    """
    n, m = matrix.n, matrix.m
    if n > MAX_ELEMENTS:
        raise SizeLimitError(f"oracle enumeration is guarded to {MAX_ELEMENTS} elements, got {n}")
    if m > 63:  # before the first chunk's (chunk, m) syndrome product
        raise SizeLimitError(f"oracle enumeration packs syndromes into int64, got {m} tests")
    target = _pack_rows(as_bit_vector(t, m, "outcome vector")[None, :], m)[0]
    noise._weights(m)  # raises for the crossovers the engine's table refuses
    eps = noise.epsilon
    # scalar powers: numpy's vectorised ones in `_weights` round some entries differently
    q = np.array([eps**d * (1.0 - eps) ** (m - d) for d in range(m + 1)])
    delta = prior.delta
    mass0 = np.zeros(n)
    mass1 = np.zeros(n)
    chunk = 1 << 16
    for lo in range(0, 1 << n, chunk):
        hi = min(lo + chunk, 1 << n)
        x = _unpack_rows(np.arange(lo, hi, dtype=np.int64), n)
        syndromes = (x.astype(np.int64) @ matrix.entries.T.astype(np.int64)) > 0
        weight = x.sum(axis=1)
        q_x = q[np.bitwise_count(_pack_rows(syndromes, m) ^ target)]
        mass = q_x * delta**weight * (1.0 - delta) ** (n - weight)
        mass1 += mass @ x
        mass0 += mass @ (1 - x)
    return OracleResult(mass0=mass0, mass1=mass1)
