"""Brute-force reference posteriors by enumerating all defectivity vectors.

Independent of the trellis machinery on purpose: this is the ground truth the
fast engine is validated against.  Cost is Theta(2**n), so it is guarded to
small populations.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .model import Prior, SizeLimitError, TestMatrix, _pack_rows, as_bit_vector, index_to_bits

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
    for each, the noiseless syndrome is formed and the noise model scores the
    observed outcome.  Masses with the element fixed to 0 or 1 are accumulated
    separately so the split is exact even when one side dominates.  Syndromes
    are packed into int64 keys, so more than 63 tests raise SizeLimitError.
    """
    n = matrix.n
    if n > MAX_ELEMENTS:
        raise SizeLimitError(f"oracle enumeration is guarded to {MAX_ELEMENTS} elements, got {n}")
    if matrix.m > 63:  # before the first chunk's (chunk, m) syndrome product
        raise SizeLimitError(f"oracle enumeration packs syndromes into int64, got {matrix.m} tests")
    tv = as_bit_vector(t, matrix.m, "outcome vector")
    delta = prior.delta
    cols = np.arange(n, dtype=np.int64)
    mass0 = np.zeros(n)
    mass1 = np.zeros(n)
    q_cache = {}
    chunk = 1 << 16
    for lo in range(0, 1 << n, chunk):
        hi = min(lo + chunk, 1 << n)
        codes = np.arange(lo, hi, dtype=np.int64)
        x = ((codes[:, None] >> cols[None, :]) & 1).astype(np.uint8)
        syndromes = (x.astype(np.int64) @ matrix.entries.T.astype(np.int64)) > 0
        uniq, inverse = np.unique(_pack_rows(syndromes, matrix.m), return_inverse=True)
        q_uniq = np.empty(uniq.size)
        for j, u in enumerate(uniq):
            if u not in q_cache:
                q_cache[u] = noise.likelihood(tv, index_to_bits(u, matrix.m))
            q_uniq[j] = q_cache[u]
        weight = x.sum(axis=1)
        mass = q_uniq[inverse] * delta**weight * (1.0 - delta) ** (n - weight)
        mass1 += mass @ x
        mass0 += mass @ (1 - x)
    return OracleResult(mass0=mass0, mass1=mass1)
