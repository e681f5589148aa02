"""
A tour of the three syndrome trellis kinds
==========================================

Shows what the complete, expurgated, and reduced trellises of a
pooling matrix look like: how many states live at each depth, what
the edges are, and how expurgation and reduction shrink the graph
while preserving every outcome-consistent path.

Run with:  python3 demos/trellis_tour.py
"""

import numpy as np

from grouptrellis import (
    TestMatrix,
    build_complete,
    build_reduced,
    compute_syndrome,
    ebch_64_57_parity_check,
    enumerate_paths,
    expurgate,
)

matrix = TestMatrix([
    [1, 1, 0, 1, 0, 0],
    [0, 1, 1, 0, 1, 0],
    [1, 0, 1, 0, 0, 1],
])

# The complete trellis has one section per element. A state at depth
# ell is the set of tests already fired by elements 0..ell-1, packed
# into an integer (bit i = test i). Every length-n binary vector is a
# path from state 0 to some final state.
complete = build_complete(matrix)
print("complete trellis, states per depth:", list(complete.state_counts))
paths = enumerate_paths(complete)
print("paths through the complete trellis:", len(paths), "= 2 **", matrix.n)

# The full edge list of a small trellis is readable as text. Each line
# is "depth source-state destination-state label"; label 1 means the
# element at that depth is defective, and then the destination is the
# source OR-ed with the element's test membership mask.
print()
print(complete.dump())

# Expurgation keeps only the paths that land exactly on one observed
# outcome. For outcome (1, 0, 1) = packed state 5, just five of the 64
# defectivity patterns survive.
outcome = np.array([1, 0, 1], dtype=np.uint8)
expurgated = expurgate(matrix, outcome)
survivors = enumerate_paths(expurgated)
print("expurgated to outcome", outcome, "->", len(survivors), "paths:")
for p in survivors:
    print("   ", p)
for p in survivors:
    assert np.array_equal(compute_syndrome(matrix, p), outcome)

# Reduction goes further: any element pooled by a silent test is
# forced clear, so its trellis section is a formality. The reduced
# trellis drops those elements and the silent tests, leaving a graph
# over the fired tests only.
reduced = build_reduced(matrix, outcome)
print()
print("reduced trellis keeps elements", np.flatnonzero(reduced.kept).tolist(),
      "and tests", np.flatnonzero(reduced.outcome).tolist())
print("forced-clear elements:", np.flatnonzero(~reduced.kept).tolist())
print("states per depth:", list(reduced.state_counts))

# On a structured design the savings are visible at scale. For the
# 7x64 parity-check matrix the complete trellis needs up to 2**7
# states, while a typical low-weight outcome reduces to a few tests.
big = ebch_64_57_parity_check()
big_complete = build_complete(big)
truth = np.zeros(64, dtype=np.uint8)
truth[[3, 41]] = 1
big_outcome = compute_syndrome(big, truth)
big_reduced = build_reduced(big, big_outcome)
print()
print("7x64 design, 2 defectives ->", int(big_outcome.sum()), "fired tests")
print("complete trellis peak width:", max(big_complete.state_counts))
print("reduced trellis peak width: ", max(big_reduced.state_counts),
      "over", big_reduced.n, "of 64 elements")
