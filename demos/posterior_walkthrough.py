"""
Exact per-element posteriors on a tiny pooling design
=====================================================

Walks through one complete inference pass on a 3-test, 6-element
pooling matrix: form the outcome, run the forward-backward sweep on
the syndrome trellis, and read off each element's posterior
probability of being defective.

Run with:  python3 demos/posterior_walkthrough.py
"""

import numpy as np

from grouptrellis import (
    Bsc,
    Noiseless,
    Prior,
    TestMatrix,
    build_complete,
    build_reduced,
    compute_syndrome,
    expurgate,
    posterior_pairs,
    run,
)

# The pooling design: rows are tests, columns are elements. Test 0
# pools elements {0, 1, 3}, test 1 pools {1, 2, 4}, test 2 pools
# {0, 2, 5}.
matrix = TestMatrix([
    [1, 1, 0, 1, 0, 0],
    [0, 1, 1, 0, 1, 0],
    [1, 0, 1, 0, 0, 1],
])
prior = Prior(delta=0.1)

# Suppose elements 1 and 4 are defective. Tests 0 and 1 fire because
# each pools at least one of them; test 2 stays silent.
truth = np.array([0, 1, 0, 0, 1, 0], dtype=np.uint8)
outcome = compute_syndrome(matrix, truth)
print("ground truth:      ", truth)
print("observed outcome:  ", outcome)

# Build the complete trellis and run the exact posterior computation.
# lapp[i] = log P(element i clear | outcome) - log P(defective | outcome),
# so large positive values mean "confident clear" and +inf means the
# outcome rules out defectivity entirely.
trellis = build_complete(matrix)
result = run(trellis, prior, Noiseless(), outcome)
defective = posterior_pairs(result)[:, 1]

print()
print("element  lapp        P(defective | outcome)")
for i in range(matrix.n):
    print(f"{i:>7}  {result.lapp[i]:>10.4f}  {defective[i]:.6f}")

# Test 2 pools elements 0, 2, 5 and stayed silent, so those three are
# structurally clear (lapp = +inf). Elements 1, 3, 4 appear only in
# fired tests and stay uncertain; element 1 sits in both fired tests
# and is the most suspicious.
assert np.isinf(result.lapp[[0, 2, 5]]).all()

# The model evidence log P(outcome) comes out of the same sweep. The
# engine also computes it once per trellis section; all sections must
# agree, which is a strong internal consistency check.
print()
print("log evidence:", result.log_evidence)
print("per-section spread:",
      float(np.ptp(result.section_log_evidence)))

# The expurgated trellis keeps only paths consistent with this exact
# outcome, and the reduced trellis additionally strips the silent
# tests and the elements they clear. All three give the same answer:
# identical +inf pattern, finite values equal to float precision.
for other in (run(expurgate(matrix, outcome), prior, Noiseless(), outcome),
              run(build_reduced(matrix, outcome), prior, Noiseless(), outcome)):
    finite = np.isfinite(result.lapp)
    assert np.array_equal(finite, np.isfinite(other.lapp))
    assert np.allclose(result.lapp[finite], other.lapp[finite], rtol=1e-12)
print()
print("complete, expurgated, and reduced trellises agree")

# Under test noise the hard +inf decisions soften: with a 5% flip
# probability the silent test could have been a masked firing, so no
# element is ever perfectly cleared.
noisy = run(trellis, prior, Bsc(0.05), outcome)
print()
print("with 5% test flips, P(defective):",
      np.array2string(posterior_pairs(noisy)[:, 1], precision=4))
