"""Test-matrix constructions and the plain-text matrix interchange format.

The text format is a single header line ``m n`` followed by m rows of n
space-separated 0/1 entries.  Nothing else: no comments, no blank rows.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from .model import MatrixFormatError, SizeLimitError, TestMatrix

_GF64_PRIMITIVE = 0b1000011  # x**6 + x + 1, primitive over GF(2)

#: Largest hypergraph incidence matrix built, in columns (k-subsets).
MAX_COLUMNS = 1 << 20


def hypergraph_incidence(vertices: int, subset_size: int) -> TestMatrix:
    """Incidence matrix of the complete k-uniform hypergraph on `vertices` nodes.

    Tests are vertices; every k-subset of vertices becomes one element
    (column), so each column has Hamming weight exactly k.  Columns follow the
    lexicographic order of itertools.combinations.
    """
    if not 1 <= subset_size <= vertices:
        raise ValueError(
            f"subset size must lie in [1, {vertices}], got {subset_size}"
        )
    count = math.comb(vertices, subset_size)
    if count > MAX_COLUMNS:
        raise SizeLimitError(
            f"C({vertices}, {subset_size}) = {count} columns exceeds the guard {MAX_COLUMNS}"
        )
    entries = np.zeros((vertices, count), dtype=np.uint8)
    for j, subset in enumerate(itertools.combinations(range(vertices), subset_size)):
        entries[list(subset), j] = 1
    return TestMatrix(entries)


def ebch_64_57_parity_check() -> TestMatrix:
    """Parity-check matrix of the extended binary BCH(64, 57) code, 7 x 64.

    Positions 0..62 carry the cyclic code, position 63 the overall-parity
    extension.  Rows 0..5 read out the six bits of alpha**j over GF(64) with
    alpha a root of x**6 + x + 1 (so H applied to a codeword evaluates
    c(alpha) = 0); row 6 is the complement of row 0, which together with row 0
    enforces the even-overall-weight extension.  Every row has Hamming weight
    32 and the seven rows are linearly independent over GF(2).
    """
    h = np.zeros((7, 64), dtype=np.uint8)
    a = 1
    for j in range(63):
        for i in range(6):
            h[i, j] = (a >> i) & 1
        a <<= 1
        if a & 0b1000000:
            a ^= _GF64_PRIMITIVE
    h[6, :] = 1 - h[0, :]
    return TestMatrix(h)


def bernoulli_matrix(m: int, n: int, density: float, seed: int) -> TestMatrix:
    """Random matrix with i.i.d. Bernoulli(density) entries, reproducible by seed."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return TestMatrix((rng.random((m, n)) < density).astype(np.uint8))


def write_matrix(path, matrix: TestMatrix) -> None:
    """Write a matrix in the `m n` header + 0/1 rows text format."""
    lines = [f"{matrix.m} {matrix.n}"]
    for i in range(matrix.m):
        lines.append(" ".join(str(int(v)) for v in matrix.row(i)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> TestMatrix:
    """Parse the text format back into a TestMatrix; strict about the layout."""
    lines = Path(path).read_text().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixFormatError("matrix file is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise MatrixFormatError(f"header must be exactly 'm n', got {lines[0]!r}")
    try:
        m, n = int(head[0]), int(head[1])
    except ValueError:
        raise MatrixFormatError(f"header must hold two integers, got {lines[0]!r}") from None
    if m < 1 or n < 1:
        raise MatrixFormatError(f"header dimensions must be positive, got {m} {n}")
    if len(lines) - 1 != m:
        raise MatrixFormatError(f"expected {m} matrix rows, found {len(lines) - 1}")
    rows = np.zeros((m, n), dtype=np.uint8)
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixFormatError(f"row {i} has {len(tokens)} entries, expected {n}")
        for j, tok in enumerate(tokens):
            if tok == "1":
                rows[i, j] = 1
            elif tok != "0":
                raise MatrixFormatError(f"row {i} has non-binary entry {tok!r}")
    return TestMatrix(rows)
