"""Test-matrix constructions and the plain-text matrix interchange format.

The text format is a single header line ``m n`` followed by m rows of n
space-separated 0/1 entries.  Nothing else: no comments, no blank rows.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from .model import MatrixFormatError, SizeLimitError, TestMatrix, _unpack_rows

_GF64_PRIMITIVE = 0b1000011  # x**6 + x + 1, primitive over GF(2)

#: Largest matrix generated or read, in entries (tests x elements); checked
#: before any array of that size is allocated.
MAX_ENTRIES = 1 << 24


def _check_entries(m, n):
    if m * n > MAX_ENTRIES:
        raise SizeLimitError(
            f"a {m}x{n} matrix has {m * n} entries, over the guard of {MAX_ENTRIES}"
        )


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
    count = 1
    for i in range(min(subset_size, vertices - subset_size) + 1):
        if i:
            count = count * (vertices - i + 1) // i  # C(vertices, i), exact
        if vertices * count > MAX_ENTRIES:  # counts only grow: stop at the first too large
            raise SizeLimitError(
                f"the {subset_size}-subsets of {vertices} vertices make a matrix "
                f"over the guard of {MAX_ENTRIES} entries"
            )
    members = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(vertices), subset_size)),
        dtype=np.intp,
        count=count * subset_size,
    ).reshape(count, subset_size)
    entries = np.zeros((vertices, count), dtype=np.uint8)
    entries[members, np.arange(count)[:, None]] = 1
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
    powers = [1]  # alpha**j packed, bit i the coefficient of x**i
    for _ in range(62):
        a = powers[-1] << 1
        powers.append(a ^ _GF64_PRIMITIVE if a & 0b1000000 else a)
    h = np.zeros((7, 64), dtype=np.uint8)
    h[:6, :63] = _unpack_rows(np.array(powers, dtype=np.int64), 6).T
    h[6, :] = 1 - h[0, :]
    return TestMatrix(h)


def bernoulli_matrix(m: int, n: int, density: float, seed: int) -> TestMatrix:
    """Random matrix with i.i.d. Bernoulli(density) entries, reproducible by seed."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    _check_entries(m, n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return TestMatrix((rng.random((m, n)) < density).astype(np.uint8))


def write_matrix(path, matrix: TestMatrix) -> None:
    """Write a matrix in the `m n` header + 0/1 rows text format."""
    lines = [f"{matrix.m} {matrix.n}"]
    for row in matrix.entries:
        lines.append(" ".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> TestMatrix:
    """Parse the text format back into a TestMatrix; strict about the layout.

    The header is checked before any row is read, and the rows are read one
    line at a time, so an oversize header or an extra row is rejected without
    reading the rest of the file.  Trailing blank lines are allowed.
    """
    with Path(path).open() as lines:
        header = next(lines, "")
        head = header.split()
        if not head and not any(line.strip() for line in lines):
            raise MatrixFormatError("matrix file is empty")
        header = header.rstrip("\n")
        if len(head) != 2:
            raise MatrixFormatError(f"header must be exactly 'm n', got {header!r}")
        try:
            m, n = int(head[0]), int(head[1])
        except ValueError:
            raise MatrixFormatError(f"header must hold two integers, got {header!r}") from None
        if m < 1 or n < 1:
            raise MatrixFormatError(f"header dimensions must be positive, got {m} {n}")
        _check_entries(m, n)
        rows = np.zeros((m, n), dtype=np.uint8)
        for i in range(m):
            tokens = next(lines, "").split()
            if not tokens and not any(line.strip() for line in lines):
                raise MatrixFormatError(f"expected {m} matrix rows, found {i}")
            if len(tokens) != n:
                raise MatrixFormatError(f"row {i} has {len(tokens)} entries, expected {n}")
            for j, tok in enumerate(tokens):
                if tok == "1":
                    rows[i, j] = 1
                elif tok != "0":
                    raise MatrixFormatError(f"row {i} has non-binary entry {tok!r}")
        for number, line in enumerate(lines, start=m + 2):
            if line.strip():
                raise MatrixFormatError(f"expected {m} matrix rows, found another on line {number}")
    return TestMatrix(rows)
