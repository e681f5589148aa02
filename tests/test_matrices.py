import itertools
import time
import tracemalloc

import numpy as np
import pytest

from grouptrellis import (
    MatrixFormatError,
    SizeLimitError,
    TestMatrix,
    bernoulli_matrix,
    ebch_64_57_parity_check,
    hypergraph_incidence,
    matrices,
    read_matrix,
    write_matrix,
)
from helpers import gf2_rank


def _bch_63_57_extended_basis():
    """Basis of the (63,57) cyclic code generated by x**6 + x + 1, each word
    extended by an overall parity bit.  Independent route for orthogonality."""
    gen = [1, 1, 0, 0, 0, 0, 1]  # coefficients of x**6 + x + 1, low degree first
    basis = []
    for shift in range(57):
        word = [0] * 64
        for k, coeff in enumerate(gen):
            word[shift + k] = coeff
        word[63] = sum(word[:63]) % 2
        basis.append(word)
    return np.array(basis, dtype=np.uint8)


class TestHypergraphIncidence:
    def test_nine_choose_three_shape(self):
        matrix = hypergraph_incidence(9, 3)
        assert (matrix.m, matrix.n) == (9, 84)

    def test_column_weights_equal_subset_size(self):
        matrix = hypergraph_incidence(9, 3)
        assert np.all(matrix.entries.sum(axis=0) == 3)

    def test_columns_are_distinct_subsets_in_lex_order(self):
        matrix = hypergraph_incidence(6, 2)
        subsets = [tuple(np.flatnonzero(matrix.entries[:, j])) for j in range(matrix.n)]
        assert subsets == list(itertools.combinations(range(6), 2))

    def test_each_vertex_appears_equally_often(self):
        # by symmetry every test pools C(v-1, k-1) elements
        matrix = hypergraph_incidence(9, 3)
        assert np.all(matrix.entries.sum(axis=1) == 28)

    @pytest.mark.parametrize("vertices, subset_size", [(1, 1), (4, 4), (6, 1), (7, 6), (9, 3), (12, 5)])
    def test_matches_a_loop_built_incidence(self, vertices, subset_size):
        subsets = list(itertools.combinations(range(vertices), subset_size))
        want = np.zeros((vertices, len(subsets)), dtype=np.uint8)
        for j, subset in enumerate(subsets):
            for v in subset:
                want[v, j] = 1
        got = hypergraph_incidence(vertices, subset_size).entries
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hypergraph_incidence(4, 0)
        with pytest.raises(ValueError):
            hypergraph_incidence(4, 5)
        with pytest.raises(SizeLimitError):
            hypergraph_incidence(40, 20)


class TestExtendedBchParityCheck:
    def test_shape_and_row_weights(self):
        matrix = ebch_64_57_parity_check()
        assert (matrix.m, matrix.n) == (7, 64)
        assert matrix.entries.sum(axis=1).tolist() == [32] * 7

    def test_full_rank_over_gf2(self):
        assert gf2_rank(ebch_64_57_parity_check().entries) == 7

    def test_orthogonal_to_the_extended_code(self):
        h = ebch_64_57_parity_check().entries.astype(np.int64)
        basis = _bch_63_57_extended_basis().astype(np.int64)
        assert not ((h @ basis.T) % 2).any()

    def test_columns_distinct(self):
        matrix = ebch_64_57_parity_check()
        packed = {tuple(matrix.entries[:, j]) for j in range(64)}
        assert len(packed) == 64


class TestBernoulli:
    def test_deterministic_per_seed(self):
        a = bernoulli_matrix(5, 12, 0.4, seed=7)
        b = bernoulli_matrix(5, 12, 0.4, seed=7)
        c = bernoulli_matrix(5, 12, 0.4, seed=8)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_density_extremes(self):
        assert not bernoulli_matrix(3, 4, 0.0, seed=0).entries.any()
        assert bernoulli_matrix(3, 4, 1.0, seed=0).entries.all()

    def test_density_validation(self):
        with pytest.raises(ValueError):
            bernoulli_matrix(3, 4, 1.5, seed=0)


class TestEntryGuard:
    """An oversize matrix raises SizeLimitError before any array of its size exists."""

    @pytest.mark.parametrize(
        "build",
        [lambda: hypergraph_incidence(12, 6), lambda: bernoulli_matrix(40, 40, 0.5, 0)],
        ids=["hypergraph", "bernoulli"],
    )
    def test_generators_fail_before_they_allocate(self, monkeypatch, build):
        build()  # 11,088 and 1,600 entries pass the real guard
        monkeypatch.setattr(matrices, "MAX_ENTRIES", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="over the guard of 1000"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8192  # the exception's own bytes; the float draw alone is 12,800

    @pytest.mark.parametrize("vertices", [200_000, 2_000_000])
    def test_hypergraph_is_refused_before_its_column_count_grows(self, vertices):
        # C(vertices, vertices / 2) has tens of thousands of digits or more
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="over the guard of 16777216 entries$"):
            hypergraph_incidence(vertices, vertices // 2)
        assert time.perf_counter() - start < 0.5

    def test_reader_checks_the_header(self, monkeypatch, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("40 40\n" + "0 " * 39 + "0\n")  # one row of 40: only the header counts
        monkeypatch.setattr(matrices, "MAX_ENTRIES", 1000)
        with pytest.raises(SizeLimitError, match="40x40 matrix has 1600 entries"):
            read_matrix(path)


class TestTextFormat:
    def test_exact_serialisation(self, toy_matrix, tmp_path):
        path = tmp_path / "toy.txt"
        write_matrix(path, toy_matrix)
        assert path.read_text() == (
            "3 6\n"
            "1 1 0 1 0 0\n"
            "0 1 1 0 1 0\n"
            "1 0 1 0 0 1\n"
        )

    @pytest.mark.parametrize(
        "matrix",
        [
            hypergraph_incidence(5, 2),
            ebch_64_57_parity_check(),
            bernoulli_matrix(4, 9, 0.5, seed=3),
        ],
    )
    def test_roundtrip(self, matrix, tmp_path):
        path = tmp_path / "mat.txt"
        write_matrix(path, matrix)
        assert np.array_equal(read_matrix(path).entries, matrix.entries)

    def test_trailing_newline_optional(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n1 0")
        assert read_matrix(path).entries.tolist() == [[1, 0]]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1 0\n0 1\n",
            "a b\n",
            "0 3\n",
            "2 2\n1 0\n",
            "1 2\n1 0\n0 1\n",
            "1 3\n1 0\n",
            "1 2\n1 2\n",
            "1 2\n1 x\n",
        ],
    )
    def test_malformed_files_rejected(self, text, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_read_is_strict_about_extra_rows(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("1 2\n1 0\ntrailing junk\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_extra_rows_are_rejected_without_reading_them(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("1 2\n1 0\n" + "0 1\n" * 250_000)  # 1 MB of extra rows
        tracemalloc.start()
        try:
            with pytest.raises(MatrixFormatError, match="expected 1 matrix rows"):
                read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10  # reading the whole file first held more than 1 MB

    @pytest.mark.parametrize(
        "text, rows",
        [("2 2\n1 0\n0 1\n\n \n", [[1, 0], [0, 1]]), ("1 1\n1\n\n\n", [[1]])],
    )
    def test_trailing_blank_lines_allowed(self, text, rows, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert read_matrix(path).entries.tolist() == rows
