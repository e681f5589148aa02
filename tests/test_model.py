import copy
import dataclasses
import inspect
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptrellis import (
    Bsc,
    Noiseless,
    Prior,
    SizeLimitError,
    TestMatrix,
    bits_to_index,
    compute_syndrome,
    hypergraph_incidence,
    index_to_bits,
)
from grouptrellis.model import _pack_rows, _unpack_rows
from conftest import TOY_ENTRIES
from helpers import all_vectors, bsc_likelihood, naive_syndrome


@st.composite
def matrix_and_vector(draw, max_m=5, max_n=8):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    entries = draw(
        st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    x = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(entries, dtype=np.uint8), np.array(x, dtype=np.uint8)


class TestTestMatrix:
    def test_shape_accessors(self, toy_matrix):
        assert (toy_matrix.m, toy_matrix.n) == (3, 6)
        assert np.array_equal(toy_matrix.entries[:, 1], [1, 1, 0])
        assert np.array_equal(toy_matrix.entries[2], [1, 0, 1, 0, 0, 1])

    def test_column_masks_pack_test_bits(self, toy_matrix):
        # worked out by hand: column l collects 2**i over its tests i
        assert toy_matrix.column_masks.tolist() == [5, 3, 6, 1, 2, 4]

    def test_entries_are_immutable(self, toy_matrix):
        with pytest.raises(ValueError):
            toy_matrix.entries[0, 0] = 0

    def test_column_masks_are_read_only(self, toy_matrix):
        with pytest.raises(ValueError, match="read-only"):
            toy_matrix.column_masks[:] = 0
        assert toy_matrix.column_masks.tolist() == [5, 3, 6, 1, 2, 4]

    def test_caller_array_stays_writeable_and_unshared(self):
        entries = np.array([[1, 1, 0], [0, 1, 1]], np.uint8)
        mat = TestMatrix(entries)
        assert entries.flags.writeable
        entries[0, 0] = 0
        assert mat.entries.tolist() == [[1, 1, 0], [0, 1, 1]]
        assert mat.column_masks.tolist() == [1, 3, 2]

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_copies_stay_read_only(self, clone):
        matrix = hypergraph_incidence(9, 3)
        matrix.column_masks  # a cached mask must not travel with the copy
        twin = clone(matrix)
        assert twin.entries.tobytes() == matrix.entries.tobytes()
        assert twin.column_masks.tobytes() == matrix.column_masks.tobytes()
        for arr in (twin.entries, twin.column_masks):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, matrix.entries)
            assert not np.shares_memory(arr, matrix.column_masks)
        with pytest.raises(ValueError, match="read-only"):
            twin.entries[0, 0] = 1 - twin.entries[0, 0]

    def test_bool_entries_accepted(self):
        mat = TestMatrix(TOY_ENTRIES.astype(bool))
        assert np.array_equal(mat.entries, TOY_ENTRIES)

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((0, 4), dtype=np.uint8),
            np.zeros((4, 0), dtype=np.uint8),
            np.array([[0, 2]]),
            np.array([[-1, 0]]),
            np.zeros(4, dtype=np.uint8),
            np.array([[0.5, 0.5]]),
        ],
    )
    def test_rejects_malformed_entries(self, bad):
        with pytest.raises(ValueError):
            TestMatrix(bad)


class TestPrior:
    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_degenerate_prevalence(self, delta):
        with pytest.raises(ValueError):
            Prior(delta)

    def test_accepts_interior_value(self):
        assert Prior(0.015).delta == 0.015


class TestSyndrome:
    def test_worked_example(self, toy_matrix):
        # x = (0,1,0,0,1,0) fires tests 0 and 1 only
        assert compute_syndrome(toy_matrix, [0, 1, 0, 0, 1, 0]).tolist() == [1, 1, 0]

    def test_all_clear_is_silent(self, toy_matrix):
        assert compute_syndrome(toy_matrix, np.zeros(6, dtype=np.uint8)).tolist() == [0, 0, 0]

    @given(matrix_and_vector())
    def test_matches_naive_double_loop(self, mv):
        entries, x = mv
        got = compute_syndrome(TestMatrix(entries), x)
        assert np.array_equal(got, naive_syndrome(entries, x))

    @given(matrix_and_vector())
    def test_monotone_in_defectivity(self, mv):
        entries, x = mv
        mat = TestMatrix(entries)
        bigger = x.copy()
        bigger[0] = 1
        s, s2 = compute_syndrome(mat, x), compute_syndrome(mat, bigger)
        assert np.all(s <= s2)

    def test_length_mismatch_rejected(self, toy_matrix):
        with pytest.raises(ValueError):
            compute_syndrome(toy_matrix, [1, 0])


class TestPacking:
    def test_low_bit_is_first_test(self):
        assert bits_to_index([1, 0, 1]) == 5
        assert index_to_bits(5, 3).tolist() == [1, 0, 1]

    @given(st.integers(1, 20), st.data())
    def test_roundtrip(self, m, data):
        index = data.draw(st.integers(0, 2**m - 1))
        assert bits_to_index(index_to_bits(index, m)) == index

    @pytest.mark.parametrize("m", [0, 1, 63])
    def test_codec_roundtrip(self, m):
        rng = np.random.Generator(np.random.Philox(key=m))
        rows = (rng.random((40, m)) < 0.5).astype(np.uint8)
        rows[0], rows[1] = 0, 1  # the all-zero row and the all-one row, the highest index
        indices = _pack_rows(rows, m)
        assert indices.dtype == np.int64 and indices.min() >= 0
        unpacked = _unpack_rows(indices, m)
        assert unpacked.dtype == np.uint8 and np.array_equal(unpacked, rows)
        for index, row in zip(indices, rows):
            assert np.array_equal(index_to_bits(int(index), m), row)
            assert bits_to_index(row) == index

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            index_to_bits(8, 3)
        with pytest.raises(SizeLimitError):
            bits_to_index(np.zeros(64, dtype=np.uint8))

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: bits_to_index(np.zeros((2, 3), np.uint8)), ValueError,
             "bit vector must be one-dimensional, got shape (2, 3)"),
            (lambda: index_to_bits(0, 64), SizeLimitError, "bit count must lie in [0, 63], got 64"),
            (lambda: _pack_rows(np.zeros((2, 4), np.uint8), 3), ValueError,
             "expected a (K, 3) array of outcomes, got shape (2, 4)"),
        ],
        ids=["bits_to_index-2d", "index_to_bits-64", "pack_rows-width"],
    )  # fmt: skip
    def test_malformed_arguments_rejected(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()


class TestBscLikelihood:
    def test_hand_value(self):
        # one disagreement out of three bits: outcome 101 against syndrome 111
        table = Bsc(0.05).likelihood_table(np.array([[1, 0, 1]], np.uint8), [0b111], 3)
        assert table[0, 0] == pytest.approx(0.05 * 0.95**2, rel=1e-15)

    def test_epsilon_zero_is_indicator(self):
        # outcome 10 against syndromes 10 and 11
        table = Bsc(0.0).likelihood_table(np.array([[1, 0]], np.uint8), [0b01, 0b11], 2)
        assert table[:, 0].tolist() == [1.0, 0.0]

    @given(st.integers(1, 6), st.floats(0.0, 0.49), st.data())
    @settings(max_examples=50)
    def test_normalized_over_outcomes(self, m, eps, data):
        s = data.draw(st.integers(0, (1 << m) - 1))
        try:
            table = Bsc(eps).likelihood_table(np.array(all_vectors(m)), [s], m)
        except ValueError as exc:  # eps**m below the smallest normal float
            assert "underflows" in str(exc)
            return
        assert table.sum() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            Bsc(0.5)
        with pytest.raises(ValueError):
            Bsc(-0.01)


class TestBscUnderflowFloor:
    """A crossover whose smallest weight, epsilon**m, would be subnormal is refused."""

    M = 16
    STATES = (1 << np.arange(M + 1)) - 1  # one state at every distance 0..M from all-zero
    ZERO = np.zeros((1, M), np.uint8)

    def test_weights_are_kept_bit_for_bit(self):
        for eps in (0.05, 0.2):
            k = np.arange(self.M + 1)
            want = eps**k * (1.0 - eps) ** (self.M - k)
            got = Bsc(eps).likelihood_table(self.ZERO, self.STATES, self.M)[:, 0]
            assert got.tobytes() == want.tobytes()

    def test_floor_is_the_smallest_normal_float(self):
        tiny = np.finfo(float).smallest_normal
        edge = float(tiny ** (1 / self.M))
        above, below = edge * (1 + 1e-9), edge * (1 - 1e-9)
        table = Bsc(above).likelihood_table(self.ZERO, self.STATES, self.M)
        assert table.min() >= tiny
        with pytest.raises(ValueError, match=f"crossover probability {below!r} underflows on 16"):
            Bsc(below).likelihood_table(self.ZERO, self.STATES, self.M)

    def test_epsilon_zero_keeps_its_exact_zeros(self):
        table = Bsc(0.0).likelihood_table(self.ZERO, self.STATES, self.M)
        assert table[:, 0].tolist() == [1.0] + [0.0] * self.M


class TestNoiseModels:
    def test_noiseless_is_bsc_code_at_epsilon_zero(self):
        # one channel implementation: every method Noiseless has is Bsc's own
        methods = {k: v for k, v in vars(Noiseless).items() if inspect.isfunction(v)}
        named = {k for k in methods if not k.startswith("__")}
        assert named == {"likelihood_table", "likelihood_packed", "_weights"}
        assert all(methods[k] is vars(Bsc)[k] for k in named)
        assert Noiseless().epsilon == 0.0 and dataclasses.fields(Noiseless) == ()
        # not a subclass: code that draws flips for a Bsc instance draws none here
        assert not isinstance(Noiseless(), Bsc)

    def test_noiseless_packed_is_indicator(self):
        states = np.array([0, 3, 5, 7])
        got = Noiseless().likelihood_packed([1, 0, 1], states, 3)
        assert got.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_bsc_packed_matches_scalar(self):
        states = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        noise = Bsc(0.2)
        t = np.array([1, 1, 0], np.uint8)
        got = noise.likelihood_packed(t, states, 3)
        want = [bsc_likelihood(noise.epsilon, t, index_to_bits(s, 3)) for s in states]
        assert np.allclose(got, want, rtol=1e-15)

    def test_likelihood_table_matches_columns(self):
        cases = [
            (3, np.array([0, 2, 5, 7]), np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], np.uint8)),
            # states 2**j - 1 lie at every distance 0..12 from the all-zero outcome
            (12, (1 << np.arange(13)) - 1, np.array([[0] * 12, [1] * 12, [1, 0] * 6], np.uint8)),
        ]
        for m, states, outcomes in cases:
            for noise in (Noiseless(), Bsc(0.1)):
                table = noise.likelihood_table(outcomes, states, m)
                assert table.shape == (states.size, len(outcomes))
                for j, s in enumerate(states):
                    for k, t in enumerate(outcomes):
                        want = bsc_likelihood(noise.epsilon, t, index_to_bits(s, m))
                        assert table[j, k] == pytest.approx(want, rel=1e-15)
