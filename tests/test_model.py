import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptrellis import (
    Bsc,
    CustomNoise,
    Noiseless,
    Prior,
    SizeLimitError,
    TestMatrix,
    bits_to_index,
    compute_syndrome,
    index_to_bits,
)
from conftest import TOY_ENTRIES
from helpers import all_vectors, naive_syndrome


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
        assert np.array_equal(toy_matrix.column(1), [1, 1, 0])
        assert np.array_equal(toy_matrix.row(2), [1, 0, 1, 0, 0, 1])

    def test_column_masks_pack_test_bits(self, toy_matrix):
        # worked out by hand: column l collects 2**i over its tests i
        assert toy_matrix.column_masks.tolist() == [5, 3, 6, 1, 2, 4]

    def test_entries_are_immutable(self, toy_matrix):
        with pytest.raises(ValueError):
            toy_matrix.entries[0, 0] = 0

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

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            index_to_bits(8, 3)
        with pytest.raises(SizeLimitError):
            bits_to_index(np.zeros(64, dtype=np.uint8))


class TestBscLikelihood:
    def test_hand_value(self):
        # one disagreement out of three bits
        assert Bsc(0.05).likelihood([1, 0, 1], [1, 1, 1]) == pytest.approx(
            0.05 * 0.95**2, rel=1e-15
        )

    def test_epsilon_zero_is_indicator(self):
        assert Bsc(0.0).likelihood([1, 0], [1, 0]) == 1.0
        assert Bsc(0.0).likelihood([1, 0], [1, 1]) == 0.0

    @given(st.integers(1, 6), st.floats(0.0, 0.49), st.data())
    @settings(max_examples=50)
    def test_normalized_over_outcomes(self, m, eps, data):
        s = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), np.uint8)
        total = sum(Bsc(eps).likelihood(t, s) for t in all_vectors(m))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            Bsc(0.5).likelihood([1], [1])
        with pytest.raises(ValueError):
            Bsc(-0.01)


class TestNoiseModels:
    def test_noiseless_packed_is_indicator(self):
        states = np.array([0, 3, 5, 7])
        got = Noiseless().likelihood_packed([1, 0, 1], states, 3)
        assert got.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_bsc_packed_matches_scalar(self):
        states = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        noise = Bsc(0.2)
        t = np.array([1, 1, 0], np.uint8)
        got = noise.likelihood_packed(t, states, 3)
        want = [noise.likelihood(t, index_to_bits(s, 3)) for s in states]
        assert np.allclose(got, want, rtol=1e-15)

    def test_likelihood_table_matches_columns(self):
        cases = [
            (3, np.array([0, 2, 5, 7]), np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], np.uint8)),
            # states 2**j - 1 lie at every distance 0..12 from the all-zero outcome
            (12, (1 << np.arange(13)) - 1, np.array([[0] * 12, [1] * 12, [1, 0] * 6], np.uint8)),
        ]
        for m, states, outcomes in cases:
            for noise in (
                Noiseless(), Bsc(0.1), CustomNoise(lambda t, s: Bsc(0.1).likelihood(t, s))
            ):
                table = noise.likelihood_table(outcomes, states, m)
                assert table.shape == (states.size, len(outcomes))
                for j, s in enumerate(states):
                    for k, t in enumerate(outcomes):
                        want = noise.likelihood(t, index_to_bits(s, m))
                        assert table[j, k] == pytest.approx(want, rel=1e-15)

    def test_custom_noise_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CustomNoise(lambda t, s: -0.5).likelihood([1], [1])
        with pytest.raises(ValueError):
            CustomNoise(lambda t, s: math.inf).likelihood([1], [1])
