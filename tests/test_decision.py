import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grouptrellis import (
    Noiseless,
    Prior,
    TestMatrix,
    ThresholdRule,
    build_complete,
    comp_decide,
    compute_syndrome,
    decide,
    run,
)

LAPP = np.array([-math.inf, -1.0, 0.0, 1.0, math.inf])

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-50, max_value=50)


class TestDecide:
    def test_tie_defective_by_default(self):
        flags = decide(LAPP, ThresholdRule(0.0))
        assert flags.tolist() == [1, 1, 1, 0, 0]

    def test_tie_clear(self):
        flags = decide(LAPP, ThresholdRule(0.0, tie_defective=False))
        assert flags.tolist() == [1, 1, 0, 0, 0]

    def test_minus_infinity_flags_nothing(self):
        assert decide(LAPP, ThresholdRule(-math.inf)).tolist() == [0, 0, 0, 0, 0]

    def test_plus_infinity_spares_only_certain_clears(self):
        assert decide(LAPP, ThresholdRule(math.inf)).tolist() == [1, 1, 1, 1, 0]

    @pytest.mark.parametrize("threshold", [0.0, -0.0])
    @pytest.mark.parametrize("tie, want", [(True, [0, 1, 1, 1, 0]), (False, [0, 0, 0, 1, 0])])
    def test_nan_and_signed_zero_lapp(self, threshold, tie, want):
        # -0.0 equals 0.0, so both zeros tie with either zero threshold; NaN
        # compares false with everything and is never flagged
        lapp = np.array([math.nan, -0.0, 0.0, -5e-324, 5e-324])
        assert decide(lapp, ThresholdRule(threshold, tie)).tolist() == want

    @pytest.mark.parametrize("threshold", [-math.inf, math.inf])
    @pytest.mark.parametrize("tie", [True, False])
    def test_nan_lapp_is_never_flagged(self, threshold, tie):
        assert decide(np.array([math.nan]), ThresholdRule(threshold, tie)).tolist() == [0]

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule(math.nan)

    @given(
        st.lists(finite_floats, min_size=1, max_size=12),
        finite_floats,
        finite_floats,
        st.booleans(),
    )
    def test_flagged_sets_nest_as_threshold_grows(self, lapp, lam_a, lam_b, tie):
        lo, hi = sorted([lam_a, lam_b])
        flags_lo = decide(np.array(lapp), ThresholdRule(lo, tie_defective=tie))
        flags_hi = decide(np.array(lapp), ThresholdRule(hi, tie_defective=tie))
        assert np.all(flags_lo <= flags_hi)


class TestCompDecide:
    def test_toy_worked_example(self, toy_matrix):
        got = comp_decide(toy_matrix, [1, 0, 1])
        assert got.tolist() == [1, 0, 0, 1, 0, 1]

    def test_all_fired_flags_everything(self, toy_matrix):
        assert comp_decide(toy_matrix, [1, 1, 1]).tolist() == [1] * 6

    def test_never_misses_a_defective(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        for _ in range(50):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 11))
            matrix = TestMatrix((rng.random((m, n)) < 0.5).astype(np.uint8))
            x = (rng.random(n) < 0.3).astype(np.uint8)
            flagged = comp_decide(matrix, compute_syndrome(matrix, x))
            assert np.all(flagged >= x)

    def test_equals_infinite_threshold_posterior_decision(self):
        rng = np.random.Generator(np.random.Philox(key=37))
        prior = Prior(0.2)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 9))
            matrix = TestMatrix((rng.random((m, n)) < 0.5).astype(np.uint8))
            x = (rng.random(n) < prior.delta).astype(np.uint8)
            t = compute_syndrome(matrix, x)
            result = run(build_complete(matrix), prior, Noiseless(), t)
            via_posterior = decide(result.lapp, ThresholdRule(math.inf))
            assert np.array_equal(via_posterior, comp_decide(matrix, t))
