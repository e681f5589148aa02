import math

import numpy as np
import pytest

from grouptrellis import (
    Bsc,
    CustomNoise,
    Noiseless,
    NotASyndromeError,
    Prior,
    SizeLimitError,
    TestMatrix,
    branch_metric,
    build_complete,
    build_reduced,
    compute_syndrome,
    enumerate_posteriors,
    expurgate,
    posterior_pairs,
    posterior_table,
    run,
)
from helpers import walk_partial_syndromes

T_101 = np.array([1, 0, 1], dtype=np.uint8)
PRIOR = Prior(0.1)


def _random_instance(rng, max_m=6, max_n=10):
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    matrix = TestMatrix((rng.random((m, n)) < 0.5).astype(np.uint8))
    x = (rng.random(n) < 0.25).astype(np.uint8)
    return matrix, compute_syndrome(matrix, x)


class TestToyGolden:
    """Frozen values derived by enumerating the five vectors compatible with 101.

    With delta = 0.1 their prior masses give U1/U0 ratios 100/9 for element 0,
    0 for the silent-covered elements 1, 2, 4, and 19/90 for elements 3 and 5;
    the evidence is d(1-d)^5 + 3 d^2 (1-d)^4 + d^3 (1-d)^3.
    """

    def test_lapp(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        want = [math.log(9 / 100), math.inf, math.inf, math.log(90 / 19), math.inf, math.log(90 / 19)]
        assert np.allclose(result.lapp, want, rtol=1e-12)
        assert np.isposinf(result.lapp[[1, 2, 4]]).all()

    def test_posterior_pairs(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        pairs = posterior_pairs(result)
        want_defective = [100 / 109, 0.0, 0.0, 19 / 109, 0.0, 19 / 109]
        assert np.allclose(pairs[:, 1], want_defective, rtol=1e-12, atol=0)
        assert np.allclose(pairs.sum(axis=1), 1.0, rtol=1e-15)

    def test_log_evidence_closed_form(self, toy_matrix):
        d = PRIOR.delta
        want = d * (1 - d) ** 5 + 3 * d**2 * (1 - d) ** 4 + d**3 * (1 - d) ** 3
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        assert math.exp(result.log_evidence) == pytest.approx(want, rel=1e-12)


class TestKindEquality:
    def test_toy_all_three_kinds_agree(self, toy_matrix):
        complete = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        expurg = run(expurgate(build_complete(toy_matrix), T_101), PRIOR, Noiseless(), T_101)
        reduced = run(build_reduced(toy_matrix, T_101), PRIOR, Noiseless(), T_101)
        for other in (expurg, reduced):
            assert np.allclose(complete.lapp, other.lapp, rtol=1e-12, equal_nan=False)
            assert (complete.lapp == np.inf).tolist() == (other.lapp == np.inf).tolist()
            assert complete.log_evidence == pytest.approx(other.log_evidence, rel=1e-12)

    def test_randomized_instances_agree(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(40):
            matrix, t = _random_instance(rng)
            complete = run(build_complete(matrix), PRIOR, Noiseless(), t)
            expurg = run(expurgate(build_complete(matrix), t), PRIOR, Noiseless(), t)
            reduced = run(build_reduced(matrix, t), PRIOR, Noiseless(), t)
            for other in (expurg, reduced):
                finite = np.isfinite(complete.lapp)
                assert np.array_equal(finite, np.isfinite(other.lapp))
                assert np.allclose(complete.lapp[finite], other.lapp[finite], rtol=1e-12)
                assert complete.log_evidence == pytest.approx(other.log_evidence, rel=1e-12)

    def test_all_silent_outcome_forces_everything(self, toy_matrix):
        t = np.zeros(3, dtype=np.uint8)
        complete = run(build_complete(toy_matrix), PRIOR, Noiseless(), t)
        reduced = run(build_reduced(toy_matrix, t), PRIOR, Noiseless(), t)
        assert np.isposinf(complete.lapp).all()
        assert np.isposinf(reduced.lapp).all()
        assert reduced.zero_forced.tolist() == [0, 1, 2, 3, 4, 5]
        assert complete.log_evidence == pytest.approx(6 * math.log(0.9), rel=1e-12)
        assert reduced.log_evidence == pytest.approx(6 * math.log(0.9), rel=1e-12)


class TestOracleAgreement:
    def test_noiseless_exact_infinities(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        reference = enumerate_posteriors(toy_matrix, T_101, PRIOR, Noiseless())
        assert np.array_equal(result.lapp == np.inf, reference.mass1 == 0.0)
        finite = np.isfinite(result.lapp)
        assert np.allclose(result.lapp[finite], reference.lapp[finite], rtol=1e-12)

    @pytest.mark.parametrize("noise", [Bsc(0.05), Bsc(0.2)])
    def test_bsc_random_instances(self, noise):
        rng = np.random.Generator(np.random.Philox(key=23))
        for _ in range(20):
            matrix, t = _random_instance(rng, max_m=5, max_n=9)
            flips = (rng.random(matrix.m) < noise.epsilon).astype(np.uint8)
            t = t ^ flips
            result = run(build_complete(matrix), PRIOR, noise, t)
            reference = enumerate_posteriors(matrix, t, PRIOR, noise)
            assert np.allclose(result.lapp, reference.lapp, rtol=1e-11)
            assert math.exp(result.log_evidence) == pytest.approx(
                float(reference.total_mass[0]), rel=1e-11
            )


class TestConsistencyIdentities:
    def test_alpha_is_normalized_every_depth(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Bsc(0.05), T_101)
        for alpha in result.metrics.alpha:
            assert float(alpha.sum()) == pytest.approx(1.0, rel=1e-14)

    def test_section_evidence_is_constant(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Bsc(0.05), T_101)
        section = result.metrics.section_log_evidence
        assert np.allclose(section, result.log_evidence, rtol=1e-13)

    def test_bsc_zero_equals_noiseless_bitwise(self, toy_matrix):
        a = run(build_complete(toy_matrix), PRIOR, Bsc(0.0), T_101)
        b = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        assert np.array_equal(a.lapp, b.lapp)
        assert a.log_evidence == b.log_evidence

    def test_likelihood_scaling_leaves_lapp_invariant(self, toy_matrix):
        # power-of-two scale: exact in binary floats, so lapp must be bitwise equal
        scale = 4.0
        base = CustomNoise(lambda t, s: Bsc(0.05).likelihood(t, s))
        scaled = CustomNoise(lambda t, s: scale * Bsc(0.05).likelihood(t, s))
        trellis = build_complete(toy_matrix)
        a = run(trellis, PRIOR, base, T_101)
        b = run(trellis, PRIOR, scaled, T_101)
        assert np.array_equal(a.lapp, b.lapp)
        assert b.log_evidence - a.log_evidence == pytest.approx(math.log(scale), rel=1e-12)

    def test_forward_metric_matches_prefix_enumeration(self, toy_matrix):
        # alpha_l(s) must equal the total prior mass of length-l prefixes
        # reaching packed state s; checked by brute force at depth 3
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        trellis = build_complete(toy_matrix)
        depth = 3
        want = {}
        for bits in range(8):
            prefix = [(bits >> k) & 1 for k in range(depth)]
            state = walk_partial_syndromes(toy_matrix.entries, prefix)[depth]
            mass = PRIOR.delta ** sum(prefix) * (1 - PRIOR.delta) ** (depth - sum(prefix))
            want[state] = want.get(state, 0.0) + mass
        scaled = result.metrics.alpha[depth] * math.exp(result.metrics.alpha_log_scale[depth])
        for pos, state in enumerate(trellis.states[depth]):
            assert scaled[pos] == pytest.approx(want[int(state)], rel=1e-12)


class TestBranchMetric:
    def test_values(self):
        assert branch_metric(0, PRIOR) == 0.9
        assert branch_metric(1, PRIOR) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            branch_metric(2, PRIOR)


class TestValidation:
    def test_wrong_outcome_length(self, toy_matrix):
        with pytest.raises(ValueError):
            run(build_complete(toy_matrix), PRIOR, Noiseless(), [1, 0])

    def test_unreachable_noiseless_outcome(self):
        twin = TestMatrix(np.array([[1, 1], [1, 1]], dtype=np.uint8))
        with pytest.raises(NotASyndromeError):
            run(build_complete(twin), PRIOR, Noiseless(), [1, 0])

    def test_expurgated_requires_matching_outcome(self, toy_matrix):
        trellis = expurgate(build_complete(toy_matrix), T_101)
        with pytest.raises(ValueError):
            run(trellis, PRIOR, Noiseless(), [1, 1, 1])

    def test_expurgated_rejects_noise(self, toy_matrix):
        trellis = expurgate(build_complete(toy_matrix), T_101)
        with pytest.raises(ValueError):
            run(trellis, PRIOR, Bsc(0.05), T_101)

    def test_reduced_requires_matching_fired_set(self, toy_matrix):
        trellis = build_reduced(toy_matrix, T_101)
        with pytest.raises(ValueError):
            run(trellis, PRIOR, Noiseless(), [1, 1, 0])

    def test_custom_noise_guarded_to_small_m(self):
        matrix = TestMatrix(np.ones((17, 1), dtype=np.uint8))
        trellis = build_complete(matrix)
        noise = CustomNoise(lambda t, s: Bsc(0.1).likelihood(t, s))
        with pytest.raises(SizeLimitError):
            run(trellis, PRIOR, noise, np.ones(17, dtype=np.uint8))

    def test_custom_noise_evaluated_lazily_at_final_states(self, toy_matrix):
        calls = []

        def q(t, s):
            calls.append(tuple(s))
            return Bsc(0.1).likelihood(t, s)

        trellis = build_complete(toy_matrix)
        run(trellis, PRIOR, CustomNoise(q), T_101)
        assert len(calls) == trellis.final_states.size


class TestPosteriorTable:
    def test_rows_match_individual_runs_noiseless(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        outcomes = np.stack(
            [np.array([(s >> i) & 1 for i in range(3)], np.uint8) for s in trellis.final_states]
        )
        table = posterior_table(trellis, PRIOR, Noiseless(), outcomes)
        for k in range(outcomes.shape[0]):
            single = run(trellis, PRIOR, Noiseless(), outcomes[k])
            assert np.array_equal(table[k] == np.inf, single.lapp == np.inf)
            finite = np.isfinite(single.lapp)
            assert np.allclose(table[k][finite], single.lapp[finite], rtol=1e-12)

    def test_rows_match_individual_runs_bsc(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        outcomes = np.array([[0, 0, 0], [1, 0, 1], [1, 1, 1], [0, 1, 0]], np.uint8)
        table = posterior_table(trellis, PRIOR, Bsc(0.05), outcomes)
        for k in range(outcomes.shape[0]):
            single = run(trellis, PRIOR, Bsc(0.05), outcomes[k])
            assert np.allclose(table[k], single.lapp, rtol=1e-12)

    def test_unreachable_row_rejected_noiseless(self):
        twin = TestMatrix(np.array([[1, 1], [1, 1]], dtype=np.uint8))
        trellis = build_complete(twin)
        with pytest.raises(NotASyndromeError):
            posterior_table(trellis, PRIOR, Noiseless(), np.array([[0, 0], [1, 0]], np.uint8))

    def test_requires_complete_kind(self, toy_matrix):
        trellis = build_reduced(toy_matrix, T_101)
        with pytest.raises(ValueError):
            posterior_table(trellis, PRIOR, Noiseless(), T_101[None, :])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_non_binary_rows_rejected(self, toy_matrix, dtype):
        trellis = build_complete(toy_matrix)
        with pytest.raises(ValueError):
            posterior_table(trellis, PRIOR, Noiseless(), np.array([[2, 0, 1]], dtype))

    def test_empty_batch(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        table = posterior_table(trellis, PRIOR, Noiseless(), np.zeros((0, 3), np.uint8))
        assert table.shape == (0, 6)


class TestZeroForced:
    def test_reduced_reports_silent_covered_elements(self, toy_matrix):
        result = run(build_reduced(toy_matrix, T_101), PRIOR, Noiseless(), T_101)
        assert result.zero_forced.tolist() == [1, 2, 4]
        assert np.isposinf(result.lapp[result.zero_forced]).all()

    def test_complete_reports_none(self, toy_matrix):
        result = run(build_complete(toy_matrix), PRIOR, Noiseless(), T_101)
        assert result.zero_forced.size == 0
