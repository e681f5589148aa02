import gc
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

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
    bernoulli_matrix,
    branch_metric,
    build_complete,
    build_reduced,
    compute_syndrome,
    enumerate_posteriors,
    expurgate,
    forward_backward,
    posterior_pairs,
    posterior_table,
    run,
)
from helpers import walk_partial_syndromes

T_101 = np.array([1, 0, 1], dtype=np.uint8)
PRIOR = Prior(0.1)


def _traced_peak(call):
    """Peak bytes traced by tracemalloc above the starting level during `call()`."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


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
        _assert_alpha_is_prefix_mass(result.metrics, trellis, toy_matrix, PRIOR, depth=3)


def _assert_alpha_is_prefix_mass(metrics, trellis, matrix, prior, depth):
    want = {}
    for bits in range(1 << depth):
        prefix = [(bits >> k) & 1 for k in range(depth)]
        state = walk_partial_syndromes(matrix.entries, prefix)[depth]
        mass = prior.delta ** sum(prefix) * (1 - prior.delta) ** (depth - sum(prefix))
        want[state] = want.get(state, 0.0) + mass
    scaled = metrics.alpha[depth] * math.exp(metrics.alpha_log_scale[depth])
    for pos, state in enumerate(trellis.states[depth]):
        assert scaled[pos] == pytest.approx(want[int(state)], rel=1e-12)


class TestAlphaCache:
    def test_cached_alpha_is_read_only_and_reused(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        first = run(trellis, PRIOR, Bsc(0.05), T_101)
        with pytest.raises(ValueError):
            first.metrics.alpha[2][0] = 0.5
        with pytest.raises(ValueError):
            first.metrics.alpha_log_scale[0] = 1.0
        second = run(trellis, PRIOR, Bsc(0.05), T_101)
        assert second.metrics.alpha is first.metrics.alpha
        assert np.array_equal(second.lapp, first.lapp)
        assert second.log_evidence == first.log_evidence

    def test_two_priors_on_one_trellis(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        low = run(trellis, Prior(0.1), Noiseless(), T_101)
        high = run(trellis, Prior(0.3), Noiseless(), T_101)
        assert not np.array_equal(low.metrics.alpha[3], high.metrics.alpha[3])
        for prior, result in ((Prior(0.1), low), (Prior(0.3), high)):
            for depth in range(trellis.n + 1):
                _assert_alpha_is_prefix_mass(result.metrics, trellis, toy_matrix, prior, depth)
            fresh = run(build_complete(toy_matrix), prior, Noiseless(), T_101)
            assert np.array_equal(result.lapp, fresh.lapp)
        again = run(trellis, Prior(0.1), Noiseless(), T_101)
        assert np.array_equal(again.metrics.alpha[3], low.metrics.alpha[3])
        assert np.array_equal(again.lapp, low.lapp)

    def test_dropped_trellis_leaves_the_cache(self, toy_matrix):
        gc.collect()
        before = len(forward_backward._ALPHA_CACHE)
        trellis = build_complete(toy_matrix)
        alpha = weakref.ref(run(trellis, PRIOR, Noiseless(), T_101).metrics.alpha[1])
        assert trellis in forward_backward._ALPHA_CACHE
        assert len(forward_backward._ALPHA_CACHE) == before + 1
        del trellis
        gc.collect()
        assert len(forward_backward._ALPHA_CACHE) == before
        assert alpha() is None


    def test_threads_alternating_priors_on_one_trellis(self):
        matrix = bernoulli_matrix(8, 24, 0.2, 0)
        trellis = build_complete(matrix)
        priors = [Prior(0.05), Prior(0.2)]
        t = compute_syndrome(matrix, (np.arange(24) % 7 == 0).astype(np.uint8))
        want = [run(build_complete(matrix), prior, Bsc(0.05), t).lapp for prior in priors]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, trellis, priors[i % 2], Bsc(0.05), t) for i in range(64)]
                lapps = [f.result(timeout=60).lapp for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, lapp in enumerate(lapps):
            assert np.array_equal(lapp, want[i % 2])


class TestStreamingBackward:
    """The backward step gathers each label in left-state order, with 0 where
    a left state has no edge of that label, and takes one update for every
    section, complete or pruned."""

    @pytest.mark.parametrize("noise", [Bsc(0.1), Noiseless()], ids=["bsc", "noiseless"])
    def test_table_rows_match_runs(self, noise):
        rng = np.random.Generator(np.random.Philox(key=31))
        for _ in range(6):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 25))
            matrix = TestMatrix((rng.random((m, n)) < 0.3).astype(np.uint8))
            trellis = build_complete(matrix)
            xs = (rng.random((12, n)) < 0.2).astype(np.uint8)
            outcomes = np.stack([compute_syndrome(matrix, x) for x in xs])
            if isinstance(noise, Bsc):
                outcomes ^= (rng.random(outcomes.shape) < noise.epsilon).astype(np.uint8)
            table = posterior_table(trellis, PRIOR, noise, outcomes)
            for row, t in zip(table, outcomes):
                single = run(trellis, PRIOR, noise, t)
                assert np.array_equal(np.isposinf(row), np.isposinf(single.lapp))
                assert np.array_equal(np.isneginf(row), np.isneginf(single.lapp))
                finite = np.isfinite(single.lapp)
                assert np.allclose(row[finite], single.lapp[finite], rtol=1e-12, atol=1e-12)
                section = single.metrics.section_log_evidence
                assert np.allclose(section, single.log_evidence, rtol=1e-12, atol=0)
                alone = posterior_table(trellis, PRIOR, noise, t[None])[0]
                assert np.array_equal(alone, single.lapp)

    def test_run_holds_one_beta_at_a_time(self):
        matrix = bernoulli_matrix(10, 40, 0.15, 0)
        trellis = build_complete(matrix)
        noise = Bsc(0.1)
        t = compute_syndrome(matrix, (np.arange(40) % 9 == 0).astype(np.uint8))
        run(trellis, PRIOR, noise, t)  # caches alpha, so both calls below skip it
        table_peak = _traced_peak(lambda: posterior_table(trellis, PRIOR, noise, t[None]))
        run_peak = _traced_peak(lambda: run(trellis, PRIOR, noise, t))
        assert run_peak <= 1.5 * table_peak

    def test_table_peak_stays_near_three_betas(self):
        # beta_final is one of the pass's three (max states, K) work arrays;
        # a pass that allocates its gathers per depth peaks above 4 of them
        matrix = bernoulli_matrix(10, 40, 0.2, 0)
        trellis = build_complete(matrix)
        rows = (np.random.default_rng(0).random((200, matrix.m)) < 0.5).astype(np.uint8)
        posterior_table(trellis, PRIOR, Bsc(0.1), rows[:1])  # caches alpha
        peak = _traced_peak(lambda: posterior_table(trellis, PRIOR, Bsc(0.1), rows))
        assert peak <= 3.6 * max(trellis.state_counts) * rows.shape[0] * 8

    def test_pruned_trellises_match_the_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=37))
        partial = 0
        for _ in range(12):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 15))
            matrix = TestMatrix((rng.random((m, n)) < 0.3).astype(np.uint8))
            t = compute_syndrome(matrix, (rng.random(n) < 0.3).astype(np.uint8))
            reference = enumerate_posteriors(matrix, t, PRIOR, Noiseless())
            for trellis in (expurgate(build_complete(matrix), t), build_reduced(matrix, t)):
                partial += sum(
                    min(sec.zero_src.size, sec.one_src.size) < trellis.states[ell].size
                    for ell, sec in enumerate(trellis.sections)
                )
                result = run(trellis, PRIOR, Noiseless(), t)
                assert np.array_equal(np.isposinf(result.lapp), reference.mass1 == 0.0)
                assert np.array_equal(np.isneginf(result.lapp), reference.mass0 == 0.0)
                finite = np.isfinite(result.lapp)
                assert np.allclose(result.lapp[finite], reference.lapp[finite], rtol=1e-11)
                assert math.exp(result.log_evidence) == pytest.approx(
                    float(reference.total_mass[0]), rel=1e-11
                )
                section = result.metrics.section_log_evidence  # empty when n = 0
                assert np.allclose(section, section[:1], rtol=1e-12, atol=0)
        assert partial > 0


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
        assert len(calls) == trellis.states[-1].size


class TestPosteriorTable:
    def test_rows_match_individual_runs_noiseless(self, toy_matrix):
        trellis = build_complete(toy_matrix)
        outcomes = np.stack(
            [np.array([(s >> i) & 1 for i in range(3)], np.uint8) for s in trellis.states[-1]]
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
        for trellis in (
            build_reduced(toy_matrix, T_101),
            expurgate(build_complete(toy_matrix), T_101),
        ):
            with pytest.raises(ValueError, match="complete trellis"):
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
